//! Decompressor for the DPLZ container.

use super::bitstream::BitReader;
use super::encode::MAGIC;
use super::huffman::{DecodeSymbolError, Decoder};
use super::{DIST_TABLE, EOB, LENGTH_TABLE, MAX_MATCH, NUM_DIST, NUM_LITLEN, WINDOW_SIZE};

/// Decompression failures (corrupt or truncated input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than the fixed header.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// A Huffman symbol used an unassigned bit pattern.
    BadSymbol,
    /// A back-reference pointed before the output start or beyond the
    /// window.
    BadReference,
    /// Stream ended before the declared original length was produced.
    UnexpectedEof,
    /// A declared symbol is outside its alphabet.
    BadAlphabet,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let msg = match self {
            DecodeError::Truncated => "input shorter than header",
            DecodeError::BadMagic => "bad magic",
            DecodeError::BadSymbol => "invalid Huffman code",
            DecodeError::BadReference => "back-reference out of range",
            DecodeError::UnexpectedEof => "stream ended early",
            DecodeError::BadAlphabet => "symbol outside alphabet",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for DecodeError {}

impl From<DecodeSymbolError> for DecodeError {
    fn from(e: DecodeSymbolError) -> Self {
        match e {
            DecodeSymbolError::BadCode => DecodeError::BadSymbol,
            DecodeSymbolError::OutOfBits => DecodeError::UnexpectedEof,
        }
    }
}

/// Decompresses a DPLZ container produced by [`super::compress`].
pub fn decompress(input: &[u8]) -> Result<Vec<u8>, DecodeError> {
    if input.len() < 12 {
        return Err(DecodeError::Truncated);
    }
    if &input[0..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let orig_len = u64::from_le_bytes(input[4..12].try_into().expect("sliced 8 bytes"));
    // Each token costs at least one code bit, and a back-reference (at
    // most MAX_MATCH bytes) at least two, so the body's bits bound the
    // output. A header claiming more is corrupt; reject it before
    // reserving memory for it.
    let max_out = (input.len() - 12).saturating_mul(8 * (MAX_MATCH / 2));
    if orig_len > max_out as u64 {
        return Err(DecodeError::UnexpectedEof);
    }
    let orig_len = orig_len as usize;
    let mut r = BitReader::new(&input[12..]);
    let mut out: Vec<u8> = Vec::with_capacity(orig_len);

    while out.len() < orig_len {
        // Read block tables.
        let mut litlen_lengths = vec![0u8; NUM_LITLEN];
        for l in litlen_lengths.iter_mut() {
            *l = r.read_bits(4).map_err(|_| DecodeError::UnexpectedEof)? as u8;
        }
        let mut dist_lengths = vec![0u8; NUM_DIST];
        for l in dist_lengths.iter_mut() {
            *l = r.read_bits(4).map_err(|_| DecodeError::UnexpectedEof)? as u8;
        }
        let litlen = Decoder::from_lengths(&litlen_lengths);
        let dist_dec = Decoder::from_lengths(&dist_lengths);

        loop {
            let sym = litlen.read(&mut r)?;
            if sym == EOB {
                break;
            }
            if sym < 256 {
                out.push(sym as u8);
                continue;
            }
            let lidx = (sym - 257) as usize;
            if lidx >= LENGTH_TABLE.len() {
                return Err(DecodeError::BadAlphabet);
            }
            let (lbase, lbits) = LENGTH_TABLE[lidx];
            let lextra = if lbits > 0 {
                r.read_bits(lbits as u32)
                    .map_err(|_| DecodeError::UnexpectedEof)?
            } else {
                0
            };
            let len = lbase as usize + lextra as usize;

            let dsym = dist_dec.read(&mut r)? as usize;
            if dsym >= DIST_TABLE.len() {
                return Err(DecodeError::BadAlphabet);
            }
            let (dbase, dbits) = DIST_TABLE[dsym];
            let dextra = if dbits > 0 {
                r.read_bits(dbits as u32)
                    .map_err(|_| DecodeError::UnexpectedEof)?
            } else {
                0
            };
            let distance = dbase as usize + dextra as usize;
            if distance == 0 || distance > out.len() || distance > WINDOW_SIZE {
                return Err(DecodeError::BadReference);
            }
            // An overlapping copy (distance < len) repeats the last
            // `distance` bytes; each pass copies only bytes already final.
            let start = out.len() - distance;
            let mut left = len;
            while left > 0 {
                let chunk = left.min(out.len() - start);
                out.extend_from_within(start..start + chunk);
                left -= chunk;
            }
        }
    }
    if out.len() != orig_len {
        return Err(DecodeError::UnexpectedEof);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::super::compress;
    use super::*;

    fn round_trip(data: &[u8]) {
        let packed = compress(data);
        let back = decompress(&packed).expect("decompress");
        assert_eq!(back, data);
    }

    #[test]
    fn round_trip_empty() {
        round_trip(b"");
    }

    #[test]
    fn round_trip_short_strings() {
        round_trip(b"a");
        round_trip(b"ab");
        round_trip(b"hello, world");
    }

    #[test]
    fn round_trip_repetitive() {
        round_trip(&b"abcdefgh".repeat(10_000));
    }

    #[test]
    fn round_trip_all_byte_values() {
        let data: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
        round_trip(&data);
    }

    #[test]
    fn round_trip_pseudorandom() {
        let mut x = 0x12345678u32;
        let data: Vec<u8> = (0..200_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x as u8
            })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn round_trip_multi_block() {
        // > BLOCK_SIZE input forces several dynamic blocks.
        let mut data = Vec::new();
        for i in 0..30_000u32 {
            data.extend_from_slice(format!("row-{i}|value={}|", i * 31).as_bytes());
        }
        assert!(data.len() > 3 * super::super::BLOCK_SIZE);
        round_trip(&data);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut packed = compress(b"payload");
        packed[0] ^= 0xFF;
        assert_eq!(decompress(&packed), Err(DecodeError::BadMagic));
    }

    #[test]
    fn rejects_truncated_header() {
        assert_eq!(decompress(b"DPL"), Err(DecodeError::Truncated));
    }

    #[test]
    fn rejects_truncated_body() {
        let packed = compress(&b"some reasonably long input to compress".repeat(50));
        let cut = &packed[..packed.len() / 2];
        assert!(decompress(cut).is_err());
    }

    #[test]
    fn corrupt_length_high_bytes_are_rejected() {
        // A huge declared length must come back as an error, not abort
        // the process trying to reserve it.
        for byte in 5..12 {
            let mut packed = compress(b"abcabcabc");
            packed[byte] = 0xFF;
            assert_eq!(
                decompress(&packed),
                Err(DecodeError::UnexpectedEof),
                "byte {byte}"
            );
        }
        let mut packed = compress(b"abcabcabc");
        packed[4..12].fill(0xFF);
        assert_eq!(decompress(&packed), Err(DecodeError::UnexpectedEof));
    }

    #[test]
    fn length_bound_admits_the_densest_stream() {
        // Runs of one byte are the densest output the encoder makes; the
        // header bound must never reject an honest container.
        let data = vec![0u8; 1 << 20];
        assert_eq!(decompress(&compress(&data)).unwrap(), data);
    }

    #[test]
    fn corrupt_length_field_detected() {
        let mut packed = compress(b"abcabcabc");
        // Inflate the declared length: decoder must hit EOF, not loop.
        packed[4] = packed[4].wrapping_add(100);
        assert!(decompress(&packed).is_err());
    }
}

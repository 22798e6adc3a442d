//! A DEFLATE-class lossless codec: LZ77 matching with hash chains feeding
//! canonical Huffman coding of literal/length and distance symbols.
//!
//! The container format is our own (we do not target RFC 1951 bitstream
//! compatibility — nothing in the paper requires interoperating with zlib,
//! only that the kernel performs real DEFLATE-style work), but the
//! algorithmic structure matches RFC 1951: a 32 KB sliding window, length
//! codes 3–258, distance codes up to 32 KB, and per-block dynamic Huffman
//! tables transmitted as code lengths.
//!
//! ```
//! use dpdpu_kernels::deflate::{compress, decompress};
//!
//! let data = b"the quick brown fox jumps over the quick brown dog".to_vec();
//! let packed = compress(&data);
//! assert_eq!(decompress(&packed).unwrap(), data);
//! ```

mod bitstream;
mod decode;
mod encode;
mod huffman;
mod lz77;

pub use decode::{decompress, DecodeError};
pub use encode::compress;

/// Sliding-window size (32 KB, as in RFC 1951).
pub(crate) const WINDOW_SIZE: usize = 32 * 1024;
/// Minimum back-reference match length.
pub(crate) const MIN_MATCH: usize = 3;
/// Maximum back-reference match length.
pub(crate) const MAX_MATCH: usize = 258;
/// Input block size per dynamic-Huffman block.
pub(crate) const BLOCK_SIZE: usize = 64 * 1024;

/// Literal/length alphabet: 256 literals + end-of-block + 29 length codes.
pub(crate) const NUM_LITLEN: usize = 286;
/// End-of-block symbol.
pub(crate) const EOB: u16 = 256;
/// Distance alphabet size.
pub(crate) const NUM_DIST: usize = 30;

/// RFC 1951 length code table: (symbol - 257) -> (base length, extra bits).
pub(crate) const LENGTH_TABLE: [(u16, u8); 29] = [
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 0),
    (8, 0),
    (9, 0),
    (10, 0),
    (11, 1),
    (13, 1),
    (15, 1),
    (17, 1),
    (19, 2),
    (23, 2),
    (27, 2),
    (31, 2),
    (35, 3),
    (43, 3),
    (51, 3),
    (59, 3),
    (67, 4),
    (83, 4),
    (99, 4),
    (115, 4),
    (131, 5),
    (163, 5),
    (195, 5),
    (227, 5),
    (258, 0),
];

/// RFC 1951 distance code table: symbol -> (base distance, extra bits).
pub(crate) const DIST_TABLE: [(u16, u8); 30] = [
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (7, 1),
    (9, 2),
    (13, 2),
    (17, 3),
    (25, 3),
    (33, 4),
    (49, 4),
    (65, 5),
    (97, 5),
    (129, 6),
    (193, 6),
    (257, 7),
    (385, 7),
    (513, 8),
    (769, 8),
    (1025, 9),
    (1537, 9),
    (2049, 10),
    (3073, 10),
    (4097, 11),
    (6145, 11),
    (8193, 12),
    (12289, 12),
    (16385, 13),
    (24577, 13),
];

/// Maps a match length (3..=258) to (symbol, extra bits, extra value).
pub(crate) fn length_to_symbol(len: usize) -> (u16, u8, u16) {
    debug_assert!((MIN_MATCH..=MAX_MATCH).contains(&len));
    // Lengths 3..=10 have one code each; above that, each extra bit
    // doubles a group of 4 codes. Length 258 has its own code (idx 28);
    // lengths 227..=257 use idx 27.
    let x = len - MIN_MATCH;
    let idx = if len == MAX_MATCH {
        28
    } else if x < 8 {
        x
    } else {
        let extra = x.ilog2() as usize - 2;
        4 * extra + 4 + ((x >> extra) & 3)
    };
    let (base, extra_bits) = LENGTH_TABLE[idx];
    (257 + idx as u16, extra_bits, (len - base as usize) as u16)
}

/// Maps a match distance (1..=32768) to (symbol, extra bits, extra value).
pub(crate) fn distance_to_symbol(dist: usize) -> (u16, u8, u16) {
    debug_assert!((1..=WINDOW_SIZE).contains(&dist));
    // Distances 1..=4 have one code each; above that, each extra bit
    // doubles a pair of codes.
    let d = dist - 1;
    let idx = if d < 4 {
        d
    } else {
        let extra = d.ilog2() as usize - 1;
        2 * extra + 2 + ((d >> extra) & 1)
    };
    let (base, extra_bits) = DIST_TABLE[idx];
    (idx as u16, extra_bits, (dist - base as usize) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn length_symbol_round_trip() {
        for len in MIN_MATCH..=MAX_MATCH {
            let (sym, extra_bits, extra) = length_to_symbol(len);
            assert!((257..=285).contains(&sym), "len={len} sym={sym}");
            let (base, bits) = LENGTH_TABLE[(sym - 257) as usize];
            assert_eq!(bits, extra_bits);
            assert_eq!(base as usize + extra as usize, len);
            assert!(extra < (1 << extra_bits) || extra_bits == 0 && extra == 0);
        }
    }

    #[test]
    fn distance_symbol_round_trip() {
        for dist in 1..=WINDOW_SIZE {
            let (sym, extra_bits, extra) = distance_to_symbol(dist);
            assert!((sym as usize) < NUM_DIST);
            let (base, bits) = DIST_TABLE[sym as usize];
            assert_eq!(bits, extra_bits);
            assert_eq!(base as usize + extra as usize, dist);
        }
    }

    #[test]
    fn max_length_uses_dedicated_symbol() {
        let (sym, extra_bits, extra) = length_to_symbol(258);
        assert_eq!(sym, 285);
        assert_eq!(extra_bits, 0);
        assert_eq!(extra, 0);
    }
}

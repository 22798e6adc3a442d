//! Pins the exact bytes `deflate::compress` emits. Compressed sizes set
//! the simulated TCP segment counts and the golden traces, so any encoder
//! change, however it speeds things up, must leave these containers
//! byte-identical: each case asserts the container's length and CRC-32.

use dpdpu_kernels::crc32::crc32;
use dpdpu_kernels::deflate::compress;
use dpdpu_kernels::text::natural_text;

fn check(name: &str, data: &[u8], len: usize, crc: u32) {
    let packed = compress(data);
    assert_eq!(
        (packed.len(), crc32(&packed)),
        (len, crc),
        "{name}: compressed container changed (got len {}, crc {:#010x})",
        packed.len(),
        crc32(&packed)
    );
}

#[test]
fn natural_text_containers_are_pinned() {
    // (seed, input size, container length, container CRC-32). The 1 MiB
    // inputs span 16 dynamic-Huffman blocks.
    let cases: [(u64, usize, usize, u32); 9] = [
        (1, 8 * 1024, 3281, 0xfcd9_e5f7),
        (1, 100_000, 34_496, 0xd690_2de1),
        (1, 1024 * 1024, 353_115, 0xd1f3_ddab),
        (7, 8 * 1024, 3326, 0x5ec8_e681),
        (7, 100_000, 34_428, 0xe158_6169),
        (7, 1024 * 1024, 353_273, 0xc7c2_0e0b),
        (42, 8 * 1024, 3309, 0xdea2_db57),
        (42, 100_000, 34_465, 0xe864_adc5),
        (42, 1024 * 1024, 353_393, 0x4e2e_7c01),
    ];
    for (seed, size, len, crc) in cases {
        let name = format!("natural_text({size}, {seed})");
        check(&name, &natural_text(size, seed), len, crc);
    }
}

#[test]
fn all_same_byte_container_is_pinned() {
    check("all 'a'", &vec![b'a'; 100_000], 427, 0x85ae_9161);
}

#[test]
fn noise_container_is_pinned() {
    let mut x = 0x2545_F491u32;
    let noise: Vec<u8> = (0..65_536)
        .map(|_| {
            x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
            (x >> 16) as u8
        })
        .collect();
    check("LCG noise", &noise, 65_749, 0x804f_0da7);
}

#[test]
fn byte_cycle_container_is_pinned() {
    let cycle: Vec<u8> = (0..=255u8).cycle().take(70_000).collect();
    check("0..=255 cycled", &cycle, 890, 0x832d_80b4);
}

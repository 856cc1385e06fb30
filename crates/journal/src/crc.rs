//! CRC-32 (IEEE 802.3), hand-rolled over a lazily built lookup table.
//!
//! The journal cannot vendor a checksum crate (the dependency set is
//! frozen), and the reflected CRC-32 used by zlib/PNG is a page of code.
//! Every record and checkpoint carries one of these over its payload so
//! recovery can tell a torn or bit-flipped tail from valid data.

use std::sync::OnceLock;

/// The reflected polynomial of CRC-32/ISO-HDLC (zlib, PNG, Ethernet).
const POLY: u32 = 0xEDB8_8320;

fn table() -> &'static [u32; 256] {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut crc = u32::try_from(i).unwrap_or(0);
            for _ in 0..8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        t
    })
}

/// The CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        #[expect(clippy::cast_possible_truncation, reason = "the low byte is the point")]
        let idx = usize::from((crc as u8) ^ b);
        crc = (crc >> 8) ^ t[idx];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The CRC catalogue's check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let base = crc32(b"journal record payload");
        let mut flipped = b"journal record payload".to_vec();
        for i in 0..flipped.len() {
            for bit in 0..8 {
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip at byte {i} bit {bit}");
                flipped[i] ^= 1 << bit;
            }
        }
    }
}

//! Record framing: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//!
//! The frame is deliberately minimal: a length so the reader can skip to
//! the next record, and a checksum so it can tell a complete record from
//! a torn or corrupted one. Recovery never trusts `len` alone — a record
//! only counts when its payload is fully present *and* its CRC matches.

use crate::crc::crc32;

/// Bytes of the fixed frame header.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single record's payload (16 MiB). A `len` field
/// beyond this is treated as corruption, not as an instruction to seek
/// gigabytes ahead.
pub const MAX_PAYLOAD: usize = 16 * 1024 * 1024;

/// Frames one payload into `[len][crc][payload]` bytes.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    let len = u32::try_from(payload.len()).unwrap_or(u32::MAX);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The payload length and CRC a frame header holds; `None` when
/// `header` is not [`HEADER_LEN`] bytes or the length is past
/// [`MAX_PAYLOAD`].
pub fn parse_header(header: &[u8]) -> Option<(usize, u32)> {
    let word = |i: usize| {
        let mut word = [0; 4];
        word.copy_from_slice(&header[4 * i..4 * (i + 1)]);
        u32::from_le_bytes(word)
    };
    if header.len() != HEADER_LEN {
        return None;
    }
    let len = usize::try_from(word(0))
        .ok()
        .filter(|&len| len <= MAX_PAYLOAD)?;
    Some((len, word(1)))
}

/// What decoding at an offset found.
#[derive(Debug, PartialEq, Eq)]
pub enum Decoded<'a> {
    /// A complete, checksum-valid record; `next` is the offset just past
    /// it.
    Record {
        /// The record payload.
        payload: &'a [u8],
        /// Offset of the byte after this record.
        next: usize,
    },
    /// The bytes from this offset to EOF do not form a complete record —
    /// a torn tail (partial header, short payload) or a corrupt one
    /// (implausible length, CRC mismatch). Either way recovery must
    /// truncate here: nothing past an invalid frame can be trusted,
    /// because record boundaries are only defined by walking valid
    /// frames.
    Invalid,
    /// The offset is exactly at EOF: a clean end.
    End,
}

/// Decodes the record starting at `offset` in `buf`.
pub fn decode(buf: &[u8], offset: usize) -> Decoded<'_> {
    if offset == buf.len() {
        return Decoded::End;
    }
    let Some(header) = buf.get(offset..offset + HEADER_LEN) else {
        return Decoded::Invalid; // partial header at the tail
    };
    let Some((len, crc)) = parse_header(header) else {
        return Decoded::Invalid;
    };
    let start = offset + HEADER_LEN;
    let Some(payload) = buf.get(start..start + len) else {
        return Decoded::Invalid; // short payload at the tail
    };
    if crc32(payload) != crc {
        return Decoded::Invalid;
    }
    Decoded::Record {
        payload,
        next: start + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let frame = encode(b"hello");
        match decode(&frame, 0) {
            Decoded::Record { payload, next } => {
                assert_eq!(payload, b"hello");
                assert_eq!(next, frame.len());
            }
            other => panic!("expected record, got {other:?}"),
        }
        assert_eq!(decode(&frame, frame.len()), Decoded::End);
    }

    #[test]
    fn empty_payload_is_a_valid_record() {
        let frame = encode(b"");
        assert!(matches!(
            decode(&frame, 0),
            Decoded::Record { payload: b"", .. }
        ));
    }

    #[test]
    fn every_truncation_is_invalid() {
        let frame = encode(b"some payload bytes");
        for cut in 0..frame.len() {
            if cut == 0 {
                assert_eq!(decode(&frame[..0], 0), Decoded::End);
            } else {
                assert_eq!(decode(&frame[..cut], 0), Decoded::Invalid, "cut {cut}");
            }
        }
    }

    #[test]
    fn bit_flips_are_invalid() {
        let frame = encode(b"payload");
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(
                !matches!(
                    decode(&bad, 0),
                    Decoded::Record {
                        payload: b"payload",
                        ..
                    }
                ),
                "flip at {i} went unnoticed"
            );
        }
    }

    #[test]
    fn implausible_length_is_invalid_not_a_seek() {
        let mut frame = encode(b"x");
        frame[0..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode(&frame, 0), Decoded::Invalid);
    }
}

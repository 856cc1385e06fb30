//! Reading back the fixed-layout little-endian payloads a program
//! journals and checkpoints for itself.
//!
//! A writer appends each field with `to_le_bytes` (a run of `f64`s with
//! [`put_f64s`]); a [`Reader`] takes them back in the same order. Every
//! read fails as `InvalidData` naming the field when the bytes run out,
//! [`Reader::finish`] refuses bytes left over, and a count read from
//! the payload is checked against the bytes left before anything is
//! allocated, so a damaged count cannot ask for gigabytes.

use std::io;

/// Appends `values` as a `u64` count, then each value's bits.
pub fn put_f64s(out: &mut Vec<u8>, values: &[f64]) {
    out.extend_from_slice(
        &u64::try_from(values.len())
            .unwrap_or(u64::MAX)
            .to_le_bytes(),
    );
    for v in values {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
}

/// A cursor over one payload.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes }
    }

    /// The next `n` bytes, which hold `what`.
    pub fn take(&mut self, n: usize, what: &str) -> io::Result<&'a [u8]> {
        if n > self.bytes.len() {
            return Err(invalid(format!(
                "truncated: {what} needs {n} bytes, {} left",
                self.bytes.len()
            )));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, what: &str) -> io::Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N, what)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self, what: &str) -> io::Result<u8> {
        Ok(self.array::<1>(what)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> io::Result<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> io::Result<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A little-endian `i64`.
    pub fn i64(&mut self, what: &str) -> io::Result<i64> {
        self.array(what).map(i64::from_le_bytes)
    }

    /// An `f64` from its little-endian bits.
    pub fn f64(&mut self, what: &str) -> io::Result<f64> {
        self.u64(what).map(f64::from_bits)
    }

    /// A `u64` count of items `width` bytes wide, refused unless that
    /// many items fit in the bytes left.
    pub fn count(&mut self, width: usize, what: &str) -> io::Result<usize> {
        let n = self.u64(what)?;
        let left = self.bytes.len();
        usize::try_from(n)
            .ok()
            .filter(|&n| n.checked_mul(width).is_some_and(|bytes| bytes <= left))
            .ok_or_else(|| {
                invalid(format!(
                    "truncated: {what} counts {n} items of {width} bytes, {left} left"
                ))
            })
    }

    /// A run of `f64`s as [`put_f64s`] wrote it.
    pub fn f64s(&mut self, what: &str) -> io::Result<Vec<f64>> {
        let n = self.count(8, what)?;
        let bytes = self.take(8 * n, what)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|word| {
                let mut bits = [0; 8];
                bits.copy_from_slice(word);
                f64::from_bits(u64::from_le_bytes(bits))
            })
            .collect())
    }

    /// Everything not read yet.
    pub fn rest(self) -> &'a [u8] {
        self.bytes
    }

    /// Ends the read of `what`, refusing bytes left over.
    pub fn finish(self, what: &str) -> io::Result<()> {
        match self.bytes.len() {
            0 => Ok(()),
            n => Err(invalid(format!("{what} is over-long: {n} bytes left over"))),
        }
    }
}

/// An `InvalidData` error.
pub fn invalid(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_read_back_in_order_and_leftovers_are_refused() {
        let mut bytes = vec![7];
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        bytes.extend_from_slice(&(-5i64).to_le_bytes());
        put_f64s(&mut bytes, &[-0.0, 1.5]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("tag").expect("tag"), 7);
        assert_eq!(r.u32("word").expect("word"), 0xDEAD_BEEF);
        assert_eq!(r.i64("hour").expect("hour"), -5);
        let values = r.f64s("values").expect("values");
        assert_eq!(values[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(values[1].to_bits(), 1.5f64.to_bits());
        r.finish("payload").expect("nothing left");

        let long = [bytes.as_slice(), &[0]].concat();
        let mut r = Reader::new(&long);
        r.take(bytes.len(), "payload").expect("whole");
        let e = r.finish("payload").expect_err("one byte left");
        assert!(e.to_string().contains("payload is over-long"), "{e}");
    }

    #[test]
    fn a_short_read_or_a_count_past_the_end_is_refused_as_invalid_data() {
        let e = Reader::new(&[1, 2]).u32("word").expect_err("two bytes");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("word needs 4 bytes, 2 left"), "{e}");
        let mut bytes = Vec::new();
        put_f64s(&mut bytes, &[1.0, 2.0]);
        bytes.truncate(bytes.len() - 1);
        let e = Reader::new(&bytes).f64s("tail").expect_err("a byte short");
        assert!(e.to_string().contains("tail counts 2 items"), "{e}");
        let huge = u64::MAX.to_le_bytes();
        let e = Reader::new(&huge).f64s("tail").expect_err("no allocation");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
    }
}

//! Half-open hour intervals.

use crate::hour::Hour;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open interval of hours, `[start, end)`.
///
/// Used for time frames requested from the trends service, for detected
/// spike extents and for ground-truth event windows. The half-open
/// convention makes lengths and adjacency checks exact: a weekly frame is
/// `start..start+168` and contains exactly 168 hourly blocks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct HourRange {
    /// First hour in the range (inclusive).
    pub start: Hour,
    /// One past the last hour in the range (exclusive).
    pub end: Hour,
}

impl HourRange {
    /// Builds a range; panics if `end < start` (empty ranges with
    /// `end == start` are allowed).
    pub fn new(start: Hour, end: Hour) -> Self {
        assert!(end >= start, "range end before start: {start:?}..{end:?}");
        HourRange { start, end }
    }

    /// A range starting at `start` and spanning `len` hours.
    pub fn with_len(start: Hour, len: i64) -> Self {
        assert!(len >= 0, "negative range length: {len}");
        HourRange {
            start,
            end: start + len,
        }
    }

    /// Number of hourly blocks in the range.
    pub fn len(&self) -> i64 {
        self.end - self.start
    }

    /// True if the range contains no hours.
    pub fn is_empty(&self) -> bool {
        self.end == self.start
    }

    /// True if `h` lies within `[start, end)`.
    pub fn contains(&self, h: Hour) -> bool {
        h >= self.start && h < self.end
    }

    /// The intersection with `other`, or `None` if they are disjoint.
    pub fn intersect(&self, other: &HourRange) -> Option<HourRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(HourRange { start, end })
        } else {
            None
        }
    }

    /// True if the two ranges share at least one hour.
    pub fn overlaps(&self, other: &HourRange) -> bool {
        self.intersect(other).is_some()
    }

    /// The smallest range covering both `self` and `other`.
    pub fn hull(&self, other: &HourRange) -> HourRange {
        HourRange {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        }
    }

    /// Iterates over every hour in the range, in order.
    pub fn iter(&self) -> impl Iterator<Item = Hour> + '_ {
        (self.start.0..self.end.0).map(Hour)
    }
}

impl fmt::Debug for HourRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(a: i64, b: i64) -> HourRange {
        HourRange::new(Hour(a), Hour(b))
    }

    #[test]
    fn len_and_contains() {
        let w = HourRange::with_len(Hour(10), 168);
        assert_eq!(w.len(), 168);
        assert!(w.contains(Hour(10)));
        assert!(w.contains(Hour(177)));
        assert!(!w.contains(Hour(178)));
        assert!(!w.contains(Hour(9)));
        assert!(!w.is_empty());
        assert!(r(5, 5).is_empty());
    }

    #[test]
    fn intersection_cases() {
        assert_eq!(r(0, 10).intersect(&r(5, 15)), Some(r(5, 10)));
        assert_eq!(r(0, 10).intersect(&r(10, 20)), None); // touching, half-open
        assert_eq!(r(0, 10).intersect(&r(20, 30)), None);
        assert_eq!(r(0, 30).intersect(&r(10, 20)), Some(r(10, 20)));
        assert!(r(0, 10).overlaps(&r(9, 11)));
        assert!(!r(0, 10).overlaps(&r(10, 11)));
    }

    #[test]
    fn hull_covers_both() {
        assert_eq!(r(0, 5).hull(&r(10, 12)), r(0, 12));
        assert_eq!(r(10, 12).hull(&r(0, 5)), r(0, 12));
    }

    #[test]
    fn iteration_matches_len() {
        let w = r(3, 8);
        let hours: Vec<_> = w.iter().collect();
        assert_eq!(hours.len() as i64, w.len());
        assert_eq!(hours[0], Hour(3));
        assert_eq!(*hours.last().unwrap(), Hour(7));
    }

    #[test]
    #[should_panic(expected = "range end before start")]
    fn rejects_reversed() {
        let _ = r(10, 0);
    }
}

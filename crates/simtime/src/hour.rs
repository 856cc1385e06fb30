//! The [`Hour`] timestamp: hours since 2020-01-01 00:00 UTC.

use crate::civil::{days_from_civil, Civil, Month, Weekday};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Number of hourly time blocks in a day.
pub const HOURS_PER_DAY: i64 = 24;

/// Number of hourly time blocks in a weekly time frame (the longest frame
/// the trends service serves at hourly resolution: 168 data points).
pub const HOURS_PER_WEEK: i64 = 7 * HOURS_PER_DAY;

/// Days between 1970-01-01 (the Unix epoch) and 2020-01-01 (the study
/// epoch). `days_from_civil(2020, 1, 1) == 18262`.
const EPOCH_OFFSET_DAYS: i64 = 18262;

/// A timestamp with one-hour resolution, counted from 2020-01-01 00:00 UTC.
///
/// `Hour` is the single time type used across the workspace: ground-truth
/// events, trends-service frames, reconstructed time series and detected
/// spikes all speak in `Hour`s. It is an ordinary signed offset, so hours
/// before the study epoch are representable (negative) and arithmetic is
/// plain integer arithmetic.
///
/// # Examples
///
/// ```
/// use sift_simtime::{Civil, Hour, Weekday};
///
/// let h = Hour::from_civil(Civil::new(2021, 2, 15, 10));
/// assert_eq!(h.civil().year, 2021);
/// assert_eq!(h.weekday(), Weekday::Mon);
/// assert_eq!((h + 24).civil().day, 16);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Hour(pub i64);

impl Hour {
    /// Builds an `Hour` from a broken-down civil date/time (UTC).
    pub fn from_civil(c: Civil) -> Self {
        let days = days_from_civil(c.year, c.month, c.day) - EPOCH_OFFSET_DAYS;
        Hour(days * HOURS_PER_DAY + i64::from(c.hour))
    }

    /// Convenience constructor: `Hour::from_ymdh(2021, 2, 15, 10)`.
    pub fn from_ymdh(year: i32, month: u8, day: u8, hour: u8) -> Self {
        Self::from_civil(Civil::new(year, month, day, hour))
    }

    /// Converts back to a broken-down civil date/time (UTC).
    pub fn civil(self) -> Civil {
        let days = self.0.div_euclid(HOURS_PER_DAY);
        #[expect(clippy::cast_possible_truncation, reason = "rem_euclid(24) < 24")]
        let hour = self.0.rem_euclid(HOURS_PER_DAY) as u8;
        Civil::from_days(days + EPOCH_OFFSET_DAYS, hour)
    }

    /// Day of the week of this hour (UTC).
    #[expect(clippy::cast_possible_truncation, reason = "rem_euclid(7) < 7")]
    pub fn weekday(self) -> Weekday {
        let days = self.0.div_euclid(HOURS_PER_DAY) + EPOCH_OFFSET_DAYS;
        // 1970-01-01 was a Thursday (ISO index 3 with Monday = 0).
        Weekday::from_index(((days + 3).rem_euclid(7)) as u8)
    }

    /// Calendar month of this hour (UTC).
    pub fn month(self) -> Month {
        Month::from_number(self.civil().month)
    }

    /// Calendar year of this hour (UTC).
    pub fn year(self) -> i32 {
        self.civil().year
    }

    /// Hour of day, `0..=23` (UTC).
    #[expect(clippy::cast_possible_truncation, reason = "rem_euclid(24) < 24")]
    pub fn hour_of_day(self) -> u8 {
        self.0.rem_euclid(HOURS_PER_DAY) as u8
    }

    /// The first hour (00:00) of the UTC day containing `self`.
    pub fn day_start(self) -> Hour {
        Hour(self.0.div_euclid(HOURS_PER_DAY) * HOURS_PER_DAY)
    }

    /// Applies a whole-hour timezone offset, yielding the *local* wall
    /// clock `Hour` for a region. Used by the area analysis to reason about
    /// lagged spikes in leisure-application outages (§4.2).
    pub fn to_local(self, utc_offset_hours: i32) -> Hour {
        Hour(self.0 + i64::from(utc_offset_hours))
    }
}

impl fmt::Debug for Hour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.civil();
        write!(
            f,
            "Hour({} = {:04}-{:02}-{:02}T{:02}:00Z)",
            self.0, c.year, c.month, c.day, c.hour
        )
    }
}

impl fmt::Display for Hour {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = self.civil();
        write!(
            f,
            "{:04}-{:02}-{:02} {:02}:00",
            c.year, c.month, c.day, c.hour
        )
    }
}

impl Add<i64> for Hour {
    type Output = Hour;
    fn add(self, rhs: i64) -> Hour {
        Hour(self.0 + rhs)
    }
}

impl AddAssign<i64> for Hour {
    fn add_assign(&mut self, rhs: i64) {
        self.0 += rhs;
    }
}

impl Sub<i64> for Hour {
    type Output = Hour;
    fn sub(self, rhs: i64) -> Hour {
        Hour(self.0 - rhs)
    }
}

impl SubAssign<i64> for Hour {
    fn sub_assign(&mut self, rhs: i64) {
        self.0 -= rhs;
    }
}

impl Sub<Hour> for Hour {
    type Output = i64;
    fn sub(self, rhs: Hour) -> i64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_2020() {
        assert_eq!(Hour(0).civil(), Civil::new(2020, 1, 1, 0));
        assert_eq!(Hour::from_ymdh(2020, 1, 1, 0), Hour(0));
    }

    #[test]
    fn leap_day_2020_exists() {
        let feb29 = Hour::from_ymdh(2020, 2, 29, 12);
        assert_eq!(feb29.civil(), Civil::new(2020, 2, 29, 12));
        let mar1 = feb29 + 12;
        assert_eq!(mar1.civil(), Civil::new(2020, 3, 1, 0));
    }

    #[test]
    fn known_weekdays() {
        // 2020-01-01 was a Wednesday.
        assert_eq!(Hour::from_ymdh(2020, 1, 1, 0).weekday(), Weekday::Wed);
        // The Texas winter-storm spike: 15 Feb 2021 was a Monday.
        assert_eq!(Hour::from_ymdh(2021, 2, 15, 10).weekday(), Weekday::Mon);
        // The Facebook outage: 4 Oct 2021 was a Monday.
        assert_eq!(Hour::from_ymdh(2021, 10, 4, 15).weekday(), Weekday::Mon);
        // 17 Jul 2020 (the Fig. 2 walkthrough day) was a Friday.
        assert_eq!(Hour::from_ymdh(2020, 7, 17, 18).weekday(), Weekday::Fri);
    }

    #[test]
    fn arithmetic_and_difference() {
        let a = Hour::from_ymdh(2020, 12, 31, 23);
        let b = a + 1;
        assert_eq!(b.civil(), Civil::new(2021, 1, 1, 0));
        assert_eq!(b - a, 1);
        let mut c = a;
        c += 25;
        assert_eq!(c.civil(), Civil::new(2021, 1, 2, 0));
        c -= 25;
        assert_eq!(c, a);
    }

    #[test]
    fn negative_hours_are_before_epoch() {
        let h = Hour(-1);
        assert_eq!(h.civil(), Civil::new(2019, 12, 31, 23));
        assert_eq!(h.hour_of_day(), 23);
    }

    #[test]
    fn local_offsets() {
        // 04 Oct 2021 15:00 UTC is 08:00 in California (UTC-7, DST).
        let utc = Hour::from_ymdh(2021, 10, 4, 15);
        assert_eq!(utc.to_local(-7).civil().hour, 8);
    }

    #[test]
    fn day_start_truncates() {
        let h = Hour::from_ymdh(2021, 6, 8, 9);
        assert_eq!(h.day_start().civil(), Civil::new(2021, 6, 8, 0));
        assert_eq!(Hour(-5).day_start().civil(), Civil::new(2019, 12, 31, 0));
    }
}

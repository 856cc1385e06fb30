//! Broken-down civil date/time and calendar enums.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A broken-down proleptic-Gregorian date/time in UTC, at hour resolution.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Civil {
    /// Calendar year, e.g. `2021`.
    pub year: i32,
    /// Calendar month, `1..=12`.
    pub month: u8,
    /// Day of month, `1..=31`.
    pub day: u8,
    /// Hour of day, `0..=23`.
    pub hour: u8,
}

impl Civil {
    /// Builds a civil date/time. Panics on out-of-range fields, which is a
    /// programming error rather than a data error in this workspace (all
    /// external timestamps arrive as [`crate::Hour`]s).
    pub fn new(year: i32, month: u8, day: u8, hour: u8) -> Self {
        assert!((1..=12).contains(&month), "month out of range: {month}");
        assert!(
            day >= 1 && day <= days_in_month(year, month),
            "day out of range: {year}-{month}-{day}"
        );
        assert!(hour < 24, "hour out of range: {hour}");
        Civil {
            year,
            month,
            day,
            hour,
        }
    }

    /// Reconstructs a civil date from a count of days since 1970-01-01.
    pub(crate) fn from_days(days: i64, hour: u8) -> Self {
        let (year, month, day) = civil_from_days(days);
        Civil {
            year,
            month,
            day,
            hour,
        }
    }
}

impl fmt::Debug for Civil {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:04}-{:02}-{:02}T{:02}:00Z",
            self.year, self.month, self.day, self.hour
        )
    }
}

/// Number of days in `month` of `year`.
#[expect(clippy::unreachable, reason = "callers pass a validated month")]
pub(crate) fn days_in_month(year: i32, month: u8) -> u8 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if is_leap(year) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("validated month"),
    }
}

fn is_leap(year: i32) -> bool {
    year % 4 == 0 && (year % 100 != 0 || year % 400 == 0)
}

/// Days since 1970-01-01 for a civil date (Howard Hinnant's algorithm).
pub(crate) fn days_from_civil(y: i32, m: u8, d: u8) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = y.div_euclid(400);
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Civil date for a count of days since 1970-01-01 (Hinnant's algorithm).
pub(crate) fn civil_from_days(z: i64) -> (i32, u8, u8) {
    let z = z + 719468;
    let era = z.div_euclid(146097);
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "Hinnant's algorithm bounds the day to [1, 31]"
    )]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u8;
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "Hinnant's algorithm bounds the month to [1, 12]"
    )]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u8;
    (
        i32::try_from(y + i64::from(m <= 2)).unwrap_or(i32::MAX),
        m,
        d,
    )
}

/// Day of the week, as used by the daily-distribution analysis (Fig. 4).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Weekday {
    /// Monday.
    Mon,
    /// Tuesday.
    Tue,
    /// Wednesday.
    Wed,
    /// Thursday.
    Thu,
    /// Friday.
    Fri,
    /// Saturday.
    Sat,
    /// Sunday.
    Sun,
}

impl Weekday {
    /// All weekdays, Monday first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Mon,
        Weekday::Tue,
        Weekday::Wed,
        Weekday::Thu,
        Weekday::Fri,
        Weekday::Sat,
        Weekday::Sun,
    ];

    /// Converts an index with `0 = Monday` (ISO ordering).
    pub fn from_index(i: u8) -> Self {
        Self::ALL[usize::from(i % 7)]
    }

    /// Index with `0 = Monday` (ISO ordering).
    pub fn index(self) -> usize {
        self as usize
    }

    /// True for Saturday and Sunday. The paper conjectures the weekend dip
    /// in outages comes from less human error on the service side.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Sat | Weekday::Sun)
    }

    /// Three-letter English abbreviation, e.g. `"Mon"`.
    pub fn abbrev(self) -> &'static str {
        match self {
            Weekday::Mon => "Mon",
            Weekday::Tue => "Tue",
            Weekday::Wed => "Wed",
            Weekday::Thu => "Thu",
            Weekday::Fri => "Fri",
            Weekday::Sat => "Sat",
            Weekday::Sun => "Sun",
        }
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// Calendar month, as used by the monthly power-outage analysis (Fig. 6).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub enum Month {
    /// January.
    Jan,
    /// February.
    Feb,
    /// March.
    Mar,
    /// April.
    Apr,
    /// May.
    May,
    /// June.
    Jun,
    /// July.
    Jul,
    /// August.
    Aug,
    /// September.
    Sep,
    /// October.
    Oct,
    /// November.
    Nov,
    /// December.
    Dec,
}

impl Month {
    /// All months, January first.
    pub const ALL: [Month; 12] = [
        Month::Jan,
        Month::Feb,
        Month::Mar,
        Month::Apr,
        Month::May,
        Month::Jun,
        Month::Jul,
        Month::Aug,
        Month::Sep,
        Month::Oct,
        Month::Nov,
        Month::Dec,
    ];

    /// Converts a calendar month number (`1..=12`).
    pub fn from_number(n: u8) -> Self {
        assert!((1..=12).contains(&n), "month number out of range: {n}");
        Self::ALL[usize::from(n - 1)]
    }

    /// Calendar month number, `1..=12`.
    pub fn number(self) -> u8 {
        self as u8 + 1 // discriminants are 0..=11
    }

    /// Zero-based index, `0..=11`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Three-letter English abbreviation, e.g. `"Feb"`.
    pub fn abbrev(self) -> &'static str {
        match self {
            Month::Jan => "Jan",
            Month::Feb => "Feb",
            Month::Mar => "Mar",
            Month::Apr => "Apr",
            Month::May => "May",
            Month::Jun => "Jun",
            Month::Jul => "Jul",
            Month::Aug => "Aug",
            Month::Sep => "Sep",
            Month::Oct => "Oct",
            Month::Nov => "Nov",
            Month::Dec => "Dec",
        }
    }
}

impl fmt::Display for Month {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hinnant_round_trip_spot_checks() {
        for &(y, m, d) in &[
            (1970, 1, 1),
            (2000, 2, 29),
            (2020, 1, 1),
            (2020, 12, 31),
            (2021, 2, 15),
            (2021, 10, 4),
            (1999, 12, 31),
            (2400, 2, 29),
        ] {
            let days = days_from_civil(y, m, d);
            assert_eq!(civil_from_days(days), (y, m, d), "{y}-{m}-{d}");
        }
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(2020, 1, 1), 18262);
    }

    #[test]
    fn consecutive_days_differ_by_one() {
        let mut prev = days_from_civil(2019, 12, 1);
        for z in 1..800 {
            let (y, m, d) = civil_from_days(prev + z);
            assert_eq!(days_from_civil(y, m, d), prev + z);
        }
        prev += 1;
        let _ = prev;
    }

    #[test]
    fn leap_rules() {
        assert!(is_leap(2020));
        assert!(!is_leap(2021));
        assert!(!is_leap(1900));
        assert!(is_leap(2000));
        assert_eq!(days_in_month(2020, 2), 29);
        assert_eq!(days_in_month(2021, 2), 28);
    }

    #[test]
    fn weekday_enum_round_trip() {
        for (i, wd) in Weekday::ALL.iter().enumerate() {
            assert_eq!(Weekday::from_index(i as u8), *wd);
            assert_eq!(wd.index(), i);
        }
        assert!(Weekday::Sat.is_weekend());
        assert!(!Weekday::Fri.is_weekend());
    }

    #[test]
    fn month_enum_round_trip() {
        for (i, m) in Month::ALL.iter().enumerate() {
            assert_eq!(Month::from_number(i as u8 + 1), *m);
            assert_eq!(m.number(), i as u8 + 1);
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "day out of range")]
    fn civil_rejects_bad_day() {
        let _ = Civil::new(2021, 2, 29, 0);
    }
}

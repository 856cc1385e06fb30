//! Timezone offsets with US daylight-saving rules.

use crate::state::State;
use sift_simtime::Hour;

/// UTC offset in hours of a region's primary timezone at instant `at`,
/// accounting for US daylight saving time (second Sunday of March 02:00
/// local until first Sunday of November 02:00 local). Arizona and Hawaii
/// do not observe DST.
///
/// States that span two timezones are represented by the zone covering the
/// majority of their population, matching how the paper reasons about
/// per-state spike lags (§4.2).
pub fn utc_offset(state: State, at: Hour) -> i32 {
    utc_offset_until(state, at).0
}

/// [`utc_offset`] at `at`, with the hour up to which it holds: every hour
/// in `at..until` has the same offset. `until` is the next DST boundary
/// or, after November's, the next New Year, so a caller walking a range
/// of hours resolves the calendar once per run instead of once per hour.
pub fn utc_offset_until(state: State, at: Hour) -> (i32, Hour) {
    let std = state.std_utc_offset();
    if !state.observes_dst() {
        return (std, Hour(i64::MAX));
    }
    let year = at.year();
    // DST can only change at the March/November boundaries of the civil
    // year containing `at` in UTC; local/UTC year mismatches around New
    // Year are months away from either boundary.
    let start_local = Hour::from_ymdh(year, 3, nth_sunday(year, 3, 2), 2);
    let end_local = Hour::from_ymdh(year, 11, nth_sunday(year, 11, 1), 2);
    // Local standard time = UTC + std, so UTC = local - std. The end
    // boundary is expressed in daylight time (std + 1).
    let start_utc = start_local - i64::from(std);
    let end_utc = end_local - i64::from(std + 1);
    if at < start_utc {
        (std, start_utc)
    } else if at < end_utc {
        (std + 1, end_utc)
    } else {
        (std, Hour::from_ymdh(year + 1, 1, 1, 0))
    }
}

/// Day of month of the `n`-th Sunday of `month` in `year`.
fn nth_sunday(year: i32, month: u8, n: u8) -> u8 {
    // Monday = 0 … Sunday = 6: the first Sunday is `7 - index` days in.
    let first = Hour::from_ymdh(year, month, 1, 0).weekday().index();
    7 * n - u8::try_from(first).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sift_simtime::{Weekday, STUDY_RANGE};

    /// The per-hour resolution this module shipped with, kept as the
    /// oracle: the year's DST Sundays found by walking the calendar, and
    /// each hour compared against both boundaries on its own.
    fn reference_offset(state: State, at: Hour) -> i32 {
        fn walked_sunday(year: i32, month: u8, n: u8) -> u8 {
            (1..=31)
                .filter(|&day| Hour::from_ymdh(year, month, day, 0).weekday() == Weekday::Sun)
                .nth(usize::from(n) - 1)
                .expect("every month has at least four Sundays")
        }
        let std = state.std_utc_offset();
        let year = at.year();
        let start_utc = Hour::from_ymdh(year, 3, walked_sunday(year, 3, 2), 2) - i64::from(std);
        let end_utc = Hour::from_ymdh(year, 11, walked_sunday(year, 11, 1), 2) - i64::from(std + 1);
        if state.observes_dst() && at >= start_utc && at < end_utc {
            std + 1
        } else {
            std
        }
    }

    #[test]
    fn run_resolution_matches_the_per_hour_reference_everywhere() {
        let year = 366 * 24;
        let hours = (STUDY_RANGE.start.0 - year)..(STUDY_RANGE.end.0 + year);
        for state in State::ALL {
            // Walk the way the frame builder does: re-resolve only when
            // the current run ends.
            let (mut offset, mut until) = (0, Hour(hours.start));
            let mut runs = 0;
            for at in hours.clone().map(Hour) {
                if at >= until {
                    (offset, until) = utc_offset_until(state, at);
                    assert!(until > at, "{state} {at:?}: empty run");
                    runs += 1;
                }
                assert_eq!(offset, reference_offset(state, at), "{state} at {at:?}");
                assert_eq!(utc_offset(state, at), offset, "{state} at {at:?}");
            }
            // Three runs a year at most (winter, summer, winter again).
            assert!(runs <= 3 * 5, "{state}: {runs} runs");
        }
    }

    #[test]
    fn dst_boundaries_2021() {
        // 2021: DST began 14 March, ended 7 November.
        assert_eq!(nth_sunday(2021, 3, 2), 14);
        assert_eq!(nth_sunday(2021, 11, 1), 7);
        // 2020: DST began 8 March, ended 1 November.
        assert_eq!(nth_sunday(2020, 3, 2), 8);
        assert_eq!(nth_sunday(2020, 11, 1), 1);
    }

    #[test]
    fn new_york_winter_and_summer() {
        assert_eq!(utc_offset(State::NY, Hour::from_ymdh(2021, 1, 15, 12)), -5);
        assert_eq!(utc_offset(State::NY, Hour::from_ymdh(2021, 7, 15, 12)), -4);
    }

    #[test]
    fn california_winter_and_summer() {
        assert_eq!(utc_offset(State::CA, Hour::from_ymdh(2020, 2, 1, 0)), -8);
        assert_eq!(utc_offset(State::CA, Hour::from_ymdh(2020, 8, 1, 0)), -7);
    }

    #[test]
    fn arizona_and_hawaii_never_shift() {
        for &(m, d) in &[(1u8, 15u8), (4, 15), (7, 15), (10, 15), (12, 15)] {
            assert_eq!(utc_offset(State::AZ, Hour::from_ymdh(2021, m, d, 12)), -7);
            assert_eq!(utc_offset(State::HI, Hour::from_ymdh(2021, m, d, 12)), -10);
        }
    }

    #[test]
    fn transition_instant_2021_eastern() {
        // DST began 2021-03-14 02:00 EST = 07:00 UTC.
        let before = Hour::from_ymdh(2021, 3, 14, 6);
        let after = Hour::from_ymdh(2021, 3, 14, 7);
        assert_eq!(utc_offset(State::NY, before), -5);
        assert_eq!(utc_offset(State::NY, after), -4);
        // DST ended 2021-11-07 02:00 EDT = 06:00 UTC.
        let before = Hour::from_ymdh(2021, 11, 7, 5);
        let after = Hour::from_ymdh(2021, 11, 7, 6);
        assert_eq!(utc_offset(State::NY, before), -4);
        assert_eq!(utc_offset(State::NY, after), -5);
    }

    #[test]
    fn facebook_outage_local_times_spread() {
        // 4 Oct 2021 15:00 UTC: 11:00 in NY (EDT) vs 08:00 in CA (PDT) vs
        // 05:00 in HI — the local-time spread behind the lag analysis.
        let at = Hour::from_ymdh(2021, 10, 4, 15);
        assert_eq!(at.to_local(utc_offset(State::NY, at)).civil().hour, 11);
        assert_eq!(at.to_local(utc_offset(State::CA, at)).civil().hour, 8);
        assert_eq!(at.to_local(utc_offset(State::HI, at)).civil().hour, 5);
    }
}

//! The study regions: 50 US states plus the District of Columbia.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// US census divisions, used to pick plausible neighbouring regions when
/// the synthetic geolocation database misattributes a prefix.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Division {
    /// CT, ME, MA, NH, RI, VT.
    NewEngland,
    /// NJ, NY, PA.
    MidAtlantic,
    /// IL, IN, MI, OH, WI.
    EastNorthCentral,
    /// IA, KS, MN, MO, NE, ND, SD.
    WestNorthCentral,
    /// DE, DC, FL, GA, MD, NC, SC, VA, WV.
    SouthAtlantic,
    /// AL, KY, MS, TN.
    EastSouthCentral,
    /// AR, LA, OK, TX.
    WestSouthCentral,
    /// AZ, CO, ID, MT, NV, NM, UT, WY.
    Mountain,
    /// AK, CA, HI, OR, WA.
    Pacific,
}

macro_rules! states {
    ($( $variant:ident, $abbrev:literal, $name:literal, $division:ident,
        $population:literal, $std_offset:literal, $dst:literal; )+) => {
        /// A study region: one of the 50 US states or the District of
        /// Columbia.
        ///
        /// Trends-service requests, reconstructed time series, spikes and
        /// probing records are all keyed by `State`. The discriminants are
        /// contiguous from 0 so `State` can index dense per-region arrays
        /// (see [`State::index`] and [`State::ALL`]).
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug,
                 Serialize, Deserialize)]
        pub enum State {
            $(
                #[doc = $name]
                $variant,
            )+
        }

        impl State {
            /// Every study region, in alphabetical order of abbreviation.
            pub const ALL: [State; State::COUNT] = [ $( State::$variant, )+ ];

            /// Number of study regions (50 states + DC).
            pub const COUNT: usize = 0 $( + { let _ = $population; 1 } )+;

            /// Two-letter postal abbreviation, e.g. `"TX"`.
            pub fn abbrev(self) -> &'static str {
                match self { $( State::$variant => $abbrev, )+ }
            }

            /// Full name, e.g. `"Texas"`.
            pub fn name(self) -> &'static str {
                match self { $( State::$variant => $name, )+ }
            }

            /// Census division of the region.
            pub fn division(self) -> Division {
                match self { $( State::$variant => Division::$division, )+ }
            }

            /// Resident population (2020 census).
            pub(crate) fn census_population(self) -> u64 {
                match self { $( State::$variant => $population, )+ }
            }

            /// Standard-time UTC offset in hours of the region's primary
            /// timezone (negative west of Greenwich).
            pub(crate) fn std_utc_offset(self) -> i32 {
                match self { $( State::$variant => $std_offset, )+ }
            }

            /// Whether the region observes daylight saving time.
            pub(crate) fn observes_dst(self) -> bool {
                match self { $( State::$variant => $dst, )+ }
            }
        }
    };
}

states! {
    AK, "AK", "Alaska",               Pacific,          733_391,  -9, true;
    AL, "AL", "Alabama",              EastSouthCentral, 5_024_279, -6, true;
    AR, "AR", "Arkansas",             WestSouthCentral, 3_011_524, -6, true;
    AZ, "AZ", "Arizona",              Mountain,         7_151_502, -7, false;
    CA, "CA", "California",           Pacific,          39_538_223, -8, true;
    CO, "CO", "Colorado",             Mountain,         5_773_714, -7, true;
    CT, "CT", "Connecticut",          NewEngland,       3_605_944, -5, true;
    DC, "DC", "District of Columbia", SouthAtlantic,    689_545,  -5, true;
    DE, "DE", "Delaware",             SouthAtlantic,    989_948,  -5, true;
    FL, "FL", "Florida",              SouthAtlantic,    21_538_187, -5, true;
    GA, "GA", "Georgia",              SouthAtlantic,    10_711_908, -5, true;
    HI, "HI", "Hawaii",               Pacific,          1_455_271, -10, false;
    IA, "IA", "Iowa",                 WestNorthCentral, 3_190_369, -6, true;
    ID, "ID", "Idaho",                Mountain,         1_839_106, -7, true;
    IL, "IL", "Illinois",             EastNorthCentral, 12_812_508, -6, true;
    IN, "IN", "Indiana",              EastNorthCentral, 6_785_528, -5, true;
    KS, "KS", "Kansas",               WestNorthCentral, 2_937_880, -6, true;
    KY, "KY", "Kentucky",             EastSouthCentral, 4_505_836, -5, true;
    LA, "LA", "Louisiana",            WestSouthCentral, 4_657_757, -6, true;
    MA, "MA", "Massachusetts",        NewEngland,       7_029_917, -5, true;
    MD, "MD", "Maryland",             SouthAtlantic,    6_177_224, -5, true;
    ME, "ME", "Maine",                NewEngland,       1_362_359, -5, true;
    MI, "MI", "Michigan",             EastNorthCentral, 10_077_331, -5, true;
    MN, "MN", "Minnesota",            WestNorthCentral, 5_706_494, -6, true;
    MO, "MO", "Missouri",             WestNorthCentral, 6_154_913, -6, true;
    MS, "MS", "Mississippi",          EastSouthCentral, 2_961_279, -6, true;
    MT, "MT", "Montana",              Mountain,         1_084_225, -7, true;
    NC, "NC", "North Carolina",       SouthAtlantic,    10_439_388, -5, true;
    ND, "ND", "North Dakota",         WestNorthCentral, 779_094,  -6, true;
    NE, "NE", "Nebraska",             WestNorthCentral, 1_961_504, -6, true;
    NH, "NH", "New Hampshire",        NewEngland,       1_377_529, -5, true;
    NJ, "NJ", "New Jersey",           MidAtlantic,      9_288_994, -5, true;
    NM, "NM", "New Mexico",           Mountain,         2_117_522, -7, true;
    NV, "NV", "Nevada",               Mountain,         3_104_614, -8, true;
    NY, "NY", "New York",             MidAtlantic,      20_201_249, -5, true;
    OH, "OH", "Ohio",                 EastNorthCentral, 11_799_448, -5, true;
    OK, "OK", "Oklahoma",             WestSouthCentral, 3_959_353, -6, true;
    OR, "OR", "Oregon",               Pacific,          4_237_256, -8, true;
    PA, "PA", "Pennsylvania",         MidAtlantic,      13_002_700, -5, true;
    RI, "RI", "Rhode Island",         NewEngland,       1_097_379, -5, true;
    SC, "SC", "South Carolina",       SouthAtlantic,    5_118_425, -5, true;
    SD, "SD", "South Dakota",         WestNorthCentral, 886_667,  -6, true;
    TN, "TN", "Tennessee",            EastSouthCentral, 6_910_840, -6, true;
    TX, "TX", "Texas",                WestSouthCentral, 29_145_505, -6, true;
    UT, "UT", "Utah",                 Mountain,         3_271_616, -7, true;
    VA, "VA", "Virginia",             SouthAtlantic,    8_631_393, -5, true;
    VT, "VT", "Vermont",              NewEngland,       643_077,  -5, true;
    WA, "WA", "Washington",           Pacific,          7_705_281, -8, true;
    WI, "WI", "Wisconsin",            EastNorthCentral, 5_893_718, -6, true;
    WV, "WV", "West Virginia",        SouthAtlantic,    1_793_716, -5, true;
    WY, "WY", "Wyoming",              Mountain,         576_851,  -7, true;
}

impl State {
    /// Dense index of the region, `0..State::COUNT`, for array-backed maps.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`State::index`]; panics if out of range.
    pub fn from_index(i: usize) -> State {
        State::ALL[i]
    }

    /// Looks a region up by its two-letter postal abbreviation
    /// (case-insensitive).
    pub fn from_abbrev(s: &str) -> Option<State> {
        let upper = s.to_ascii_uppercase();
        State::ALL.iter().copied().find(|st| st.abbrev() == upper)
    }

    /// Regions in the same census division, excluding `self`. Never empty:
    /// every division has at least three members.
    pub fn division_neighbors(self) -> Vec<State> {
        State::ALL
            .iter()
            .copied()
            .filter(|s| *s != self && s.division() == self.division())
            .collect()
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

impl FromStr for State {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        State::from_abbrev(s).ok_or_else(|| format!("unknown state abbreviation: {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifty_one_regions() {
        assert_eq!(State::COUNT, 51);
        assert_eq!(State::ALL.len(), 51);
    }

    #[test]
    fn index_round_trip() {
        for (i, s) in State::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
            assert_eq!(State::from_index(i), *s);
        }
    }

    #[test]
    fn abbrev_round_trip() {
        for s in State::ALL {
            assert_eq!(State::from_abbrev(s.abbrev()), Some(s));
            assert_eq!(s.abbrev().parse::<State>().unwrap(), s);
        }
        assert_eq!(State::from_abbrev("tx"), Some(State::TX));
        assert_eq!(State::from_abbrev("ZZ"), None);
        assert!("ZZ".parse::<State>().is_err());
    }

    #[test]
    fn abbrevs_unique_and_sorted() {
        let abbrevs: Vec<_> = State::ALL.iter().map(|s| s.abbrev()).collect();
        let mut sorted = abbrevs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(abbrevs, sorted, "State::ALL must be sorted by abbrev");
    }

    #[test]
    fn division_neighbors_nonempty_and_consistent() {
        for s in State::ALL {
            let ns = s.division_neighbors();
            assert!(!ns.is_empty(), "{s} has no division neighbours");
            assert!(!ns.contains(&s));
            for n in ns {
                assert_eq!(n.division(), s.division());
            }
        }
    }

    #[test]
    fn spot_check_metadata() {
        assert_eq!(State::TX.name(), "Texas");
        assert_eq!(State::CA.division(), Division::Pacific);
        assert_eq!(State::DC.name(), "District of Columbia");
        assert!(!State::AZ.observes_dst());
        assert!(!State::HI.observes_dst());
        assert_eq!(State::NY.std_utc_offset(), -5);
        assert_eq!(State::CA.std_utc_offset(), -8);
    }
}

//! Synthetic IPv4 address plan and MaxMind-like geolocation database.
//!
//! The paper augments the ANT active-probing dataset with MaxMind
//! IP-geolocations to place outages in states. Our probing baseline needs
//! the same machinery: a population of /24 blocks assigned to states
//! (ground truth) and a geolocation *database* whose answers are mostly —
//! but not always — right. The configurable error rate models the
//! well-known imprecision of commercial IP geolocation; erroneous answers
//! fall within the same census division, matching how geolocation errors
//! cluster geographically in practice.

use crate::state::State;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// An IPv4 /24 block, identified by its 24-bit network number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Prefix24(pub u32);

impl Prefix24 {
    /// The dotted-quad network address of the block, e.g. `10.3.7.0`.
    pub fn network(self) -> [u8; 4] {
        let [_, a, b, c] = self.0.to_be_bytes();
        [a, b, c, 0]
    }
}

impl fmt::Debug for Prefix24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.network();
        write!(f, "{}.{}.{}.0/24", n[0], n[1], n[2])
    }
}

impl fmt::Display for Prefix24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// The ground-truth allocation of /24 blocks to study regions.
///
/// Blocks are allocated proportionally to population (with a small floor so
/// even Wyoming gets a probeable footprint) from the `10.0.0.0/8` space.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AddressPlan {
    /// `per_state[s.index()]` is the contiguous block range of region `s`.
    ranges: Vec<(u32, u32)>,
    total: u32,
}

/// Minimum number of /24 blocks any region receives.
const MIN_BLOCKS_PER_STATE: u32 = 8;

impl AddressPlan {
    /// Builds a plan with roughly `total_blocks` /24s distributed across
    /// regions proportionally to population.
    ///
    /// # Panics
    ///
    /// Panics if `total_blocks` exceeds the `10.0.0.0/8` capacity of
    /// 65 536 blocks or is too small to give every region its floor.
    pub fn proportional(total_blocks: u32) -> Self {
        assert!(total_blocks <= 65_536, "exceeds 10.0.0.0/8 capacity");
        assert!(
            u64::from(total_blocks) >= u64::from(MIN_BLOCKS_PER_STATE) * State::COUNT as u64,
            "too few blocks for {} regions",
            State::COUNT
        );
        let total_pop: u64 = State::ALL.iter().map(|s| s.census_population()).sum();
        let mut ranges = Vec::with_capacity(State::COUNT);
        let mut next = 0u32;
        for s in State::ALL {
            let quota = u128::from(total_blocks) * u128::from(s.census_population())
                / u128::from(total_pop);
            let share = u32::try_from(quota).unwrap_or(u32::MAX);
            let n = share.max(MIN_BLOCKS_PER_STATE);
            ranges.push((next, next + n));
            next += n;
        }
        AddressPlan {
            ranges,
            total: next,
        }
    }

    /// Total number of allocated /24 blocks.
    pub fn total_blocks(&self) -> u32 {
        self.total
    }

    /// All blocks allocated to `state`.
    pub fn blocks_of(&self, state: State) -> impl Iterator<Item = Prefix24> + '_ {
        let (lo, hi) = self.ranges[state.index()];
        (lo..hi).map(Prefix24)
    }

    /// Number of blocks allocated to `state`.
    pub fn block_count(&self, state: State) -> u32 {
        let (lo, hi) = self.ranges[state.index()];
        hi - lo
    }

    /// Iterates over every allocated block with its true region.
    pub fn iter(&self) -> impl Iterator<Item = (Prefix24, State)> + '_ {
        State::ALL
            .iter()
            .flat_map(move |s| self.blocks_of(*s).map(move |p| (p, *s)))
    }
}

/// A geolocation database: prefix → region answers with a configurable
/// error rate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GeoDb {
    answers: Vec<State>,
    error_rate: f64,
}

impl GeoDb {
    /// Derives a database from the ground-truth `plan`. A fraction
    /// `error_rate` of blocks (chosen by `rng`) is misattributed to a
    /// different region in the same census division.
    pub fn from_plan<R: Rng>(plan: &AddressPlan, error_rate: f64, rng: &mut R) -> Self {
        assert!((0.0..=1.0).contains(&error_rate), "error rate out of range");
        let mut answers = Vec::with_capacity(plan.total_blocks() as usize);
        for (_, truth) in plan.iter() {
            let answer = if rng.gen_bool(error_rate) {
                let neighbors = truth.division_neighbors();
                neighbors[rng.gen_range(0..neighbors.len())]
            } else {
                truth
            };
            answers.push(answer);
        }
        GeoDb {
            answers,
            error_rate,
        }
    }

    /// The database's answer for a block, or `None` if the prefix is
    /// outside the allocated space.
    pub fn locate(&self, prefix: Prefix24) -> Option<State> {
        self.answers.get(prefix.0 as usize).copied()
    }

    /// The error rate the database was built with.
    pub fn error_rate(&self) -> f64 {
        self.error_rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn plan() -> AddressPlan {
        AddressPlan::proportional(10_000)
    }

    #[test]
    fn allocation_is_contiguous_and_complete() {
        let p = plan();
        let mut seen = 0u32;
        for s in State::ALL {
            for b in p.blocks_of(s) {
                assert_eq!(b.0, seen, "blocks must be contiguous");
                seen += 1;
            }
        }
        assert_eq!(seen, p.total_blocks());
    }

    #[test]
    fn allocation_tracks_population() {
        let p = plan();
        assert!(p.block_count(State::CA) > p.block_count(State::TX));
        assert!(p.block_count(State::TX) > p.block_count(State::WY));
        assert!(p.block_count(State::WY) >= MIN_BLOCKS_PER_STATE);
    }

    #[test]
    fn geodb_error_rate_approximate() {
        let p = plan();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let db = GeoDb::from_plan(&p, 0.1, &mut rng);
        let mut wrong = 0u32;
        for (b, truth) in p.iter() {
            let ans = db.locate(b).unwrap();
            if ans != truth {
                wrong += 1;
                assert_eq!(ans.division(), truth.division());
            }
        }
        let rate = f64::from(wrong) / f64::from(p.total_blocks());
        assert!((0.05..0.15).contains(&rate), "observed error rate {rate}");
    }

    #[test]
    fn perfect_db_has_no_errors() {
        let p = plan();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let db = GeoDb::from_plan(&p, 0.0, &mut rng);
        assert!(p.iter().all(|(b, truth)| db.locate(b) == Some(truth)));
    }

    #[test]
    fn prefix_display() {
        assert_eq!(Prefix24(0).to_string(), "0.0.0.0/24");
        assert_eq!(Prefix24(0x0001_0203).to_string(), "1.2.3.0/24");
    }
}

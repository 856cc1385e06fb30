//! The probeable address population.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use sift_geo::{AddressPlan, Prefix24, State};

/// What kind of network a /24 block belongs to, which decides whether
/// probing can see it at all.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum BlockKind {
    /// Wired broadband / enterprise space: answers probes.
    Wired,
    /// Mobile carrier space: never answers probes ("that could be due to
    /// mobile nodes not responding to probes and escaping the ANT's
    /// detection methodology", §4.1).
    Mobile,
    /// Firewalled / dark space: never answers probes.
    Firewalled,
}

/// Per-block probing profile.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BlockProfile {
    /// The block.
    pub prefix: Prefix24,
    /// True region (ground truth; the dataset only sees geolocations).
    pub state: State,
    /// Network kind.
    pub kind: BlockKind,
    /// Probability that a probe to this block is answered when the block
    /// is healthy (zero for non-wired blocks).
    pub response_rate: f64,
}

/// Mix of block kinds in the population.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PopulationMix {
    /// Fraction of blocks that are wired (probe-responsive).
    pub wired: f64,
    /// Fraction that are mobile.
    pub mobile: f64,
    // Remainder is firewalled.
}

impl Default for PopulationMix {
    fn default() -> Self {
        PopulationMix {
            wired: 0.45,
            mobile: 0.30,
        }
    }
}

/// The full address population: every allocated block with its profile.
#[derive(Clone, Debug)]
pub struct AddressPopulation {
    blocks: Vec<BlockProfile>,
    /// Indices of wired blocks per region (probing and the fast dataset
    /// synthesis iterate event-major, by state).
    wired_by_state: Vec<Vec<u32>>,
}

impl AddressPopulation {
    /// Instantiates profiles over an address plan.
    pub fn new(plan: &AddressPlan, mix: PopulationMix, seed: u64) -> Self {
        assert!(mix.wired + mix.mobile <= 1.0, "kind fractions exceed 1");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let blocks = plan
            .iter()
            .map(|(prefix, state)| {
                let x: f64 = rng.gen();
                let kind = if x < mix.wired {
                    BlockKind::Wired
                } else if x < mix.wired + mix.mobile {
                    BlockKind::Mobile
                } else {
                    BlockKind::Firewalled
                };
                let response_rate = match kind {
                    BlockKind::Wired => rng.gen_range(0.55..0.95),
                    _ => 0.0,
                };
                BlockProfile {
                    prefix,
                    state,
                    kind,
                    response_rate,
                }
            })
            .collect::<Vec<BlockProfile>>();
        let mut wired_by_state = vec![Vec::new(); State::COUNT];
        for (i, b) in blocks.iter().enumerate() {
            if b.kind == BlockKind::Wired {
                wired_by_state[b.state.index()].push(u32::try_from(i).unwrap_or(u32::MAX));
            }
        }
        AddressPopulation {
            blocks,
            wired_by_state,
        }
    }

    /// All block profiles, ordered by prefix.
    pub fn blocks(&self) -> &[BlockProfile] {
        &self.blocks
    }

    /// Only the probeable (wired) blocks.
    pub fn wired_blocks(&self) -> impl Iterator<Item = &BlockProfile> {
        self.blocks.iter().filter(|b| b.kind == BlockKind::Wired)
    }

    /// The wired blocks of one region.
    pub fn wired_blocks_of(&self, state: State) -> impl Iterator<Item = &BlockProfile> {
        self.wired_by_state[state.index()]
            .iter()
            .map(move |i| &self.blocks[*i as usize])
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True if the population is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn population() -> AddressPopulation {
        let plan = AddressPlan::proportional(5_000);
        AddressPopulation::new(&plan, PopulationMix::default(), 1)
    }

    #[test]
    fn kinds_roughly_match_mix() {
        let p = population();
        let wired = p.wired_blocks().count() as f64 / p.len() as f64;
        assert!((0.40..0.50).contains(&wired), "wired share {wired}");
        let mobile = p
            .blocks()
            .iter()
            .filter(|b| b.kind == BlockKind::Mobile)
            .count() as f64
            / p.len() as f64;
        assert!((0.25..0.35).contains(&mobile), "mobile share {mobile}");
    }

    #[test]
    fn only_wired_blocks_respond() {
        let p = population();
        for b in p.blocks() {
            match b.kind {
                BlockKind::Wired => assert!(b.response_rate > 0.5),
                _ => assert!(b.response_rate.abs() < 1e-12),
            }
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let plan = AddressPlan::proportional(5_000);
        let a = AddressPopulation::new(&plan, PopulationMix::default(), 7);
        let b = AddressPopulation::new(&plan, PopulationMix::default(), 7);
        for (x, y) in a.blocks().iter().zip(b.blocks().iter()) {
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.response_rate.to_bits(), y.response_rate.to_bits());
        }
    }
}

//! Domain lexicon: canonical forms and weights for outage vocabulary.
//!
//! The semantic clustering needs `is verizon down` to match
//! `verizon outage` without matching `comcast outage`. Two mechanisms
//! achieve this:
//!
//! 1. **Canonicalisation** — outage synonyms map to the single canonical
//!    token `outage` before embedding, so phrasing differences vanish.
//! 2. **Weighting** — generic domain words (`outage`, `internet`,
//!    `service`, …) carry little weight, leaving entity tokens (provider
//!    names, place names — anything *not* in the lexicon) to dominate the
//!    phrase vector.

/// Weight of a generic domain token relative to an entity token.
pub const GENERIC_WEIGHT: f32 = 0.25;

/// Weight of an entity (out-of-lexicon) token.
pub const ENTITY_WEIGHT: f32 = 1.0;

/// Synonyms of "outage" in user search phrasing.
pub(crate) const OUTAGE_SYNONYMS: &[&str] = &[
    "down",
    "offline",
    "broken",
    "out",
    "issues",
    "issue",
    "problems",
    "problem",
    "error",
    "errors",
    "slow",
    "working",
    "outages",
    "outage",
    "disruption",
    "interruption",
];

/// Generic domain words that should not dominate similarity.
pub(crate) const GENERIC_WORDS: &[&str] = &[
    "internet",
    "service",
    "network",
    "wifi",
    "phone",
    "cell",
    "cellular",
    "connection",
    "web",
    "app",
    "website",
    "site",
    "today",
    "now",
    "near",
    "me",
    "not",
    "no",
    "cant",
    "connect",
    "report",
    "map",
    "status",
    "check",
];

/// Canonical form of a normalized token: outage synonyms collapse to
/// `outage`; everything else is unchanged.
pub fn canonical(token: &str) -> &str {
    if OUTAGE_SYNONYMS.contains(&token) {
        "outage"
    } else {
        token
    }
}

/// Embedding weight of a canonical token: generic vocabulary is
/// down-weighted so entities dominate.
pub fn weight(canonical_token: &str) -> f32 {
    if canonical_token == "outage" || GENERIC_WORDS.contains(&canonical_token) {
        GENERIC_WEIGHT
    } else {
        ENTITY_WEIGHT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synonyms_collapse() {
        assert_eq!(canonical("down"), "outage");
        assert_eq!(canonical("offline"), "outage");
        assert_eq!(canonical("outage"), "outage");
        assert_eq!(canonical("verizon"), "verizon");
    }

    #[test]
    fn entities_outweigh_generics() {
        assert_eq!(weight("verizon").to_bits(), ENTITY_WEIGHT.to_bits());
        assert_eq!(weight("outage").to_bits(), GENERIC_WEIGHT.to_bits());
        assert_eq!(weight("internet").to_bits(), GENERIC_WEIGHT.to_bits());
        assert!(weight(canonical("down")) < ENTITY_WEIGHT);
    }
}

//! Mini word-vector NLP substrate for clustering search phrases.
//!
//! SIFT's context analysis "applies a natural language processing library
//! with pre-trained word vectors to cluster semantically similar phrases
//! such as `<is Verizon down>` and `<Verizon outage>`" (§3.4). Pre-trained
//! vector models are not available offline, so this crate implements the
//! closest deterministic equivalent:
//!
//! * [`normalize`]/[`tokenize`] — lower-casing, punctuation stripping and
//!   stop-word removal for search phrases,
//! * a domain [`lexicon`] canonicalising outage vocabulary (`down`,
//!   `offline`, `not working` → `outage`) and down-weighting generic terms
//!   so that *entities* (provider names, place names) dominate similarity,
//! * [`Embedding`] — fixed-dimension phrase vectors built from hashed word
//!   and character-n-gram features (n-grams give robustness to
//!   misspellings, which Google's search *topics* also absorb),
//! * [`cosine`] similarity, dense over every slot, and [`Normed`] — an
//!   embedding carried with its norm and occupied slots, whose similarity
//!   and centroid updates touch only those slots with bit-equal results,
//! * greedy agglomerative [`cluster`]ing over [`Normed`] vectors.
//!
//! The interface is what a pre-trained-vector backend would expose, so the
//! substitution is contained here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod lexicon;
pub mod token;
pub mod vector;

pub use cluster::{cluster_embedded, cluster_phrases, Cluster};
pub use token::{normalize, tokenize};
pub use vector::{cosine, Embedding, Normed, EMBEDDING_DIM};

/// Default cosine-similarity threshold above which two phrases are
/// considered the same search intent. Chosen so `is verizon down` ≈
/// `verizon outage` while `verizon outage` ≉ `comcast outage`.
pub const DEFAULT_SIMILARITY_THRESHOLD: f32 = 0.60;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_clusters_together() {
        let sim = cosine(
            &Embedding::of_phrase("is Verizon down"),
            &Embedding::of_phrase("Verizon outage"),
        );
        assert!(sim > DEFAULT_SIMILARITY_THRESHOLD, "similarity {sim}");
    }

    #[test]
    fn different_entities_stay_apart() {
        let sim = cosine(
            &Embedding::of_phrase("Verizon outage"),
            &Embedding::of_phrase("Comcast outage"),
        );
        assert!(sim < DEFAULT_SIMILARITY_THRESHOLD, "similarity {sim}");
    }
}

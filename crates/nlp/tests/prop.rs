//! Property tests: normalization, embeddings and clustering invariants.

use proptest::prelude::*;
use sift_nlp::{
    cluster_embedded, cluster_phrases, cosine, normalize, Embedding, Normed,
    DEFAULT_SIMILARITY_THRESHOLD,
};
use std::collections::BTreeMap;

fn phrase_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z]{1,8}", 1..5).prop_map(|ws| ws.join(" "))
}

proptest! {
    /// Normalization is idempotent for arbitrary unicode input.
    #[test]
    fn normalize_idempotent(s in "\\PC{0,40}") {
        let once = normalize(&s);
        prop_assert_eq!(normalize(&once), once);
    }

    /// Self-similarity of any non-degenerate phrase is 1.
    #[test]
    fn self_similarity(p in phrase_strategy()) {
        let e = Embedding::of_phrase(&p);
        if !e.is_zero() {
            let sim = cosine(&e, &e);
            prop_assert!((sim - 1.0).abs() < 1e-4, "sim {}", sim);
        }
    }

    /// Cosine similarity is symmetric and bounded.
    #[test]
    fn cosine_symmetric_bounded(a in phrase_strategy(), b in phrase_strategy()) {
        let ea = Embedding::of_phrase(&a);
        let eb = Embedding::of_phrase(&b);
        let ab = cosine(&ea, &eb);
        let ba = cosine(&eb, &ea);
        prop_assert!((ab - ba).abs() < 1e-6);
        prop_assert!((-1.0..=1.0).contains(&ab));
    }

    /// Clustering partitions the input: every index appears exactly once,
    /// every representative is a member of its own cluster.
    #[test]
    fn clustering_is_a_partition(
        phrases in proptest::collection::vec((phrase_strategy(), 0.0f64..1000.0), 0..25)
    ) {
        let clusters = cluster_phrases(&phrases, DEFAULT_SIMILARITY_THRESHOLD);
        let mut seen: Vec<usize> = clusters.iter().flat_map(|c| c.members.clone()).collect();
        seen.sort_unstable();
        let expected: Vec<usize> = (0..phrases.len()).collect();
        prop_assert_eq!(seen, expected);
        for c in &clusters {
            prop_assert!(c.members.contains(&c.representative));
        }
    }

    /// Duplicated phrases always land in the same cluster.
    #[test]
    fn duplicates_cluster_together(p in phrase_strategy(), w1 in 1.0f64..100.0, w2 in 1.0f64..100.0) {
        let e = Embedding::of_phrase(&p);
        prop_assume!(!e.is_zero());
        let phrases = vec![(p.clone(), w1), (p, w2)];
        let clusters = cluster_phrases(&phrases, DEFAULT_SIMILARITY_THRESHOLD);
        prop_assert_eq!(clusters.len(), 1);
        prop_assert_eq!(clusters[0].members.len(), 2);
    }

    /// Clustering vectors embedded once per *distinct* phrase — the way
    /// the study's phrase table hands them over — gives exactly what
    /// `cluster_phrases` gives on the raw phrases: members,
    /// representative, order.
    #[test]
    fn pre_embedded_clustering_matches_cluster_phrases(
        picks in proptest::collection::vec((0usize..8, 0u32..4), 0..25),
        pool in proptest::collection::vec(phrase_strategy(), 8..9),
        threshold in 0.3f32..0.9,
    ) {
        // A small pool makes duplicates and tied weights the common case;
        // "is my" embeds to zero.
        let phrases: Vec<(String, f64)> = picks
            .iter()
            .map(|&(p, w)| {
                let phrase = if p == 7 { "is my".to_owned() } else { pool[p].clone() };
                (phrase, f64::from(w) * 50.0)
            })
            .collect();
        let table: BTreeMap<&str, Normed> = phrases
            .iter()
            .map(|(p, _)| (p.as_str(), Normed::of_phrase(p)))
            .collect();
        let items: Vec<(&Normed, f64)> = phrases.iter().map(|(p, w)| (&table[p.as_str()], *w)).collect();
        prop_assert_eq!(cluster_embedded(&items, threshold), cluster_phrases(&phrases, threshold));
    }

    /// A similarity read from carried norms is the same f32, bit for
    /// bit, as `cosine` recomputing them — for phrase vectors, the zero
    /// vector and centroids that have absorbed members.
    #[test]
    fn carried_norm_similarity_is_bit_equal_to_cosine(
        a in phrase_strategy(),
        b in phrase_strategy(),
        joiners in proptest::collection::vec(phrase_strategy(), 0..4),
    ) {
        let zero = Normed::new(Embedding::zero());
        let other = Normed::of_phrase(&b);
        let mut centroid = Normed::of_phrase(&a);
        // The centroid as the clustering loop first built it.
        let mut plain = Embedding::of_phrase(&a);
        for j in std::iter::once(None).chain(joiners.iter().map(Some)) {
            if let Some(j) = j {
                let j = Normed::of_phrase(j);
                centroid.absorb(&j);
                plain.accumulate(j.embedding(), 1.0);
                plain.normalize();
            }
            prop_assert_eq!(centroid.embedding(), &plain);
            for (x, y) in [(&centroid, &other), (&other, &centroid), (&centroid, &zero), (&zero, &zero)] {
                prop_assert_eq!(
                    x.similarity(y).to_bits(),
                    cosine(x.embedding(), y.embedding()).to_bits()
                );
            }
        }
    }
}

//! Property tests: normalization, embeddings and clustering invariants.

use proptest::prelude::*;
use sift_nlp::{
    cluster_embedded, cluster_phrases, cosine, normalize, Cluster, Embedding, Normed,
    DEFAULT_SIMILARITY_THRESHOLD,
};
use std::collections::BTreeMap;

fn phrase_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z]{1,8}", 1..5).prop_map(|ws| ws.join(" "))
}

/// Words that share slots: lexicon words (which canonicalise to one
/// token), entities next to their misspellings, and stop words, which
/// embed to nothing.
const OVERLAP_VOCAB: &[&str] = &[
    "down",
    "outage",
    "outages",
    "not working",
    "offline",
    "issues",
    "internet",
    "service",
    "wifi",
    "today",
    "near me",
    "status",
    "verizon",
    "verzion",
    "verison",
    "comcast",
    "comcats",
    "xfinity",
    "xfinty",
    "spectrum",
    "spectrun",
    "att",
    "at&t",
    "t-mobile",
    "tmobile",
    "san jose",
    "houston",
    "youtube",
    "is",
    "my",
    "the",
    "is it",
];

/// Phrases drawn from [`OVERLAP_VOCAB`]: two of them usually share
/// trigrams, so a dot product over shared slots is rarely empty; some are
/// stop words only.
fn overlap_phrase() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..OVERLAP_VOCAB.len(), 1..4).prop_map(|ix| {
        ix.iter()
            .map(|&i| OVERLAP_VOCAB[i])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

/// Either kind of phrase, overlap-heavy two times in three.
fn mixed_phrase() -> impl Strategy<Value = String> {
    prop_oneof![phrase_strategy(), overlap_phrase(), overlap_phrase()]
}

/// `cluster_embedded` as it was first written, over the public dense API
/// only: `cosine` against each centroid, a centroid kept as
/// `accumulate` at scale 1 then `normalize`, and `Embedding::is_zero` for
/// the phrases nothing joins. Every slot takes part in every operation.
fn dense_cluster(items: &[(Embedding, f64)], threshold: f32) -> Vec<Cluster> {
    struct Working {
        members: Vec<usize>,
        centroid: Embedding,
        joinable: bool,
        total_weight: f64,
    }
    let by_weight = |a: f64, b: f64| a.partial_cmp(&b).unwrap_or(std::cmp::Ordering::Equal);
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| by_weight(items[b].1, items[a].1).then(a.cmp(&b)));
    let mut clusters: Vec<Working> = Vec::new();
    for idx in order {
        let (vector, weight) = &items[idx];
        let joinable = !vector.is_zero();
        let joined = clusters
            .iter_mut()
            .find(|c| joinable && c.joinable && cosine(&c.centroid, vector) >= threshold);
        match joined {
            Some(c) => {
                c.members.push(idx);
                c.total_weight += weight;
                c.centroid.accumulate(vector, 1.0);
                c.centroid.normalize();
            }
            None => clusters.push(Working {
                members: vec![idx],
                centroid: vector.clone(),
                joinable,
                total_weight: *weight,
            }),
        }
    }
    clusters.sort_by(|a, b| {
        by_weight(b.total_weight, a.total_weight).then(a.members[0].cmp(&b.members[0]))
    });
    clusters
        .into_iter()
        .map(|mut c| {
            let representative = *c
                .members
                .iter()
                .max_by(|&&a, &&b| by_weight(items[a].1, items[b].1).then(b.cmp(&a)))
                .expect("clusters are never empty");
            c.members.sort_unstable();
            Cluster {
                members: c.members,
                representative,
            }
        })
        .collect()
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

    /// The sparse clustering returns exactly what the dense reference
    /// returns — members, representative, order — on overlap-heavy
    /// phrases with tied weights, where centroids absorb many members.
    #[test]
    fn clustering_matches_the_dense_reference(
        picks in proptest::collection::vec((0usize..12, 0u32..4), 0..40),
        pool in proptest::collection::vec(mixed_phrase(), 12..13),
        threshold in 0.3f32..0.9,
    ) {
        let dense: Vec<(Embedding, f64)> = picks
            .iter()
            .map(|&(p, w)| (Embedding::of_phrase(&pool[p]), f64::from(w) * 25.0))
            .collect();
        let normed: Vec<Normed> = dense.iter().map(|(e, _)| Normed::new(e.clone())).collect();
        let items: Vec<(&Normed, f64)> = normed.iter().zip(&dense).map(|(v, (_, w))| (v, *w)).collect();
        prop_assert_eq!(cluster_embedded(&items, threshold), dense_cluster(&dense, threshold));
    }

    /// A similarity read from carried norms is the same f32, bit for
    /// bit, as `cosine` recomputing them — for phrase vectors, the zero
    /// vector and centroids that have absorbed members.
    #[test]
    fn carried_norm_similarity_is_bit_equal_to_cosine(
        a in mixed_phrase(),
        b in mixed_phrase(),
        joiners in proptest::collection::vec(mixed_phrase(), 0..4),
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

//! Greedy agglomerative clustering of search phrases.

use crate::vector::Normed;

/// A cluster of semantically similar phrases.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cluster {
    /// Indices into the input slice, in input order. Never empty.
    pub members: Vec<usize>,
    /// Index of the representative member: the input with the highest
    /// weight (ties break towards the earlier input).
    pub representative: usize,
}

/// Clusters weighted phrases by cosine similarity of their embeddings:
/// embeds each phrase, then [`cluster_embedded`].
pub fn cluster_phrases(phrases: &[(String, f64)], threshold: f32) -> Vec<Cluster> {
    let vectors: Vec<Normed> = phrases.iter().map(|(p, _)| Normed::of_phrase(p)).collect();
    let items: Vec<(&Normed, f64)> = vectors.iter().zip(phrases).map(|(v, p)| (v, p.1)).collect();
    cluster_embedded(&items, threshold)
}

/// Clusters weighted, already embedded phrases — the entry for callers
/// that see the same phrase many times and embed it once.
///
/// Phrases are visited in descending weight order; each joins the first
/// existing cluster whose centroid is at least `threshold` similar,
/// otherwise it founds a new cluster. A centroid starts as its founder's
/// embedding; every joining member is added to it at scale 1 and the sum
/// renormalized. That is a running blend in which the newest member
/// counts as much as all earlier ones together, not a weight-average: a
/// phrase's weight only decides when it is visited. Phrases with zero
/// embeddings (all stop words) each form singleton clusters — there is
/// nothing semantic to merge on.
///
/// Output clusters are ordered by their total member weight, descending,
/// which is the order the annotation ranking consumes them in.
pub fn cluster_embedded(items: &[(&Normed, f64)], threshold: f32) -> Vec<Cluster> {
    struct Working {
        members: Vec<usize>,
        centroid: Normed,
        /// False for the singleton of a zero embedding, which nothing joins.
        joinable: bool,
        total_weight: f64,
    }

    // Descending weight, stable on index, so heavier phrases seed clusters.
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        items[b]
            .1
            .partial_cmp(&items[a].1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });

    let mut clusters: Vec<Working> = Vec::new();
    for idx in order {
        let (vector, weight) = items[idx];
        let joinable = !vector.is_zero();
        let joined = if joinable {
            clusters
                .iter_mut()
                .find(|c| c.joinable && c.centroid.similarity(vector) >= threshold)
        } else {
            None
        };
        match joined {
            Some(c) => {
                c.members.push(idx);
                c.total_weight += weight;
                c.centroid.absorb(vector);
            }
            None => clusters.push(Working {
                members: vec![idx],
                centroid: vector.clone(),
                joinable,
                total_weight: weight,
            }),
        }
    }

    clusters.sort_by(|a, b| {
        b.total_weight
            .partial_cmp(&a.total_weight)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.members[0].cmp(&b.members[0]))
    });

    clusters
        .into_iter()
        .map(|mut c| {
            #[expect(clippy::expect_used, reason = "clusters are founded with a member")]
            let representative = *c
                .members
                .iter()
                .max_by(|&&a, &&b| {
                    items[a]
                        .1
                        .partial_cmp(&items[b].1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(b.cmp(&a))
                })
                .expect("clusters are never empty");
            c.members.sort_unstable();
            Cluster {
                members: c.members,
                representative,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DEFAULT_SIMILARITY_THRESHOLD;

    fn phrases(items: &[(&str, f64)]) -> Vec<(String, f64)> {
        items.iter().map(|(s, w)| (s.to_string(), *w)).collect()
    }

    fn cluster_of(clusters: &[Cluster], idx: usize) -> &Cluster {
        clusters
            .iter()
            .find(|c| c.members.contains(&idx))
            .expect("every input must be in exactly one cluster")
    }

    #[test]
    fn paper_example_phrase_variants_merge() {
        let input = phrases(&[
            ("is verizon down", 76.0),
            ("verizon outage", 100.0),
            ("comcast outage", 90.0),
            ("verizon down", 50.0),
        ]);
        let clusters = cluster_phrases(&input, DEFAULT_SIMILARITY_THRESHOLD);
        let verizon = cluster_of(&clusters, 1);
        assert!(verizon.members.contains(&0));
        assert!(verizon.members.contains(&3));
        assert!(!verizon.members.contains(&2));
        assert_eq!(verizon.representative, 1, "highest weight represents");
    }

    #[test]
    fn partition_is_total_and_disjoint() {
        let input = phrases(&[
            ("spectrum internet outage", 100.0),
            ("internet down", 76.0),
            ("metro pcs outage", 242.0),
            ("san jose power outage", 90.0),
            ("power outage san jose", 10.0),
        ]);
        let clusters = cluster_phrases(&input, DEFAULT_SIMILARITY_THRESHOLD);
        let mut seen: Vec<usize> = clusters.iter().flat_map(|c| c.members.clone()).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        // Word-order variants merge.
        let sj = cluster_of(&clusters, 3);
        assert!(sj.members.contains(&4));
    }

    #[test]
    fn clusters_ordered_by_total_weight() {
        let input = phrases(&[("xfinity outage", 10.0), ("att outage", 500.0)]);
        let clusters = cluster_phrases(&input, DEFAULT_SIMILARITY_THRESHOLD);
        assert_eq!(clusters[0].members, vec![1]);
        assert_eq!(clusters[1].members, vec![0]);
    }

    #[test]
    fn zero_embedding_phrases_are_singletons() {
        let input = phrases(&[("is my", 5.0), ("the a", 4.0), ("verizon", 3.0)]);
        let clusters = cluster_phrases(&input, DEFAULT_SIMILARITY_THRESHOLD);
        assert_eq!(clusters.len(), 3);
    }

    #[test]
    fn empty_input_gives_no_clusters() {
        assert!(cluster_phrases(&[], DEFAULT_SIMILARITY_THRESHOLD).is_empty());
    }

    #[test]
    fn threshold_one_keeps_distinct_phrases_apart() {
        let input = phrases(&[("verizon outage", 1.0), ("verizon issues today", 1.0)]);
        let clusters = cluster_phrases(&input, 0.999);
        assert_eq!(clusters.len(), 2);
    }
}

//! Context analysis: annotating spikes with rising search terms (§3.4).
//!
//! For each spike SIFT gathers the rising suggestions of the frames
//! covering it (weekly crawl plus daily drill-downs on spike days), then
//! 1. ranks suggestions by their weights (percent increase),
//! 2. prioritises *heavy hitters* — the few dozen terms that dominate the
//!    global suggestion mass — over random correlations,
//! 3. clusters semantically similar phrasings with word vectors, so
//!    `<is Verizon down>` and `<Verizon outage>` become one annotation.

use crate::detect::Spike;
use serde::{Deserialize, Serialize};
use sift_nlp::{cluster_embedded, Normed, DEFAULT_SIMILARITY_THRESHOLD};
use sift_trends::api::RisingTerm;
use std::collections::{HashMap, HashSet};

/// Context-analysis parameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct ContextParams {
    /// Number of annotations kept per spike.
    pub max_annotations: usize,
    /// Cosine-similarity threshold for merging phrasings.
    pub similarity_threshold: f32,
    /// Fraction of the global suggestion mass that defines the
    /// heavy-hitter set (the paper: 33 of 6655 terms cover half).
    pub heavy_hitter_mass: f64,
}

impl Default for ContextParams {
    fn default() -> Self {
        ContextParams {
            max_annotations: 3,
            similarity_threshold: DEFAULT_SIMILARITY_THRESHOLD,
            heavy_hitter_mass: 0.5,
        }
    }
}

/// One context annotation on a spike: a cluster of semantically similar
/// rising phrasings.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Annotation {
    /// Representative phrase (the heaviest member of the cluster).
    pub label: String,
    /// Summed weight of the cluster's members.
    pub weight: f64,
    /// Whether the cluster contains a heavy-hitter term.
    pub heavy_hitter: bool,
}

impl Annotation {
    /// True if this annotation indicates a power outage.
    pub fn is_power(&self) -> bool {
        self.label.to_ascii_lowercase().contains("power")
    }
}

/// A spike decorated with its context annotations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AnnotatedSpike {
    /// The underlying spike.
    pub spike: Spike,
    /// Annotations, strongest first.
    pub annotations: Vec<Annotation>,
}

impl AnnotatedSpike {
    /// True if any annotation indicates a power outage — the Fig. 6
    /// predicate.
    pub fn power_annotated(&self) -> bool {
        self.annotations.iter().any(Annotation::is_power)
    }

    /// A short label for tables: the strongest annotation, or `"—"`.
    pub fn label(&self) -> &str {
        self.annotations
            .first()
            .map(|a| a.label.as_str())
            .unwrap_or("—")
    }
}

/// The global heavy-hitter computation.
///
/// "SIFT distinguishes interesting search terms from random correlations
/// by superimposing all the suggestions from all the spikes and checking
/// their frequency" (§3.4). Returns `(heavy hitters, distinct term
/// count)`: the smallest set of most-frequent terms covering at least
/// `mass` of all suggestion occurrences.
pub fn heavy_hitters(
    suggestion_sets: impl IntoIterator<Item = Vec<String>>,
    mass: f64,
) -> (Vec<(String, u64)>, usize) {
    let sets: Vec<Vec<String>> = suggestion_sets.into_iter().collect();
    let mut phrases = Interner::default();
    for term in sets.iter().flatten() {
        phrases.intern(term);
    }
    heavy_from_counts(&phrases.normalized(), &phrases.counts, mass)
}

/// The distinct raw phrases of a set of suggestion lists, numbered in
/// first-seen order, with their occurrence counts. Rising terms are
/// massively repetitive (a few thousand distinct phrases under a hundred
/// thousand occurrences), so everything after interning — normalizing,
/// embedding, the heavy-hitter test — runs once per distinct phrase.
#[derive(Default)]
pub(crate) struct Interner<'a> {
    ids: HashMap<&'a str, usize>,
    /// Indexed by id.
    raws: Vec<&'a str>,
    /// Occurrences of each id.
    pub(crate) counts: Vec<u64>,
}

impl<'a> Interner<'a> {
    /// The id of `raw`, counting one more occurrence of it.
    pub(crate) fn intern(&mut self, raw: &'a str) -> usize {
        let next = self.raws.len();
        let id = *self.ids.entry(raw).or_insert(next);
        if id == next {
            self.raws.push(raw);
            self.counts.push(0);
        }
        self.counts[id] += 1;
        id
    }

    /// Each distinct phrase normalized once, indexed by id.
    pub(crate) fn normalized(&self) -> Vec<String> {
        self.raws
            .iter()
            .map(|raw| sift_nlp::normalize(raw))
            .collect()
    }
}

/// [`heavy_hitters`] over per-phrase counts: folds them by normalized
/// term, then keeps the most frequent terms up to `mass`.
pub(crate) fn heavy_from_counts(
    normalized: &[String],
    counts: &[u64],
    mass: f64,
) -> (Vec<(String, u64)>, usize) {
    let mut freq: HashMap<&str, u64> = HashMap::new();
    for (term, n) in normalized.iter().zip(counts) {
        *freq.entry(term).or_insert(0) += n;
    }
    let total: u64 = counts.iter().sum();
    let distinct = freq.len();
    let mut ranked: Vec<(&str, u64)> = freq.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));

    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "a non-negative share of a u64 total; float `as` saturates"
    )]
    let target = (total as f64 * mass).ceil() as u64;
    let mut acc = 0u64;
    let mut keep = 0usize;
    for (_, c) in &ranked {
        if acc >= target {
            break;
        }
        acc += c;
        keep += 1;
    }
    let heavy = ranked
        .into_iter()
        .take(keep)
        .map(|(term, n)| (term.to_owned(), n))
        .collect();
    (heavy, distinct)
}

/// Ranks and clusters one spike's gathered suggestions into annotations.
///
/// The transformations of §3.4, in order: weight ranking, heavy-hitter
/// prioritisation, semantic clustering. A study annotates every distinct
/// suggestion list against one shared [`PhraseTable`]; this entry builds
/// a table of just this spike's phrases.
pub fn annotate(
    spike: Spike,
    suggestions: &[RisingTerm],
    heavy: &[(String, u64)],
    params: &ContextParams,
) -> AnnotatedSpike {
    let mut phrases = Interner::default();
    for s in suggestions {
        phrases.intern(&s.term);
    }
    let normalized = phrases.normalized();
    AnnotatedSpike {
        spike,
        annotations: PhraseTable::new(phrases, &normalized, heavy).annotate(suggestions, params),
    }
}

/// The distinct suggestion lists of a study. Neighbouring spikes are
/// covered by the same weekly frames and drill-down days, so many carry
/// the same list; a list's annotations are a function of its content, so
/// equal lists share one computation.
#[derive(Default)]
pub(crate) struct SuggestionLists<'a> {
    /// Each distinct list once, in first-seen order.
    pub(crate) distinct: Vec<&'a [RisingTerm]>,
    /// Fingerprint → the distinct lists that have it.
    candidates: HashMap<u64, Vec<usize>>,
}

impl<'a> SuggestionLists<'a> {
    /// The index of the distinct list equal to `list`, which is added if
    /// it is new. `fingerprint` may be any function of `list`: it only
    /// proposes candidates, and equality decides, so two different lists
    /// that share a fingerprint are never merged.
    pub(crate) fn insert(&mut self, fingerprint: u64, list: &'a [RisingTerm]) -> usize {
        let candidates = self.candidates.entry(fingerprint).or_default();
        if let Some(&known) = candidates
            .iter()
            .find(|&&known| self.distinct[known] == list)
        {
            return known;
        }
        let index = self.distinct.len();
        candidates.push(index);
        self.distinct.push(list);
        index
    }
}

/// One distinct raw phrase with everything annotation needs of it.
struct Phrase<'a> {
    raw: &'a str,
    vector: Normed,
    /// Whether the normalized phrase is a heavy hitter.
    heavy: bool,
}

/// The distinct raw phrases of a set of suggestion lists, each embedded
/// and checked against the heavy hitters once, however many spikes
/// suggest it. Read-only once built, so annotation can share it across
/// threads.
pub(crate) struct PhraseTable<'a> {
    /// Raw phrase → index into `phrases`.
    ids: HashMap<&'a str, usize>,
    /// Sorted by raw phrase, so ordering ids orders phrases.
    phrases: Vec<Phrase<'a>>,
}

impl<'a> PhraseTable<'a> {
    /// Embeds the interned phrases and flags the ones whose normalized
    /// form (`normalized`, by interned id) is among `heavy`.
    pub(crate) fn new(
        interned: Interner<'a>,
        normalized: &[String],
        heavy: &[(String, u64)],
    ) -> Self {
        let heavy: HashSet<&str> = heavy.iter().map(|(h, _)| h.as_str()).collect();
        let Interner { mut ids, raws, .. } = interned;
        let mut by_raw: Vec<usize> = (0..raws.len()).collect();
        by_raw.sort_unstable_by_key(|&id| raws[id]);
        let mut rank = vec![0; raws.len()];
        for (r, &id) in by_raw.iter().enumerate() {
            rank[id] = r;
        }
        for id in ids.values_mut() {
            *id = rank[*id];
        }
        // The length is known here, so the kilobyte-sized vectors go into
        // a buffer of exactly the final size; embedding while interning
        // would grow it by doubling and peak at twice that.
        let phrases = by_raw
            .into_iter()
            .map(|id| Phrase {
                raw: raws[id],
                vector: Normed::of_phrase(raws[id]),
                heavy: heavy.contains(normalized[id].as_str()),
            })
            .collect();
        PhraseTable { ids, phrases }
    }

    /// [`annotate`] for a suggestion list whose phrases are all in the
    /// table.
    pub(crate) fn annotate(
        &self,
        suggestions: &[RisingTerm],
        params: &ContextParams,
    ) -> Vec<Annotation> {
        // Merge duplicate phrasings' weights first (the same term often
        // rises in both the weekly and the daily frame). The stable sort
        // groups a phrase's occurrences in suggestion order and leaves
        // the merged list in phrase order — the clustering breaks weight
        // ties by input index, so that order is part of the result.
        let mut merged: Vec<(usize, f64)> = suggestions
            .iter()
            .map(|s| {
                #[expect(clippy::expect_used, reason = "callers intern every suggestion")]
                let id = self.ids.get(s.term.as_str()).expect("phrase was interned");
                (*id, f64::from(s.weight))
            })
            .collect();
        merged.sort_by_key(|&(id, _)| id);
        merged.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });

        let items: Vec<(&Normed, f64)> = merged
            .iter()
            .map(|&(id, weight)| (&self.phrases[id].vector, weight))
            .collect();
        let phrase = |member: usize| &self.phrases[merged[member].0];

        let mut annotations: Vec<Annotation> =
            cluster_embedded(&items, params.similarity_threshold)
                .into_iter()
                .map(|c| Annotation {
                    label: phrase(c.representative).raw.to_owned(),
                    weight: c.members.iter().map(|&i| merged[i].1).sum(),
                    heavy_hitter: c.members.iter().any(|&i| phrase(i).heavy),
                })
                .collect();

        // Heavy hitters outrank random correlations; weight decides within
        // each class.
        annotations.sort_by(|a, b| {
            b.heavy_hitter
                .cmp(&a.heavy_hitter)
                .then(
                    b.weight
                        .partial_cmp(&a.weight)
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
                .then(a.label.cmp(&b.label))
        });
        annotations.truncate(params.max_annotations);
        annotations
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use sift_geo::State;
    use sift_nlp::cluster_phrases;
    use sift_simtime::Hour;

    /// `annotate` as it was first written, kept as the oracle: weights
    /// merged under `String` keys, every occurrence embedded afresh by
    /// `cluster_phrases`, heavy-hitter membership by normalize-and-scan.
    pub(crate) fn reference_annotate(
        spike: Spike,
        suggestions: &[RisingTerm],
        heavy: &[(String, u64)],
        params: &ContextParams,
    ) -> AnnotatedSpike {
        let mut merged: HashMap<String, f64> = HashMap::new();
        for s in suggestions {
            *merged.entry(s.term.clone()).or_insert(0.0) += f64::from(s.weight);
        }
        let mut phrases: Vec<(String, f64)> = merged.into_iter().collect();
        phrases.sort_by(|a, b| a.0.cmp(&b.0));
        let is_heavy = |term: &str| heavy.iter().any(|(h, _)| *h == sift_nlp::normalize(term));
        let mut annotations: Vec<Annotation> =
            cluster_phrases(&phrases, params.similarity_threshold)
                .into_iter()
                .map(|c| Annotation {
                    label: phrases[c.representative].0.clone(),
                    weight: c.members.iter().map(|&i| phrases[i].1).sum(),
                    heavy_hitter: c.members.iter().any(|&i| is_heavy(&phrases[i].0)),
                })
                .collect();
        annotations.sort_by(|a, b| {
            (b.heavy_hitter.cmp(&a.heavy_hitter))
                .then(b.weight.partial_cmp(&a.weight).expect("finite weights"))
                .then(a.label.cmp(&b.label))
        });
        annotations.truncate(params.max_annotations);
        AnnotatedSpike { spike, annotations }
    }

    /// `heavy_hitters` as it was first written: one normalized `String`
    /// key per occurrence.
    pub(crate) fn reference_heavy_hitters(
        suggestion_sets: &[Vec<String>],
        mass: f64,
    ) -> (Vec<(String, u64)>, usize) {
        let mut freq: HashMap<String, u64> = HashMap::new();
        for term in suggestion_sets.iter().flatten() {
            *freq.entry(sift_nlp::normalize(term)).or_insert(0) += 1;
        }
        let total: u64 = freq.values().sum();
        let distinct = freq.len();
        let mut ranked: Vec<(String, u64)> = freq.into_iter().collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let target = (total as f64 * mass).ceil() as u64;
        let mut acc = 0u64;
        ranked.retain(|(_, c)| {
            let keep = acc < target;
            acc += c;
            keep
        });
        (ranked, distinct)
    }

    /// Labels, weight bits, heavy flags and order all equal.
    pub(crate) fn assert_same_annotations(got: &AnnotatedSpike, want: &AnnotatedSpike) {
        let key = |a: &AnnotatedSpike| -> Vec<(String, u64, bool)> {
            a.annotations
                .iter()
                .map(|n| (n.label.clone(), n.weight.to_bits(), n.heavy_hitter))
                .collect()
        };
        assert_eq!(got.spike, want.spike);
        assert_eq!(key(got), key(want));
    }

    /// Suggestion lists drawn from a small pool so that duplicates, case
    /// and punctuation variants of one term, all-stop-word phrases and
    /// tied weights are the common case; empty lists included.
    pub(crate) fn suggestions_strategy() -> impl Strategy<Value = Vec<RisingTerm>> {
        const POOL: &[&str] = &[
            "verizon outage",
            "Verizon Outage",
            "is verizon down",
            "verizon down!!",
            "comcast outage",
            "comcast internet down",
            "power outage",
            "Power Outage near me",
            "san jose power outage",
            "is my",
            "the a",
            "weird meme query",
            "xfinity",
            "",
        ];
        proptest::collection::vec((0..POOL.len(), 0u32..4), 0..30).prop_map(|picks| {
            picks
                .into_iter()
                .map(|(p, w)| term(POOL[p], w * 50))
                .collect()
        })
    }

    proptest! {
        /// The table-backed `annotate` and heavy-hitter count are the
        /// string-keyed originals, bit for bit — for one spike's own
        /// table and for a table shared by several spikes.
        #[test]
        fn annotate_and_heavy_hitters_match_their_references(
            lists in proptest::collection::vec(suggestions_strategy(), 1..5),
            mass in 0.0f64..1.0,
            max_annotations in 1usize..6,
        ) {
            let params = ContextParams { max_annotations, ..ContextParams::default() };
            let sets: Vec<Vec<String>> = lists
                .iter()
                .map(|l| l.iter().map(|t| t.term.clone()).collect())
                .collect();
            let heavy = heavy_hitters(sets.clone(), mass);
            prop_assert_eq!(&heavy, &reference_heavy_hitters(&sets, mass));

            let mut phrases = Interner::default();
            for t in lists.iter().flatten() {
                phrases.intern(&t.term);
            }
            let normalized = phrases.normalized();
            let shared = PhraseTable::new(phrases, &normalized, &heavy.0);
            for list in &lists {
                let want = reference_annotate(spike(), list, &heavy.0, &params);
                assert_same_annotations(&annotate(spike(), list, &heavy.0, &params), &want);
                let got = AnnotatedSpike { spike: spike(), annotations: shared.annotate(list, &params) };
                assert_same_annotations(&got, &want);
            }
        }
    }

    #[test]
    fn lists_that_share_a_fingerprint_stay_apart() {
        // Every list under one fingerprint: only equality may merge them.
        // Against the first list, the second differs in one weight, the
        // third is equal and the fourth has the same terms in another
        // order.
        let lists = [
            vec![term("verizon outage", 100), term("power outage", 50)],
            vec![term("verizon outage", 300), term("power outage", 50)],
            vec![term("verizon outage", 100), term("power outage", 50)],
            vec![term("power outage", 50), term("verizon outage", 100)],
            Vec::new(),
        ];
        let mut memo = SuggestionLists::default();
        let got: Vec<usize> = lists.iter().map(|l| memo.insert(0, l)).collect();
        assert_eq!(got, [0, 1, 0, 2, 3]);
        for (list, &index) in lists.iter().zip(&got) {
            assert_eq!(memo.distinct[index], list.as_slice());
        }
    }

    fn spike() -> Spike {
        Spike {
            state: State::CA,
            start: Hour(0),
            peak: Hour(2),
            end: Hour(10),
            magnitude: 80.0,
        }
    }

    pub(crate) fn term(t: &str, w: u32) -> RisingTerm {
        RisingTerm {
            term: t.into(),
            weight: w,
        }
    }

    #[test]
    fn heavy_hitters_cover_half_the_mass() {
        // "power outage" appears in most sets; the tail is diverse.
        let sets: Vec<Vec<String>> = (0..100)
            .map(|i| vec!["power outage".to_string(), format!("rare term {i}")])
            .collect();
        let (heavy, distinct) = heavy_hitters(sets, 0.5);
        assert_eq!(distinct, 101);
        assert_eq!(heavy.len(), 1, "one term covers half: {heavy:?}");
        assert_eq!(heavy[0].0, "power outage");
        assert_eq!(heavy[0].1, 100);
    }

    #[test]
    fn heavy_hitters_empty_input() {
        let (heavy, distinct) = heavy_hitters(Vec::<Vec<String>>::new(), 0.5);
        assert!(heavy.is_empty());
        assert_eq!(distinct, 0);
    }

    #[test]
    fn annotation_merges_phrase_variants() {
        let suggestions = vec![
            term("is verizon down", 76),
            term("verizon outage", 100),
            term("weird meme query", 300),
        ];
        let heavy = vec![("verizon outage".to_string(), 50u64)];
        let a = annotate(spike(), &suggestions, &heavy, &ContextParams::default());
        // The verizon cluster (176 combined, heavy) outranks the heavier
        // random correlation.
        assert_eq!(a.annotations[0].label, "verizon outage");
        assert!((a.annotations[0].weight - 176.0).abs() < 1e-9);
        assert!(a.annotations[0].heavy_hitter);
        assert!(!a.annotations[1].heavy_hitter);
    }

    #[test]
    fn duplicate_terms_accumulate_weight() {
        let suggestions = vec![term("power outage", 50), term("power outage", 70)];
        let a = annotate(spike(), &suggestions, &[], &ContextParams::default());
        assert_eq!(a.annotations.len(), 1);
        assert!((a.annotations[0].weight - 120.0).abs() < 1e-9);
    }

    #[test]
    fn power_annotation_detection() {
        let suggestions = vec![
            term("san jose power outage", 90),
            term("spectrum outage", 80),
        ];
        let a = annotate(spike(), &suggestions, &[], &ContextParams::default());
        assert!(a.power_annotated());

        let suggestions = vec![term("spectrum outage", 80)];
        let a = annotate(spike(), &suggestions, &[], &ContextParams::default());
        assert!(!a.power_annotated());
    }

    #[test]
    fn annotations_truncated() {
        let suggestions: Vec<RisingTerm> = (0..10)
            .map(|i| term(&format!("provider{i} outage"), 100 - i))
            .collect();
        let params = ContextParams {
            max_annotations: 3,
            ..ContextParams::default()
        };
        let a = annotate(spike(), &suggestions, &[], &params);
        assert_eq!(a.annotations.len(), 3);
    }

    #[test]
    fn label_of_unannotated_spike() {
        let a = annotate(spike(), &[], &[], &ContextParams::default());
        assert_eq!(a.label(), "—");
        assert!(!a.power_annotated());
    }

    #[test]
    fn term_normalization_for_heavy_matching() {
        let suggestions = vec![term("Power Outage!!", 90)];
        let heavy = vec![("power outage".to_string(), 10u64)];
        let a = annotate(spike(), &suggestions, &heavy, &ContextParams::default());
        assert!(a.annotations[0].heavy_hitter);
    }
}

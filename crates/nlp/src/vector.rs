//! Hashed word/character-n-gram phrase embeddings.

use crate::lexicon;
use crate::token::tokenize;

/// Dimensionality of phrase embeddings. 256 is plenty for the few-thousand
/// term vocabulary of outage search phrases while keeping hash collisions
/// rare.
pub const EMBEDDING_DIM: usize = 256;

/// Share of a token's mass carried by the whole-word feature; the rest is
/// spread over its character trigrams. Trigrams carry most of the mass so
/// misspellings ("verzion") stay measurably close to their intended entity
/// while distinct entities (few shared trigrams) stay apart.
const WORD_FEATURE_SHARE: f32 = 0.2;

/// A dense, L2-normalized phrase vector.
///
/// Built feature-hashing style: each token contributes a whole-word feature
/// plus character-trigram features, scaled by its lexicon weight; the
/// phrase vector is the sum, normalized to unit length. Deterministic
/// across runs and platforms (FNV-1a hashing).
#[derive(Clone, Debug, PartialEq)]
pub struct Embedding {
    values: [f32; EMBEDDING_DIM],
}

impl Embedding {
    /// The all-zero embedding (an empty phrase).
    pub fn zero() -> Self {
        Embedding {
            values: [0.0; EMBEDDING_DIM],
        }
    }

    /// Embeds a raw search phrase.
    pub fn of_phrase(phrase: &str) -> Self {
        let tokens = tokenize(phrase);
        let mut e = Embedding::zero();
        // `^token$`, one buffer reused across tokens; the trigram window
        // slides over it and feeds FNV-1a without building the feature
        // strings (`w:<token>`, `g:<trigram>`) it hashes.
        let mut padded: Vec<char> = Vec::new();
        for t in &tokens {
            let canon = lexicon::canonical(t);
            let w = lexicon::weight(canon);
            e.add_feature(
                fnv1a(fnv1a(FNV_OFFSET, b"w:"), canon.as_bytes()),
                w * WORD_FEATURE_SHARE,
            );
            padded.clear();
            padded.push('^');
            padded.extend(canon.chars());
            padded.push('$');
            let grams = padded.len().saturating_sub(2);
            if grams > 0 {
                // sift-lint: allow(lossy-cast) — trigram counts are tiny; f32 holds them exactly
                let per = w * (1.0 - WORD_FEATURE_SHARE) / grams as f32;
                for gram in padded.windows(3) {
                    let mut h = fnv1a(FNV_OFFSET, b"g:");
                    for ch in gram {
                        h = fnv1a(h, ch.encode_utf8(&mut [0; 4]).as_bytes());
                    }
                    e.add_feature(h, per);
                }
            }
        }
        e.normalize();
        e
    }

    /// True if the embedding has no mass (empty or all-stop-word phrase).
    pub fn is_zero(&self) -> bool {
        // sift-lint: allow(float-eq) — an untouched embedding is exactly zero; no arithmetic error to tolerate
        self.values.iter().all(|v| *v == 0.0)
    }

    /// Adds `other` into `self`, scaled by `scale` (for centroids).
    pub fn accumulate(&mut self, other: &Embedding, scale: f32) {
        for (a, b) in self.values.iter_mut().zip(other.values.iter()) {
            *a += b * scale;
        }
    }

    /// The L2 norm, squares summed in index order.
    fn norm(&self) -> f32 {
        self.values.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Rescales the vector to unit L2 norm (no-op for the zero vector).
    pub fn normalize(&mut self) {
        let norm = self.norm();
        if norm > 0.0 {
            for v in &mut self.values {
                *v /= norm;
            }
        }
    }

    /// Adds `weight` to the slot, and with the sign, that the feature's
    /// FNV-1a hash selects.
    fn add_feature(&mut self, hash: u64, weight: f32) {
        let idx = (hash % EMBEDDING_DIM as u64) as usize;
        // A second hash bit gives features signs, which keeps unrelated
        // collisions from systematically inflating similarity.
        let sign = if (hash >> 32) & 1 == 0 { 1.0 } else { -1.0 };
        self.values[idx] += sign * weight;
    }
}

/// Cosine similarity of two embeddings, in `[-1, 1]` (0 if either is zero).
pub fn cosine(a: &Embedding, b: &Embedding) -> f32 {
    similarity(a, a.norm(), b, b.norm())
}

/// [`cosine`] given both norms: the one place the arithmetic lives, so a
/// similarity computed from carried norms is bit-equal to one that
/// recomputes them.
fn similarity(a: &Embedding, norm_a: f32, b: &Embedding, norm_b: f32) -> f32 {
    let dot: f32 = a
        .values
        .iter()
        .zip(b.values.iter())
        .map(|(x, y)| x * y)
        .sum();
    if norm_a <= 0.0 || norm_b <= 0.0 {
        0.0
    } else {
        (dot / (norm_a * norm_b)).clamp(-1.0, 1.0)
    }
}

/// An [`Embedding`] carried with its L2 norm, for vectors that are
/// compared many times: [`cosine`] recomputes both norms on every call,
/// [`Normed::similarity`] reads them. The fields are private so the norm
/// is always the embedding's own.
#[derive(Clone, Debug)]
pub struct Normed {
    embedding: Embedding,
    norm: f32,
}

impl Normed {
    /// Pairs an embedding with its norm.
    pub fn new(embedding: Embedding) -> Self {
        let norm = embedding.norm();
        Normed { embedding, norm }
    }

    /// Embeds a raw search phrase ([`Embedding::of_phrase`]).
    pub fn of_phrase(phrase: &str) -> Self {
        Normed::new(Embedding::of_phrase(phrase))
    }

    /// The embedding.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// Cosine similarity, bit-equal to [`cosine`] of the two embeddings.
    pub fn similarity(&self, other: &Normed) -> f32 {
        similarity(&self.embedding, self.norm, &other.embedding, other.norm)
    }

    /// Folds `other` into this vector as a cluster centroid: added at
    /// scale 1, then renormalized.
    pub fn absorb(&mut self, other: &Normed) {
        self.embedding.accumulate(&other.embedding, 1.0);
        self.embedding.normalize();
        self.norm = self.embedding.norm();
    }
}

/// FNV-1a 64-bit offset basis: the hash of the empty string.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Extends the FNV-1a 64-bit hash `h` by `bytes` (small, deterministic,
/// good avalanche for short keys). Hashing a string piecewise equals
/// hashing its concatenation.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Character trigrams of a token, with boundary markers (`^tx`, `xt$`).
    fn trigrams(token: &str) -> Vec<String> {
        let padded: Vec<char> = std::iter::once('^')
            .chain(token.chars())
            .chain(std::iter::once('$'))
            .collect();
        if padded.len() < 3 {
            return Vec::new();
        }
        padded.windows(3).map(|w| w.iter().collect()).collect()
    }

    /// `of_phrase` as it was first written: every feature a formatted
    /// `String`, hashed whole. The streaming construction must reproduce
    /// it bit for bit.
    fn of_phrase_formatted(phrase: &str) -> Embedding {
        let mut e = Embedding::zero();
        for t in &tokenize(phrase) {
            let canon = lexicon::canonical(t);
            let w = lexicon::weight(canon);
            let word = format!("w:{canon}");
            e.add_feature(fnv1a(FNV_OFFSET, word.as_bytes()), w * WORD_FEATURE_SHARE);
            let grams = trigrams(canon);
            if !grams.is_empty() {
                let per = w * (1.0 - WORD_FEATURE_SHARE) / grams.len() as f32;
                for g in grams {
                    e.add_feature(fnv1a(FNV_OFFSET, format!("g:{g}").as_bytes()), per);
                }
            }
        }
        e.normalize();
        e
    }

    #[test]
    fn streaming_features_match_the_formatted_construction_bit_for_bit() {
        let same = |phrase: &str| {
            let got = Embedding::of_phrase(phrase);
            let want = of_phrase_formatted(phrase);
            let bits = |e: &Embedding| e.values.map(f32::to_bits);
            assert_eq!(bits(&got), bits(&want), "{phrase:?}");
        };
        let lexicon_words: Vec<&str> = lexicon::OUTAGE_SYNONYMS
            .iter()
            .chain(lexicon::GENERIC_WORDS)
            .copied()
            .collect();
        for w in &lexicon_words {
            same(w);
        }
        // Entities, misspellings, multi-byte and one-letter tokens, stop
        // words and punctuation, mixed with the lexicon by a fixed LCG.
        let extra = [
            "verizon", "verzion", "Comcast", "AT&T", "t-mobile", "zürich", "İSS", "日本", "x",
            "is", "my", "the", "911", "san", "jose", "???", "",
        ];
        let vocab: Vec<&str> = lexicon_words.iter().chain(&extra).copied().collect();
        let mut state: u64 = 0x5eed;
        let mut next = |n: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % n
        };
        for _ in 0..400 {
            let words: Vec<&str> = (0..=next(5)).map(|_| vocab[next(vocab.len())]).collect();
            same(&words.join(" "));
        }
    }

    #[test]
    fn embedding_is_deterministic() {
        let a = Embedding::of_phrase("spectrum internet outage");
        let b = Embedding::of_phrase("spectrum internet outage");
        assert_eq!(a, b);
    }

    #[test]
    fn unit_norm_for_nonempty() {
        let e = Embedding::of_phrase("verizon outage");
        let norm: f32 = e.values.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5, "norm {norm}");
    }

    #[test]
    fn empty_phrase_is_zero() {
        assert!(Embedding::of_phrase("").is_zero());
        assert!(Embedding::of_phrase("is my the").is_zero());
        assert!(cosine(&Embedding::zero(), &Embedding::zero()).abs() < 1e-12);
    }

    #[test]
    fn self_similarity_is_one() {
        let e = Embedding::of_phrase("xfinity down");
        assert!((cosine(&e, &e) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn misspellings_stay_close() {
        let a = Embedding::of_phrase("verizon outage");
        let misspelled = Embedding::of_phrase("verzion outage");
        let other_entity = Embedding::of_phrase("comcast outage");
        let sim_misspelled = cosine(&a, &misspelled);
        let sim_other = cosine(&a, &other_entity);
        assert!(
            sim_misspelled > 0.3,
            "misspelling similarity {sim_misspelled}"
        );
        assert!(
            sim_misspelled > sim_other + 0.1,
            "misspelling ({sim_misspelled}) must beat a different entity ({sim_other})"
        );
    }

    #[test]
    fn word_order_is_ignored() {
        let a = Embedding::of_phrase("outage spectrum");
        let b = Embedding::of_phrase("spectrum outage");
        assert!((cosine(&a, &b) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn trigram_boundaries() {
        assert_eq!(trigrams("tx"), vec!["^tx", "tx$"]);
        assert!(trigrams("a").len() == 1);
        assert!(trigrams("").is_empty());
    }

    #[test]
    fn unrelated_phrases_are_distant() {
        let a = Embedding::of_phrase("san jose power outage");
        let b = Embedding::of_phrase("youtube down");
        assert!(cosine(&a, &b) < 0.5);
    }
}

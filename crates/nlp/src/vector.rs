//! Hashed word/character-n-gram phrase embeddings: [`Embedding`] and the
//! dense [`cosine`], plus [`Normed`], which carries a vector's norm and
//! occupied slots so that repeated comparisons skip the zeros.

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

/// An L2-normalized phrase vector, stored dense.
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
/// The dense reference: every slot, in index order.
pub fn cosine(a: &Embedding, b: &Embedding) -> f32 {
    let dot: f32 = a
        .values
        .iter()
        .zip(b.values.iter())
        .map(|(x, y)| x * y)
        .sum();
    ratio(dot, a.norm(), b.norm())
}

/// `dot` over the two norms, clamped to `[-1, 1]` (0 if either norm is
/// zero): the step [`cosine`] and [`Normed::similarity`] share.
fn ratio(dot: f32, norm_a: f32, norm_b: f32) -> f32 {
    if norm_a <= 0.0 || norm_b <= 0.0 {
        0.0
    } else {
        (dot / (norm_a * norm_b)).clamp(-1.0, 1.0)
    }
}

/// Slot occupancy, one bit per slot: bit `i % 64` of word `i / 64` is
/// slot `i`.
type Mask = [u64; EMBEDDING_DIM / 64];

/// The set slots of `mask`, ascending.
fn slots(mask: Mask) -> impl Iterator<Item = usize> {
    mask.into_iter().enumerate().flat_map(|(w, mut bits)| {
        std::iter::from_fn(move || {
            let bit = bits.trailing_zeros() as usize; // 64 once empty
            bits &= bits.wrapping_sub(1);
            (bit < 64).then_some(w * 64 + bit)
        })
    })
}

/// The nonzero slots of `values` among `candidates`.
fn occupied(values: &[f32; EMBEDDING_DIM], candidates: impl Iterator<Item = usize>) -> Mask {
    let mut mask = [0; EMBEDDING_DIM / 64];
    for i in candidates {
        // sift-lint: allow(float-eq) — occupancy means not exactly zero, as in `Embedding::is_zero`
        if values[i] != 0.0 {
            mask[i / 64] |= 1 << (i % 64);
        }
    }
    mask
}

/// [`Embedding::norm`] over the slots of `mask`: squares summed in index
/// order from `+0.0`, then `sqrt`.
fn norm_over(values: &[f32; EMBEDDING_DIM], mask: Mask) -> f32 {
    slots(mask)
        .fold(0.0, |s, i| s + values[i] * values[i])
        .sqrt()
}

/// An [`Embedding`] carried with its L2 norm and the mask of its nonzero
/// slots, for vectors that are compared many times: [`cosine`] recomputes
/// both norms and multiplies all [`EMBEDDING_DIM`] slots on every call,
/// [`Normed::similarity`] reads the norms and multiplies only the slots
/// occupied in both vectors (a phrase occupies a few dozen). The fields
/// are private so the norm and mask are always the embedding's own.
///
/// Results are bit-equal to the dense arithmetic. The dense sums add in
/// index order, and a slot outside the mask is zero, so its product or
/// square is a zero; adding a zero leaves a nonzero partial sum
/// unchanged, so skipping it changes no nonzero sum. The sparse sums
/// start from `+0.0`. When every term is a zero the dense sum is `+0.0`
/// too, as long as some slot is occupied by neither vector (a phrase
/// occupies a few dozen of the 256): that slot's term is `+0.0`, and a
/// `+0.0` partial sum stays `+0.0` under zeros of either sign. Otherwise
/// the two differ at most in the sign of a zero, which compares equal.
#[derive(Clone, Debug)]
pub struct Normed {
    embedding: Embedding,
    norm: f32,
    /// Bit `i` set exactly when slot `i` is nonzero.
    mask: Mask,
}

impl Normed {
    /// Pairs an embedding with its norm and occupancy.
    pub fn new(embedding: Embedding) -> Self {
        let norm = embedding.norm();
        let mask = occupied(&embedding.values, 0..EMBEDDING_DIM);
        Normed {
            embedding,
            norm,
            mask,
        }
    }

    /// Embeds a raw search phrase ([`Embedding::of_phrase`]).
    pub fn of_phrase(phrase: &str) -> Self {
        Normed::new(Embedding::of_phrase(phrase))
    }

    /// The embedding.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// [`Embedding::is_zero`], read from the mask.
    pub(crate) fn is_zero(&self) -> bool {
        self.mask == [0; EMBEDDING_DIM / 64]
    }

    /// Cosine similarity, bit-equal to [`cosine`] of the two embeddings:
    /// the dot product over the slots both vectors occupy, in index order
    /// from `+0.0`, over the carried norms.
    pub fn similarity(&self, other: &Normed) -> f32 {
        let (a, b) = (&self.embedding.values, &other.embedding.values);
        let both = std::array::from_fn(|w| self.mask[w] & other.mask[w]);
        let dot = slots(both).fold(0.0, |s, i| s + a[i] * b[i]);
        ratio(dot, self.norm, other.norm)
    }

    /// Folds `other` into this vector as a cluster centroid: added at
    /// scale 1, then renormalized — [`Embedding::accumulate`] then
    /// [`Embedding::normalize`], bit for bit, over the occupied slots
    /// only. Slots that cancel to zero leave the mask.
    pub fn absorb(&mut self, other: &Normed) {
        let values = &mut self.embedding.values;
        for i in slots(other.mask) {
            values[i] += other.embedding.values[i];
        }
        let union = std::array::from_fn(|w| self.mask[w] | other.mask[w]);
        let norm = norm_over(values, union);
        if norm > 0.0 {
            for i in slots(union) {
                values[i] /= norm;
            }
        }
        self.mask = occupied(values, slots(union));
        self.norm = norm_over(values, self.mask);
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

    /// The mask holds exactly the nonzero slots.
    fn assert_mask_is_occupancy(v: &Normed) {
        for (i, value) in v.embedding.values.iter().enumerate() {
            let bit = v.mask[i / 64] >> (i % 64) & 1 == 1;
            // sift-lint: allow(float-eq) — occupancy means not exactly zero
            assert_eq!(bit, *value != 0.0, "slot {i}: {value}");
        }
    }

    #[test]
    fn mask_is_the_occupancy_after_new_and_after_each_absorb() {
        let mut centroid = Normed::of_phrase("verizon outage");
        assert_mask_is_occupancy(&centroid);
        for joiner in [
            "is verizon down",
            "verzion not working",
            "",
            "comcast outage",
        ] {
            let joiner = Normed::of_phrase(joiner);
            assert_mask_is_occupancy(&joiner);
            centroid.absorb(&joiner);
            assert_mask_is_occupancy(&centroid);
        }
        // A member cancelled by its negation leaves nothing occupied.
        let v = Normed::of_phrase("xfinity");
        let mut negated = v.embedding.clone();
        negated.values.iter_mut().for_each(|x| *x = -*x);
        let mut cancelled = v.clone();
        cancelled.absorb(&Normed::new(negated));
        assert_mask_is_occupancy(&cancelled);
        assert!(cancelled.is_zero() && cancelled.embedding.is_zero());
    }

    #[test]
    fn disjoint_supports_give_positive_zero() {
        let a = Normed::of_phrase("verizon");
        let b = (0..64)
            .map(|n| Normed::of_phrase(&format!("q{n}")))
            .find(|b| (0..a.mask.len()).all(|w| a.mask[w] & b.mask[w] == 0))
            .expect("some one-word phrase shares no slot with `verizon`");
        assert_eq!(a.similarity(&b).to_bits(), 0.0f32.to_bits());
        assert_eq!(b.similarity(&a).to_bits(), 0.0f32.to_bits());
        assert_eq!(
            cosine(&a.embedding, &b.embedding).to_bits(),
            0.0f32.to_bits()
        );
    }

    #[test]
    fn unrelated_phrases_are_distant() {
        let a = Embedding::of_phrase("san jose power outage");
        let b = Embedding::of_phrase("youtube down");
        assert!(cosine(&a, &b) < 0.5);
    }
}

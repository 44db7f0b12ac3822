//! # pexeso-embed — embedding substrate for PEXESO
//!
//! The PEXESO paper embeds the string values of table columns with a
//! pre-trained model (fastText for OPEN, GloVe for WDC) and treats the model
//! as a plug-in: *any* representation that lands in a metric space works.
//! Pre-trained models are not available offline, so this crate provides a
//! deterministic, dependency-free substitute that reproduces the two
//! properties the paper's evaluation relies on:
//!
//! 1. **Misspelling tolerance** (fastText subwords): strings are embedded by
//!    pooling hashed character 3- and 4-grams, so a one-edit misspelling
//!    shares most n-grams with the original and lands nearby
//!    ([`HashEmbedder`]).
//! 2. **Semantic proximity** (distributional similarity): a
//!    [`lexicon::Lexicon`] maps surface forms to concepts; the
//!    [`SemanticEmbedder`] mixes a concept-derived vector into the character
//!    vector with weight α = 0.95, so synonyms ("American Indian/Alaska
//!    Native" vs. "Mainland Indigenous") land nearby even with disjoint
//!    characters. A value missing from the lexicon still hits a concept
//!    whose surface form it matches with edit similarity ≥ 0.75.
//!
//! The n-gram range, α and the fuzzy floor are fixed: the vectors every
//! deployment stores depend on them, so they are not settings.
//!
//! Abbreviation/date handling from the paper's offline component ("Mar" →
//! "March", "St" → "Street") lives in [`abbrev`].
//!
//! All output vectors are L2-normalised (unless empty), matching the paper's
//! threshold-specification scheme where the maximum Euclidean distance
//! between any two embedded values is 2.

pub mod abbrev;
pub mod embedder;
pub mod hashing;
pub mod lexicon;
pub mod ngram;
pub mod tokenize;

pub use abbrev::AbbrevExpander;
pub use embedder::{Embedder, HashEmbedder, SemanticEmbedder};
pub use hashing::{fnv1a64, splitmix64};
pub use lexicon::{ConceptId, Lexicon};
pub use tokenize::tokenize;

/// L2-normalise a vector in place. Zero vectors are left untouched so they
/// never produce NaN; callers treat the zero vector as "no information".
pub fn l2_normalize(v: &mut [f32]) {
    let norm_sq: f32 = v.iter().map(|x| x * x).sum();
    if norm_sq > 0.0 {
        let inv = norm_sq.sqrt().recip();
        for x in v.iter_mut() {
            *x *= inv;
        }
    }
}

/// Euclidean distance between two equal-length vectors.
pub fn euclidean(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum::<f32>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_unit_length() {
        let mut v = vec![3.0, 4.0];
        l2_normalize(&mut v);
        assert!((v[0] - 0.6).abs() < 1e-6);
        assert!((v[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut v = vec![0.0; 8];
        l2_normalize(&mut v);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn euclidean_basic() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(euclidean(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }
}

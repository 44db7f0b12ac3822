//! The [`Embedder`] trait and its two implementations.
//!
//! * [`HashEmbedder`] — pure character-level feature hashing (fastText
//!   subwords without the trained co-occurrence component).
//! * [`SemanticEmbedder`] — blends a [`Lexicon`] concept vector into the
//!   character vector, reproducing the synonym behaviour of trained
//!   embeddings. This is the default model used by the experiments.
//!
//! Both are deterministic: the same string always embeds to the same vector,
//! across runs and machines.

use crate::abbrev::AbbrevExpander;
use crate::hashing::hash_str;
use crate::l2_normalize;
use crate::lexicon::{concept_vector, Lexicon};
use crate::ngram::for_each_ngram;
use crate::tokenize::tokenize;

/// A plug-in representation model mapping strings to vectors in a metric
/// space, mirroring the paper's "any representation learning model can be
/// used in our framework" design point.
pub trait Embedder: Send + Sync {
    /// Dimensionality of produced vectors.
    fn dim(&self) -> usize;

    /// Embed `value` into `out` (length must equal [`Embedder::dim`]).
    /// The result is L2-normalised unless the value carries no signal, in
    /// which case `out` is the zero vector. It depends on `value` alone:
    /// the offline embedding loop embeds each distinct value once and
    /// copies the vector to its repeats.
    fn embed_into(&self, value: &str, out: &mut [f32]);

    /// Convenience allocating wrapper around [`Embedder::embed_into`].
    fn embed(&self, value: &str) -> Vec<f32> {
        let mut out = vec![0.0; self.dim()];
        self.embed_into(value, &mut out);
        out
    }
}

/// Shortest and longest character n-gram (inclusive) a token hashes.
const NGRAM_MIN: usize = 3;
const NGRAM_MAX: usize = 4;

/// Seed of the n-gram feature hash.
const NGRAM_SALT: u64 = 0x9a3c_e5f1_70b2_d84e;

/// Character n-gram feature-hashing embedder.
///
/// Every 3- and 4-gram hashes to a dimension and a sign; a token is the
/// normalised sum of its n-gram features; a multi-token value is the
/// normalised mean of its token vectors. Misspellings share most n-grams,
/// hence land nearby. Values pass through the built-in abbreviation
/// dictionary first.
#[derive(Debug, Clone)]
pub struct HashEmbedder {
    dim: usize,
    expander: AbbrevExpander,
}

impl HashEmbedder {
    /// A `dim`-dimensional embedder.
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 4, "embedding dimension must be at least 4");
        Self {
            dim,
            expander: AbbrevExpander::with_builtin(),
        }
    }

    /// Accumulate the (unnormalised) character vector of one token.
    fn add_token(&self, token: &str, out: &mut [f32]) {
        let dim = self.dim as u64;
        for_each_ngram(token, NGRAM_MIN, NGRAM_MAX, |gram| {
            let h = hash_str(gram, NGRAM_SALT);
            let idx = (h % dim) as usize;
            let sign = if (h >> 63) == 0 { 1.0 } else { -1.0 };
            out[idx] += sign;
        });
    }

    /// Character-level embedding shared by both embedders: mean of
    /// per-token normalised n-gram vectors, then normalised. `tokens` are
    /// the value's expanded lowercase tokens, so a caller that also needs
    /// them expands the value once.
    fn char_embed_into(&self, tokens: &[String], out: &mut [f32]) -> bool {
        out.iter_mut().for_each(|x| *x = 0.0);
        if tokens.is_empty() {
            return false;
        }
        let mut token_vec = vec![0.0f32; self.dim];
        for t in tokens {
            token_vec.iter_mut().for_each(|x| *x = 0.0);
            self.add_token(t, &mut token_vec);
            l2_normalize(&mut token_vec);
            for (o, v) in out.iter_mut().zip(token_vec.iter()) {
                *o += v;
            }
        }
        l2_normalize(out);
        true
    }
}

impl Embedder for HashEmbedder {
    fn dim(&self) -> usize {
        self.dim
    }

    fn embed_into(&self, value: &str, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output buffer has wrong dimension");
        self.char_embed_into(&tokenize(&self.expander.expand(value)), out);
    }
}

/// Weight α of the concept component. It places synonym pairs within
/// roughly 4 % of the maximum unit-vector distance — inside the paper's τ
/// range (2–8 %), the regime its experiments operate in.
const ALPHA: f32 = 0.95;

/// Minimum edit similarity for a fuzzy (out-of-vocabulary) lexicon hit.
const FUZZY_MIN_SIM: f64 = 0.75;

/// Semantic embedder: `normalize(α · concept + (1 − α) · char)`, α = 0.95.
///
/// When the (expanded, normalised) value — or failing that, an individual
/// token — is found in the lexicon, its concept vector dominates, pulling
/// synonyms together. Unknown strings degrade gracefully to the pure
/// character embedding of [`HashEmbedder`], exactly like out-of-vocabulary
/// words fall back to subword embeddings in fastText.
#[derive(Debug, Clone)]
pub struct SemanticEmbedder {
    base: HashEmbedder,
    lexicon: Lexicon,
}

impl SemanticEmbedder {
    pub fn new(dim: usize, lexicon: Lexicon) -> Self {
        Self {
            base: HashEmbedder::new(dim),
            lexicon,
        }
    }

    pub fn lexicon(&self) -> &Lexicon {
        &self.lexicon
    }
}

impl Embedder for SemanticEmbedder {
    fn dim(&self) -> usize {
        self.base.dim()
    }

    fn embed_into(&self, value: &str, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim(), "output buffer has wrong dimension");
        let expanded = self.base.expander.expand(value);
        let tokens = tokenize(&expanded);
        let has_char = self.base.char_embed_into(&tokens, out);

        // Full-string lookup first (exact, then fuzzy for misspellings);
        // else average the concepts of the tokens that are individually
        // known.
        let mut concept_acc = vec![0.0f32; self.dim()];
        let mut concept_hits = 0usize;
        if let Some(c) = self.lexicon.lookup_fuzzy(&expanded, FUZZY_MIN_SIM) {
            concept_acc = concept_vector(c, self.dim());
            concept_hits = 1;
        } else {
            for t in &tokens {
                if let Some(c) = self.lexicon.lookup_normalized(t) {
                    let v = concept_vector(c, self.dim());
                    for (a, b) in concept_acc.iter_mut().zip(v.iter()) {
                        *a += b;
                    }
                    concept_hits += 1;
                }
            }
            if concept_hits > 0 {
                l2_normalize(&mut concept_acc);
            }
        }

        match (concept_hits > 0, has_char) {
            (true, true) => {
                for (o, c) in out.iter_mut().zip(concept_acc.iter()) {
                    *o = ALPHA * c + (1.0 - ALPHA) * *o;
                }
                l2_normalize(out);
            }
            (true, false) => {
                out.copy_from_slice(&concept_acc);
            }
            (false, _) => { /* char embedding (or zero) already in `out` */ }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::euclidean;

    fn dist(e: &impl Embedder, a: &str, b: &str) -> f32 {
        euclidean(&e.embed(a), &e.embed(b))
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let e = HashEmbedder::new(64);
        let v = e.embed("hello world");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_string_embeds_to_zero() {
        let e = HashEmbedder::new(64);
        assert!(e.embed("").iter().all(|&x| x == 0.0));
        assert!(e.embed("--- ;; ").iter().all(|&x| x == 0.0));
    }

    #[test]
    fn deterministic() {
        let e = HashEmbedder::new(128);
        assert_eq!(e.embed("Nintendo"), e.embed("Nintendo"));
    }

    #[test]
    fn identical_strings_distance_zero() {
        let e = HashEmbedder::new(64);
        assert_eq!(dist(&e, "mario party", "Mario Party!"), 0.0);
    }

    #[test]
    fn misspelling_closer_than_unrelated() {
        let e = HashEmbedder::new(128);
        let d_typo = dist(&e, "population", "popluation");
        let d_unrel = dist(&e, "population", "xylophone");
        // Unrelated unit vectors sit near sqrt(2) ≈ 1.414; a transposition
        // keeps most n-grams shared and lands well inside that.
        assert!(
            d_typo < d_unrel * 0.8,
            "typo {d_typo} should be much closer than unrelated {d_unrel}"
        );
    }

    #[test]
    fn abbreviation_expansion_brings_forms_together() {
        let e = HashEmbedder::new(128);
        let d = dist(&e, "12 Main St", "12 Main Street");
        assert!(d < 1e-5, "St should expand to Street: {d}");
    }

    #[test]
    fn semantic_synonyms_close_unrelated_far() {
        let mut lex = Lexicon::new();
        lex.add_synonym_set(["American Indian/Alaska Native", "Mainland Indigenous"]);
        lex.add_synonym_set(["Hawaiian/Guamanian/Samoan", "Pacific Islander"]);
        let e = SemanticEmbedder::new(128, lex);
        let d_syn = dist(&e, "American Indian/Alaska Native", "Mainland Indigenous");
        let d_cross = dist(&e, "American Indian/Alaska Native", "Pacific Islander");
        // Synonyms must land inside the paper's τ regime (≤ 8 % of the max
        // distance 2 = 0.16); distinct concepts stay far outside it (at
        // least a topic-internal distance ≈ 0.6, often the full √2).
        assert!(d_syn < 0.16, "synonyms should be very close: {d_syn}");
        assert!(d_cross > 0.4, "cross-concept {d_cross} vs synonym {d_syn}");
    }

    #[test]
    fn misspelled_known_value_stays_close() {
        let mut lex = Lexicon::new();
        lex.add_synonym_set(["Pacific Islander"]);
        let e = SemanticEmbedder::new(128, lex);
        // One character-level edit: fuzzy lookup resolves to the concept.
        let d = dist(&e, "Pacific Islander", "Pacific Islandr");
        assert!(
            d < 0.16,
            "misspelling of a known value should stay joinable: {d}"
        );
        let d_far = dist(&e, "Pacific Islander", "Atlantic Salmon Run");
        assert!(d_far > 1.0);
    }

    #[test]
    fn unknown_strings_fall_back_to_char_level() {
        let lex = Lexicon::new();
        let sem = SemanticEmbedder::new(128, lex);
        let base = HashEmbedder::new(128);
        assert_eq!(
            sem.embed("completely unknown thing"),
            base.embed("completely unknown thing")
        );
    }

    #[test]
    fn token_level_concept_fallback() {
        let mut lex = Lexicon::new();
        lex.add_synonym_set(["nintendo"]);
        let e = SemanticEmbedder::new(128, lex);
        // "Nintendo Switch" is not in the lexicon as a whole, but the token
        // "nintendo" is; it should still pull toward the concept.
        let d_related = dist(&e, "Nintendo Switch", "nintendo");
        let d_unrelated = dist(&e, "Sony PlayStation", "nintendo");
        assert!(d_related < d_unrelated);
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn wrong_buffer_dim_panics() {
        let e = HashEmbedder::new(64);
        let mut out = vec![0.0; 32];
        e.embed_into("x", &mut out);
    }
}

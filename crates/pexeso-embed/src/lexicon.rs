//! Synonym/concept lexicon: the semantic layer of the embedding substitute.
//!
//! Distributional embeddings place synonymous phrases close together because
//! they occur in similar contexts. Offline we cannot train that, so we make
//! the mechanism explicit: a [`Lexicon`] maps normalised surface forms to
//! [`ConceptId`]s, and each concept deterministically owns a random unit
//! vector. The [`crate::SemanticEmbedder`] blends this concept vector with
//! the character-level vector, giving synonyms small mutual distances while
//! keeping unrelated strings far apart.
//!
//! Out-of-vocabulary handling follows the paper's own suggestion ("using
//! the embedding of the most literally similar word"): when an exact lookup
//! misses, [`Lexicon::lookup_fuzzy`] finds the most edit-similar registered
//! surface via a character-trigram index — this is what makes misspelled
//! cells land next to their clean forms. A miss is the dear case of lake
//! embedding, so its three stages are each made cheap: trigram overlaps
//! are counted into dense per-entry counters without a branch on the
//! count, the shortlist is found by counting overlap values (a histogram
//! gives the cut) so only its 48 entries are ever sorted, and the edit
//! distances run bit-parallel (Myers, J. ACM 1999) for keys of up to 64
//! chars. Which surface wins depends on the shortlist's order alone, not
//! on how it was computed.

use std::collections::HashMap;

use crate::hashing::GaussianStream;
use crate::tokenize::normalize;

/// Identifier of a semantic concept (an entity / word sense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConceptId(pub u64);

/// A mapping from normalised surface strings to concepts, with fuzzy
/// lookup for out-of-vocabulary strings.
#[derive(Debug, Default, Clone)]
pub struct Lexicon {
    /// Normalised surface → its index in `entries`.
    surface_to_entry: HashMap<String, u32>,
    /// Registered surfaces in insertion order, one entry per surface with
    /// its current concept (the fuzzy-lookup candidates).
    entries: Vec<(String, ConceptId)>,
    /// Character trigram → indices into `entries`.
    trigrams: HashMap<[char; 3], Vec<u32>>,
    next_auto_id: u64,
}

/// Most trigram-sharing candidates examined per fuzzy lookup.
const FUZZY_CANDIDATES: usize = 48;

/// An overlap most shortlists reach: entries that reach it are listed
/// apart, and a lookup with 48 of them picks its shortlist from that
/// short list instead of from every entry touched. (On a generated WDC
/// lake a miss touches ≈ 4,300 entries and ≈ 340 reach 4; four in five
/// misses have 48 that do.)
const SHORTLIST_LEVEL: u32 = 4;

fn surface_trigrams(key: &str) -> Vec<[char; 3]> {
    // Pad so short strings still produce trigrams.
    let padded: Vec<char> = std::iter::once('^')
        .chain(key.chars())
        .chain(std::iter::once('$'))
        .collect();
    if padded.len() < 3 {
        return vec![[padded[0], *padded.last().unwrap(), '$']];
    }
    padded.windows(3).map(|w| [w[0], w[1], w[2]]).collect()
}

/// Bounded Levenshtein distance over chars; `None` when > `max`. `prev`
/// and `cur` are the two DP rows, passed in so a caller comparing many
/// candidates allocates them once.
fn edit_distance_bounded(
    a: &[char],
    b: &[char],
    max: usize,
    prev: &mut Vec<usize>,
    cur: &mut Vec<usize>,
) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > max {
        return None;
    }
    if n == 0 {
        return Some(m);
    }
    if m == 0 {
        return Some(n);
    }
    let inf = usize::MAX / 2;
    prev.clear();
    prev.extend((0..=m).map(|j| if j <= max { j } else { inf }));
    cur.clear();
    cur.resize(m + 1, inf);
    for i in 1..=n {
        let lo = i.saturating_sub(max).max(1);
        let hi = (i + max).min(m);
        cur[lo - 1] = if lo == 1 { i } else { inf };
        let mut row_min = cur[lo - 1];
        for j in lo..=hi {
            let cost = usize::from(a[i - 1] != b[j - 1]);
            let v = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
            cur[j] = v;
            row_min = row_min.min(v);
        }
        if hi < m {
            cur[hi + 1..].iter_mut().for_each(|x| *x = inf);
        }
        if row_min > max {
            return None;
        }
        std::mem::swap(prev, cur);
    }
    (prev[m] <= max).then_some(prev[m])
}

impl Lexicon {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of registered surface forms.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Register `surface` as a form of `concept`. The surface form is
    /// normalised (tokenised + lowercased) before storage, so lookups are
    /// robust to case/punctuation differences. Re-registering a surface
    /// moves it to the new concept, for exact and fuzzy lookups alike.
    pub(crate) fn register(&mut self, surface: &str, concept: ConceptId) {
        let key = normalize(surface);
        if key.is_empty() {
            return;
        }
        if let Some(&idx) = self.surface_to_entry.get(&key) {
            self.entries[idx as usize].1 = concept;
            return;
        }
        let idx = self.entries.len() as u32;
        for tg in surface_trigrams(&key) {
            self.trigrams.entry(tg).or_default().push(idx);
        }
        self.entries.push((key.clone(), concept));
        self.surface_to_entry.insert(key, idx);
    }

    /// Create a fresh concept and register all given surface forms for it.
    pub fn add_synonym_set<'a>(
        &mut self,
        surfaces: impl IntoIterator<Item = &'a str>,
    ) -> ConceptId {
        // Auto ids live in a high namespace to avoid colliding with caller ids.
        self.next_auto_id += 1;
        let id = ConceptId(0x8000_0000_0000_0000 | self.next_auto_id);
        for s in surfaces {
            self.register(s, id);
        }
        id
    }

    /// Look up the concept of a (raw) surface string, if known.
    pub fn lookup(&self, surface: &str) -> Option<ConceptId> {
        self.lookup_normalized(&normalize(surface))
    }

    /// Look up an already-normalised key without re-normalising.
    pub fn lookup_normalized(&self, key: &str) -> Option<ConceptId> {
        self.surface_to_entry
            .get(key)
            .map(|&idx| self.entries[idx as usize].1)
    }

    /// Fuzzy lookup for out-of-vocabulary strings: the registered surface
    /// with the highest normalised edit similarity ≥ `min_sim`, shortlisted
    /// by shared character trigrams. `key` must be normalised.
    ///
    /// An entry's overlap is the sum, over the key's trigram occurrences,
    /// of its occurrences in that trigram's posting list; the shortlist is
    /// the 48 best by `(overlap desc, entry index asc)`, examined in that
    /// order, and the answer is the first with the strictly highest
    /// similarity. Overlaps are counted into a dense per-entry array; an
    /// entry joins the list of those touched on its first posting, and
    /// the list of those reaching `SHORTLIST_LEVEL` on the posting that
    /// lifts it there, both without a branch. The shortlist is counted,
    /// not sorted: a histogram of the overlaps over the shorter list that
    /// holds it gives the cut, and only the 48 entries picked are
    /// ordered. The edit distances run bit-parallel against the key —
    /// Myers' algorithm, a few word operations per candidate char — for
    /// keys of up to 64 chars, and as banded dynamic programming beyond;
    /// a candidate passes under the same `d ≤ max_errors` bound either
    /// way.
    pub fn lookup_fuzzy(&self, key: &str, min_sim: f64) -> Option<ConceptId> {
        if key.is_empty() {
            return None;
        }
        if let Some(c) = self.lookup_normalized(key) {
            return Some(c);
        }
        let postings: Vec<&[u32]> = surface_trigrams(key)
            .iter()
            .filter_map(|tg| self.trigrams.get(tg).map(Vec::as_slice))
            .collect();
        let walked: usize = postings.iter().map(|p| p.len()).sum();
        if walked == 0 {
            return None;
        }
        // Every posting writes its entry to the next slot of both lists;
        // a list keeps it (its length advances) only on the entry's first
        // posting, or on the posting that lifts its overlap to
        // `SHORTLIST_LEVEL` — no branch on the count. Before the `k`-th
        // posting `touched` holds at most `min(k, entries)` entries and
        // `reached` at most `k / SHORTLIST_LEVEL`, so neither overflows.
        let mut overlap = vec![0u32; self.entries.len()];
        let mut touched = vec![0u32; walked.min(self.entries.len() + 1)];
        let mut reached = vec![0u32; walked / SHORTLIST_LEVEL as usize + 1];
        let (mut n_touched, mut n_reached) = (0, 0);
        for &e in postings.into_iter().flatten() {
            let count = &mut overlap[e as usize];
            touched[n_touched] = e;
            reached[n_reached] = e;
            n_touched += usize::from(*count == 0);
            *count += 1;
            n_reached += usize::from(*count == SHORTLIST_LEVEL);
        }
        // When 48 entries reached the level, the shortlist is among them.
        let pool = if n_reached >= FUZZY_CANDIDATES {
            &reached[..n_reached]
        } else {
            &touched[..n_touched]
        };

        let key_chars: Vec<char> = key.chars().collect();
        let mut distance = KeyDistance::new(&key_chars);
        let mut best: Option<(f64, ConceptId)> = None;
        for (entry_idx, _) in shortlist(pool, &overlap) {
            let (surface, concept) = &self.entries[entry_idx as usize];
            let surface_len = surface.chars().count();
            let longest = key_chars.len().max(surface_len);
            let max_errors = ((1.0 - min_sim) * longest as f64).floor() as usize;
            if let Some(d) = distance.bounded(surface, surface_len, max_errors) {
                let sim = 1.0 - d as f64 / longest as f64;
                if sim >= min_sim && best.is_none_or(|(s, _)| sim > s) {
                    best = Some((sim, *concept));
                }
            }
        }
        best.map(|(_, c)| c)
    }
}

/// The `FUZZY_CANDIDATES` best of `pool` by `(overlap desc, entry index
/// asc)`, in that order. A histogram of the overlaps gives `cut`, the
/// overlap of the last place: every entry above it is in, and the
/// lowest-index entries at it fill the places left.
fn shortlist(pool: &[u32], overlap: &[u32]) -> Vec<(u32, u32)> {
    let mut picked: Vec<(u32, u32)> = if pool.len() <= FUZZY_CANDIDATES {
        pool.iter().map(|&e| (e, overlap[e as usize])).collect()
    } else {
        let mut hist: Vec<usize> = Vec::new();
        for &e in pool {
            let o = overlap[e as usize] as usize;
            if o >= hist.len() {
                hist.resize(o + 1, 0);
            }
            hist[o] += 1;
        }
        let (mut cut, mut above) = (hist.len() - 1, 0);
        while above + hist[cut] < FUZZY_CANDIDATES {
            above += hist[cut];
            cut -= 1;
        }
        let cut = cut as u32;
        let mut picked = Vec::with_capacity(FUZZY_CANDIDATES);
        let mut at_cut = Vec::new();
        for &e in pool {
            let o = overlap[e as usize];
            if o > cut {
                picked.push((e, o));
            } else if o == cut {
                at_cut.push(e);
            }
        }
        let places = FUZZY_CANDIDATES - above;
        if at_cut.len() > places {
            at_cut.select_nth_unstable(places - 1);
            at_cut.truncate(places);
        }
        picked.extend(at_cut.into_iter().map(|e| (e, cut)));
        picked
    };
    picked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    picked
}

/// Bit `i` of a char's mask is set when the key's `i`-th char is that
/// char: the pattern of Myers' bit-parallel edit distance (J. ACM 1999),
/// built once per lookup for a key of at most 64 chars.
struct KeyMasks {
    ascii: [u64; 128],
    /// The key's other chars with their masks.
    other: Vec<(char, u64)>,
    len: usize,
}

impl KeyMasks {
    fn new(key: &[char]) -> Option<Self> {
        if key.len() > 64 {
            return None;
        }
        let mut masks = KeyMasks {
            ascii: [0; 128],
            other: Vec::new(),
            len: key.len(),
        };
        for (i, &c) in key.iter().enumerate() {
            let bit = 1u64 << i;
            if c.is_ascii() {
                masks.ascii[c as usize] |= bit;
            } else if let Some((_, m)) = masks.other.iter_mut().find(|(o, _)| *o == c) {
                *m |= bit;
            } else {
                masks.other.push((c, bit));
            }
        }
        Some(masks)
    }

    fn mask(&self, c: char) -> u64 {
        if c.is_ascii() {
            self.ascii[c as usize]
        } else {
            self.other
                .iter()
                .find(|(o, _)| *o == c)
                .map_or(0, |&(_, m)| m)
        }
    }

    /// Levenshtein distance from the key to `text`: Myers' column
    /// recurrence in Hyyrö's form, with a `+1` shifted into row 0 so the
    /// distance is global rather than a search.
    fn distance(&self, text: &str) -> usize {
        if self.len == 0 {
            return text.chars().count();
        }
        let last = 1u64 << (self.len - 1);
        let (mut vp, mut vn) = (!0u64, 0u64);
        let mut dist = self.len;
        for c in text.chars() {
            let eq = self.mask(c);
            let d0 = ((eq & vp).wrapping_add(vp) ^ vp) | eq | vn;
            let hp = vn | !(d0 | vp);
            let hn = d0 & vp;
            dist += usize::from(hp & last != 0);
            dist -= usize::from(hn & last != 0);
            let hp = (hp << 1) | 1;
            let hn = hn << 1;
            vp = hn | !(d0 | hp);
            vn = hp & d0;
        }
        dist
    }
}

/// The edit distances of one fuzzy lookup, from its key to each
/// candidate: bit-parallel for a key of at most 64 chars, else
/// [`edit_distance_bounded`] with buffers shared across candidates.
enum KeyDistance<'k> {
    BitParallel(Box<KeyMasks>),
    Banded {
        key: &'k [char],
        cand: Vec<char>,
        prev: Vec<usize>,
        cur: Vec<usize>,
    },
}

impl<'k> KeyDistance<'k> {
    fn new(key: &'k [char]) -> Self {
        match KeyMasks::new(key) {
            Some(masks) => KeyDistance::BitParallel(Box::new(masks)),
            None => KeyDistance::Banded {
                key,
                cand: Vec::new(),
                prev: Vec::new(),
                cur: Vec::new(),
            },
        }
    }

    /// The edit distance from the key to `cand` (of `cand_len` chars)
    /// when it is at most `max`.
    fn bounded(&mut self, cand: &str, cand_len: usize, max: usize) -> Option<usize> {
        match self {
            KeyDistance::BitParallel(masks) => {
                if masks.len.abs_diff(cand_len) > max {
                    return None;
                }
                Some(masks.distance(cand)).filter(|&d| d <= max)
            }
            KeyDistance::Banded {
                key,
                cand: chars,
                prev,
                cur,
            } => {
                chars.clear();
                chars.extend(cand.chars());
                edit_distance_bounded(key, chars, max, prev, cur)
            }
        }
    }
}

/// Number of latent topics concept vectors cluster around. Real
/// distributional embeddings are strongly anisotropic — words bunch into
/// semantic neighbourhoods — and metric indexes (pivots, grids) exploit
/// exactly that structure. Uniformly random unit vectors would be the
/// adversarial worst case (all pairwise distances ≈ √2), so concepts are
/// drawn from a topic mixture instead.
const NUM_TOPICS: u64 = 24;
/// Weight of the concept-specific component relative to its topic centre.
const TOPIC_SPREAD: f32 = 0.55;

/// Deterministically derive the unit vector owned by a concept: a topic
/// centre plus a concept-specific offset, normalised. Same-topic concepts
/// sit at distance ≈ 0.7, cross-topic at ≈ √2 — comparable to the
/// neighbourhood structure of trained word embeddings.
pub fn concept_vector(concept: ConceptId, dim: usize) -> Vec<f32> {
    let topic = crate::hashing::splitmix64(concept.0 ^ 0x70_91c5_7ab3) % NUM_TOPICS;
    let mut centre = vec![0.0f32; dim];
    GaussianStream::new(topic.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ 0x7091c)
        .fill_unit_vector(&mut centre);
    let mut offset = vec![0.0f32; dim];
    GaussianStream::new(concept.0 ^ 0x5eed_c04c_ef70_1234).fill_unit_vector(&mut offset);
    for (c, o) in centre.iter_mut().zip(offset.iter()) {
        *c += TOPIC_SPREAD * o;
    }
    crate::l2_normalize(&mut centre);
    centre
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn register_and_lookup_is_normalised() {
        let mut lex = Lexicon::new();
        lex.register("Pacific Islander", ConceptId(7));
        assert_eq!(lex.lookup("pacific islander"), Some(ConceptId(7)));
        assert_eq!(lex.lookup("  PACIFIC/ISLANDER "), Some(ConceptId(7)));
        assert_eq!(lex.lookup("atlantic islander"), None);
    }

    #[test]
    fn synonym_set_shares_concept() {
        let mut lex = Lexicon::new();
        let id = lex.add_synonym_set(["Hawaiian/Guamanian/Samoan", "Pacific Islander"]);
        assert_eq!(lex.lookup("pacific islander"), Some(id));
        assert_eq!(lex.lookup("Hawaiian Guamanian Samoan"), Some(id));
    }

    #[test]
    fn distinct_sets_get_distinct_concepts() {
        let mut lex = Lexicon::new();
        let a = lex.add_synonym_set(["a1", "a2"]);
        let b = lex.add_synonym_set(["b1"]);
        assert_ne!(a, b);
    }

    #[test]
    fn fuzzy_lookup_finds_misspellings() {
        let mut lex = Lexicon::new();
        let id = lex.add_synonym_set(["population"]);
        lex.add_synonym_set(["participation"]);
        assert_eq!(lex.lookup_fuzzy("popluation", 0.75), Some(id));
        assert_eq!(lex.lookup_fuzzy("populaton", 0.75), Some(id));
        assert_eq!(lex.lookup_fuzzy("zebra", 0.75), None);
    }

    #[test]
    fn fuzzy_lookup_prefers_closest() {
        let mut lex = Lexicon::new();
        let _far = lex.add_synonym_set(["postulation"]);
        let near = lex.add_synonym_set(["population"]);
        assert_eq!(lex.lookup_fuzzy("populatio", 0.75), Some(near));
    }

    #[test]
    fn fuzzy_lookup_exact_short_circuit() {
        let mut lex = Lexicon::new();
        let id = lex.add_synonym_set(["exact match"]);
        assert_eq!(lex.lookup_fuzzy("exact match", 0.99), Some(id));
    }

    #[test]
    fn fuzzy_respects_min_similarity() {
        let mut lex = Lexicon::new();
        lex.add_synonym_set(["population"]);
        // 3 edits over 10 chars -> sim 0.7 < 0.9.
        assert_eq!(lex.lookup_fuzzy("popxlatxon", 0.9), None);
    }

    #[test]
    fn concept_vectors_deterministic_and_distinct() {
        let v1 = concept_vector(ConceptId(1), 32);
        let v1b = concept_vector(ConceptId(1), 32);
        let v2 = concept_vector(ConceptId(2), 32);
        assert_eq!(v1, v1b);
        let d = crate::euclidean(&v1, &v2);
        assert!(d > 0.5, "concept vectors should be well separated: {d}");
    }

    #[test]
    fn empty_surface_ignored() {
        let mut lex = Lexicon::new();
        lex.register("   ", ConceptId(1));
        assert!(lex.is_empty());
        assert_eq!(lex.lookup_fuzzy("", 0.8), None);
    }

    /// All surface forms registered for a concept, sorted.
    fn surfaces_of(lex: &Lexicon, concept: ConceptId) -> Vec<&str> {
        let mut v: Vec<&str> = lex
            .entries
            .iter()
            .filter(|(_, c)| *c == concept)
            .map(|(s, _)| s.as_str())
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn surfaces_of_lists_all() {
        let mut lex = Lexicon::new();
        let id = lex.add_synonym_set(["White", "Caucasian"]);
        let s = surfaces_of(&lex, id);
        assert_eq!(s, vec!["caucasian", "white"]);
    }

    #[test]
    fn short_strings_have_trigrams() {
        let mut lex = Lexicon::new();
        let id = lex.add_synonym_set(["ab"]);
        assert_eq!(lex.lookup_fuzzy("ab", 0.9), Some(id));
    }

    #[test]
    fn reregistering_moves_the_surface_for_exact_and_fuzzy_lookups() {
        let mut lex = Lexicon::new();
        lex.register("acme corp", ConceptId(1));
        lex.register("Acme Corp", ConceptId(2));
        assert_eq!(lex.len(), 1);
        assert_eq!(lex.lookup("acme corp"), Some(ConceptId(2)));
        assert_eq!(lex.lookup_fuzzy("acme corpp", 0.75), Some(ConceptId(2)));
        assert!(surfaces_of(&lex, ConceptId(1)).is_empty());
        assert_eq!(surfaces_of(&lex, ConceptId(2)), vec!["acme corp"]);
    }

    /// The parent's `edit_distance_bounded`, verbatim: two fresh rows per
    /// call.
    fn reference_edit_distance_bounded(a: &[char], b: &[char], max: usize) -> Option<usize> {
        let (n, m) = (a.len(), b.len());
        if n.abs_diff(m) > max {
            return None;
        }
        if n == 0 {
            return Some(m);
        }
        if m == 0 {
            return Some(n);
        }
        let inf = usize::MAX / 2;
        let mut prev: Vec<usize> = (0..=m).map(|j| if j <= max { j } else { inf }).collect();
        let mut cur = vec![inf; m + 1];
        for i in 1..=n {
            let lo = i.saturating_sub(max).max(1);
            let hi = (i + max).min(m);
            cur[lo - 1] = if lo == 1 { i } else { inf };
            let mut row_min = cur[lo - 1];
            for j in lo..=hi {
                let cost = usize::from(a[i - 1] != b[j - 1]);
                let v = (prev[j] + 1).min(cur[j - 1] + 1).min(prev[j - 1] + cost);
                cur[j] = v;
                row_min = row_min.min(v);
            }
            if hi < m {
                cur[hi + 1..].iter_mut().for_each(|x| *x = inf);
            }
            if row_min > max {
                return None;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        (prev[m] <= max).then_some(prev[m])
    }

    /// The parent's `lookup_fuzzy` body, verbatim but for reaching the
    /// fields through `lex` (and the exact hit through the public lookup):
    /// a hashed overlap map, a full sort, allocations per candidate.
    fn reference_lookup_fuzzy(lex: &Lexicon, key: &str, min_sim: f64) -> Option<ConceptId> {
        if key.is_empty() {
            return None;
        }
        if let Some(c) = lex.lookup_normalized(key) {
            return Some(c);
        }
        // Shortlist by trigram overlap.
        let mut overlap: HashMap<u32, u32> = HashMap::new();
        for tg in surface_trigrams(key) {
            if let Some(posting) = lex.trigrams.get(&tg) {
                for &e in posting {
                    *overlap.entry(e).or_insert(0) += 1;
                }
            }
        }
        if overlap.is_empty() {
            return None;
        }
        let mut candidates: Vec<(u32, u32)> = overlap.into_iter().collect();
        candidates.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        candidates.truncate(FUZZY_CANDIDATES);

        let key_chars: Vec<char> = key.chars().collect();
        let mut best: Option<(f64, ConceptId)> = None;
        for (entry_idx, _) in candidates {
            let (surface, concept) = &lex.entries[entry_idx as usize];
            let cand_chars: Vec<char> = surface.chars().collect();
            let longest = key_chars.len().max(cand_chars.len());
            if longest == 0 {
                continue;
            }
            let max_errors = ((1.0 - min_sim) * longest as f64).floor() as usize;
            if let Some(d) = reference_edit_distance_bounded(&key_chars, &cand_chars, max_errors) {
                let sim = 1.0 - d as f64 / longest as f64;
                if sim >= min_sim && best.is_none_or(|(s, _)| sim > s) {
                    best = Some((sim, *concept));
                }
            }
        }
        best.map(|(_, c)| c)
    }

    /// Descending overlaps of every entry sharing a trigram with `key`.
    fn overlaps_desc(lex: &Lexicon, key: &str) -> Vec<u32> {
        let mut overlap = vec![0u32; lex.entries.len()];
        for tg in surface_trigrams(key) {
            for &e in lex.trigrams.get(&tg).into_iter().flatten() {
                overlap[e as usize] += 1;
            }
        }
        let mut v: Vec<u32> = overlap.into_iter().filter(|&o| o > 0).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// A random string of 1..=max_len chars from `alphabet`, words split
    /// by single spaces now and then.
    fn random_surface(rng: &mut StdRng, alphabet: &[char], max_len: usize) -> String {
        random_surface_in(rng, alphabet, 1..=max_len)
    }

    /// [`random_surface`] with a length drawn from `lens`.
    fn random_surface_in(
        rng: &mut StdRng,
        alphabet: &[char],
        lens: std::ops::RangeInclusive<usize>,
    ) -> String {
        let len = rng.gen_range(lens);
        let mut s = String::new();
        for i in 0..len {
            if i > 0 && i + 1 < len && rng.gen_range(0..6) == 0 {
                s.push(' ');
            }
            s.push(alphabet[rng.gen_range(0..alphabet.len())]);
        }
        s
    }

    #[test]
    fn dense_shortlist_matches_the_reference_lookup() {
        // A small alphabet makes hundreds of entries share trigrams and
        // their overlaps tie at the truncation point; 'é' and 'ß' are
        // multi-byte chars, "aaaa"-style surfaces repeat a trigram so
        // posting multiplicity counts, and 1–2-char keys take the padded
        // trigram path. Keys of 65–80 chars take the banded edit distance;
        // half of them are two edits away from a long surface, so they
        // are answered.
        let alphabet = ['a', 'b', 'c', 'é', 'ß'];
        let mut ties_at_cut = 0usize;
        let mut pools = [0usize; 2];
        let mut answered = 0usize;
        let mut checked = 0usize;
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut lex = Lexicon::new();
            for surface in ["a", "aa", "aaaa", "aaaaaa", "abab abab", "ééé", "ßa"] {
                lex.register(surface, ConceptId(rng.gen_range(0..40)));
            }
            for _ in 0..300 {
                let surface = random_surface(&mut rng, &alphabet, 9);
                lex.register(&surface, ConceptId(rng.gen_range(0..40)));
            }
            let long: Vec<String> = (0..8)
                .map(|_| normalize(&random_surface_in(&mut rng, &alphabet, 65..=80)))
                .collect();
            for surface in &long {
                lex.register(surface, ConceptId(rng.gen_range(0..40)));
            }
            let mut keys: Vec<String> = ["a", "b", "ab", "é", "ßß", "aaaaa", "abab abab c"]
                .iter()
                .map(|s| s.to_string())
                .collect();
            keys.extend((0..80).map(|_| normalize(&random_surface(&mut rng, &alphabet, 11))));
            keys.extend(
                (0..4).map(|_| normalize(&random_surface_in(&mut rng, &alphabet, 65..=80))),
            );
            for surface in &long[..4] {
                let mut chars: Vec<char> = surface.chars().collect();
                for _ in 0..2 {
                    let at = rng.gen_range(0..chars.len());
                    chars[at] = alphabet[rng.gen_range(0..alphabet.len())];
                }
                keys.push(normalize(&chars.into_iter().collect::<String>()));
            }
            for key in &keys {
                let overlaps = overlaps_desc(&lex, key);
                if overlaps.len() > FUZZY_CANDIDATES
                    && overlaps[FUZZY_CANDIDATES - 1] == overlaps[FUZZY_CANDIDATES]
                {
                    ties_at_cut += 1;
                }
                // Which list the shortlist is picked from.
                let from_reached = overlaps.len() >= FUZZY_CANDIDATES
                    && overlaps[FUZZY_CANDIDATES - 1] >= SHORTLIST_LEVEL;
                pools[usize::from(from_reached)] += 1;
                for min_sim in [0.0, 0.5, 0.75, 1.0] {
                    let want = reference_lookup_fuzzy(&lex, key, min_sim);
                    assert_eq!(
                        lex.lookup_fuzzy(key, min_sim),
                        want,
                        "seed {seed} key {key:?} min_sim {min_sim}"
                    );
                    answered += usize::from(want.is_some());
                    checked += 1;
                }
            }
        }
        assert!(ties_at_cut >= 50, "only {ties_at_cut} keys tie at the cut");
        assert!(
            pools.iter().all(|&n| n >= 50),
            "{pools:?} keys shortlisted from (touched, reached)"
        );
        assert!(
            answered > checked / 4 && answered < checked,
            "{answered} of {checked} lookups answered"
        );
    }

    #[test]
    fn reused_dp_rows_match_fresh_rows() {
        let mut rng = StdRng::seed_from_u64(7);
        let alphabet = ['x', 'y', 'z', 'ü'];
        let (mut prev, mut cur) = (Vec::new(), Vec::new());
        for _ in 0..2000 {
            let a: Vec<char> = random_surface(&mut rng, &alphabet, 12).chars().collect();
            let b: Vec<char> = random_surface(&mut rng, &alphabet, 12).chars().collect();
            let max = rng.gen_range(0..8);
            assert_eq!(
                edit_distance_bounded(&a, &b, max, &mut prev, &mut cur),
                reference_edit_distance_bounded(&a, &b, max),
                "{a:?} {b:?} {max}"
            );
        }
    }

    #[test]
    fn bit_parallel_distance_matches_the_banded_and_the_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        let alphabet = ['a', 'b', 'c', 'é', 'ß'];
        let random = |rng: &mut StdRng| -> Vec<char> {
            let len = rng.gen_range(0..=70);
            (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
                .collect()
        };
        let (mut prev, mut cur) = (Vec::new(), Vec::new());
        let mut over_64 = 0;
        for _ in 0..160 {
            let a = random(&mut rng);
            // Half the pairs are a few edits apart, so small bounds pass.
            let b = if rng.gen_bool(0.5) {
                random(&mut rng)
            } else {
                let mut b = a.clone();
                for _ in 0..rng.gen_range(0..=4) {
                    match rng.gen_range(0..3) {
                        0 => b.insert(rng.gen_range(0..=b.len()), 'é'),
                        1 if !b.is_empty() => {
                            b.remove(rng.gen_range(0..b.len()));
                        }
                        _ if !b.is_empty() => {
                            let at = rng.gen_range(0..b.len());
                            b[at] = alphabet[rng.gen_range(0..alphabet.len())];
                        }
                        _ => {}
                    }
                }
                b
            };
            let text: String = b.iter().collect();
            assert_eq!(KeyMasks::new(&a).is_some(), a.len() <= 64);
            over_64 += usize::from(a.len() > 64);
            let mut distance = KeyDistance::new(&a);
            for max in 0..=a.len().max(b.len()) {
                let want = reference_edit_distance_bounded(&a, &b, max);
                assert_eq!(
                    edit_distance_bounded(&a, &b, max, &mut prev, &mut cur),
                    want,
                    "{a:?} {b:?} {max}"
                );
                assert_eq!(
                    distance.bounded(&text, b.len(), max),
                    want,
                    "{a:?} {b:?} {max}"
                );
                if let Some(masks) = KeyMasks::new(&a) {
                    assert_eq!(
                        Some(masks.distance(&text)).filter(|&d| d <= max),
                        want,
                        "{a:?} {b:?} {max}"
                    );
                }
            }
        }
        assert!(over_64 >= 5, "only {over_64} keys longer than 64 chars");
    }
}

//! Character n-gram extraction (fastText-style subwords).
//!
//! Tokens are wrapped in boundary markers `<`/`>` before n-gram extraction,
//! exactly as fastText does, so prefixes and suffixes are distinguishable
//! from word-internal grams. The whole wrapped token is also emitted as one
//! "gram" so exact matches get a strong shared feature.

/// Iterate over the byte-span n-grams of `token` for n in `[nmin, nmax]`,
/// including the whole wrapped token, invoking `f` for each gram.
///
/// Grams are produced over the `<token>` form. Operating on char boundaries
/// keeps this Unicode-correct.
pub fn for_each_ngram(token: &str, nmin: usize, nmax: usize, mut f: impl FnMut(&str)) {
    debug_assert!(nmin >= 1 && nmin <= nmax);
    let mut wrapped = String::with_capacity(token.len() + 2);
    wrapped.push('<');
    wrapped.push_str(token);
    wrapped.push('>');

    let bounds: Vec<usize> = wrapped
        .char_indices()
        .map(|(i, _)| i)
        .chain(std::iter::once(wrapped.len()))
        .collect();
    let nchars = bounds.len() - 1;

    for n in nmin..=nmax {
        if n > nchars {
            break;
        }
        for start in 0..=(nchars - n) {
            f(&wrapped[bounds[start]..bounds[start + n]]);
        }
    }
    // The whole wrapped token, if longer than nmax (otherwise already emitted).
    if nchars > nmax {
        f(&wrapped);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ngrams(token: &str, nmin: usize, nmax: usize) -> Vec<String> {
        let mut out = Vec::new();
        for_each_ngram(token, nmin, nmax, |g| out.push(g.to_string()));
        out
    }

    #[test]
    fn trigram_of_short_word() {
        let g = ngrams("cat", 3, 3);
        // "<cat>" has 5 chars -> trigrams "<ca", "cat", "at>", plus whole word.
        assert_eq!(g, vec!["<ca", "cat", "at>", "<cat>"]);
    }

    #[test]
    fn whole_token_included_once_when_short() {
        let g = ngrams("ab", 3, 5);
        // "<ab>" has 4 chars: 3-grams "<ab","ab>", 4-gram "<ab>" (== whole).
        assert_eq!(g, vec!["<ab", "ab>", "<ab>"]);
    }

    #[test]
    fn misspelling_shares_most_grams() {
        use std::collections::HashSet;
        let a: HashSet<_> = ngrams("population", 3, 4).into_iter().collect();
        let b: HashSet<_> = ngrams("popluation", 3, 4).into_iter().collect(); // transposition
        let c: HashSet<_> = ngrams("zebra", 3, 4).into_iter().collect();
        let overlap_ab = a.intersection(&b).count() as f64 / a.len() as f64;
        let overlap_ac = a.intersection(&c).count() as f64 / a.len() as f64;
        assert!(
            overlap_ab > 0.4,
            "misspelling overlap too low: {overlap_ab}"
        );
        assert!(overlap_ac < 0.1, "unrelated overlap too high: {overlap_ac}");
    }

    #[test]
    fn unicode_boundaries_do_not_panic() {
        let g = ngrams("łódź", 2, 3);
        assert!(!g.is_empty());
        for gram in g {
            assert!(gram.chars().count() >= 2);
        }
    }

    #[test]
    fn single_char_token() {
        let g = ngrams("a", 3, 5);
        // "<a>" has 3 chars -> only the 3-gram "<a>".
        assert_eq!(g, vec!["<a>"]);
    }
}

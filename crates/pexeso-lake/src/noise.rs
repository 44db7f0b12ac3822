//! Noise channels for the synthetic lake.
//!
//! Real lake columns differ from the query column through misspellings,
//! abbreviations, and terminology (synonyms). The generator routes every
//! rendered cell through a [`NoiseModel`] so those phenomena appear at
//! controlled rates — this is what makes equi-join recall low and semantic
//! join recall high, the central effect of the paper's Table IV.

use rand::Rng;

/// Rates of the individual noise channels (each in `[0, 1]`).
#[derive(Debug, Clone)]
pub struct NoiseModel {
    /// Probability a cell gets one random character edit.
    pub misspell_rate: f64,
    /// Probability a cell's known long-form token is abbreviated
    /// ("Street" → "St").
    pub abbrev_rate: f64,
    /// Probability a cell is rendered in a different letter case.
    pub case_rate: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self {
            misspell_rate: 0.15,
            abbrev_rate: 0.1,
            case_rate: 0.1,
        }
    }
}

impl NoiseModel {
    pub fn clean() -> Self {
        Self {
            misspell_rate: 0.0,
            abbrev_rate: 0.0,
            case_rate: 0.0,
        }
    }

    /// Apply the channels to `s`, consuming randomness from `rng`.
    pub fn apply(&self, rng: &mut impl Rng, s: &str) -> String {
        let mut out = s.to_string();
        if rng.gen_bool(self.abbrev_rate) {
            out = abbreviate(&out);
        }
        if rng.gen_bool(self.misspell_rate) {
            out = misspell(rng, &out);
        }
        if rng.gen_bool(self.case_rate) {
            out = case_noise(rng, &out);
        }
        out
    }
}

/// Long-form → abbreviation pairs (the inverse of the expander dictionary,
/// so the expander can undo this channel).
const ABBREVIATIONS: &[(&str, &str)] = &[
    ("street", "st"),
    ("avenue", "ave"),
    ("boulevard", "blvd"),
    ("road", "rd"),
    ("incorporated", "inc"),
    ("corporation", "corp"),
    ("company", "co"),
    ("limited", "ltd"),
    ("international", "intl"),
    ("march", "mar"),
    ("january", "jan"),
    ("september", "sep"),
    ("december", "dec"),
];

/// Replace the first abbreviatable token with its short form, preserving
/// simple capitalisation.
pub(crate) fn abbreviate(s: &str) -> String {
    let mut result: Vec<String> = Vec::new();
    let mut replaced = false;
    for word in s.split(' ') {
        let lower = word.to_lowercase();
        if !replaced {
            if let Some((_, abbr)) = ABBREVIATIONS.iter().find(|(long, _)| *long == lower) {
                let rendered = if word.chars().next().is_some_and(|c| c.is_uppercase()) {
                    let mut a = abbr.to_string();
                    a[..1].make_ascii_uppercase();
                    a
                } else {
                    abbr.to_string()
                };
                result.push(rendered);
                replaced = true;
                continue;
            }
        }
        result.push(word.to_string());
    }
    result.join(" ")
}

/// One random character-level edit: delete, insert, substitute, or adjacent
/// transposition. Strings shorter than 3 chars are returned unchanged so the
/// identity of very short values survives.
pub fn misspell(rng: &mut impl Rng, s: &str) -> String {
    let chars: Vec<char> = s.chars().collect();
    if chars.len() < 3 {
        return s.to_string();
    }
    let letters = "abcdefghijklmnopqrstuvwxyz";
    let rand_letter = |rng: &mut dyn rand::RngCore| {
        letters
            .chars()
            .nth((rng.next_u32() as usize) % letters.len())
            .unwrap()
    };
    let mut out = chars.clone();
    // Only edit inside the string, keeping the first char: first-letter
    // typos are rare in practice and this keeps tokens recognisable.
    let pos = rng.gen_range(1..chars.len());
    match rng.gen_range(0..4u8) {
        0 => {
            out.remove(pos);
        }
        1 => {
            let c = rand_letter(rng);
            out.insert(pos, c);
        }
        2 => {
            out[pos] = rand_letter(rng);
        }
        _ => {
            if pos + 1 < out.len() {
                out.swap(pos, pos + 1);
            } else {
                out.swap(pos - 1, pos);
            }
        }
    }
    out.into_iter().collect()
}

/// Random re-casing: all-lower, all-upper, or title case.
pub(crate) fn case_noise(rng: &mut impl Rng, s: &str) -> String {
    match rng.gen_range(0..3u8) {
        0 => s.to_lowercase(),
        1 => s.to_uppercase(),
        _ => s
            .split(' ')
            .map(|w| {
                let mut cs = w.chars();
                match cs.next() {
                    Some(f) => f.to_uppercase().collect::<String>() + &cs.as_str().to_lowercase(),
                    None => String::new(),
                }
            })
            .collect::<Vec<_>>()
            .join(" "),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn misspell_changes_one_edit() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let m = misspell(&mut rng, "population");
            let len_diff = (m.chars().count() as i64 - 10).abs();
            assert!(len_diff <= 1, "edit changed length too much: {m}");
            assert!(m.starts_with('p'), "first char preserved: {m}");
        }
    }

    #[test]
    fn misspell_short_strings_untouched() {
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(misspell(&mut rng, "ab"), "ab");
        assert_eq!(misspell(&mut rng, ""), "");
    }

    #[test]
    fn abbreviate_known_words() {
        assert_eq!(abbreviate("Main Street"), "Main St");
        assert_eq!(abbreviate("acme incorporated"), "acme inc");
        assert_eq!(abbreviate("nothing here"), "nothing here");
    }

    #[test]
    fn abbreviate_only_first_occurrence() {
        assert_eq!(abbreviate("Street Street"), "St Street");
    }

    #[test]
    fn clean_model_is_identity() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = NoiseModel::clean();
        assert_eq!(m.apply(&mut rng, "Exact Value"), "Exact Value");
    }

    #[test]
    fn case_noise_preserves_letters() {
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..20 {
            let c = case_noise(&mut rng, "Hello World");
            assert_eq!(c.to_lowercase(), "hello world");
        }
    }

    #[test]
    fn noise_rates_roughly_respected() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = NoiseModel {
            misspell_rate: 0.5,
            abbrev_rate: 0.0,
            case_rate: 0.0,
        };
        let n = 2000;
        let changed = (0..n)
            .filter(|_| m.apply(&mut rng, "population") != "population")
            .count();
        let rate = changed as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.06, "observed misspell rate {rate}");
    }
}

//! Abbreviation and date/address expansion.
//!
//! The paper's offline component converts abbreviations to full forms
//! ("Mar" → "March", "St" → "Street") before embedding, optionally using
//! domain dictionaries. This module ships the common English date/address
//! dictionary the embedders apply.

use std::collections::HashMap;

/// Expands known abbreviations token-by-token.
#[derive(Debug, Clone)]
pub struct AbbrevExpander {
    map: HashMap<String, String>,
}

impl Default for AbbrevExpander {
    fn default() -> Self {
        Self::with_builtin()
    }
}

const BUILTIN: &[(&str, &str)] = &[
    // Months.
    ("jan", "january"),
    ("feb", "february"),
    ("mar", "march"),
    ("apr", "april"),
    ("jun", "june"),
    ("jul", "july"),
    ("aug", "august"),
    ("sep", "september"),
    ("sept", "september"),
    ("oct", "october"),
    ("nov", "november"),
    ("dec", "december"),
    // Weekdays.
    ("mon", "monday"),
    ("tue", "tuesday"),
    ("tues", "tuesday"),
    ("wed", "wednesday"),
    ("thu", "thursday"),
    ("thur", "thursday"),
    ("thurs", "thursday"),
    ("fri", "friday"),
    ("sat", "saturday"),
    ("sun", "sunday"),
    // Street addresses.
    ("st", "street"),
    ("ave", "avenue"),
    ("blvd", "boulevard"),
    ("rd", "road"),
    ("dr", "drive"),
    ("ln", "lane"),
    ("ct", "court"),
    ("hwy", "highway"),
    ("pkwy", "parkway"),
    ("sq", "square"),
    ("apt", "apartment"),
    ("ste", "suite"),
    ("fl", "floor"),
    ("n", "north"),
    ("s", "south"),
    ("e", "east"),
    ("w", "west"),
    ("ne", "northeast"),
    ("nw", "northwest"),
    ("se", "southeast"),
    ("sw", "southwest"),
    // Common business forms.
    ("inc", "incorporated"),
    ("corp", "corporation"),
    ("co", "company"),
    ("ltd", "limited"),
    ("llc", "limited liability company"),
    ("intl", "international"),
    ("dept", "department"),
    ("univ", "university"),
    ("assn", "association"),
    ("bros", "brothers"),
    ("mfg", "manufacturing"),
    ("mgmt", "management"),
    ("svcs", "services"),
];

impl AbbrevExpander {
    /// Expander with the built-in English date/address/business dictionary.
    pub fn with_builtin() -> Self {
        let map = BUILTIN
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Self { map }
    }

    /// Expand a single (lowercase) token; returns the input when unknown.
    pub(crate) fn expand_token<'a>(&'a self, token: &'a str) -> &'a str {
        self.map.get(token).map(|s| s.as_str()).unwrap_or(token)
    }

    /// Expand every token of a raw value; returns the normalised expanded
    /// string ("12 Main St" → "12 main street").
    pub fn expand(&self, value: &str) -> String {
        let tokens = crate::tokenize::tokenize(value);
        let mut out = String::with_capacity(value.len() + 8);
        for (i, t) in tokens.iter().enumerate() {
            if i > 0 {
                out.push(' ');
            }
            out.push_str(self.expand_token(t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expands_months_and_streets() {
        let e = AbbrevExpander::with_builtin();
        assert_eq!(e.expand("3 Mar 2020"), "3 march 2020");
        assert_eq!(e.expand("12 Main St"), "12 main street");
    }

    #[test]
    fn whole_token_only() {
        let e = AbbrevExpander::with_builtin();
        // "start" must not become "streetart".
        assert_eq!(e.expand("start"), "start");
        assert_eq!(e.expand("Marble"), "marble");
    }

    #[test]
    fn case_insensitive() {
        let e = AbbrevExpander::with_builtin();
        assert_eq!(e.expand("MAR"), "march");
    }

    #[test]
    fn empty_value() {
        let e = AbbrevExpander::with_builtin();
        assert_eq!(e.expand(""), "");
    }

    #[test]
    fn builtin_has_rules() {
        assert!(AbbrevExpander::with_builtin().map.len() > 40);
    }
}

//! Column type inference.
//!
//! The paper routes only *string* columns (including dates rendered as text)
//! through the embedding pipeline; numeric/ID columns go to equi-join. This
//! module classifies columns by parsing a sample of their values.

/// Inferred type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColumnType {
    /// No non-empty values.
    Empty,
    /// All values parse as integers.
    Integer,
    /// All values parse as numbers, at least one fractional.
    Float,
    /// All values look like calendar dates.
    Date,
    /// Anything else: free text (the embedding-eligible type).
    Text,
}

impl ColumnType {
    /// Should this column's values be embedded for similarity join?
    /// Dates count: the paper expands their abbreviations and embeds them.
    pub fn is_embeddable(self) -> bool {
        matches!(self, ColumnType::Text | ColumnType::Date)
    }
}

fn is_integer(s: &str) -> bool {
    let s = s.trim();
    if s.is_empty() {
        return false;
    }
    let body = s.strip_prefix(['-', '+']).unwrap_or(s);
    // Allow thousands separators ("1,234,567").
    let cleaned: String = body.chars().filter(|&c| c != ',').collect();
    !cleaned.is_empty() && cleaned.chars().all(|c| c.is_ascii_digit())
}

fn is_float(s: &str) -> bool {
    let s = s.trim();
    if s.is_empty() {
        return false;
    }
    let cleaned: String = s.chars().filter(|&c| c != ',').collect();
    cleaned.parse::<f64>().is_ok()
}

const MONTH_NAMES: &[&str] = &[
    "jan",
    "feb",
    "mar",
    "apr",
    "may",
    "jun",
    "jul",
    "aug",
    "sep",
    "oct",
    "nov",
    "dec",
    "january",
    "february",
    "march",
    "april",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
];

/// Recognise common date shapes: `2020-03-01`, `01/03/2020`, `3 Mar 2020`,
/// `Mar 3, 2020`.
fn is_date(s: &str) -> bool {
    let s = s.trim();
    if s.is_empty() {
        return false;
    }
    // ISO: YYYY-MM-DD (also with '/').
    let parts: Vec<&str> = s.split(['-', '/']).collect();
    if parts.len() == 3
        && parts
            .iter()
            .all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()))
    {
        let nums: Vec<u32> = parts.iter().map(|p| p.parse().unwrap_or(0)).collect();
        let (a, b, c) = (nums[0], nums[1], nums[2]);
        let iso = a >= 1000 && (1..=12).contains(&b) && (1..=31).contains(&c);
        let dmy = c >= 1000 && (1..=12).contains(&b) && (1..=31).contains(&a);
        let mdy = c >= 1000 && (1..=12).contains(&a) && (1..=31).contains(&b);
        return iso || dmy || mdy;
    }
    // Textual month forms.
    let tokens: Vec<String> = s
        .split([' ', ',', '.'])
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect();
    if (2..=4).contains(&tokens.len()) {
        let has_month = tokens.iter().any(|t| MONTH_NAMES.contains(&t.as_str()));
        let has_number = tokens
            .iter()
            .any(|t| t.chars().all(|c| c.is_ascii_digit()) && !t.is_empty());
        return has_month && has_number;
    }
    false
}

/// Infer the type of a single value.
pub(crate) fn infer_value(s: &str) -> ColumnType {
    let t = s.trim();
    if t.is_empty() {
        ColumnType::Empty
    } else if is_integer(t) {
        ColumnType::Integer
    } else if is_float(t) {
        ColumnType::Float
    } else if is_date(t) {
        ColumnType::Date
    } else {
        ColumnType::Text
    }
}

/// Infer a column's type from (a sample of) its values.
///
/// Up to `sample` non-empty values are inspected. Mixed numeric kinds
/// promote to [`ColumnType::Float`]; any text value demotes the whole column
/// to [`ColumnType::Text`].
pub fn infer_column(values: &[String], sample: usize) -> ColumnType {
    let mut seen_any = false;
    let mut all_int = true;
    let mut all_num = true;
    let mut all_date = true;
    for v in values
        .iter()
        .filter(|v| !v.trim().is_empty())
        .take(sample.max(1))
    {
        seen_any = true;
        match infer_value(v) {
            ColumnType::Integer => {
                all_date = false;
            }
            ColumnType::Float => {
                all_int = false;
                all_date = false;
            }
            ColumnType::Date => {
                all_int = false;
                all_num = false;
            }
            ColumnType::Text => return ColumnType::Text,
            ColumnType::Empty => unreachable!("empties filtered above"),
        }
    }
    if !seen_any {
        ColumnType::Empty
    } else if all_date {
        ColumnType::Date
    } else if all_int {
        ColumnType::Integer
    } else if all_num {
        ColumnType::Float
    } else {
        // Mixture of dates and numbers: treat as text-ish (embeddable).
        ColumnType::Text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(vals: &[&str]) -> Vec<String> {
        vals.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn integer_column() {
        assert_eq!(
            infer_column(&col(&["1", "42", "-7", "1,234"]), 100),
            ColumnType::Integer
        );
    }

    #[test]
    fn float_column() {
        assert_eq!(
            infer_column(&col(&["1.5", "2", "-0.25"]), 100),
            ColumnType::Float
        );
    }

    #[test]
    fn text_column() {
        assert_eq!(
            infer_column(&col(&["White", "Black", "42"]), 100),
            ColumnType::Text
        );
    }

    #[test]
    fn date_column_iso_and_textual() {
        assert_eq!(
            infer_column(&col(&["2020-03-01", "1999-12-31"]), 100),
            ColumnType::Date
        );
        assert_eq!(
            infer_column(&col(&["3 Mar 2020", "Mar 4, 2021"]), 100),
            ColumnType::Date
        );
        assert_eq!(infer_column(&col(&["01/03/2020"]), 100), ColumnType::Date);
    }

    #[test]
    fn empty_column() {
        assert_eq!(infer_column(&col(&["", "  "]), 100), ColumnType::Empty);
        assert_eq!(infer_column(&[], 100), ColumnType::Empty);
    }

    #[test]
    fn empties_ignored_in_mixed() {
        assert_eq!(infer_column(&col(&["", "5", ""]), 100), ColumnType::Integer);
    }

    #[test]
    fn date_not_confused_with_big_numbers() {
        assert_eq!(infer_value("20200301"), ColumnType::Integer);
        assert_eq!(infer_value("99/99/9999"), ColumnType::Text);
    }

    #[test]
    fn embeddable_flags() {
        assert!(ColumnType::Text.is_embeddable());
        assert!(ColumnType::Date.is_embeddable());
        assert!(!ColumnType::Integer.is_embeddable());
        assert!(!ColumnType::Float.is_embeddable());
        assert!(!ColumnType::Empty.is_embeddable());
    }

    #[test]
    fn sampling_limits_work() {
        // First value is an int, the 10_001st is text — with a small sample
        // we intentionally misclassify; with a big one we catch it.
        let mut vals = vec!["1".to_string(); 100];
        vals.push("oops".to_string());
        assert_eq!(infer_column(&vals, 50), ColumnType::Integer);
        assert_eq!(infer_column(&vals, 1000), ColumnType::Text);
    }
}

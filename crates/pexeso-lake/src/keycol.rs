//! Key-column detection.
//!
//! The WDC corpus ships key-column annotations; for corpora without them the
//! paper runs SATO (a trained semantic type detector) and keeps columns whose
//! type can serve as a join key. SATO is unavailable offline, so we use the
//! heuristic that captures what the pipeline actually needs: a join-key
//! candidate is an **embeddable (text/date) column with high distinctness
//! and few missing values**. On generated lakes this recovers the planted
//! key column; on real CSVs it picks the natural-key-looking column.

use crate::table::Table;
use crate::types::{infer_column, ColumnType};

/// Scoring weights / cutoffs for key-column detection.
#[derive(Debug, Clone)]
pub struct KeyColumnConfig {
    /// Values sampled per column for type inference.
    pub type_sample: usize,
    /// Minimum fraction of non-empty cells.
    pub min_non_empty: f64,
    /// Minimum fraction of distinct values among non-empty cells.
    pub min_distinct: f64,
    /// Minimum rows for a table to be considered at all (the paper drops
    /// tables with fewer than five rows).
    pub min_rows: usize,
}

impl Default for KeyColumnConfig {
    fn default() -> Self {
        Self {
            type_sample: 256,
            min_non_empty: 0.5,
            min_distinct: 0.3,
            min_rows: 5,
        }
    }
}

/// A column considered joinable-key material, with its score.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct KeyCandidate {
    pub column: usize,
    pub column_type: ColumnType,
    pub score: f64,
}

/// Score every eligible column of `table`, best first.
pub(crate) fn key_candidates(table: &Table, cfg: &KeyColumnConfig) -> Vec<KeyCandidate> {
    if table.n_rows() < cfg.min_rows {
        return Vec::new();
    }
    let mut out = Vec::new();
    for c in 0..table.n_cols() {
        let ty = infer_column(table.column(c), cfg.type_sample);
        if !ty.is_embeddable() {
            continue;
        }
        let non_empty = table.non_empty_ratio(c);
        let distinct = table.distinct_ratio(c);
        if non_empty < cfg.min_non_empty || distinct < cfg.min_distinct {
            continue;
        }
        // Distinctness dominates; completeness breaks ties; leftmost
        // position gets a nudge (keys usually lead in published tables).
        let position_bonus = 0.05 * (1.0 - c as f64 / table.n_cols().max(1) as f64);
        let score = distinct * 0.7 + non_empty * 0.25 + position_bonus;
        out.push(KeyCandidate {
            column: c,
            column_type: ty,
            score,
        });
    }
    out.sort_by(|a, b| b.score.total_cmp(&a.score));
    out
}

/// The single best key column, if the table has one.
pub fn detect_key_column(table: &Table, cfg: &KeyColumnConfig) -> Option<usize> {
    key_candidates(table, cfg).first().map(|k| k.column)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn game_table() -> Table {
        Table::from_rows(
            "games",
            vec!["Name", "Release", "Publisher"],
            (0..10)
                .map(|i| {
                    vec![
                        format!("Game Title {i}"),
                        format!("{}", 1990 + i),
                        if i % 2 == 0 {
                            "Nintendo".to_string()
                        } else {
                            "Sega".to_string()
                        },
                    ]
                })
                .collect(),
        )
    }

    #[test]
    fn picks_distinct_text_column() {
        let t = game_table();
        assert_eq!(detect_key_column(&t, &KeyColumnConfig::default()), Some(0));
    }

    #[test]
    fn numeric_columns_excluded() {
        let t = game_table();
        let cands = key_candidates(&t, &KeyColumnConfig::default());
        assert!(
            cands.iter().all(|k| k.column != 1),
            "release year is numeric"
        );
    }

    #[test]
    fn low_distinct_column_loses() {
        let t = game_table();
        let cands = key_candidates(&t, &KeyColumnConfig::default());
        // Publisher has 2 distinct values over 10 rows -> ratio 0.2 < 0.3.
        assert!(cands.iter().all(|k| k.column != 2));
    }

    #[test]
    fn tiny_tables_skipped() {
        let t = Table::from_rows("tiny", vec!["a"], vec![vec!["x".into()], vec!["y".into()]]);
        assert_eq!(detect_key_column(&t, &KeyColumnConfig::default()), None);
    }

    #[test]
    fn mostly_empty_column_skipped() {
        let mut rows = Vec::new();
        for i in 0..10 {
            rows.push(vec![
                if i < 2 {
                    format!("v{i}")
                } else {
                    String::new()
                },
                format!("name {i}"),
            ]);
        }
        let t = Table::from_rows("sparse", vec!["sparse", "full"], rows);
        assert_eq!(detect_key_column(&t, &KeyColumnConfig::default()), Some(1));
    }

    #[test]
    fn date_columns_are_candidates() {
        let rows: Vec<Vec<String>> = (1..=9)
            .map(|i| vec![format!("2020-03-0{i}"), format!("{i}")])
            .collect();
        let t = Table::from_rows("dates", vec!["day", "count"], rows);
        let cands = key_candidates(&t, &KeyColumnConfig::default());
        assert_eq!(cands[0].column, 0);
        assert_eq!(cands[0].column_type, ColumnType::Date);
    }
}

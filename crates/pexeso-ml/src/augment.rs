//! Left-join feature augmentation (the data-enrichment step of Table V).
//!
//! Given a per-query-row join mapping into lake tables, every non-key lake
//! column becomes a candidate feature. Following the paper:
//!
//! * columns sharing a header across joined tables are **aggregated** into
//!   one feature (numeric values summed);
//! * a query row that matched several target rows takes the mean
//!   (the paper did not observe this conflict; we handle it anyway);
//! * rows without a match get **missing** (`NAN`) — the sparsity that makes
//!   low-recall equi-joins hurt downstream models;
//! * a column is discarded when it covers too few query rows (the paper
//!   drops columns with fewer than 200 non-missing values).

use std::collections::HashMap;

use pexeso_embed::fnv1a64;
use pexeso_lake::table::Table;
use pexeso_lake::JoinMapping;

use crate::dataset::Dataset;

/// Parse a cell into a numeric feature value: numbers parse directly;
/// categorical strings hash into a stable small range.
fn cell_to_f32(s: &str) -> Option<f32> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    if let Ok(v) = t.replace(',', "").parse::<f32>() {
        return Some(v);
    }
    // Stable categorical encoding.
    Some((fnv1a64(t.to_lowercase().as_bytes()) % 1024) as f32)
}

/// Options for augmentation.
#[derive(Debug, Clone)]
pub struct AugmentConfig {
    /// Minimum non-missing query rows for a feature to be kept.
    pub min_coverage: usize,
    /// Skip these lake headers entirely (key columns).
    pub skip_headers: Vec<String>,
}

impl Default for AugmentConfig {
    fn default() -> Self {
        Self {
            min_coverage: 5,
            skip_headers: vec!["name".to_string()],
        }
    }
}

/// Build augmented feature columns for the query rows and append them to
/// `base`. Returns the names of the features that were added.
pub fn augment(
    base: &mut Dataset,
    lake_tables: &[&Table],
    mapping: &JoinMapping,
    config: &AugmentConfig,
) -> Vec<String> {
    assert_eq!(
        base.n_rows(),
        mapping.matches.len(),
        "mapping must cover all query rows"
    );

    // Aggregated per header: per query row, (sum over matched rows of the
    // per-row value, count).
    let mut agg: HashMap<String, Vec<(f32, u32)>> = HashMap::new();
    for (qi, row_matches) in mapping.matches.iter().enumerate() {
        for &(ti, ri) in row_matches {
            let table = lake_tables[ti];
            for (ci, header) in table.headers().iter().enumerate() {
                if config.skip_headers.iter().any(|s| s == header) {
                    continue;
                }
                if let Some(v) = cell_to_f32(table.cell(ri, ci)) {
                    let col = agg
                        .entry(header.clone())
                        .or_insert_with(|| vec![(0.0, 0); mapping.matches.len()]);
                    col[qi].0 += v;
                    col[qi].1 += 1;
                }
            }
        }
    }

    // Finalise: mean per query row (conflict rule), NAN when unmatched;
    // drop low-coverage columns; deterministic name order.
    let mut names: Vec<String> = agg.keys().cloned().collect();
    names.sort_unstable();
    let mut kept_names = Vec::new();
    let mut kept_cols = Vec::new();
    for name in names {
        let col = &agg[&name];
        let coverage = col.iter().filter(|(_, c)| *c > 0).count();
        if coverage < config.min_coverage {
            continue;
        }
        let values: Vec<f32> = col
            .iter()
            .map(|&(sum, count)| {
                if count == 0 {
                    f32::NAN
                } else {
                    sum / count as f32
                }
            })
            .collect();
        kept_names.push(format!("joined::{name}"));
        kept_cols.push(values);
    }
    base.extend_features(kept_names.clone(), kept_cols);
    kept_names
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Labels;

    fn lake_table(name: &str, rows: Vec<(&str, f32, &str)>) -> Table {
        Table::from_rows(
            name,
            vec!["name", "attr_0", "category"],
            rows.into_iter()
                .map(|(k, a, c)| vec![k.to_string(), a.to_string(), c.to_string()])
                .collect(),
        )
    }

    fn base(n: usize) -> Dataset {
        Dataset::new(
            (0..n).map(|i| vec![i as f32]).collect(),
            vec!["base".into()],
            Labels::Classes((0..n as u32).map(|i| i % 2).collect()),
        )
    }

    #[test]
    fn matched_rows_get_values_unmatched_get_nan() {
        let t = lake_table("t0", vec![("a", 1.5, "class_1"), ("b", 2.5, "class_2")]);
        let mut mapping = JoinMapping::new(3);
        mapping.matches[0].push((0, 0));
        mapping.matches[2].push((0, 1));
        let mut d = base(3);
        let added = augment(
            &mut d,
            &[&t],
            &mapping,
            &AugmentConfig {
                min_coverage: 1,
                ..Default::default()
            },
        );
        assert!(added.contains(&"joined::attr_0".to_string()));
        let attr_idx = d
            .feature_names
            .iter()
            .position(|n| n == "joined::attr_0")
            .unwrap();
        assert_eq!(d.features[0][attr_idx], 1.5);
        assert!(d.features[1][attr_idx].is_nan());
        assert_eq!(d.features[2][attr_idx], 2.5);
    }

    #[test]
    fn multiple_matches_average() {
        let t = lake_table("t0", vec![("a", 1.0, "class_1"), ("a2", 3.0, "class_1")]);
        let mut mapping = JoinMapping::new(1);
        mapping.matches[0].push((0, 0));
        mapping.matches[0].push((0, 1));
        let mut d = base(1);
        augment(
            &mut d,
            &[&t],
            &mapping,
            &AugmentConfig {
                min_coverage: 1,
                ..Default::default()
            },
        );
        let attr_idx = d
            .feature_names
            .iter()
            .position(|n| n == "joined::attr_0")
            .unwrap();
        assert_eq!(d.features[0][attr_idx], 2.0);
    }

    #[test]
    fn same_header_across_tables_aggregates() {
        let t0 = lake_table("t0", vec![("a", 1.0, "class_1")]);
        let t1 = lake_table("t1", vec![("a", 5.0, "class_1")]);
        let mut mapping = JoinMapping::new(1);
        mapping.matches[0].push((0, 0));
        mapping.matches[0].push((1, 0));
        let mut d = base(1);
        augment(
            &mut d,
            &[&t0, &t1],
            &mapping,
            &AugmentConfig {
                min_coverage: 1,
                ..Default::default()
            },
        );
        // One aggregated feature, mean of the two matched values.
        let attr_cols: Vec<_> = d
            .feature_names
            .iter()
            .filter(|n| n.contains("attr_0"))
            .collect();
        assert_eq!(attr_cols.len(), 1);
        let attr_idx = d
            .feature_names
            .iter()
            .position(|n| n == "joined::attr_0")
            .unwrap();
        assert_eq!(d.features[0][attr_idx], 3.0);
    }

    #[test]
    fn low_coverage_columns_dropped() {
        let t = lake_table("t0", vec![("a", 1.0, "class_1")]);
        let mut mapping = JoinMapping::new(10);
        mapping.matches[0].push((0, 0));
        let mut d = base(10);
        let added = augment(
            &mut d,
            &[&t],
            &mapping,
            &AugmentConfig {
                min_coverage: 5,
                ..Default::default()
            },
        );
        assert!(added.is_empty(), "1/10 coverage is below the minimum");
        assert_eq!(d.n_features(), 1);
    }

    #[test]
    fn key_header_skipped() {
        let t = lake_table("t0", vec![("a", 1.0, "class_1")]);
        let mut mapping = JoinMapping::new(1);
        mapping.matches[0].push((0, 0));
        let mut d = base(1);
        let added = augment(
            &mut d,
            &[&t],
            &mapping,
            &AugmentConfig {
                min_coverage: 1,
                ..Default::default()
            },
        );
        assert!(added.iter().all(|n| !n.contains("name")));
    }

    #[test]
    fn categorical_cells_encode_stably() {
        assert_eq!(cell_to_f32("class_3"), cell_to_f32("CLASS_3"));
        assert_ne!(cell_to_f32("class_3"), cell_to_f32("class_4"));
        assert_eq!(cell_to_f32("12.5"), Some(12.5));
        assert_eq!(cell_to_f32("1,234"), Some(1234.0));
        assert_eq!(cell_to_f32("  "), None);
    }
}

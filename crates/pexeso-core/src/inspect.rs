//! Index introspection: the structural statistics behind the shard
//! daemon's `pexeso_index_*` METRICS families.
//!
//! Where [`crate::stats::SearchStats`] describes one *query*, an
//! [`IndexInspection`] describes the *index itself*: how many columns and
//! vectors each partition holds, how the grid's non-empty leaf cells are
//! populated (postings-length and occupancy histograms — the shape that
//! decides how well the blocking phase prunes), how spread out the pivot
//! coordinates are, and how deep the live delta overlay has grown since
//! the base build. The cell shape is derived by one read-only walk over
//! the resident structures, and the pivot spread is taken when the index
//! lays its rows out; nothing here is sampled or approximate.
//!
//! The histograms reuse the log-bucketed [`crate::hist`] layout so the
//! serve tier can expose them through the same Prometheus rendering as
//! its latency histograms; every other number is one labelled sample per
//! partition there.

use crate::hist::{AtomicHistogram, HistSnapshot};

/// The spread of one pivot's mapped coordinate over the repository:
/// a pivot whose coordinates bunch together discriminates poorly (every
/// vector lands in the same grid slice along that axis).
#[derive(Debug, Clone, PartialEq)]
pub struct PivotSpread {
    pub min: f32,
    pub max: f32,
    pub mean: f32,
}

/// Structural statistics of one partition's PEXESO index.
#[derive(Debug, Clone, Default)]
pub struct PartitionInspection {
    /// Columns in the partition, dropped ones included.
    pub columns: u64,
    /// Columns whose table a delta tombstone dropped: never scanned, but
    /// stored until the next compaction. Filled by the owner of the
    /// tombstones (the serve snapshot); a bare index reports 0.
    pub deleted_columns: u64,
    /// Repository vectors indexed.
    pub vectors: u64,
    /// Non-empty leaf cells of `HG_RV`.
    pub cells: u64,
    /// Total postings entries (Σ per-cell distinct columns).
    pub postings: u64,
    /// Histogram of per-cell postings length (distinct columns per
    /// non-empty leaf cell).
    pub postings_len: HistSnapshot,
    /// Histogram of per-cell occupancy (vectors per non-empty leaf
    /// cell).
    pub cell_occupancy: HistSnapshot,
    /// Per-pivot coordinate spread, pivot order.
    pub pivot_spread: Vec<PivotSpread>,
}

/// A whole deployment's introspection: every partition plus the delta
/// overlay depth. The delta fields are filled by the owner of the
/// overlay (the serve tier); a bare in-memory index reports zeros.
#[derive(Debug, Clone, Default)]
pub struct IndexInspection {
    pub partitions: Vec<PartitionInspection>,
    /// Vectors the live delta columns hold.
    pub delta_vectors: u64,
    /// Raw delta-log records replayed (appends + tombstones).
    pub delta_records: u64,
}

impl PivotSpread {
    /// The spread of each of `num_pivots` pivots over `coords`, each
    /// vector's pivot coordinates in turn.
    pub fn of<'a>(coords: impl Iterator<Item = &'a [f32]>, num_pivots: usize) -> Vec<Self> {
        let mut mins = vec![f32::INFINITY; num_pivots];
        let mut maxs = vec![f32::NEG_INFINITY; num_pivots];
        let mut sums = vec![0f64; num_pivots];
        let mut n = 0u64;
        for coords in coords {
            n += 1;
            for (p, &c) in coords.iter().enumerate() {
                mins[p] = mins[p].min(c);
                maxs[p] = maxs[p].max(c);
                sums[p] += c as f64;
            }
        }
        (0..num_pivots)
            .map(|p| Self {
                min: if n == 0 { 0.0 } else { mins[p] },
                max: if n == 0 { 0.0 } else { maxs[p] },
                mean: if n == 0 {
                    0.0
                } else {
                    (sums[p] / n as f64) as f32
                },
            })
            .collect()
    }
}

impl PartitionInspection {
    /// Derive the statistics of one partition by walking its inverted
    /// index; the pivot spread is the one the index took at layout.
    pub fn derive(
        inv: &crate::invindex::InvertedIndex,
        num_columns: u64,
        num_vectors: u64,
    ) -> Self {
        let postings_len = AtomicHistogram::new();
        let cell_occupancy = AtomicHistogram::new();
        let mut postings = 0u64;
        let row_col = inv.rows().col;
        for cell in (0..inv.num_cells() as u32).map(|c| &row_col[inv.cell(c)]) {
            // A cell's columns are the runs of equal ids over its rows.
            let columns = cell.chunk_by(|a, b| a == b).count() as u64;
            postings_len.record(columns);
            cell_occupancy.record(cell.len() as u64);
            postings += columns;
        }
        Self {
            columns: num_columns,
            deleted_columns: 0,
            vectors: num_vectors,
            cells: inv.num_cells() as u64,
            postings,
            postings_len: postings_len.snapshot(),
            cell_occupancy: cell_occupancy.snapshot(),
            pivot_spread: inv.pivot_spread().to_vec(),
        }
    }

    /// The spread of the pivots' coordinate widths (`max − min` per
    /// pivot): the narrowest, the widest and their mean. `None` without
    /// pivots.
    pub fn pivot_width(&self) -> Option<PivotSpread> {
        let widths = self.pivot_spread.iter().map(|s| s.max - s.min);
        let n = self.pivot_spread.len();
        (n > 0).then(|| PivotSpread {
            min: widths.clone().fold(f32::INFINITY, f32::min),
            max: widths.clone().fold(f32::NEG_INFINITY, f32::max),
            mean: widths.sum::<f32>() / n as f32,
        })
    }
}

impl IndexInspection {
    /// Postings-length histogram summed over every partition.
    pub fn postings_len(&self) -> HistSnapshot {
        self.merged(|p| &p.postings_len)
    }

    /// Cell-occupancy histogram summed over every partition.
    pub fn cell_occupancy(&self) -> HistSnapshot {
        self.merged(|p| &p.cell_occupancy)
    }

    fn merged(&self, pick: impl Fn(&PartitionInspection) -> &HistSnapshot) -> HistSnapshot {
        let mut out = AtomicHistogram::new().snapshot();
        for p in &self.partitions {
            out.merge(pick(p));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnSet;
    use crate::config::{ExecPolicy, IndexOptions};
    use crate::grid::{CellKey, GridParams};
    use crate::invindex::InvertedIndex;
    use crate::mapping::MappedVectors;
    use crate::metric::Euclidean;
    use crate::search::PexesoIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn tiny_index() -> InvertedIndex {
        // Two pivots, one-level grid over span 4: cell width 4/2 = 2.
        let params = GridParams::new(2, 1, 4.0).unwrap();
        let mapped = MappedVectors::from_raw(
            2,
            vec![
                0.5, 0.5, // cell (0,0) — col 0
                0.6, 0.4, // cell (0,0) — col 0 again
                3.0, 0.5, // cell (1,0) — col 1
            ],
        )
        .unwrap();
        InvertedIndex::build(&params, &mapped, &[0, 0, 1], None).unwrap()
    }

    #[test]
    fn partition_inspection_counts_cells_and_postings() {
        let p = PartitionInspection::derive(&tiny_index(), 2, 3);
        assert_eq!(p.columns, 2);
        assert_eq!(p.deleted_columns, 0);
        assert_eq!(p.vectors, 3);
        assert_eq!(p.cells, 2);
        // Cell (0,0) holds one column, cell (1,0) one column.
        assert_eq!(p.postings, 2);
        assert_eq!(p.postings_len.count, 2);
        assert_eq!(p.cell_occupancy.count, 2);
        // Occupancies are 2 and 1 vectors.
        assert_eq!(p.cell_occupancy.sum, 3);
        assert_eq!(p.pivot_spread.len(), 2);
        let s0 = &p.pivot_spread[0];
        assert!((s0.min - 0.5).abs() < 1e-6 && (s0.max - 3.0).abs() < 1e-6);
    }

    /// `postings` counts each ⟨leaf cell, column⟩ pair once: what a
    /// brute-force count over every vector's leaf key and column gives.
    #[test]
    fn postings_count_distinct_leaf_column_pairs() {
        let mut rng = StdRng::seed_from_u64(5);
        let dim = 8;
        let mut columns = ColumnSet::new(dim);
        let centres: Vec<Vec<f32>> = (0..10)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        for c in 0..30 {
            // Three columns cluster around each centre, so a cell holds
            // several rows of a column and several columns.
            let centre = &centres[c as usize / 3];
            let vecs: Vec<Vec<f32>> = (0..20)
                .map(|_| {
                    centre
                        .iter()
                        .map(|x| x + rng.gen_range(-0.05f32..0.05))
                        .collect()
                })
                .collect();
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns.add_column("t", &format!("c{c}"), c, refs).unwrap();
        }
        let index = PexesoIndex::build(columns, Euclidean, IndexOptions::default()).unwrap();
        let mapped = index.map_repository(ExecPolicy::Sequential).unwrap();
        let vec_col = index.columns().vector_to_column();
        let pairs: HashSet<(CellKey, u32)> = (0..mapped.len())
            .map(|v| (index.grid_params().leaf_key(mapped.get(v)), vec_col[v]))
            .collect();
        let p = index.inspect();
        assert_eq!(p.postings, pairs.len() as u64);
        assert_eq!(p.postings_len.sum, p.postings);
        assert!(
            p.postings < p.vectors,
            "a column must have two rows in a cell"
        );
        assert!(p.postings > p.cells, "a cell must hold two columns");
    }

    #[test]
    fn merged_histograms_and_pivot_width() {
        let p = PartitionInspection::derive(&tiny_index(), 2, 3);
        // Pivot 0 spans [0.5, 3.0], pivot 1 [0.4, 0.5].
        let w = p.pivot_width().unwrap();
        assert!((w.min - 0.1).abs() < 1e-6, "{w:?}");
        assert!((w.max - 2.5).abs() < 1e-6, "{w:?}");
        assert!((w.mean - 1.3).abs() < 1e-6, "{w:?}");
        assert_eq!(PartitionInspection::default().pivot_width(), None);
        let insp = IndexInspection {
            partitions: vec![p.clone(), p],
            ..Default::default()
        };
        assert_eq!(insp.postings_len().count, 4);
        assert_eq!(insp.cell_occupancy().sum, 6);
    }
}

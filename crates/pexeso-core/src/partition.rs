//! Column partitioning for out-of-core lakes (Section IV).
//!
//! Columns with similar vector distributions should share a partition so
//! that each partition's pivots filter well. Every column is summarised by
//! a probability histogram of its vectors' projections onto a fixed
//! (seeded) random direction; partitions are then found by k-means-style
//! clustering under the paper's symmetrised-KL "JSD". Random assignment
//! and average-vector k-means are included as the Fig. 7b baselines.
//!
//! The JSD `(KL(a‖b) + KL(b‖a)) / 2` equals `½·Σ(aᵢ − bᵢ)(ln aᵢ − ln bᵢ)`,
//! so the k-means loop clusters histograms paired with their logarithms
//! (`LogHistogram`): a column's are taken once, a centroid's once per
//! pass, and the distance itself ([`crate::pdf::jsd_from_logs`]) needs no
//! logarithm. The work is O(columns × k × passes × bins) multiply-adds.
//! The KL form in [`crate::pdf`] stays the reference definition the tests
//! compare this form against; it takes a logarithm per term, so this
//! module does not call it. In floating point the two forms agree to
//! about 1e-14, not bit for bit, so a column almost equidistant from two
//! centroids may be assigned differently than under the KL form. Query
//! answers are exact under any partitioning.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::column::ColumnSet;
use crate::error::{PexesoError, Result};
use crate::metric::{Euclidean, Metric};
use crate::pdf::{jsd_from_logs, mean_distribution, Pdf};

/// Clustering strategy for partitioning (Fig. 7b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionMethod {
    /// k-means over column histograms with the paper's JSD (the proposal).
    JsdKmeans,
    /// k-means over per-column mean vectors with Euclidean distance.
    AvgKmeans,
    /// Uniform random assignment.
    Random,
}

/// Parameters of the partitioner.
#[derive(Debug, Clone)]
pub struct PartitionConfig {
    pub k: usize,
    pub method: PartitionMethod,
    /// k-means iterations (the paper's user-defined `t`).
    pub iterations: usize,
    /// Histogram bins per column summary.
    pub bins: usize,
    pub seed: u64,
}

impl Default for PartitionConfig {
    fn default() -> Self {
        Self {
            k: 4,
            method: PartitionMethod::JsdKmeans,
            iterations: 10,
            bins: 32,
            seed: 42,
        }
    }
}

/// Result: a partition id per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    pub assignments: Vec<usize>,
    pub k: usize,
}

impl Partitioning {
    /// Column indices per partition.
    pub(crate) fn groups(&self) -> Vec<Vec<usize>> {
        let mut groups = vec![Vec::new(); self.k];
        for (col, &p) in self.assignments.iter().enumerate() {
            groups[p].push(col);
        }
        groups
    }
}

/// Deterministic unit direction used for the 1-D projection summaries.
fn projection_direction(dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1ec7104);
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if n > 0.0 {
        v.iter_mut().for_each(|x| *x /= n);
    }
    v
}

/// Histogram summary of each column: projections onto the fixed direction,
/// over [-1, 1] (unit vectors ⇒ |projection| ≤ 1), smoothed for KL.
fn column_histograms(columns: &ColumnSet, bins: usize, seed: u64) -> Vec<Vec<f64>> {
    let dir = projection_direction(columns.dim(), seed);
    columns
        .columns()
        .iter()
        .map(|meta| {
            let projections = meta.vector_range().map(|v| {
                let x = columns.store().get_raw(v as usize);
                x.iter().zip(dir.iter()).map(|(a, b)| a * b).sum::<f32>()
            });
            Pdf::from_values(projections, -1.0, 1.0, bins).smoothed(1e-6)
        })
        .collect()
}

/// A probability vector paired with its element-wise natural logarithms —
/// the JsdKmeans item and centroid.
#[derive(Clone)]
struct LogHistogram {
    p: Vec<f64>,
    ln: Vec<f64>,
}

impl LogHistogram {
    /// Every entry of `p` is strictly positive: a column's histogram is
    /// [`Pdf::smoothed`] (Laplace ε > 0), and a centroid is a mean of such
    /// histograms. So each logarithm is finite.
    fn new(p: Vec<f64>) -> Self {
        debug_assert!(p.iter().all(|&x| x > 0.0), "JSD needs positive mass");
        let ln = p.iter().map(|x| x.ln()).collect();
        Self { p, ln }
    }

    fn jsd(&self, other: &Self) -> f64 {
        jsd_from_logs(&self.p, &self.ln, &other.p, &other.ln)
    }
}

/// Per-column mean vectors (the AvgKmeans representation).
fn column_means(columns: &ColumnSet) -> Vec<Vec<f32>> {
    columns
        .columns()
        .iter()
        .map(|meta| {
            let mut mean = vec![0.0f32; columns.dim()];
            for v in meta.vector_range() {
                for (m, x) in mean.iter_mut().zip(columns.store().get_raw(v as usize)) {
                    *m += x;
                }
            }
            let inv = 1.0 / meta.len as f32;
            mean.iter_mut().for_each(|m| *m *= inv);
            mean
        })
        .collect()
}

/// Generic k-means over items with caller-supplied distance and centroid
/// update. Empty clusters are re-seeded from the farthest item.
fn kmeans<T: Clone>(
    items: &[T],
    k: usize,
    iterations: usize,
    seed: u64,
    dist: impl Fn(&T, &T) -> f64,
    centroid: impl Fn(&[&T]) -> T,
) -> Vec<usize> {
    let n = items.len();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut center_idx: Vec<usize> = (0..n).collect();
    center_idx.shuffle(&mut rng);
    let mut centers: Vec<T> = center_idx
        .iter()
        .take(k)
        .map(|&i| items[i].clone())
        .collect();
    let mut assignments = vec![0usize; n];

    for _ in 0..iterations {
        // Assign.
        for (i, item) in items.iter().enumerate() {
            let mut best = (0usize, f64::INFINITY);
            for (c, center) in centers.iter().enumerate() {
                let d = dist(item, center);
                if d < best.1 {
                    best = (c, d);
                }
            }
            assignments[i] = best.0;
        }
        // Update.
        for c in 0..k {
            let members: Vec<&T> = items
                .iter()
                .zip(&assignments)
                .filter(|(_, &a)| a == c)
                .map(|(t, _)| t)
                .collect();
            if members.is_empty() {
                // Re-seed an empty cluster with the item farthest from its
                // current center.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        dist(&items[a], &centers[assignments[a]])
                            .total_cmp(&dist(&items[b], &centers[assignments[b]]))
                    })
                    .expect("non-empty items");
                centers[c] = items[far].clone();
            } else {
                centers[c] = centroid(&members);
            }
        }
    }
    // Final assignment pass against the last centers.
    for (i, item) in items.iter().enumerate() {
        let mut best = (0usize, f64::INFINITY);
        for (c, center) in centers.iter().enumerate() {
            let d = dist(item, center);
            if d < best.1 {
                best = (c, d);
            }
        }
        assignments[i] = best.0;
    }
    assignments
}

/// Partition the columns of a repository.
pub fn partition_columns(columns: &ColumnSet, config: &PartitionConfig) -> Result<Partitioning> {
    let n = columns.n_columns();
    if n == 0 {
        return Err(PexesoError::EmptyInput("partitioning an empty repository"));
    }
    if config.k == 0 {
        return Err(PexesoError::InvalidParameter("k must be positive".into()));
    }
    let k = config.k.min(n);
    let assignments = match config.method {
        PartitionMethod::Random => {
            let mut rng = StdRng::seed_from_u64(config.seed);
            (0..n).map(|_| rng.gen_range(0..k)).collect()
        }
        PartitionMethod::JsdKmeans => {
            let hists: Vec<LogHistogram> = column_histograms(columns, config.bins, config.seed)
                .into_iter()
                .map(LogHistogram::new)
                .collect();
            kmeans(
                &hists,
                k,
                config.iterations,
                config.seed,
                LogHistogram::jsd,
                |members| {
                    let slices: Vec<&[f64]> = members.iter().map(|m| m.p.as_slice()).collect();
                    LogHistogram::new(mean_distribution(&slices))
                },
            )
        }
        PartitionMethod::AvgKmeans => {
            let means = column_means(columns);
            kmeans(
                &means,
                k,
                config.iterations,
                config.seed,
                |a, b| Euclidean.dist(a, b) as f64,
                |members| {
                    let dim = members[0].len();
                    let mut out = vec![0.0f32; dim];
                    for m in members {
                        for (o, x) in out.iter_mut().zip(m.iter()) {
                            *o += x;
                        }
                    }
                    let inv = 1.0 / members.len() as f32;
                    out.iter_mut().for_each(|x| *x *= inv);
                    out
                },
            )
        }
    };
    Ok(Partitioning { assignments, k })
}

/// Materialise one partition's repository: the columns at `group` (indices
/// into `columns`), in that order, vectors copied.
pub fn sub_column_set(columns: &ColumnSet, group: &[usize]) -> ColumnSet {
    let mut sub = ColumnSet::new(columns.dim());
    for &ci in group {
        let meta = columns.column(crate::column::ColumnId(ci as u32));
        let vectors = meta
            .vector_range()
            .map(|v| columns.store().get_raw(v as usize));
        sub.add_column(
            &meta.table_name,
            &meta.column_name,
            meta.external_id,
            vectors,
        )
        .expect("copying a valid column cannot fail");
    }
    sub
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Columns drawn from two clearly different distributions: half the
    /// columns concentrate near +e0, half near −e0.
    fn bimodal_columns(seed: u64, per_side: usize, col_len: usize) -> ColumnSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 8;
        let mut columns = ColumnSet::new(dim);
        for c in 0..per_side * 2 {
            let sign = if c < per_side { 1.0f32 } else { -1.0 };
            let mut vecs = Vec::new();
            for _ in 0..col_len {
                let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-0.2f32..0.2)).collect();
                v[0] = sign * rng.gen_range(0.8f32..1.0);
                let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                v.iter_mut().for_each(|x| *x /= n);
                vecs.push(v);
            }
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns
                .add_column("t", &format!("c{c}"), c as u64, refs)
                .unwrap();
        }
        columns
    }

    #[test]
    fn jsd_kmeans_separates_bimodal_columns() {
        let columns = bimodal_columns(1, 8, 30);
        let p = partition_columns(
            &columns,
            &PartitionConfig {
                k: 2,
                method: PartitionMethod::JsdKmeans,
                ..Default::default()
            },
        )
        .unwrap();
        // All +side columns in one partition, all -side in the other.
        let first = p.assignments[0];
        assert!(p.assignments[..8].iter().all(|&a| a == first));
        assert!(p.assignments[8..].iter().all(|&a| a != first));
    }

    #[test]
    fn avg_kmeans_also_separates_bimodal() {
        let columns = bimodal_columns(2, 6, 25);
        let p = partition_columns(
            &columns,
            &PartitionConfig {
                k: 2,
                method: PartitionMethod::AvgKmeans,
                ..Default::default()
            },
        )
        .unwrap();
        let first = p.assignments[0];
        assert!(p.assignments[..6].iter().all(|&a| a == first));
        assert!(p.assignments[6..].iter().all(|&a| a != first));
    }

    #[test]
    fn random_uses_all_partitions_roughly() {
        let columns = bimodal_columns(3, 20, 5);
        let p = partition_columns(
            &columns,
            &PartitionConfig {
                k: 4,
                method: PartitionMethod::Random,
                ..Default::default()
            },
        )
        .unwrap();
        let groups = p.groups();
        assert_eq!(groups.len(), 4);
        assert!(groups.iter().filter(|g| !g.is_empty()).count() >= 3);
    }

    #[test]
    fn k_clamped_to_columns() {
        let columns = bimodal_columns(4, 2, 5);
        let p = partition_columns(
            &columns,
            &PartitionConfig {
                k: 100,
                method: PartitionMethod::JsdKmeans,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(p.k <= columns.n_columns());
        assert!(p.assignments.iter().all(|&a| a < p.k));
    }

    #[test]
    fn split_preserves_columns_and_vectors() {
        let columns = bimodal_columns(5, 4, 10);
        let p = partition_columns(
            &columns,
            &PartitionConfig {
                k: 2,
                method: PartitionMethod::JsdKmeans,
                ..Default::default()
            },
        )
        .unwrap();
        let parts: Vec<(ColumnSet, Vec<usize>)> = p
            .groups()
            .into_iter()
            .map(|group| (sub_column_set(&columns, &group), group))
            .collect();
        let total_cols: usize = parts.iter().map(|(cs, _)| cs.n_columns()).sum();
        let total_vecs: usize = parts.iter().map(|(cs, _)| cs.n_vectors()).sum();
        assert_eq!(total_cols, columns.n_columns());
        assert_eq!(total_vecs, columns.n_vectors());
        // Column contents survive the copy.
        for (sub, orig_indices) in &parts {
            for (sub_ci, &orig_ci) in orig_indices.iter().enumerate() {
                let sub_meta = &sub.columns()[sub_ci];
                let orig_meta = &columns.columns()[orig_ci];
                assert_eq!(sub_meta.external_id, orig_meta.external_id);
                assert_eq!(sub_meta.len, orig_meta.len);
                let sv = sub.store().get_raw(sub_meta.start as usize);
                let ov = columns.store().get_raw(orig_meta.start as usize);
                assert_eq!(sv, ov);
            }
        }
    }

    #[test]
    fn deterministic_partitioning() {
        let columns = bimodal_columns(6, 5, 10);
        let cfg = PartitionConfig {
            k: 3,
            ..Default::default()
        };
        let a = partition_columns(&columns, &cfg).unwrap();
        let b = partition_columns(&columns, &cfg).unwrap();
        assert_eq!(a, b);
    }

    /// A seeded lake of 600 random unit-vector columns: 150 originals,
    /// each followed by three near-duplicates (every vector nudged by at
    /// most 0.02 per coordinate, then renormalised).
    fn near_duplicate_lake(seed: u64) -> ColumnSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 8;
        let unit = |v: &mut Vec<f32>| {
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= n);
        };
        let mut columns = ColumnSet::new(dim);
        for base in 0..150 {
            let len = rng.gen_range(5..30);
            let original: Vec<Vec<f32>> = (0..len)
                .map(|_| {
                    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                    unit(&mut v);
                    v
                })
                .collect();
            for copy in 0..4 {
                let vecs: Vec<Vec<f32>> = original
                    .iter()
                    .map(|v| {
                        let mut w: Vec<f32> = v
                            .iter()
                            .map(|x| {
                                if copy == 0 {
                                    *x
                                } else {
                                    x + rng.gen_range(-0.02f32..0.02)
                                }
                            })
                            .collect();
                        unit(&mut w);
                        w
                    })
                    .collect();
                let id = columns.n_columns() as u64;
                columns
                    .add_column(
                        "t",
                        &format!("c{base}_{copy}"),
                        id,
                        vecs.iter().map(Vec::as_slice),
                    )
                    .unwrap();
            }
        }
        columns
    }

    /// The JSD partitioner's assignments on a fixed lake, pinned: any
    /// rewrite of the k-means loop must reproduce them exactly (the
    /// partition files, and every count downstream, depend on them).
    #[test]
    fn jsd_kmeans_assignments_are_pinned() {
        let columns = near_duplicate_lake(17);
        assert_eq!(columns.n_columns(), 600);
        let p = partition_columns(&columns, &PartitionConfig::default()).unwrap();
        let got: String = p.assignments.iter().map(|a| a.to_string()).collect();
        let pinned = concat!(
            "0000202230311111030233332222330300003333330333032223222211112232001133330000223333333333000033331111",
            "3333002022232222222221220230333333333023000022230030111133333330222222223333333333303322111111111111",
            "2222002200011111000022220000000021221111010100002233333300003333113011210000222222220000000022320000",
            "3333303222222222330200003303333333332222333333333333222222213333111122220000333300000110333300001111",
            "3033222233330102000000002222111100002222222223230000111100032222222200001111222233331313000033331111",
            "3333111132330020220233330210020120021101333322220000110133332332232200002220222211113131222222222222",
        );
        assert_eq!(got, pinned);
    }

    #[test]
    fn zero_k_rejected() {
        let columns = bimodal_columns(7, 2, 5);
        assert!(partition_columns(
            &columns,
            &PartitionConfig {
                k: 0,
                ..Default::default()
            }
        )
        .is_err());
    }
}

//! Column partitioning for out-of-core lakes (Section IV).
//!
//! Columns with similar vector distributions should share a partition so
//! that each partition's pivots filter well. Every column is summarised by
//! a probability histogram of its vectors' projections onto a fixed
//! (seeded) random direction; partitions are then found by k-means-style
//! clustering under the paper's symmetrised-KL "JSD". Random assignment
//! and average-vector k-means are included as the Fig. 7b baselines.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::column::ColumnSet;
use crate::error::{PexesoError, Result};
use crate::metric::{Euclidean, Metric};
use crate::pdf::{jsd_paper, mean_distribution, Pdf};

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
            let hists = column_histograms(columns, config.bins, config.seed);
            kmeans(
                &hists,
                k,
                config.iterations,
                config.seed,
                |a, b| jsd_paper(a, b),
                |members| {
                    let slices: Vec<&[f64]> = members.iter().map(|m| m.as_slice()).collect();
                    mean_distribution(&slices)
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

/// Materialise per-partition repositories (copying vectors). Empty
/// partitions are dropped; the returned vector pairs each sub-repository
/// with the original column indices it contains.
pub fn split_column_set(
    columns: &ColumnSet,
    partitioning: &Partitioning,
) -> Vec<(ColumnSet, Vec<usize>)> {
    let groups = partitioning.groups();
    let mut out = Vec::new();
    for group in groups {
        if group.is_empty() {
            continue;
        }
        let mut sub = ColumnSet::new(columns.dim());
        for &ci in &group {
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
        out.push((sub, group));
    }
    out
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
        let parts = split_column_set(&columns, &p);
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

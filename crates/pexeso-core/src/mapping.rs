//! Pivot mapping: original metric space → pivot space.
//!
//! A vector `x` maps to `x' = [d(x, p₁), …, d(x, p_|P|)]`. The inverted
//! index keeps what the repository's mapped vectors give verification —
//! the pivot coordinates themselves, or on a Euclidean index the n-simplex
//! apexes computed from them — because its O(|P|) row bounds come before
//! an O(dim) distance computation.
//!
//! Mapping is embarrassingly parallel (each vector's row is independent),
//! so [`MappedVectors::build_with`] shards the vectors across an
//! [`ExecPolicy`] and fills each shard's disjoint window of the arena with
//! the batched [`Metric::dist_batch`] kernel against a flattened pivot
//! arena. The result is byte-identical for every policy.

use crate::config::ExecPolicy;
use crate::error::{PexesoError, Result};
use crate::exec;
use crate::metric::Metric;
use crate::vector::VectorStore;

/// Flat arena of pivot-space vectors, |P| coordinates each.
#[derive(Debug, Clone, PartialEq)]
pub struct MappedVectors {
    num_pivots: usize,
    data: Vec<f32>,
}

impl MappedVectors {
    /// Map every vector of `store` against `pivots`. Returns the arena and
    /// counts `pivots.len() * store.len()` distance computations into
    /// `dist_counter` if provided.
    pub fn build<M: Metric>(
        store: &VectorStore,
        pivots: &[Vec<f32>],
        metric: &M,
        dist_counter: Option<&mut u64>,
    ) -> Result<Self> {
        Self::build_with(store, pivots, metric, dist_counter, ExecPolicy::Sequential)
    }

    /// [`MappedVectors::build`] with explicit parallelism. The arena is
    /// identical for every policy.
    pub fn build_with<M: Metric>(
        store: &VectorStore,
        pivots: &[Vec<f32>],
        metric: &M,
        dist_counter: Option<&mut u64>,
        policy: ExecPolicy,
    ) -> Result<Self> {
        if pivots.is_empty() {
            return Err(PexesoError::EmptyInput("pivot mapping with no pivots"));
        }
        for p in pivots {
            if p.len() != store.dim() {
                return Err(PexesoError::DimensionMismatch {
                    expected: store.dim(),
                    got: p.len(),
                });
            }
        }
        let k = pivots.len();
        // Flatten the pivots once so each vector runs one batched kernel
        // call over a contiguous arena instead of |P| pointer-chased rows.
        let pivot_arena: Vec<f32> = pivots.iter().flat_map(|p| p.iter().copied()).collect();
        let mut data = vec![0.0f32; k * store.len()];
        // One slot costs |P|·dim flops (~1 µs at |P|=5, dim=64); scale the
        // parallelism cut-off so each shard carries well over a spawn's
        // worth of work.
        let min_items = (1 << 21) / (k * store.dim()).max(1);
        exec::fill_slots_min(policy, &mut data, k, min_items, |vec_range, window| {
            for (slot, v) in vec_range.enumerate() {
                let out = &mut window[slot * k..(slot + 1) * k];
                metric.dist_batch(store.get_raw(v), &pivot_arena, out);
            }
        });
        if let Some(c) = dist_counter {
            *c += (k * store.len()) as u64;
        }
        Ok(Self {
            num_pivots: k,
            data,
        })
    }

    pub fn num_pivots(&self) -> usize {
        self.num_pivots
    }

    /// Number of mapped vectors.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.num_pivots).unwrap_or(0)
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The mapped coordinates of vector `idx`.
    #[inline]
    pub fn get(&self, idx: usize) -> &[f32] {
        let start = idx * self.num_pivots;
        &self.data[start..start + self.num_pivots]
    }

    /// Iterate over mapped vectors in id order.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.num_pivots)
    }

    /// Append one mapped vector (index maintenance).
    pub fn push(&mut self, coords: &[f32]) -> Result<()> {
        if coords.len() != self.num_pivots {
            return Err(PexesoError::DimensionMismatch {
                expected: self.num_pivots,
                got: coords.len(),
            });
        }
        self.data.extend_from_slice(coords);
        Ok(())
    }

    /// Raw flat data (persistence).
    pub fn raw_data(&self) -> &[f32] {
        &self.data
    }

    /// Rebuild from flat data (persistence).
    pub fn from_raw(num_pivots: usize, data: Vec<f32>) -> Result<Self> {
        if num_pivots == 0 || !data.len().is_multiple_of(num_pivots) {
            return Err(PexesoError::Corrupt(format!(
                "mapped data length {} not a multiple of |P| {num_pivots}",
                data.len()
            )));
        }
        Ok(Self { num_pivots, data })
    }

    /// Maximum coordinate value (used to validate grid span assumptions).
    pub fn max_coord(&self) -> f32 {
        self.data.iter().fold(0.0f32, |a, &b| a.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Euclidean;

    fn store_2d(points: &[[f32; 2]]) -> VectorStore {
        let mut s = VectorStore::new(2);
        for p in points {
            s.push(p).unwrap();
        }
        s
    }

    #[test]
    fn mapping_matches_hand_computation() {
        // The paper's Fig. 2 example layout: pivots x1 and x8.
        let s = store_2d(&[[0.0, 0.0], [3.0, 4.0], [1.0, 0.0]]);
        let pivots = vec![vec![0.0f32, 0.0], vec![3.0f32, 4.0]];
        let m = MappedVectors::build(&s, &pivots, &Euclidean, None).unwrap();
        assert_eq!(m.len(), 3);
        assert_eq!(m.get(0), &[0.0, 5.0]);
        assert_eq!(m.get(1), &[5.0, 0.0]);
        let g2 = m.get(2);
        assert!((g2[0] - 1.0).abs() < 1e-6);
        assert!((g2[1] - (4.0f32 + 16.0).sqrt()).abs() < 1e-6);
    }

    #[test]
    fn distance_counter_counts_all_pairs() {
        let s = store_2d(&[[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]);
        let pivots = vec![vec![0.0f32, 0.0], vec![1.0f32, 0.0]];
        let mut count = 0u64;
        MappedVectors::build(&s, &pivots, &Euclidean, Some(&mut count)).unwrap();
        assert_eq!(count, 6);
    }

    #[test]
    fn no_pivots_is_error() {
        let s = store_2d(&[[0.0, 0.0]]);
        assert!(MappedVectors::build(&s, &[], &Euclidean, None).is_err());
    }

    #[test]
    fn pivot_dim_mismatch_is_error() {
        let s = store_2d(&[[0.0, 0.0]]);
        let pivots = vec![vec![0.0f32; 3]];
        assert!(matches!(
            MappedVectors::build(&s, &pivots, &Euclidean, None),
            Err(PexesoError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn from_raw_validates() {
        assert!(MappedVectors::from_raw(3, vec![0.0; 7]).is_err());
        assert!(MappedVectors::from_raw(0, vec![]).is_err());
        let m = MappedVectors::from_raw(2, vec![0.0; 6]).unwrap();
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        // Sized above the work-scaled parallelism cut-off so the sharded
        // fill path genuinely runs (8 pivots × 64 dims → min_items 4096).
        let dim = 64;
        let mut s = VectorStore::new(dim);
        for _ in 0..6000 {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            s.push(&v).unwrap();
        }
        let pivots: Vec<Vec<f32>> = (0..8).map(|i| s.get_raw(i * 11).to_vec()).collect();
        let seq = MappedVectors::build_with(&s, &pivots, &Euclidean, None, ExecPolicy::Sequential)
            .unwrap();
        // `Fixed` forces real fan-out even where the adaptive planner
        // would clamp `Parallel` to the inline path (single-core hosts).
        for policy in [
            ExecPolicy::Parallel { threads: 8 },
            ExecPolicy::Fixed { threads: 8 },
        ] {
            let par = MappedVectors::build_with(&s, &pivots, &Euclidean, None, policy).unwrap();
            assert_eq!(seq.raw_data(), par.raw_data(), "{policy:?}");
        }
    }

    #[test]
    fn max_coord() {
        let m = MappedVectors::from_raw(2, vec![0.5, 1.25, 0.0, 0.75]).unwrap();
        assert_eq!(m.max_coord(), 1.25);
    }
}

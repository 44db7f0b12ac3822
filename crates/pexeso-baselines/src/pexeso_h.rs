//! PEXESO-H: the paper's self-baseline — identical hierarchical-grid
//! blocking, naive verification.
//!
//! For every candidate ⟨query vector, leaf cell⟩ pair, PEXESO-H computes
//! the exact distance between the query vector and *every* vector in the
//! cell: no inverted index, no Lemma 1/2 vector checks, no Lemma 7. The
//! joinable-skip early termination on T is kept (the paper equips every
//! method with it). Comparing PEXESO against PEXESO-H isolates the value of
//! the inverted-index verification (Table VII reports 1.6–13× between them).

use pexeso_core::util::FastMap;

use pexeso_core::block::{block, quick_browse};
use pexeso_core::column::{ColumnId, ColumnSet};
use pexeso_core::config::{IndexOptions, LemmaFlags};
use pexeso_core::error::{PexesoError, Result};
use pexeso_core::grid::{GridParams, HierarchicalGrid};
use pexeso_core::invindex::InvertedIndex;
use pexeso_core::mapping::MappedVectors;
use pexeso_core::metric::Metric;
use pexeso_core::pivot::select_pivots;
use pexeso_core::search::SearchHit;
use pexeso_core::stats::SearchStats;
use pexeso_core::vector::VectorStore;
use pexeso_core::{JoinThreshold, Tau};

use crate::VectorJoinSearch;

/// PEXESO-H index: grid with per-cell vector lists (no postings).
pub struct PexesoHIndex<'a, M: Metric> {
    columns: &'a ColumnSet,
    metric: M,
    pivots: Vec<Vec<f32>>,
    grid_params: GridParams,
    rv_mapped: MappedVectors,
    /// Grid retaining per-leaf vector id lists (the "naive" side).
    hgrv: HierarchicalGrid,
    /// Only used for quick browsing parity with PEXESO.
    inv: InvertedIndex,
    vec_col: Vec<u32>,
}

impl<'a, M: Metric> PexesoHIndex<'a, M> {
    pub fn build(columns: &'a ColumnSet, metric: M, options: IndexOptions) -> Result<Self> {
        options.validate()?;
        if columns.n_columns() == 0 {
            return Err(PexesoError::EmptyInput("repository with zero columns"));
        }
        let pivots = select_pivots(
            columns.store(),
            &metric,
            options.num_pivots,
            options.pivot_selection,
            options.seed,
        )?;
        let rv_mapped = MappedVectors::build(columns.store(), &pivots, &metric, None)?;
        let span = metric
            .max_dist_unit(columns.dim())
            .max(rv_mapped.max_coord())
            + 1e-4;
        let levels = options.levels.unwrap_or(4);
        let grid_params = GridParams::new(pivots.len(), levels, span)?;
        let hgrv = HierarchicalGrid::build(grid_params.clone(), &rv_mapped)?;
        let vec_col = columns.vector_to_column();
        let (inv, _) = InvertedIndex::build(&grid_params, &rv_mapped, &vec_col, None)?;
        Ok(Self {
            columns,
            metric,
            pivots,
            grid_params,
            rv_mapped,
            hgrv,
            inv,
            vec_col,
        })
    }
}

impl<M: Metric> VectorJoinSearch for PexesoHIndex<'_, M> {
    fn name(&self) -> &'static str {
        "PEXESO-H"
    }

    fn search(
        &self,
        query: &VectorStore,
        tau: Tau,
        t: JoinThreshold,
    ) -> Result<(Vec<SearchHit>, SearchStats)> {
        if query.is_empty() {
            return Err(PexesoError::EmptyInput("query column with zero vectors"));
        }
        if query.dim() != self.columns.dim() {
            return Err(PexesoError::DimensionMismatch {
                expected: self.columns.dim(),
                got: query.dim(),
            });
        }
        let tau = tau.resolve(&self.metric, self.columns.dim())?;
        let t_abs = t.resolve(query.len())?;
        let started = std::time::Instant::now();
        let mut stats = SearchStats::new();

        let query_mapped = MappedVectors::build(
            query,
            &self.pivots,
            &self.metric,
            Some(&mut stats.mapping_distances),
        )?;
        if query_mapped.max_coord() > self.grid_params.span {
            return Err(PexesoError::InvalidParameter(
                "query vector maps outside the pivot space; normalise query vectors".into(),
            ));
        }
        let hgq = HierarchicalGrid::build(self.grid_params.clone(), &query_mapped)?;

        let block_start = std::time::Instant::now();
        let mut seeded = FastMap::default();
        let handled = quick_browse(&hgq, &self.inv, &mut seeded, &mut stats);
        let blocked = block(
            &hgq,
            &self.hgrv,
            &query_mapped,
            tau,
            LemmaFlags::all(),
            Some(&handled),
            seeded,
            &mut stats,
        );
        stats.block_time = block_start.elapsed();

        // Naive verification: exact distance to every vector in each
        // matching/candidate cell. Matching cells are certain, but
        // PEXESO-H has no postings, so it still walks their vector lists
        // (without distance computation) to attribute columns.
        let verify_start = std::time::Instant::now();
        let n_cols = self.columns.n_columns();
        let n_q = query.len();
        let mut counts = vec![0u32; n_cols];
        let mut joinable = vec![false; n_cols];
        let mut stamp = vec![0u32; n_cols];
        let mut mi = 0usize;
        let mut ci = 0usize;
        for q in 0..n_q as u32 {
            let gen = q + 1;
            if mi < blocked.matching.len() && blocked.matching[mi].0 == q {
                for &cell in &blocked.matching[mi].1 {
                    for &vid in self.hgrv.leaf_vectors(cell) {
                        let c = self.vec_col[vid as usize] as usize;
                        if joinable[c] || stamp[c] == gen {
                            continue;
                        }
                        stamp[c] = gen;
                        counts[c] += 1;
                        if counts[c] as usize >= t_abs {
                            joinable[c] = true;
                            stats.early_joinable += 1;
                        }
                    }
                }
                mi += 1;
            }
            if ci < blocked.candidates.len() && blocked.candidates[ci].0 == q {
                let qv = query.get_raw(q as usize);
                for &cell in &blocked.candidates[ci].1 {
                    for &vid in self.hgrv.leaf_vectors(cell) {
                        let c = self.vec_col[vid as usize] as usize;
                        if joinable[c] || stamp[c] == gen {
                            continue;
                        }
                        stats.distance_computations += 1;
                        if self
                            .metric
                            .dist(qv, self.columns.store().get_raw(vid as usize))
                            <= tau
                        {
                            stamp[c] = gen;
                            counts[c] += 1;
                            if counts[c] as usize >= t_abs {
                                joinable[c] = true;
                                stats.early_joinable += 1;
                            }
                        }
                    }
                }
                ci += 1;
            }
        }
        stats.verify_time = verify_start.elapsed();
        stats.total_time = started.elapsed();

        let hits = (0..n_cols)
            .filter(|&c| counts[c] as usize >= t_abs)
            .map(|c| SearchHit {
                column: ColumnId(c as u32),
                match_count: counts[c],
            })
            .collect();
        Ok((hits, stats))
    }

    fn index_bytes(&self) -> usize {
        self.hgrv.approx_bytes()
            + self.rv_mapped.raw_data().len() * 4
            + self.vec_col.len() * 4
            + self.pivots.iter().map(|p| p.len() * 4).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pexeso_core::metric::Euclidean;
    use pexeso_core::query::Queryable;
    use pexeso_core::search::{naive_search, PexesoIndex};
    use pexeso_core::PivotSelection;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn unit(rng: &mut StdRng, dim: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n);
        v
    }

    fn instance(seed: u64, n_cols: usize, col_len: usize, nq: usize) -> (ColumnSet, VectorStore) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 10;
        let mut columns = ColumnSet::new(dim);
        for c in 0..n_cols {
            let vecs: Vec<Vec<f32>> = (0..col_len).map(|_| unit(&mut rng, dim)).collect();
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns
                .add_column("t", &format!("c{c}"), c as u64, refs)
                .unwrap();
        }
        let mut query = VectorStore::new(dim);
        for _ in 0..nq {
            let v = unit(&mut rng, dim);
            query.push(&v).unwrap();
        }
        (columns, query)
    }

    fn opts() -> IndexOptions {
        IndexOptions {
            num_pivots: 3,
            levels: Some(4),
            pivot_selection: PivotSelection::Pca,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn agrees_with_naive_and_pexeso() {
        for seed in [1u64, 2] {
            let (columns, query) = instance(seed, 12, 25, 8);
            let h = PexesoHIndex::build(&columns, Euclidean, opts()).unwrap();
            let full = PexesoIndex::build(columns.clone(), Euclidean, opts()).unwrap();
            for tau in [Tau::Ratio(0.08), Tau::Ratio(0.25)] {
                for t in [JoinThreshold::Ratio(0.3), JoinThreshold::Ratio(0.7)] {
                    let (expected, _) =
                        naive_search(&columns, &Euclidean, &query, tau, t, false).unwrap();
                    let (got_h, _) = h.search(&query, tau, t).unwrap();
                    let got_full = full
                        .execute(&pexeso_core::query::Query::threshold(tau, t), &query)
                        .unwrap();
                    let ids = |v: &[SearchHit]| v.iter().map(|h| h.column).collect::<Vec<_>>();
                    assert_eq!(ids(&got_h), ids(&expected), "seed={seed}");
                    // External ids equal insertion order in this fixture.
                    let full_ids: Vec<ColumnId> = got_full
                        .hits
                        .iter()
                        .map(|h| ColumnId(h.external_id as u32))
                        .collect();
                    assert_eq!(full_ids, ids(&expected), "seed={seed}");
                }
            }
        }
    }

    #[test]
    fn pexeso_does_fewer_distance_computations_than_h() {
        let (columns, query) = instance(3, 15, 40, 10);
        let h = PexesoHIndex::build(&columns, Euclidean, opts()).unwrap();
        let full = PexesoIndex::build(columns.clone(), Euclidean, opts()).unwrap();
        let tau = Tau::Ratio(0.1);
        let t = JoinThreshold::Ratio(0.5);
        let (_, h_stats) = h.search(&query, tau, t).unwrap();
        let full_result = full
            .execute(&pexeso_core::query::Query::threshold(tau, t), &query)
            .unwrap();
        assert!(
            full_result.stats.distance_computations <= h_stats.distance_computations,
            "PEXESO {} should not exceed PEXESO-H {}",
            full_result.stats.distance_computations,
            h_stats.distance_computations
        );
    }

    #[test]
    fn empty_query_rejected() {
        let (columns, _) = instance(4, 3, 8, 1);
        let h = PexesoHIndex::build(&columns, Euclidean, opts()).unwrap();
        let empty = VectorStore::new(10);
        assert!(h
            .search(&empty, Tau::Ratio(0.1), JoinThreshold::Count(1))
            .is_err());
    }
}

//! The PEXESO index and search entry points (Algorithm 3).
//!
//! [`PexesoIndex::build`] runs the offline phase: pivot selection, pivot
//! mapping, and the inverted index, which holds `HG_RV`.
//! [`IndexUnit::answer`] runs the online phase — map the query column,
//! build `HG_Q`, quick-browse, block, verify — for every backend, the
//! index's own [`Queryable::execute`] included. Results are exact —
//! identical to the naive scan — for every lemma-flag combination.

use std::borrow::Cow;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::block::{block_with, quick_browse, BlockOutput};
use crate::column::{check_ranges, column_map, ColumnId, ColumnMeta, ColumnSet};
use crate::config::{ExecPolicy, IndexOptions, JoinThreshold, LemmaFlags, Tau};
use crate::cost::{column_match_bounds, topk_seed};
use crate::error::{PexesoError, Result};
use crate::grid::{GridParams, HierarchicalGrid};
use crate::inspect::PartitionInspection;
use crate::invindex::{InvertedIndex, SimplexBase};
use crate::lemmas;
use crate::mapping::MappedVectors;
use crate::metric::Metric;
use crate::outofcore::{merge_answers, GlobalHit, IndexUnit, PartitionAnswer};
use crate::pivot::select_pivots_with;
use crate::query::{BudgetGuard, Query, QueryMode, QueryResponse, Queryable};
use crate::stats::SearchStats;
use crate::util::FastMap;
use crate::vector::{VectorId, VectorStore};
use crate::verify::{self, VerifyContext};

/// One joinable column in a search result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchHit {
    pub column: ColumnId,
    /// Matched query vectors. A lower bound when the column was confirmed
    /// early (the search stops counting once `T` is reached).
    pub match_count: u32,
}

/// Per-search knobs beyond the thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOptions {
    pub flags: LemmaFlags,
    /// Enable the quick-browsing shortcut (Section III-C); on by default.
    pub quick_browse: bool,
}

impl Default for SearchOptions {
    fn default() -> Self {
        Self {
            flags: LemmaFlags::all(),
            quick_browse: true,
        }
    }
}

/// The PEXESO index over one repository of columns.
#[derive(Debug, Clone)]
pub struct PexesoIndex<M: Metric> {
    metric: M,
    options: IndexOptions,
    grid_params: GridParams,
    pivots: Vec<Vec<f32>>,
    /// The vectors, held in the inverted index's row order: row `r`'s
    /// vector is `columns.store().get_raw(r)`, and its id
    /// `columns.vector_ids()[r]`.
    columns: ColumnSet,
    /// `HG_RV` and the cell-major rows, which are the postings: each
    /// vector's column and apex (or pivot coordinates) live here and
    /// nowhere else.
    inv: InvertedIndex,
    /// [`PexesoIndex::rv_mapped`], mapped on first use; not part of the
    /// index.
    rv_mapped: OnceLock<MappedVectors>,
    build_time: Duration,
}

impl<M: Metric> PexesoIndex<M> {
    /// Offline construction. When `options.levels` is `None` the grid depth
    /// is chosen by the cost model of Section III-E. The columns may be in
    /// any order (another index's, say): the build takes them by id, so
    /// the index depends on their ids and vectors only.
    pub fn build(columns: ColumnSet, metric: M, options: IndexOptions) -> Result<Self> {
        options.validate()?;
        if columns.n_columns() == 0 {
            return Err(PexesoError::EmptyInput("repository with zero columns"));
        }
        let started = Instant::now();
        let columns = columns.into_id_order();
        let pivots = select_pivots_with(
            columns.store(),
            &metric,
            options.num_pivots,
            options.pivot_selection,
            options.seed,
            options.exec,
        )?;
        let rv_mapped =
            MappedVectors::build_with(columns.store(), &pivots, &metric, None, options.exec)?;
        // Span covers unit-vector repositories and anything larger actually
        // observed; queries are validated against it at search time.
        let span = metric
            .max_dist_unit(columns.dim())
            .max(rv_mapped.max_coord())
            + 1e-4;
        let levels = match options.levels {
            Some(m) => m,
            None => crate::cost::choose_levels(&rv_mapped, span, options.seed)?,
        };
        let grid_params = GridParams::new(pivots.len(), levels, span)?;
        let (inv, order) = InvertedIndex::build_with(
            &grid_params,
            &rv_mapped,
            &columns.vector_to_column(),
            SimplexBase::of(&pivots, &metric),
            options.exec,
        )?;
        let columns = columns.in_order(order)?;
        Ok(Self {
            metric,
            options,
            grid_params,
            pivots,
            columns,
            inv,
            rv_mapped: OnceLock::new(),
            build_time: started.elapsed(),
        })
    }

    /// Shared query validation for every online entry point.
    fn validate_query(&self, query: &VectorStore) -> Result<()> {
        if query.is_empty() {
            return Err(PexesoError::EmptyInput("query column with zero vectors"));
        }
        if query.dim() != self.columns.dim() {
            return Err(PexesoError::DimensionMismatch {
                expected: self.columns.dim(),
                got: query.dim(),
            });
        }
        Ok(())
    }

    /// The shared online prologue of every search entry point: map the
    /// query into pivot space, validate against the grid span, build
    /// `HG_Q`, quick-browse (when enabled), and run blocking's flat pass
    /// over `HG_RV`'s leaves. Populates `stats.mapping_distances`, the
    /// blocking counters, and `stats.block_time`.
    fn map_and_block(
        &self,
        query: &VectorStore,
        tau_abs: f32,
        opts: SearchOptions,
        exec: ExecPolicy,
        stats: &mut SearchStats,
    ) -> Result<(MappedVectors, BlockOutput)> {
        let map_start = Instant::now();
        let query_mapped = MappedVectors::build_with(
            query,
            &self.pivots,
            &self.metric,
            Some(&mut stats.mapping_distances),
            exec,
        )?;
        if query_mapped.max_coord() > self.grid_params.span {
            return Err(PexesoError::InvalidParameter(format!(
                "query vector maps outside the pivot space (coordinate {} > span {}); \
                 normalise query vectors like the repository",
                query_mapped.max_coord(),
                self.grid_params.span
            )));
        }
        let hgq = HierarchicalGrid::build(self.grid_params.clone(), &query_mapped)?;
        // Mapping phase = pivot mapping + span check + HG_Q build: all the
        // per-query work before blocking starts.
        stats.mapping_time = map_start.elapsed();
        let block_start = Instant::now();
        let (handled, seeded) = if opts.quick_browse {
            let mut seeded = FastMap::default();
            let handled = quick_browse(&hgq, &self.inv, &mut seeded, stats);
            (Some(handled), seeded)
        } else {
            (None, FastMap::default())
        };
        let blocked = block_with(
            &hgq,
            self.inv.grid(),
            &query_mapped,
            tau_abs,
            opts.flags,
            handled.as_ref(),
            seeded,
            stats,
            exec,
        );
        stats.block_time = block_start.elapsed();
        Ok((query_mapped, blocked))
    }

    /// Append a new column online. The vectors must map inside the
    /// existing pivot-space span (guaranteed for unit-normalised data);
    /// otherwise nothing is appended and the index must be rebuilt. The
    /// index keeps no pivot coordinates where its rows hold apexes, so
    /// the inverted index, `HG_RV` included, is laid out again from a fresh
    /// mapping of every vector: O(|RV|) per column, not the paper's
    /// O((|P|+m)·|s|).
    pub fn append_column<'a>(
        &mut self,
        table_name: &str,
        column_name: &str,
        external_id: u64,
        vectors: impl IntoIterator<Item = &'a [f32]>,
    ) -> Result<ColumnId> {
        let vectors: Vec<&[f32]> = vectors.into_iter().collect();
        let mut added = VectorStore::new(self.columns.dim());
        for v in &vectors {
            added.push(v)?;
        }
        let mapped = MappedVectors::build(&added, &self.pivots, &self.metric, None)?;
        if mapped.max_coord() > self.grid_params.span {
            return Err(PexesoError::InvalidParameter(format!(
                "appended vector maps outside the pivot space (> {}); rebuild the index",
                self.grid_params.span
            )));
        }
        let mut columns = self.columns.id_ordered().into_owned();
        let col_id = columns.add_column(table_name, column_name, external_id, vectors)?;
        let (inv, order) = InvertedIndex::build_with(
            &self.grid_params,
            &MappedVectors::build_with(
                columns.store(),
                &self.pivots,
                &self.metric,
                None,
                self.options.exec,
            )?,
            &columns.vector_to_column(),
            SimplexBase::of(&self.pivots, &self.metric),
            self.options.exec,
        )?;
        self.columns = columns.in_order(order)?;
        self.inv = inv;
        self.rv_mapped = OnceLock::new();
        Ok(col_id)
    }

    /// Every repository vector's pivot coordinates in row order: the
    /// rows' own where they hold pivot coordinates, else mapped afresh
    /// under `policy` — bit for bit what the build mapped
    /// ([`MappedVectors::build_with`] maps each vector alone, the same for
    /// every policy).
    pub(crate) fn row_mapping(&self, policy: ExecPolicy) -> Result<Cow<'_, MappedVectors>> {
        if self.inv.apex().is_none() {
            return Ok(Cow::Borrowed(self.inv.rows().coords));
        }
        let mapped = MappedVectors::build_with(
            self.columns.store(),
            &self.pivots,
            &self.metric,
            None,
            policy,
        )?;
        Ok(Cow::Owned(mapped))
    }

    /// Structural statistics of this index — column/vector counts, cell
    /// histograms, pivot spread — for the introspection plane (see
    /// [`crate::inspect`]). One read-only walk over the inverted index,
    /// whose pivot spread was taken at layout.
    pub fn inspect(&self) -> PartitionInspection {
        PartitionInspection::derive(
            &self.inv,
            self.columns.n_columns() as u64,
            self.columns.n_vectors() as u64,
        )
    }

    /// All (query vector, target vector) matching pairs between the query
    /// and one column — the mapping PEXESO presents with each result table.
    /// Uses Lemma 1/2 filtering; exact. `query_mapped`, when given, must be
    /// the query's pivot coordinates: one row of |P| per query vector.
    pub fn match_pairs(
        &self,
        query: &VectorStore,
        query_mapped: Option<&MappedVectors>,
        column: ColumnId,
        tau: Tau,
    ) -> Result<Vec<(u32, VectorId)>> {
        let mut pairs = self.match_pairs_many(query, query_mapped, &[column], tau)?;
        Ok(pairs.pop().expect("one list per column"))
    }

    /// [`PexesoIndex::match_pairs`] for each of `columns`, in order. The
    /// query is mapped, and each vector id's place in the row-ordered
    /// store found, once for all of them: O(|RV|) plus the pairs' work,
    /// not O(|RV|) per column. Refuses what `match_pairs` refuses for any
    /// of them.
    pub fn match_pairs_many(
        &self,
        query: &VectorStore,
        query_mapped: Option<&MappedVectors>,
        columns: &[ColumnId],
        tau: Tau,
    ) -> Result<Vec<Vec<(u32, VectorId)>>> {
        self.validate_query(query)?;
        let tau = tau.resolve(&self.metric, self.columns.dim())?;
        if let Some(column) = columns
            .iter()
            .find(|c| c.0 as usize >= self.columns.n_columns())
        {
            return Err(PexesoError::InvalidParameter(format!(
                "column {} not in an index of {} columns",
                column.0,
                self.columns.n_columns()
            )));
        }
        let owned;
        let qm = match query_mapped {
            Some(m) if m.len() != query.len() || m.num_pivots() != self.pivots.len() => {
                return Err(PexesoError::InvalidParameter(format!(
                    "query mapping of {} vectors × {} pivots for a query of {} vectors \
                     and an index of {} pivots",
                    m.len(),
                    m.num_pivots(),
                    query.len(),
                    self.pivots.len()
                )));
            }
            Some(m) => m,
            None => {
                owned = MappedVectors::build(query, &self.pivots, &self.metric, None)?;
                &owned
            }
        };
        let store = self.columns.store();
        let positions = self.columns.positions();
        let pairs_of = |column: ColumnId| {
            let meta = self.columns.column(column);
            let vectors: Vec<&[f32]> = meta
                .vector_range()
                .map(|v| store.get_raw(positions[v as usize] as usize))
                .collect();
            let column_mapped: Vec<Vec<f32>> = vectors
                .iter()
                .map(|x| self.pivots.iter().map(|p| self.metric.dist(x, p)).collect())
                .collect();
            let mut out = Vec::new();
            for q in 0..query.len() {
                let qmap = qm.get(q);
                let qv = query.get_raw(q);
                for ((v, xm), x) in meta.vector_range().zip(&column_mapped).zip(&vectors) {
                    if lemmas::lemma1_filter(qmap, xm, tau) {
                        continue;
                    }
                    let is_match =
                        lemmas::lemma2_match(qmap, xm, tau) || self.metric.dist(qv, x) <= tau;
                    if is_match {
                        out.push((q as u32, VectorId(v)));
                    }
                }
            }
            out
        };
        Ok(columns.iter().map(|&column| pairs_of(column)).collect())
    }

    /// Exact joinability ratio of one column (no early termination);
    /// refuses what [`PexesoIndex::match_pairs`] refuses.
    pub fn joinability(&self, query: &VectorStore, column: ColumnId, tau: Tau) -> Result<f64> {
        let pairs = self.match_pairs(query, None, column, tau)?;
        let mut matched = vec![false; query.len()];
        for (q, _) in pairs {
            matched[q as usize] = true;
        }
        Ok(matched.iter().filter(|&&m| m).count() as f64 / query.len() as f64)
    }

    pub fn columns(&self) -> &ColumnSet {
        &self.columns
    }

    pub fn metric(&self) -> &M {
        &self.metric
    }

    pub fn options(&self) -> &IndexOptions {
        &self.options
    }

    pub fn grid_params(&self) -> &GridParams {
        &self.grid_params
    }

    pub fn pivots(&self) -> &[Vec<f32>] {
        &self.pivots
    }

    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    pub fn inverted_index(&self) -> &InvertedIndex {
        &self.inv
    }

    /// The repository vectors' pivot coordinates **in the inverted
    /// index's cell-major row order**, not in vector-id order: row `r`
    /// belongs to the vector `columns()` holds at `r`. Order-free uses (a
    /// keys-only `HG_RV`, coordinate ranges) can take them as they are.
    ///
    /// Where the rows hold apexes (a Euclidean index) the index does not
    /// hold them: the first call maps every vector afresh,
    /// O(|RV|·|P|·dim), and keeps the result, which
    /// [`PexesoIndex::index_bytes`] does not count. No query reads them.
    pub fn rv_mapped(&self) -> &MappedVectors {
        if self.inv.apex().is_none() {
            return self.inv.rows().coords;
        }
        self.rv_mapped.get_or_init(|| {
            self.row_mapping(ExecPolicy::Sequential)
                .expect("an index's pivots match its vectors")
                .into_owned()
        })
    }

    /// Resident size of the *index structures* in bytes — the inverted
    /// index (`HG_RV`'s sorted leaf keys and level bounds, each cell's
    /// first row, and the rows that hold each vector's column and apex or
    /// pivot coordinates), each row's vector id and the pivots —
    /// excluding the raw table-repository vectors, matching the paper's
    /// index-size accounting (Fig. 6b).
    pub fn index_bytes(&self) -> usize {
        let ids = self.columns.vector_ids().map_or(0, <[u32]>::len);
        self.inv.approx_bytes() + ids * 4 + self.pivots.iter().map(|p| p.len() * 4).sum::<usize>()
    }

    /// Size of the raw vector data (repository storage).
    pub fn data_bytes(&self) -> usize {
        self.columns.store().raw_data().len() * 4
    }

    /// Reassemble from the parts of a file [`crate::persist::save_index`]
    /// wrote: the columns' metadata, the vectors (`vectors(order)` reads
    /// them in the order `order` lists their ids) and their pivot
    /// coordinates in id order. Those are what the build mapped, so the
    /// grid and the inverted index are rebuilt deterministically from
    /// them, a Euclidean index's rows taking their apexes, and the vectors
    /// are read once, straight into row order.
    pub(crate) fn from_saved_parts(
        metas: Vec<ColumnMeta>,
        vectors: impl FnOnce(&[u32]) -> Result<VectorStore>,
        pivots: Vec<Vec<f32>>,
        rv_mapped: MappedVectors,
        options: IndexOptions,
        grid_params: GridParams,
        metric: M,
    ) -> Result<Self> {
        let base = SimplexBase::of(&pivots, &metric);
        Self::assemble(
            metas,
            vectors,
            pivots,
            rv_mapped,
            options,
            grid_params,
            metric,
            base,
        )
    }

    /// Reassemble from parts whose pivot coordinates need not be what
    /// mapping the vectors gives (a hand-written index file): the rows
    /// keep them as given, so the index filters rows by Lemmas 1 and 2
    /// and a save writes them back unchanged (what pins the file layout
    /// byte for byte in `persist.rs`).
    #[cfg(test)]
    pub(crate) fn from_parts(
        columns: ColumnSet,
        pivots: Vec<Vec<f32>>,
        rv_mapped: MappedVectors,
        options: IndexOptions,
        grid_params: GridParams,
        metric: M,
    ) -> Result<Self> {
        let columns = columns.into_id_order();
        Self::assemble(
            columns.columns().to_vec(),
            |order| {
                let mut store = columns.store().clone();
                store.permute(order);
                Ok(store)
            },
            pivots,
            rv_mapped,
            options,
            grid_params,
            metric,
            None,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn assemble(
        metas: Vec<ColumnMeta>,
        vectors: impl FnOnce(&[u32]) -> Result<VectorStore>,
        pivots: Vec<Vec<f32>>,
        rv_mapped: MappedVectors,
        options: IndexOptions,
        grid_params: GridParams,
        metric: M,
        base: Option<SimplexBase>,
    ) -> Result<Self> {
        let n = rv_mapped.len();
        check_ranges(&metas, n)?;
        let started = Instant::now();
        let (inv, order) =
            InvertedIndex::build(&grid_params, &rv_mapped, &column_map(&metas, n), base)?;
        let store = vectors(&order)?;
        let columns = ColumnSet::from_ordered_parts(store, metas, order)?;
        Ok(Self {
            metric,
            options,
            grid_params,
            pivots,
            columns,
            inv,
            rv_mapped: OnceLock::new(),
            build_time: started.elapsed(),
        })
    }
}

/// The one engine: every backend answers for one index through
/// [`IndexUnit::answer`] — partitions, resident units, the delta overlay's
/// base and delta units, and the index's own [`Queryable::execute`].
impl<M: Metric> IndexUnit for PexesoIndex<M> {
    /// Validate → map and block → seed (top-k only) → one candidate scan
    /// → hits.
    ///
    /// The scan ([`crate::verify`]) runs with Lemma 7's slack worked out
    /// from `T`, or for top-k from the seed [`topk_seed`] takes off the
    /// matching cells, with `T` out of reach so every surviving column
    /// counts to the end. Threshold hits are the joinable columns (the
    /// caller sorts). Top-k hits are ranked by count descending, internal
    /// column id ascending, and cut **tie-inclusively** at the k-th,
    /// because internal ids need not agree with the external ids the
    /// global ranking breaks ties by. `Topk(0)` answers empty before
    /// anything is validated — the unified `k = 0` contract.
    ///
    /// `dead` marks columns the caller has dropped (the delta overlay's
    /// tombstones). They are dead from step 0, the state Lemma 7 and `T`
    /// leave a column in: never verified, never a hit, bounded by 0 for
    /// the seed — so the answer is the answer without them.
    fn answer(
        &self,
        query: &Query,
        vectors: &VectorStore,
        dead: Option<&[bool]>,
        guard: &mut Option<BudgetGuard>,
    ) -> Result<PartitionAnswer> {
        if let QueryMode::Topk(0) = query.mode {
            return Ok((Vec::new(), SearchStats::new(), None, None));
        }
        self.validate_query(vectors)?;
        let tau = query.tau.resolve(&self.metric, self.columns.dim())?;
        let n_q = vectors.len();
        let t_abs = match query.mode {
            QueryMode::Threshold(t) => t.resolve(n_q)?,
            QueryMode::Topk(_) => n_q + 1,
        };
        let (opts, exec) = (query.options, query.policy);
        let mut stats = SearchStats::new();
        let total_start = Instant::now();
        let (query_mapped, blocked) = self.map_and_block(vectors, tau, opts, exec, &mut stats)?;

        let verify_start = Instant::now();
        let n_cols = self.columns.n_columns();
        let seed = match query.mode {
            QueryMode::Topk(k) => {
                let bounds = column_match_bounds(&blocked, &self.inv, n_cols, n_q, dead, exec);
                topk_seed(&bounds, k)
            }
            QueryMode::Threshold(_) => None,
        };
        let ctx = VerifyContext {
            columns: &self.columns,
            vec_col: &[],
            rv_mapped: self.inv.rows().coords,
            inv: &self.inv,
            metric: &self.metric,
            query: vectors,
            query_mapped: &query_mapped,
            tau,
            t_abs,
            flags: opts.flags,
            deleted: dead,
        };
        let slack = verify::slack(&ctx, seed);
        let (outcome, exceeded) =
            verify::scan(&ctx, &blocked, slack, &mut stats, exec, guard.as_ref());
        let found: Vec<(u32, ColumnId)> = match query.mode {
            QueryMode::Threshold(_) => outcome
                .joinable
                .iter()
                .map(|&c| (outcome.match_counts[c.0 as usize], c))
                .collect(),
            QueryMode::Topk(k) => verify::ranked(&outcome, slack, k),
        };
        stats.verify_time = verify_start.elapsed();
        stats.total_time = total_start.elapsed();

        if let Some(g) = guard.as_mut() {
            g.advance(stats.distance_computations);
        }
        let hits = found.into_iter().map(|(match_count, c)| {
            let meta = self.columns.column(c);
            GlobalHit {
                external_id: meta.external_id,
                table_name: meta.table_name.clone(),
                column_name: meta.column_name.clone(),
                match_count,
            }
        });
        let seed = seed.map(|(count, _)| count);
        Ok((hits.collect(), stats, exceeded, seed))
    }

    fn columns(&self) -> &ColumnSet {
        PexesoIndex::columns(self)
    }

    fn options(&self) -> &IndexOptions {
        PexesoIndex::options(self)
    }

    fn inspect(&self) -> PartitionInspection {
        PexesoIndex::inspect(self)
    }
}

impl<M: Metric> Queryable for PexesoIndex<M> {
    /// Execute one unified [`Query`] against the in-memory index: the
    /// index is one unit, answered by [`IndexUnit::answer`] with nothing
    /// dropped, and its answer goes through the same merge tail as a
    /// partitioned backend's. Threshold hits ascend by `external_id`;
    /// top-k ranks by count descending with ties broken by ascending
    /// `external_id`, re-ranked from the engine's tie-inclusive list.
    fn execute(&self, query: &Query, vectors: &VectorStore) -> Result<QueryResponse> {
        let started = Instant::now();
        query.check_metric("index", self.metric.name())?;
        let mut guard = BudgetGuard::start(&query.budget);
        let answer = self.answer(query, vectors, None, &mut guard)?;
        Ok(merge_answers(query, started, [answer], false))
    }
}

/// Exhaustive-scan reference: the ground-truth answer to the joinable
/// column search problem. Used by tests, the cost model justification, and
/// the baseline crate. Supports the same early-termination rule on `T` as
/// the accelerated methods when `early_terminate` is set.
pub fn naive_search<M: Metric>(
    columns: &ColumnSet,
    metric: &M,
    query: &VectorStore,
    tau: Tau,
    t: JoinThreshold,
    early_terminate: bool,
) -> Result<(Vec<SearchHit>, SearchStats)> {
    if query.is_empty() {
        return Err(PexesoError::EmptyInput("query column with zero vectors"));
    }
    let tau = tau.resolve(metric, columns.dim())?;
    let t_abs = t.resolve(query.len())?;
    // Read by id, whatever order the set holds its vectors in.
    let columns = columns.id_ordered();
    let mut stats = SearchStats::new();
    let start = Instant::now();
    let mut hits = Vec::new();
    for (ci, col) in columns.columns().iter().enumerate() {
        let mut count = 0u32;
        let n_q = query.len();
        for (qi, q) in query.iter().enumerate() {
            let mut matched = false;
            for v in col.vector_range() {
                stats.distance_computations += 1;
                if metric.dist(q, columns.store().get_raw(v as usize)) <= tau {
                    matched = true;
                    break;
                }
            }
            if matched {
                count += 1;
                if early_terminate && count as usize >= t_abs {
                    break;
                }
            } else if early_terminate {
                // Lemma 7 applies to any method: remaining query vectors
                // cannot reach T.
                let remaining = n_q - qi - 1;
                if (count as usize) + remaining < t_abs {
                    break;
                }
            }
        }
        if count as usize >= t_abs {
            hits.push(SearchHit {
                column: ColumnId(ci as u32),
                match_count: count,
            });
        }
    }
    stats.total_time = start.elapsed();
    stats.verify_time = stats.total_time;
    Ok((hits, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PivotSelection;
    use crate::metric::Euclidean;
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
        let dim = 16;
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

    fn build(columns: ColumnSet, pivots: usize, levels: usize) -> PexesoIndex<Euclidean> {
        PexesoIndex::build(
            columns,
            Euclidean,
            IndexOptions {
                num_pivots: pivots,
                levels: Some(levels),
                pivot_selection: PivotSelection::Pca,
                seed: 7,
                ..Default::default()
            },
        )
        .unwrap()
    }

    /// One pass of leaf keys builds the same `HG_RV`, postings and
    /// cell-major rows as the grid and the inverted index built each on
    /// their own, under every policy and on reassembly from the persisted
    /// parts (whose mapped coordinates are in vector-id order).
    #[test]
    fn shared_leaf_keys_build_the_same_grid_and_postings() {
        let (columns, _) = instance(11, 40, 30, 1);
        let mut built = Vec::new();
        for exec in [
            ExecPolicy::Sequential,
            ExecPolicy::Fixed { threads: 3 },
            ExecPolicy::auto(),
        ] {
            let options = IndexOptions {
                num_pivots: 4,
                levels: Some(4),
                seed: 7,
                exec,
                ..Default::default()
            };
            let index = PexesoIndex::build(columns.clone(), Euclidean, options).unwrap();
            let params = index.grid_params().clone();
            let by_id =
                MappedVectors::build(columns.store(), &index.pivots, &Euclidean, None).unwrap();
            let hgrv = HierarchicalGrid::build_keys_only(params.clone(), &by_id).unwrap();
            let base = SimplexBase::of(&index.pivots, &Euclidean);
            assert!(base.is_some(), "four random pivots span a simplex");
            let (inv, order) =
                InvertedIndex::build(&params, &by_id, &columns.vector_to_column(), base).unwrap();
            assert_eq!(index.inv.grid(), &hgrv);
            assert_eq!(index.inv, inv);
            let rows = columns.clone().in_order(order).unwrap();
            assert_eq!(index.columns, rows);
            let reassembled = PexesoIndex::from_saved_parts(
                columns.columns().to_vec(),
                |order| {
                    let mut store = columns.store().clone();
                    store.permute(order);
                    Ok(store)
                },
                index.pivots.clone(),
                by_id,
                index.options.clone(),
                params,
                Euclidean,
            )
            .unwrap();
            assert_eq!(reassembled.inv.grid(), &hgrv);
            assert_eq!(reassembled.inv, inv);
            assert_eq!(reassembled.columns, rows);
            built.push(inv);
        }
        assert!(built.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn search_equals_naive_across_settings() {
        for seed in [1u64, 2, 3] {
            let (columns, query) = instance(seed, 15, 25, 10);
            let index = build(columns.clone(), 4, 4);
            for tau in [Tau::Ratio(0.04), Tau::Ratio(0.2), Tau::Absolute(0.8)] {
                for t in [
                    JoinThreshold::Ratio(0.2),
                    JoinThreshold::Ratio(0.6),
                    JoinThreshold::Count(1),
                ] {
                    let (naive, _) =
                        naive_search(&columns, &Euclidean, &query, tau, t, false).unwrap();
                    let result = index.execute(&Query::threshold(tau, t), &query).unwrap();
                    assert!(result.exact());
                    let got: Vec<u64> = result.hits.iter().map(|h| h.external_id).collect();
                    // External ids equal insertion order here, so the
                    // unified external-id ordering matches the oracle's.
                    let expected: Vec<u64> = naive.iter().map(|h| h.column.0 as u64).collect();
                    assert_eq!(got, expected, "seed={seed} tau={tau:?} t={t:?}");
                }
            }
        }
    }

    #[test]
    fn search_correct_for_every_pivot_and_level_combo() {
        let (columns, query) = instance(10, 10, 20, 8);
        let tau = Tau::Ratio(0.15);
        let t = JoinThreshold::Ratio(0.4);
        let (naive, _) = naive_search(&columns, &Euclidean, &query, tau, t, false).unwrap();
        let expected: Vec<ColumnId> = naive.iter().map(|h| h.column).collect();
        for pivots in [1usize, 3, 5] {
            for levels in [1usize, 3, 6, 8] {
                let index = build(columns.clone(), pivots, levels);
                let result = index.execute(&Query::threshold(tau, t), &query).unwrap();
                let got: Vec<ColumnId> = result
                    .hits
                    .iter()
                    .map(|h| ColumnId(h.external_id as u32))
                    .collect();
                assert_eq!(got, expected, "|P|={pivots} m={levels}");
            }
        }
    }

    #[test]
    fn empty_query_rejected() {
        let (columns, _) = instance(4, 3, 5, 1);
        let index = build(columns, 2, 2);
        let empty = VectorStore::new(16);
        let q = Query::threshold(Tau::Ratio(0.1), JoinThreshold::Count(1));
        assert!(index.execute(&q, &empty).is_err());
    }

    #[test]
    fn dim_mismatch_rejected() {
        let (columns, _) = instance(5, 3, 5, 1);
        let index = build(columns, 2, 2);
        let mut q = VectorStore::new(8);
        q.push(&[0.0; 8]).unwrap();
        let query = Query::threshold(Tau::Ratio(0.1), JoinThreshold::Count(1));
        assert!(matches!(
            index.execute(&query, &q),
            Err(PexesoError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn empty_repository_rejected() {
        let columns = ColumnSet::new(4);
        assert!(PexesoIndex::build(columns, Euclidean, IndexOptions::default()).is_err());
    }

    #[test]
    fn match_pairs_and_joinability_are_exact() {
        let (columns, query) = instance(6, 6, 12, 6);
        let index = build(columns.clone(), 3, 4);
        let tau = Tau::Ratio(0.25);
        let tau_abs = tau.resolve(&Euclidean, 16).unwrap();
        for c in 0..columns.n_columns() {
            let col = ColumnId(c as u32);
            let pairs = index.match_pairs(&query, None, col, tau).unwrap();
            // Brute-force the expected pairs.
            let meta = columns.column(col);
            let mut expected = Vec::new();
            for q in 0..query.len() {
                for v in meta.vector_range() {
                    if Euclidean.dist(query.get_raw(q), columns.store().get_raw(v as usize))
                        <= tau_abs
                    {
                        expected.push((q as u32, VectorId(v)));
                    }
                }
            }
            assert_eq!(pairs, expected, "column {c}");
            let jn = index.joinability(&query, col, tau).unwrap();
            let mut matched = vec![false; query.len()];
            for (q, _) in &expected {
                matched[*q as usize] = true;
            }
            let expected_jn = matched.iter().filter(|&&m| m).count() as f64 / query.len() as f64;
            assert!((jn - expected_jn).abs() < 1e-12);
        }
    }

    /// One call over several columns answers what one call per column
    /// does, in the order asked (a column twice included), and refuses a
    /// list with an unknown column.
    #[test]
    fn match_pairs_of_many_columns_equal_the_per_column_pairs() {
        let (columns, query) = instance(6, 6, 12, 6);
        let index = build(columns, 3, 4);
        let tau = Tau::Ratio(0.6);
        let asked = [
            ColumnId(4),
            ColumnId(0),
            ColumnId(5),
            ColumnId(0),
            ColumnId(2),
        ];
        let many = index.match_pairs_many(&query, None, &asked, tau).unwrap();
        assert_eq!(many.len(), asked.len());
        for (&col, pairs) in asked.iter().zip(&many) {
            assert_eq!(pairs, &index.match_pairs(&query, None, col, tau).unwrap());
        }
        assert!(
            many.iter().any(|p| !p.is_empty()),
            "the instance has matches"
        );
        assert!(index
            .match_pairs_many(&query, None, &[], tau)
            .unwrap()
            .is_empty());
        assert!(matches!(
            index.match_pairs_many(&query, None, &[ColumnId(1), ColumnId(6)], tau),
            Err(PexesoError::InvalidParameter(_))
        ));
    }

    /// An index, a query and its mapping for the input checks of
    /// `match_pairs` and `joinability`.
    fn pairs_fixture() -> (PexesoIndex<Euclidean>, VectorStore, MappedVectors) {
        let (columns, query) = instance(6, 6, 12, 6);
        let index = build(columns, 3, 4);
        let mapped = MappedVectors::build(&query, index.pivots(), &Euclidean, None).unwrap();
        (index, query, mapped)
    }

    #[test]
    fn joinability_of_an_empty_query_is_refused() {
        let (index, _, _) = pairs_fixture();
        let empty = VectorStore::new(16);
        let tau = Tau::Ratio(0.25);
        assert!(matches!(
            index.joinability(&empty, ColumnId(2), tau),
            Err(PexesoError::EmptyInput(_))
        ));
    }

    #[test]
    fn match_pairs_of_an_unknown_column_is_refused() {
        let (index, query, _) = pairs_fixture();
        for unknown in [ColumnId(6), ColumnId(u32::MAX)] {
            assert!(matches!(
                index.joinability(&query, unknown, Tau::Ratio(0.25)),
                Err(PexesoError::InvalidParameter(_))
            ));
        }
    }

    #[test]
    fn a_query_mapping_with_fewer_rows_is_refused() {
        let (index, query, mapped) = pairs_fixture();
        let fewer = MappedVectors::from_raw(3, mapped.raw_data()[..3 * 5].to_vec()).unwrap();
        assert!(matches!(
            index.match_pairs(&query, Some(&fewer), ColumnId(2), Tau::Ratio(0.25)),
            Err(PexesoError::InvalidParameter(_))
        ));
    }

    /// Two of the three pivot coordinates: Lemmas 1 and 2 would compare
    /// them with the first two of each row's three.
    #[test]
    fn a_query_mapping_of_another_pivot_count_is_refused() {
        let (index, query, mapped) = pairs_fixture();
        let two: Vec<f32> = mapped.iter().flat_map(|m| m[..2].to_vec()).collect();
        let two = MappedVectors::from_raw(2, two).unwrap();
        assert!(matches!(
            index.match_pairs(&query, Some(&two), ColumnId(2), Tau::Ratio(0.25)),
            Err(PexesoError::InvalidParameter(_))
        ));
        // The well-formed call still answers, with the mapping or without.
        let tau = Tau::Ratio(0.25);
        assert_eq!(
            index
                .match_pairs(&query, Some(&mapped), ColumnId(2), tau)
                .unwrap(),
            index.match_pairs(&query, None, ColumnId(2), tau).unwrap()
        );
    }

    /// A narrower query with a mapping of the right shape: nothing but the
    /// width check stands between it and the distance kernel, which would
    /// read past the query vector.
    #[test]
    fn a_query_of_another_width_is_refused() {
        let (index, query, mapped) = pairs_fixture();
        let mut narrow = VectorStore::new(8);
        for v in query.iter() {
            narrow.push(&v[..8]).unwrap();
        }
        assert!(matches!(
            index.match_pairs(&narrow, Some(&mapped), ColumnId(2), Tau::Ratio(0.25)),
            Err(PexesoError::DimensionMismatch { .. })
        ));
    }

    /// The benchmark ladder and the differential suite block through a
    /// keys-only grid built from `rv_mapped()` and verify through the
    /// index's inverted index, whose cells the blocked ordinals name: that
    /// grid must have the index's sorted leaf keys, and blocking through it
    /// must give what blocking through the index's own `HG_RV` gives —
    /// for apex rows and pivot-coordinate rows, built, loaded from a file
    /// and after `append_column`.
    #[test]
    fn a_keys_only_grid_of_rv_mapped_is_the_index_grid() {
        use crate::block::{block, quick_browse};
        use crate::metric::Manhattan;
        use crate::persist::{load_index, save_index};

        fn check<M: Metric>(index: &PexesoIndex<M>, query: &VectorStore, what: &str) {
            let (params, inv) = (index.grid_params().clone(), index.inverted_index());
            let hgrv =
                HierarchicalGrid::build_keys_only(params.clone(), index.rv_mapped()).unwrap();
            assert_eq!(hgrv.leaves(), inv.grid().leaves(), "{what}");
            let mapped = MappedVectors::build(query, index.pivots(), index.metric(), None).unwrap();
            let hgq = HierarchicalGrid::build(params, &mapped).unwrap();
            let tau = Tau::Ratio(0.2)
                .resolve(index.metric(), query.dim())
                .unwrap();
            let run = |grid: &HierarchicalGrid| {
                let mut stats = SearchStats::new();
                let mut seeded = FastMap::default();
                let handled = quick_browse(&hgq, inv, &mut seeded, &mut stats);
                let flags = LemmaFlags::all();
                let out = block(
                    &hgq,
                    grid,
                    &mapped,
                    tau,
                    flags,
                    Some(&handled),
                    seeded,
                    &mut stats,
                );
                (out, stats.candidate_pairs, stats.matching_pairs)
            };
            let own = run(inv.grid());
            assert_eq!(own, run(&hgrv), "{what}");
            assert!(own.1 > 0 && own.0.rv_leaves == inv.num_cells(), "{what}");
        }

        fn each<M: Metric + Clone>(metric: M, apex: bool) {
            let (columns, query) = instance(12, 30, 20, 12);
            let options = IndexOptions {
                num_pivots: 3,
                levels: Some(4),
                seed: 7,
                ..Default::default()
            };
            let index = PexesoIndex::build(columns, metric.clone(), options).unwrap();
            assert_eq!(index.inverted_index().apex().is_some(), apex);
            check(&index, &query, "built");
            let path = std::env::temp_dir().join(format!(
                "pexeso_keys_only_grid_{}_{}.pex",
                metric.name(),
                std::process::id()
            ));
            save_index(&index, &path).unwrap();
            let mut loaded = load_index(&path, metric).unwrap();
            std::fs::remove_file(&path).unwrap();
            check(&loaded, &query, "loaded");
            let extra: Vec<&[f32]> = query.iter().take(5).collect();
            loaded.append_column("t", "extra", 99, extra).unwrap();
            check(&loaded, &query, "appended");
        }
        each(Euclidean, true);
        each(Manhattan, false);
    }

    #[test]
    fn unnormalised_query_outside_span_is_rejected() {
        let (columns, _) = instance(7, 4, 8, 1);
        let index = build(columns, 3, 3);
        let mut q = VectorStore::new(16);
        q.push(&[10.0; 16]).unwrap(); // far outside the unit ball
        let query = Query::threshold(Tau::Ratio(0.1), JoinThreshold::Count(1));
        let err = index.execute(&query, &q);
        assert!(matches!(err, Err(PexesoError::InvalidParameter(_))));
    }

    #[test]
    fn naive_early_termination_matches_exact_answer_set() {
        let (columns, query) = instance(8, 12, 20, 9);
        let tau = Tau::Ratio(0.2);
        let t = JoinThreshold::Ratio(0.5);
        let (a, _) = naive_search(&columns, &Euclidean, &query, tau, t, false).unwrap();
        let (b, _) = naive_search(&columns, &Euclidean, &query, tau, t, true).unwrap();
        let ids = |v: &[SearchHit]| v.iter().map(|h| h.column).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn index_size_accounting_positive_and_ordered() {
        let (columns, _) = instance(9, 8, 30, 1);
        let index = build(columns, 4, 4);
        assert!(index.index_bytes() > 0);
        assert!(index.data_bytes() > 0);
    }

    #[test]
    fn stats_are_populated() {
        let (columns, query) = instance(11, 10, 25, 8);
        let index = build(columns, 4, 4);
        let r = index
            .execute(
                &Query::threshold(Tau::Ratio(0.2), JoinThreshold::Ratio(0.4)),
                &query,
            )
            .unwrap();
        assert!(r.stats.mapping_distances > 0);
        assert!(r.stats.candidate_pairs + r.stats.matching_pairs + r.stats.quick_browse_pairs > 0);
        assert!(r.stats.total_time >= r.stats.block_time);
    }
}

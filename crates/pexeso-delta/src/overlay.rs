//! Exact query execution over base partitions + a delta overlay.
//!
//! A [`DeltaOverlay`] is the in-memory half of incremental maintenance:
//! a small [`PexesoIndex`] over the live delta columns plus the set of
//! tombstoned table names. [`DeltaOverlay::execute_with_base`] merges it
//! with *any* base — disk partitions loaded per query or a shared
//! resident snapshot — and answers the unified [`Query`] byte-identically
//! to a full rebuild over the final table set.
//!
//! ## Why the merge is exact
//!
//! Threshold mode is easy: match counts are per-column and independent,
//! so dropping tombstoned hits from each base partition's result leaves
//! exactly the hit set a rebuild (where those columns simply don't exist)
//! would produce, and the unified external-id sort is shared.
//!
//! Top-k needs care. Each unit answers its *local* top-k tie-inclusively
//! and the global ranking merges those lists; a tombstoned column sitting
//! in a local top-k could push a live column off the list, which a
//! post-merge filter could then never recover. The overlay therefore
//! **over-asks**: a base unit is queried for the top `k + d` (d = dropped
//! tables) and re-queried with a larger ask in the rare case more than
//! `d` hits were actually filtered from a truncated list. The surviving
//! list provably contains the unit's live tie-inclusive top-k: the live
//! k-th column ranks at worst `k + removed ≤ ask` in the unfiltered
//! order, so it (and, via the tie-inclusive boundary closure, every
//! column tied with it) is present before filtering. Tombstones are
//! filtered **before** the merge, so the global `rank_topk_hits` sees
//! exactly the candidate lists a rebuild would have produced.
//!
//! The filter never needs to touch delta hits: replay already drops
//! delta columns killed by a later tombstone, so the delta index only
//! ever contains live columns (a re-added table lives in the delta even
//! though its base namesake is tombstoned).

use std::collections::HashSet;

use pexeso_core::config::IndexOptions;
use pexeso_core::error::{PexesoError, Result};
use pexeso_core::metric::{Angular, Chebyshev, Euclidean, Manhattan, Metric};
use pexeso_core::outofcore::{execute_on_index, execute_partitioned, PartitionAnswer};
use pexeso_core::query::{BudgetGuard, Query, QueryMode, QueryResponse};
use pexeso_core::search::PexesoIndex;
use pexeso_core::stats::SearchStats;
use pexeso_core::vector::VectorStore;

use crate::wal::DeltaState;

/// What every per-unit engine call produces.
pub type UnitResult = Result<PartitionAnswer>;

/// The in-memory overlay for one metric: live delta columns indexed for
/// search, plus the base tombstones.
#[derive(Debug)]
pub struct DeltaOverlay<M: Metric> {
    /// Index over the live delta columns; `None` when the log holds no
    /// live column (tombstones only, or empty).
    index: Option<PexesoIndex<M>>,
    /// Base tables whose columns are dead.
    dropped_tables: HashSet<String>,
    n_delta_columns: usize,
    n_delta_vectors: usize,
    n_records: usize,
}

impl<M: Metric> DeltaOverlay<M> {
    /// Build the overlay from a replayed log state. The delta index is a
    /// normal PEXESO build over the delta columns — small by
    /// construction, so this is the "seconds, not minutes" half of
    /// ingest.
    pub fn from_state(state: &DeltaState, metric: M, dim: usize) -> Result<Self> {
        let (index, n_delta_vectors) = match state.to_column_set(dim)? {
            Some(columns) => {
                let n = columns.n_vectors();
                (
                    Some(PexesoIndex::build(
                        columns,
                        metric,
                        IndexOptions::default(),
                    )?),
                    n,
                )
            }
            None => (None, 0),
        };
        Ok(Self {
            index,
            dropped_tables: state.dropped_tables.clone(),
            n_delta_columns: state.live.len(),
            n_delta_vectors,
            n_records: state.n_records,
        })
    }

    /// An empty overlay (no delta log): queries pass straight through to
    /// the base.
    pub fn empty() -> Self {
        Self {
            index: None,
            dropped_tables: HashSet::new(),
            n_delta_columns: 0,
            n_delta_vectors: 0,
            n_records: 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_none() && self.dropped_tables.is_empty()
    }

    pub fn n_delta_columns(&self) -> usize {
        self.n_delta_columns
    }

    pub fn n_delta_vectors(&self) -> usize {
        self.n_delta_vectors
    }

    pub fn n_tombstones(&self) -> usize {
        self.dropped_tables.len()
    }

    pub fn n_records(&self) -> usize {
        self.n_records
    }

    pub fn dropped_tables(&self) -> &HashSet<String> {
        &self.dropped_tables
    }

    /// Execute `query` over `n_base` base units plus this overlay.
    /// `run_base(i, inner, guard)` must run the (possibly k-boosted)
    /// `inner` query against base unit `i` with the shared engine
    /// ([`execute_on_index`]) — the overlay drives tombstone filtering
    /// and the top-k over-ask around it. Fan-out, budget semantics,
    /// outcome folding, and the final ranking all come from the core
    /// partition loop, so the response obeys the exact same contract as
    /// every built-in backend.
    pub fn execute_with_base<F>(
        &self,
        n_base: usize,
        query: &Query,
        vectors: &VectorStore,
        run_base: F,
    ) -> Result<QueryResponse>
    where
        F: Fn(usize, &Query, &mut Option<BudgetGuard>) -> UnitResult + Sync,
    {
        let n_units = n_base + usize::from(self.index.is_some());
        execute_partitioned(n_units, query, |i, inner, guard| {
            if i < n_base {
                self.run_base_filtered(inner, guard, |q, g| run_base(i, q, g))
            } else {
                let index = self
                    .index
                    .as_ref()
                    .expect("delta unit only exists with an index");
                execute_on_index(index, inner, vectors, guard, None)
            }
        })
    }

    /// Run one base unit with tombstone filtering applied *before* the
    /// merge. Threshold mode filters and returns; top-k over-asks and
    /// re-asks until the surviving list provably contains the unit's live
    /// tie-inclusive top-k (see the module docs for the proof).
    fn run_base_filtered<G>(
        &self,
        inner: &Query,
        guard: &mut Option<BudgetGuard>,
        run: G,
    ) -> UnitResult
    where
        G: Fn(&Query, &mut Option<BudgetGuard>) -> UnitResult,
    {
        let dropped = &self.dropped_tables;
        if dropped.is_empty() {
            return run(inner, guard);
        }
        match inner.mode {
            QueryMode::Threshold(_) => {
                let mut answer = run(inner, guard)?;
                answer.0.retain(|h| !dropped.contains(&h.table_name));
                Ok(answer)
            }
            QueryMode::Topk(k) => {
                // One dropped *table* usually means one dropped column,
                // so the first ask almost always suffices; the loop only
                // grows the ask when a unit actually lost more hits than
                // the slack covered off a truncated list.
                let mut ask = k.saturating_add(dropped.len());
                let mut total = SearchStats::new();
                loop {
                    let boosted = Query {
                        mode: QueryMode::Topk(ask),
                        ..inner.clone()
                    };
                    let (raw, stats, exceeded, trajectory) = run(&boosted, guard)?;
                    total.merge(&stats);
                    let raw_len = raw.len();
                    let mut hits = raw;
                    hits.retain(|h| !dropped.contains(&h.table_name));
                    let removed = raw_len - hits.len();
                    // Exact when the list was exhaustive (shorter than the
                    // ask ⇒ every candidate enumerated), when filtering
                    // stayed within the slack, or when a budget tripped
                    // (the response is flagged partial anyway).
                    if raw_len < ask || removed <= ask - k || exceeded.is_some() {
                        return Ok((hits, total, exceeded, trajectory));
                    }
                    ask = k.saturating_add(removed).saturating_add(dropped.len());
                }
            }
        }
    }
}

/// The overlay monomorphised over every supported metric, mirroring how
/// resident snapshots fix their metric at load time from the manifest.
#[derive(Debug)]
pub enum AnyOverlay {
    Euclidean(DeltaOverlay<Euclidean>),
    Manhattan(DeltaOverlay<Manhattan>),
    Chebyshev(DeltaOverlay<Chebyshev>),
    Angular(DeltaOverlay<Angular>),
}

impl AnyOverlay {
    /// Build the typed overlay named by a manifest's metric.
    pub fn from_state(state: &DeltaState, metric_name: &str, dim: usize) -> Result<Self> {
        Ok(match metric_name {
            "euclidean" => AnyOverlay::Euclidean(DeltaOverlay::from_state(state, Euclidean, dim)?),
            "manhattan" => AnyOverlay::Manhattan(DeltaOverlay::from_state(state, Manhattan, dim)?),
            "chebyshev" => AnyOverlay::Chebyshev(DeltaOverlay::from_state(state, Chebyshev, dim)?),
            "angular" => AnyOverlay::Angular(DeltaOverlay::from_state(state, Angular, dim)?),
            other => {
                return Err(PexesoError::InvalidParameter(format!(
                    "unsupported metric '{other}'"
                )))
            }
        })
    }

    pub fn is_empty(&self) -> bool {
        self.each(|o| o.is_empty())
    }

    pub fn n_delta_columns(&self) -> usize {
        self.each(|o| o.n_delta_columns())
    }

    pub fn n_delta_vectors(&self) -> usize {
        self.each(|o| o.n_delta_vectors())
    }

    pub fn n_tombstones(&self) -> usize {
        self.each(|o| o.n_tombstones())
    }

    pub fn n_records(&self) -> usize {
        self.each(|o| o.n_records())
    }

    fn each<T>(&self, f: impl Fn(&dyn OverlayFacts) -> T) -> T {
        match self {
            AnyOverlay::Euclidean(o) => f(o),
            AnyOverlay::Manhattan(o) => f(o),
            AnyOverlay::Chebyshev(o) => f(o),
            AnyOverlay::Angular(o) => f(o),
        }
    }
}

/// Metric-independent overlay facts, so [`AnyOverlay`] accessors need no
/// per-variant boilerplate.
trait OverlayFacts {
    fn is_empty(&self) -> bool;
    fn n_delta_columns(&self) -> usize;
    fn n_delta_vectors(&self) -> usize;
    fn n_tombstones(&self) -> usize;
    fn n_records(&self) -> usize;
}

impl<M: Metric> OverlayFacts for DeltaOverlay<M> {
    fn is_empty(&self) -> bool {
        DeltaOverlay::is_empty(self)
    }
    fn n_delta_columns(&self) -> usize {
        DeltaOverlay::n_delta_columns(self)
    }
    fn n_delta_vectors(&self) -> usize {
        DeltaOverlay::n_delta_vectors(self)
    }
    fn n_tombstones(&self) -> usize {
        DeltaOverlay::n_tombstones(self)
    }
    fn n_records(&self) -> usize {
        DeltaOverlay::n_records(self)
    }
}

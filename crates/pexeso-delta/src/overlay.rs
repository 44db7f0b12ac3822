//! Exact query execution over base partitions + a delta overlay.
//!
//! A [`DeltaOverlay`] is the in-memory half of incremental maintenance:
//! a small index over the live delta columns (one more [`IndexUnit`],
//! built under the manifest's metric) plus the set of tombstoned table
//! names. [`DeltaOverlay::execute_with_base`] merges it
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
use std::ops::Deref;
use std::path::Path;

use pexeso_core::config::IndexOptions;
use pexeso_core::error::Result;
use pexeso_core::outofcore::{
    build_unit, execute_partitioned, IndexUnit, LakeManifest, PartitionAnswer,
};
use pexeso_core::query::{BudgetGuard, Query, QueryMode, QueryResponse};
use pexeso_core::stats::SearchStats;
use pexeso_core::vector::VectorStore;

use crate::lake::verify_no_crashed_compaction;
use crate::wal::{check_header, read_log, DeltaState, LogStatus};

/// The in-memory overlay: live delta columns indexed for search, plus
/// the base tombstones.
#[derive(Debug)]
pub struct DeltaOverlay {
    /// Index over the live delta columns; `None` when the log holds no
    /// live column (tombstones only, or empty).
    index: Option<Box<dyn IndexUnit>>,
    /// Base tables whose columns are dead.
    dropped_tables: HashSet<String>,
    n_records: usize,
}

/// Read and replay `dir`'s delta log against `manifest` — the one
/// log-replay prologue of every open path ([`crate::DeltaLake::open`],
/// `pexeso-serve`'s snapshots). A log left stale by a compaction crash
/// (its header names an older base build) reads as empty; a foreign or
/// damaged one is a typed error — as is the debris of a compaction that
/// crashed mid-rebuild (partitions possibly mixing old and new builds):
/// replaying a still-current log over them would double-apply records.
pub fn load_overlay(dir: &Path, manifest: &LakeManifest) -> Result<DeltaOverlay> {
    verify_no_crashed_compaction(dir, manifest)?;
    let state = match read_log(dir)? {
        Some(contents) => match check_header(&contents.header, manifest)? {
            LogStatus::Current => DeltaState::replay(&contents.records),
            LogStatus::Stale => DeltaState::default(),
        },
        None => DeltaState::default(),
    };
    DeltaOverlay::from_state(&state, &manifest.metric, manifest.dim)
}

impl DeltaOverlay {
    /// Build the overlay from a replayed log state under the metric a
    /// manifest names. The delta index is a normal PEXESO build over the
    /// delta columns — small by construction, so this is the "seconds,
    /// not minutes" half of ingest.
    pub fn from_state(state: &DeltaState, metric_name: &str, dim: usize) -> Result<Self> {
        let index = match state.to_column_set(dim)? {
            Some(columns) => Some(build_unit(columns, metric_name, IndexOptions::default())?),
            None => {
                pexeso_core::metric::check_name(metric_name)?;
                None
            }
        };
        Ok(Self {
            index,
            dropped_tables: state.dropped_tables.clone(),
            n_records: state.n_records,
        })
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_none() && self.dropped_tables.is_empty()
    }

    pub fn n_delta_columns(&self) -> usize {
        self.index.as_ref().map_or(0, |u| u.columns().n_columns())
    }

    pub fn n_delta_vectors(&self) -> usize {
        self.index.as_ref().map_or(0, |u| u.columns().n_vectors())
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

    /// Execute `query` over `base_weights.len()` base units plus this
    /// overlay. `base_unit(i)` materialises base unit `i` (a disk load
    /// for [`crate::DeltaLake`], a borrow for a resident snapshot) and
    /// `base_weights[i]` is its weight in the partition loop — its
    /// file's bytes, resp. its vectors (see [`execute_partitioned`]).
    /// The delta unit weighs its vectors: small by construction, it is
    /// handed out after the base units in either currency. The
    /// overlay drives tombstone filtering and the top-k over-ask around
    /// its [`IndexUnit::answer`]. Fan-out, budget semantics, outcome
    /// folding, and the final ranking all come from the core partition
    /// loop, so the response obeys the exact same contract as every
    /// built-in backend.
    pub fn execute_with_base<U, G>(
        &self,
        base_weights: &[u64],
        query: &Query,
        vectors: &VectorStore,
        base_unit: G,
    ) -> Result<QueryResponse>
    where
        U: Deref<Target = dyn IndexUnit>,
        G: Fn(usize) -> Result<U> + Sync,
    {
        let n_base = base_weights.len();
        let mut weights = base_weights.to_vec();
        if self.index.is_some() {
            weights.push(self.n_delta_vectors() as u64);
        }
        execute_partitioned(&weights, query, |i, inner, guard| {
            if i < n_base {
                self.run_base_filtered(&*base_unit(i)?, inner, vectors, guard)
            } else {
                self.index
                    .as_ref()
                    .expect("delta unit only exists with an index")
                    .answer(inner, vectors, guard)
            }
        })
    }

    /// Run one base unit with tombstone filtering applied *before* the
    /// merge. Threshold mode filters and returns; top-k over-asks and
    /// re-asks until the surviving list provably contains the unit's live
    /// tie-inclusive top-k (see the module docs for the proof).
    fn run_base_filtered(
        &self,
        unit: &dyn IndexUnit,
        inner: &Query,
        vectors: &VectorStore,
        guard: &mut Option<BudgetGuard>,
    ) -> Result<PartitionAnswer> {
        let dropped = &self.dropped_tables;
        if dropped.is_empty() {
            return unit.answer(inner, vectors, guard);
        }
        match inner.mode {
            QueryMode::Threshold(_) => {
                let mut answer = unit.answer(inner, vectors, guard)?;
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
                    let (raw, stats, exceeded, seed) = unit.answer(&boosted, vectors, guard)?;
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
                        return Ok((hits, total, exceeded, seed));
                    }
                    ask = k.saturating_add(removed).saturating_add(dropped.len());
                }
            }
        }
    }
}

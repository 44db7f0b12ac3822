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
//! A base unit is not filtered after it answers: its dropped columns go
//! into the scan as the dead mask ([`DeltaOverlay::dead_columns`]), so
//! they are dead from step 0 — the state a column Lemma 7 pruned or `T`
//! made joinable is in. A dead column is never verified, never a hit, and
//! bounded by 0 when a top-k scan takes its seed, while every live
//! column's count is a per-column fact the mask cannot touch. So each
//! base unit answers exactly what it would answer without its dropped
//! columns — threshold hits and the tie-inclusive top-k list alike — and
//! the shared merge ranks the same candidate lists a rebuild would have
//! produced. No unit is ever asked twice.
//!
//! The delta unit needs no mask: replay already drops delta columns
//! killed by a later tombstone, so the delta index only ever contains
//! live columns (a re-added table lives in the delta even though its base
//! namesake is dropped).

use std::collections::HashSet;
use std::path::Path;

use pexeso_core::column::ColumnSet;
use pexeso_core::config::IndexOptions;
use pexeso_core::error::Result;
use pexeso_core::outofcore::{
    build_unit, execute_partitioned, IndexUnit, LakeManifest, PartitionAnswer,
};
use pexeso_core::query::{BudgetGuard, Query, QueryResponse};
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

/// Read and replay `dir`'s delta log against `manifest` — the log-replay
/// half of [`crate::DeltaLake::open`] and of its `APPLY` path
/// ([`crate::DeltaLake::with_fresh_log`]). A log left stale by a
/// compaction crash (its header names an older base build) reads as
/// empty; a foreign or damaged one is a typed error — as is the debris of
/// a compaction that crashed mid-rebuild (partitions possibly mixing old
/// and new builds): replaying a still-current log over them would
/// double-apply records.
pub(crate) fn load_overlay(dir: &Path, manifest: &LakeManifest) -> Result<DeltaOverlay> {
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
    pub(crate) fn from_state(state: &DeltaState, metric_name: &str, dim: usize) -> Result<Self> {
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

    /// The dead mask of one base unit with columns `base`: one flag per
    /// column, set where this overlay has dropped the column's table.
    /// `None` when no column of the unit is dropped — without tombstones
    /// nothing is built at all.
    pub fn dead_columns(&self, base: &ColumnSet) -> Option<Vec<bool>> {
        if self.dropped_tables.is_empty() {
            return None;
        }
        let dead: Vec<bool> = base
            .columns()
            .iter()
            .map(|meta| self.dropped_tables.contains(&meta.table_name))
            .collect();
        dead.contains(&true).then_some(dead)
    }

    /// Execute `query` over `base_weights.len()` base units plus this
    /// overlay. `base_answer(i, …)` answers base unit `i` — a disk load
    /// for [`crate::DeltaLake`], a borrow for a resident snapshot — under
    /// its [`Self::dead_columns`] mask, and `base_weights[i]` is its
    /// weight in the partition loop: its file's bytes, resp. its vectors
    /// (see [`execute_partitioned`]). The delta unit weighs its vectors:
    /// small by construction, it is handed out after the base units in
    /// either currency. Fan-out, budget semantics, outcome folding, and
    /// the final ranking all come from the core partition loop, so the
    /// response obeys the exact same contract as every built-in backend.
    pub fn execute_with_base<G>(
        &self,
        base_weights: &[u64],
        query: &Query,
        vectors: &VectorStore,
        base_answer: G,
    ) -> Result<QueryResponse>
    where
        G: Fn(usize, &Query, &mut Option<BudgetGuard>) -> Result<PartitionAnswer> + Sync,
    {
        let n_base = base_weights.len();
        let mut weights = base_weights.to_vec();
        if self.index.is_some() {
            weights.push(self.n_delta_vectors() as u64);
        }
        execute_partitioned(&weights, query, |i, inner, guard| match &self.index {
            Some(delta) if i == n_base => delta.answer(inner, vectors, None, guard),
            _ => base_answer(i, inner, guard),
        })
    }
}

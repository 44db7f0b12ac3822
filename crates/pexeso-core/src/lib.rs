//! # pexeso-core — the PEXESO joinable-table-search framework
//!
//! Rust implementation of the core contribution of *"Efficient Joinable
//! Table Discovery in Data Lakes: A High-Dimensional Similarity-Based
//! Approach"* (ICDE 2021): exact joinable-column search over columns of
//! high-dimensional vectors under a metric-space similarity predicate.
//!
//! ## The problem
//!
//! Given a repository of columns (each a multiset of embedded records), a
//! query column `Q`, a distance threshold `τ` and a joinability threshold
//! `T`, find every repository column `S` with
//! `|{q ∈ Q : ∃x ∈ S, d(q,x) ≤ τ}| / |Q| ≥ T`.
//!
//! ## The method
//!
//! * [`pivot`] — PCA-based pivot selection (plus random / farthest-first);
//! * [`mapping`] — pivot mapping into `|P|`-dimensional pivot space;
//! * [`grid`] — sparse hierarchical grids over the pivot space;
//! * [`lemmas`] — the filtering/matching predicates;
//! * [`block`] — Algorithm 1 as one flat pass over the leaf cells
//!   (Lemmas 5 and 3 per ⟨query vector, leaf⟩) + quick browsing;
//! * [`invindex`] + [`verify`] — Algorithm 2: inverted-index verification
//!   with joinable-skip and Lemma 7 early termination;
//! * [`search`] — Algorithm 3 and the [`search::PexesoIndex`] it runs on:
//!   threshold and top-k search through [`query::Queryable`];
//! * [`oracle`] — the brute-force ground truth every search mode is
//!   differentially tested against;
//! * [`cost`] — the Eq. 1/2 cost model choosing the grid depth `m`, plus
//!   the per-column match-count lower bounds that seed the top-k threshold;
//! * [`partition`] / [`persist`] / [`outofcore`] — JSD-clustered disk
//!   partitions for lakes that exceed main memory;
//! * [`codec`] — the little-endian byte codec the index file, the delta
//!   log and the wire protocol share;
//! * [`exec`] — the deterministic parallel execution layer behind
//!   [`config::ExecPolicy`].
//!
//! ## Execution policy and kernels
//!
//! Every stage of the pipeline accepts an [`config::ExecPolicy`]:
//! `Sequential` (a build's default) or `Parallel { threads }`
//! (`threads == 0` = all cores of the executing host, a query's default).
//! Parallel execution
//! is **deterministic** — work is sharded so results never depend on the
//! thread count, and `tests/exactness.rs` pins `Parallel ≡ Sequential`
//! byte-for-byte. The distance layer exposes an early-exit threshold
//! test ([`metric::Metric::dist_le`]) that verification uses instead of
//! scalar [`metric::Metric::dist`], and a one-query-many-rows loop
//! ([`metric::Metric::dist_batch`]) for pivot mapping. The built-in
//! metrics override at most `dist_le`, and an override must agree exactly
//! with the scalar path, so it is a pure throughput knob too.
//!
//! ## The unified query API
//!
//! Every backend — the in-memory [`search::PexesoIndex`], the
//! out-of-core [`outofcore::PartitionedLake`], its fully-resident twin
//! [`outofcore::ResidentPartitions`], and the remote client in
//! `pexeso-serve` — answers one request type, [`query::Query`], through
//! one object-safe trait, [`query::Queryable`], with byte-identical
//! rankings and a typed exactness outcome (budgeted queries report
//! [`query::QueryOutcome::Exceeded`] instead of silently presenting
//! partial results). See the [`query`] module docs for the contract.
//!
//! ## Quick example
//!
//! ```
//! use pexeso_core::prelude::*;
//!
//! // Two tiny repositories of 4-d unit vectors.
//! let mut repo = ColumnSet::new(4);
//! repo.add_column("t1", "c", 0, vec![&[1.0, 0.0, 0.0, 0.0][..], &[0.0, 1.0, 0.0, 0.0]]).unwrap();
//! repo.add_column("t2", "c", 1, vec![&[0.0, 0.0, 1.0, 0.0][..]]).unwrap();
//!
//! let index = PexesoIndex::build(repo, Euclidean, IndexOptions::default()).unwrap();
//!
//! let mut query = VectorStore::new(4);
//! query.push(&[1.0, 0.0, 0.0, 0.0]).unwrap();
//! let q = Query::threshold(Tau::Ratio(0.05), JoinThreshold::Ratio(0.9));
//! let result = index.execute(&q, &query).unwrap();
//! assert!(result.exact());
//! assert_eq!(result.hits.len(), 1); // only t1.c joins
//! ```

pub mod block;
pub mod codec;
pub mod column;
pub mod config;
pub mod cost;
pub mod error;
pub mod exec;
pub mod explain;
pub mod fault;
pub mod grid;
pub mod hist;
pub mod inspect;
pub mod invindex;
pub mod kernel;
pub mod lemmas;
pub mod log;
pub mod mapping;
pub mod metric;
pub mod oracle;
pub mod outofcore;
pub mod partition;
pub mod pdf;
pub mod persist;
pub mod pivot;
pub mod query;
pub mod search;
pub mod stats;
pub mod trace;
pub mod util;
pub mod vector;
pub mod verify;

/// The commonly-needed types in one import.
pub mod prelude {
    pub use crate::column::{ColumnId, ColumnMeta, ColumnSet};
    pub use crate::config::{
        ExecPolicy, IndexOptions, JoinThreshold, LemmaFlags, PivotSelection, Tau,
    };
    pub use crate::error::{PexesoError, Result};
    pub use crate::explain::{ExplainReport, FunnelCounters, FunnelStage};
    pub use crate::metric::{Angular, Chebyshev, Euclidean, Manhattan, Metric};
    pub use crate::outofcore::{GlobalHit, LakeManifest, PartitionedLake, ResidentPartitions};
    pub use crate::partition::{PartitionConfig, PartitionMethod};
    pub use crate::query::{
        Exceeded, Query, QueryBudget, QueryMode, QueryOutcome, QueryResponse, Queryable,
    };
    pub use crate::search::{naive_search, PexesoIndex, SearchHit, SearchOptions};
    pub use crate::stats::SearchStats;
    pub use crate::trace::{QueryTrace, TraceLevel, TraceSpan};
    pub use crate::vector::{VectorId, VectorStore};
}

pub use prelude::*;

//! # pexeso-delta — incremental maintenance for deployed lakes
//!
//! The offline pipeline builds an immutable deployment: partitioned
//! PEXESO indexes plus a versioned manifest. Real lakes grow continuously,
//! and re-embedding and re-partitioning everything to add one table is
//! minutes of work for seconds of data. This crate adds the lifecycle
//! layer that makes a deployment *maintainable online*:
//!
//! * [`wal`] — a persistent, per-record-checksummed write-ahead delta log
//!   (`delta.log`) next to the partition files: add-column records carry
//!   the embedded vectors, drop-table records are tombstones, and the
//!   header binds the log to one base build so compaction can never
//!   double-apply;
//! * [`overlay`] — [`DeltaOverlay`]: the replayed log as an in-memory
//!   PEXESO index over the live delta columns plus the tombstone set,
//!   with an exact merged executor ([`DeltaOverlay::execute_with_base`])
//!   that answers the unified `Query` byte-identically to a full rebuild
//!   (each base unit scans with its dropped columns dead from step 0);
//! * [`lake`] — [`DeltaLake`] (disk-backed base + overlay, a `Queryable`
//!   like every other backend, and the one way to open a deployment),
//!   [`read_lake_columns`] (a deployment's columns as a rebuild indexes
//!   them), [`ingest_columns`] / [`drop_tables`] (cheap checksummed
//!   appends), and [`compact_lake`] (fold the log into fresh base
//!   partitions, bump the manifest atomically, delete the log).
//!
//! `pexeso-serve`'s resident snapshot holds the [`DeltaLake`] it serves
//! and loads its base through it; its live-ingest path re-reads only the
//! log ([`DeltaLake::with_fresh_log`]) and publishes a new generation
//! without reloading a single partition. `pexeso-router`'s shard split
//! reads its columns through [`read_lake_columns`].

pub mod lake;
pub mod overlay;
pub mod wal;

pub use lake::{
    compact_lake, drop_tables, ingest_columns, read_lake_columns, CompactReport, DeltaLake,
    IngestColumn, IngestReport, LakeColumns,
};
pub use overlay::DeltaOverlay;
pub use wal::{
    append_records, check_header, delta_log_path, read_log, remove_log, DeltaColumn, DeltaRecord,
    DeltaState, LogContents, LogHeader, LogStatus,
};

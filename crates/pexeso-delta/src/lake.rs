//! [`DeltaLake`]: a deployed lake plus its delta log, queryable as one
//! backend — and the lifecycle operations around it (ingest, drop,
//! compact).
//!
//! This module is the one place that opens and reads a deployment
//! directory: [`DeltaLake::open`] is the open prologue of every reader
//! (the CLI, `pexeso-serve`'s resident snapshot, the shard splitter),
//! [`read_lake_columns`] is the one column reader behind compaction and
//! shard-split, and one loader turns a partition file into an
//! [`IndexUnit`] for all of them.

use std::path::{Path, PathBuf};

use pexeso_core::column::ColumnSet;
use pexeso_core::config::{ExecPolicy, IndexOptions};
use pexeso_core::error::{PexesoError, Result};
use pexeso_core::exec;
use pexeso_core::fault;
use pexeso_core::outofcore::{load_unit, IndexUnit, LakeManifest, PartitionedLake};
use pexeso_core::partition::{sub_column_set, PartitionConfig, PartitionMethod};
use pexeso_core::query::{Query, QueryResponse, Queryable};
use pexeso_core::vector::VectorStore;

use crate::overlay::{load_overlay, DeltaOverlay};
use crate::wal::{
    append_records, check_header, read_log, remove_log, DeltaRecord, DeltaState, LogStatus,
};

/// A deployment directory overlaid with its delta log: the base
/// [`PartitionedLake`] partitions stay untouched on disk while adds and
/// drops live in the replayed in-memory overlay. Answers are
/// byte-identical to a full rebuild over the final table set (same
/// tie-break contract as the base backends; dropped columns are dead
/// inside each base unit's scan).
#[derive(Debug)]
pub struct DeltaLake {
    base: PartitionedLake,
    manifest: LakeManifest,
    overlay: DeltaOverlay,
}

impl DeltaLake {
    /// Open `dir`: base partitions + manifest + replayed delta log. A log
    /// left behind by a compaction that crashed between the manifest bump
    /// and the log deletion (header names an older `index_version`) has
    /// already been folded into the base — it is ignored, not replayed
    /// (and not deleted either: opening is a read path and must work on
    /// read-only mounts; the next *write* operation cleans the stale log
    /// up). A damaged log is a typed error: serving a silently partial
    /// delta would break the exactness contract.
    pub fn open(dir: &Path) -> Result<Self> {
        let manifest = LakeManifest::read(dir)?;
        let overlay = load_overlay(dir, &manifest)?;
        let base = PartitionedLake::open(dir)?;
        Ok(Self {
            base,
            manifest,
            overlay,
        })
    }

    /// The same base and manifest with the delta log re-read and
    /// replayed — the `APPLY` path of a serving daemon, which must not
    /// touch a partition file. The caller checks that the manifest on
    /// disk still names this base build.
    pub fn with_fresh_log(&self) -> Result<Self> {
        Ok(Self {
            base: self.base.clone(),
            manifest: self.manifest.clone(),
            overlay: load_overlay(self.dir(), &self.manifest)?,
        })
    }

    /// Load every base partition into memory, in partition order. The
    /// files load concurrently as units of [`exec::try_map_units`] under
    /// [`ExecPolicy::auto`], largest file first; a failure is the
    /// lowest-indexed failing partition's, as a sequential load would
    /// report it.
    pub fn load_base(&self) -> Result<Vec<Box<dyn IndexUnit>>> {
        exec::try_map_units(
            ExecPolicy::auto(),
            &self.base.file_weights(),
            || PexesoError::InvalidParameter("partition load worker panicked".into()),
            |i| load_base_unit(&self.base, &self.manifest.metric, i),
        )
    }

    pub fn dir(&self) -> &Path {
        self.base.dir()
    }

    pub fn base(&self) -> &PartitionedLake {
        &self.base
    }

    pub fn manifest(&self) -> &LakeManifest {
        &self.manifest
    }

    pub fn overlay(&self) -> &DeltaOverlay {
        &self.overlay
    }
}

/// The one partition-file loader: partition `i` of `base` as an
/// [`IndexUnit`] under the manifest's metric `metric` (the
/// persisted-metric check of the index file applies).
fn load_base_unit(base: &PartitionedLake, metric: &str, i: usize) -> Result<Box<dyn IndexUnit>> {
    load_unit(&base.partition_files()[i], metric)
}

/// A [`DeltaLake`] answers the unified [`Query`] like every other
/// backend: base partitions loaded from disk per query (the out-of-core
/// contract) plus the in-memory delta unit. The metric is fixed by the
/// manifest, and an explicit [`Query::metric`] expectation is verified
/// against it.
impl Queryable for DeltaLake {
    fn execute(&self, query: &Query, vectors: &VectorStore) -> Result<QueryResponse> {
        query.check_metric("deployment", &self.manifest.metric)?;
        let weights = self.base.file_weights();
        self.overlay
            .execute_with_base(&weights, query, vectors, |i, inner, guard| {
                let unit = load_base_unit(&self.base, &self.manifest.metric, i)?;
                let dead = self.overlay.dead_columns(unit.columns());
                unit.answer(inner, vectors, dead.as_deref(), guard)
            })
    }
}

/// A deployment's columns the way a rebuild indexes them
/// ([`read_lake_columns`]).
#[derive(Debug)]
pub struct LakeColumns {
    /// The base columns whose table is not tombstoned plus the delta's
    /// live columns, in ascending external id.
    pub columns: ColumnSet,
    /// The build options stored in the partitions (`exec` is
    /// [`ExecPolicy::Sequential`]: the policy is not stored).
    pub options: IndexOptions,
    /// Base columns left out because their table is tombstoned.
    pub dropped: usize,
}

/// Read the columns of the deployment `base` (under `manifest`) with the
/// replayed delta `state` applied: every base partition is loaded once,
/// in turn, and nothing is built. Ascending external id is the order a
/// from-scratch build over the same table set uses, so a rebuild over
/// these columns — the (seeded, deterministic) partitioning included —
/// is byte-identical to one. An external id that appears twice is a
/// typed [`PexesoError::Corrupt`]: a rebuild would index the column twice
/// and a shard range would own it ambiguously.
pub fn read_lake_columns(
    base: &PartitionedLake,
    manifest: &LakeManifest,
    state: &DeltaState,
) -> Result<LakeColumns> {
    let dim = manifest.dim;
    let mut gathered = ColumnSet::new(dim);
    let mut options = None;
    let mut dropped = 0usize;
    for i in 0..base.num_partitions() {
        let unit = load_base_unit(base, &manifest.metric, i)?;
        options.get_or_insert_with(|| unit.options().clone());
        let cs = unit.columns().id_ordered();
        for meta in cs.columns() {
            if state.dropped_tables.contains(&meta.table_name) {
                dropped += 1;
                continue;
            }
            let vectors = meta.vector_range().map(|v| cs.store().get_raw(v as usize));
            gathered.add_column(
                &meta.table_name,
                &meta.column_name,
                meta.external_id,
                vectors,
            )?;
        }
    }
    for col in &state.live {
        let vectors = col.vectors.chunks_exact(dim);
        gathered.add_column(&col.table_name, &col.column_name, col.external_id, vectors)?;
    }
    let ids: Vec<u64> = gathered.columns().iter().map(|m| m.external_id).collect();
    let mut order: Vec<usize> = (0..ids.len()).collect();
    order.sort_by_key(|&c| ids[c]);
    if let Some(pair) = order.windows(2).find(|w| ids[w[0]] == ids[w[1]]) {
        return Err(PexesoError::Corrupt(format!(
            "{}: external id {} appears twice — a rebuild would index it twice and \
             range ownership would be ambiguous",
            base.dir().display(),
            ids[pair[0]]
        )));
    }
    Ok(LakeColumns {
        columns: sub_column_set(&gathered, &order),
        options: options.unwrap_or_default(),
        dropped,
    })
}

// ---------------------------------------------------------------------------
// Maintenance lock
// ---------------------------------------------------------------------------

/// Serializes the deployment's *write* operations (ingest, drop,
/// compact) across processes via an exclusively-created
/// `maintenance.lock` file. Without it, a compact racing a concurrent
/// ingest could fold a snapshot of the log, bump the manifest, and
/// delete records appended (and acknowledged!) after its snapshot — and
/// two concurrent ingests could allocate the same external ids. Read
/// paths (`DeltaLake::open`, queries, serve `APPLY`) never take it.
///
/// The lock is advisory and crash-coarse: a process killed while holding
/// it leaves the file behind, and the next writer fails with a typed
/// error naming the file so an operator can remove it after confirming
/// no maintenance is actually running. That honesty is deliberate —
/// guessing at staleness (PID probing, TTLs) risks breaking a genuinely
/// running compaction's invariants.
struct MaintenanceLock {
    path: PathBuf,
}

impl MaintenanceLock {
    fn acquire(dir: &Path) -> Result<Self> {
        use std::io::Write as _;
        let path = dir.join("maintenance.lock");
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
        {
            Ok(mut f) => {
                let _ = writeln!(f, "pid={}", std::process::id());
                Ok(Self { path })
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                Err(PexesoError::InvalidParameter(format!(
                    "another maintenance operation holds {}; if no ingest or \
                     compact is running, remove the file and retry",
                    path.display()
                )))
            }
            Err(e) => Err(PexesoError::Io(e)),
        }
    }
}

impl Drop for MaintenanceLock {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

// ---------------------------------------------------------------------------
// Compaction-in-progress marker
// ---------------------------------------------------------------------------

/// Name of the marker file that makes a mid-rebuild compaction crash
/// detectable. Compaction rebuilds the base partitions *in place*:
/// between the first rewritten partition byte and the manifest bump the
/// directory transiently mixes folded partitions with the
/// pre-compaction manifest and a still-current delta log. Opening that
/// state naively would replay the log over a base that already contains
/// it — double-applied records, silently wrong answers. The marker is
/// created (and fsynced) before the rebuild starts, stamped with the
/// manifest version being folded, and removed only after the manifest
/// bump publishes the new build.
pub(crate) const COMPACT_MARKER_FILE: &str = "compact.inprogress";

fn compact_marker_path(dir: &Path) -> PathBuf {
    dir.join(COMPACT_MARKER_FILE)
}

fn write_compact_marker(dir: &Path, folding_version: u64) -> Result<()> {
    let path = compact_marker_path(dir);
    let mut file = std::fs::File::create(&path).map_err(PexesoError::Io)?;
    let body = format!("folding_version={folding_version}\n");
    fault::write_all(&mut file, body.as_bytes(), "lake.compact.marker").map_err(PexesoError::Io)?;
    file.sync_all().map_err(PexesoError::Io)?;
    Ok(())
}

fn read_compact_marker(dir: &Path) -> Result<Option<u64>> {
    let path = compact_marker_path(dir);
    let body = match std::fs::read_to_string(&path) {
        Ok(body) => body,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(PexesoError::Io(e)),
    };
    body.lines()
        .find_map(|line| line.strip_prefix("folding_version="))
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Some)
        .ok_or_else(|| {
            PexesoError::Corrupt(format!(
                "unreadable compaction marker {}: expected 'folding_version=<u64>'",
                path.display()
            ))
        })
}

/// Fail typed if `dir` holds the debris of a compaction that crashed
/// *mid-rebuild* — after the marker (and possibly some partition bytes)
/// were written but before the manifest bump published the new build.
/// In that state the partitions may mix the old and new builds under the
/// old manifest, and the delta log still reads as current: replaying it
/// would double-apply every record. There is no safe way to serve, so
/// every open path ([`DeltaLake::open`] and the write operations) calls
/// this before trusting the directory.
///
/// A marker stamped with a version *older* than the manifest is stale:
/// the compaction reached its point of no return (the manifest bump) and
/// crashed before cleanup, so the directory is the fully-published new
/// build. Read paths ignore it (read-only mounts must keep working);
/// write paths clean it up (`clear_stale_compact_marker`).
pub(crate) fn verify_no_crashed_compaction(dir: &Path, manifest: &LakeManifest) -> Result<()> {
    match read_compact_marker(dir)? {
        None => Ok(()),
        Some(v) if v < manifest.index_version => Ok(()), // stale: bump published
        Some(v) => Err(PexesoError::Corrupt(format!(
            "a compaction of build version {v} crashed mid-rebuild in {}: the \
             partition files may mix the old and new builds; restore the \
             deployment from its source or rebuild it, then remove {}",
            dir.display(),
            compact_marker_path(dir).display()
        ))),
    }
}

/// Remove a stale compaction marker (one whose recorded version the
/// manifest has already moved past). Called by write operations after
/// [`verify_no_crashed_compaction`] has vouched for the directory.
fn clear_stale_compact_marker(dir: &Path) -> Result<()> {
    match std::fs::remove_file(compact_marker_path(dir)) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(PexesoError::Io(e)),
    }
}

// ---------------------------------------------------------------------------
// Ingest / drop
// ---------------------------------------------------------------------------

/// One embedded column handed to [`ingest_columns`]. Vectors are
/// row-major `f32`s of the deployment's dimensionality, already
/// normalized exactly like the offline build normalizes (the WAL stores
/// them verbatim, so ingest ≡ rebuild bit-for-bit).
#[derive(Debug, Clone)]
pub struct IngestColumn {
    pub table_name: String,
    pub column_name: String,
    pub vectors: Vec<f32>,
}

/// What an ingest did, for operator output and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    pub columns_added: usize,
    pub vectors_added: usize,
    /// External ids assigned: `first_external_id..next_external_id`.
    pub first_external_id: u64,
    pub next_external_id: u64,
    /// Total records now in the log (including this ingest).
    pub log_records: usize,
}

/// The id-allocation high-water mark for the next ingest: the manifest's
/// `next_external_id` advanced past every id the current log ever used.
/// Legacy manifests (no recorded `next_external_id`) fall back to
/// scanning the base partitions once — slow but safe, and compaction
/// upgrades the manifest.
fn allocation_floor(dir: &Path, manifest: &LakeManifest, records: &[DeltaRecord]) -> Result<u64> {
    let base_next = if manifest.next_external_id > 0 {
        manifest.next_external_id
    } else {
        let base = PartitionedLake::open(dir)?;
        let mut max_id = None::<u64>;
        for i in 0..base.num_partitions() {
            let unit = load_base_unit(&base, &manifest.metric, i)?;
            let ids = unit.columns().columns().iter().map(|m| m.external_id);
            max_id = ids.chain(max_id).max();
        }
        max_id.map_or(0, |m| m + 1)
    };
    Ok(DeltaState::next_external_id_after(records, base_next))
}

/// Read the current (non-stale) log records of `dir`, cleaning up a
/// stale one the same way [`DeltaLake::open`] does.
fn current_records(dir: &Path, manifest: &LakeManifest) -> Result<Vec<DeltaRecord>> {
    match read_log(dir)? {
        Some(contents) => match check_header(&contents.header, manifest)? {
            LogStatus::Current => Ok(contents.records),
            LogStatus::Stale => {
                remove_log(dir)?;
                Ok(Vec::new())
            }
        },
        None => Ok(Vec::new()),
    }
}

/// Append new columns to `dir`'s delta log, assigning fresh external ids
/// above everything the deployment has ever used. This is the cheap half
/// of incremental maintenance: no re-embed, no re-partition — one
/// checksummed, fsynced append. A shard whose manifest records an id
/// range refuses, before writing a byte, ids outside it.
pub fn ingest_columns(dir: &Path, columns: &[IngestColumn]) -> Result<IngestReport> {
    if columns.is_empty() {
        return Err(PexesoError::EmptyInput("no columns to ingest"));
    }
    let _lock = MaintenanceLock::acquire(dir)?;
    let manifest = LakeManifest::read(dir)?;
    verify_no_crashed_compaction(dir, &manifest)?;
    clear_stale_compact_marker(dir)?;
    for col in columns {
        if col.vectors.is_empty() || col.vectors.len() % manifest.dim != 0 {
            return Err(PexesoError::InvalidParameter(format!(
                "column '{}.{}' holds {} floats, not a positive multiple of dim {}",
                col.table_name,
                col.column_name,
                col.vectors.len(),
                manifest.dim
            )));
        }
    }
    let existing = current_records(dir, &manifest)?;
    let first = allocation_floor(dir, &manifest, &existing)?;
    let next = first + columns.len() as u64;
    if let Some(range) = &manifest.id_range {
        if first < range.start || next > range.end {
            return Err(PexesoError::InvalidParameter(format!(
                "{}: this shard owns external ids {}..{}, but the ingest would assign \
                 {first}..{next} — new tables go to the shard whose range is unbounded",
                dir.display(),
                range.start,
                range.end
            )));
        }
    }
    let records: Vec<DeltaRecord> = columns
        .iter()
        .zip(first..)
        .map(|(col, external_id)| DeltaRecord::AddColumn {
            table_name: col.table_name.clone(),
            column_name: col.column_name.clone(),
            external_id,
            vectors: col.vectors.clone(),
        })
        .collect();
    append_records(dir, &manifest, &records)?;
    Ok(IngestReport {
        columns_added: columns.len(),
        vectors_added: columns.iter().map(|c| c.vectors.len() / manifest.dim).sum(),
        first_external_id: first,
        next_external_id: next,
        log_records: existing.len() + records.len(),
    })
}

/// Tombstone tables by name: their columns (base and previously-ingested
/// alike) disappear from every subsequent query. Space is reclaimed at
/// the next compaction.
pub fn drop_tables(dir: &Path, table_names: &[String]) -> Result<usize> {
    if table_names.is_empty() {
        return Err(PexesoError::EmptyInput("no tables to drop"));
    }
    let _lock = MaintenanceLock::acquire(dir)?;
    let manifest = LakeManifest::read(dir)?;
    verify_no_crashed_compaction(dir, &manifest)?;
    clear_stale_compact_marker(dir)?;
    current_records(dir, &manifest)?; // validates / cleans a stale log
    let records: Vec<DeltaRecord> = table_names
        .iter()
        .map(|t| DeltaRecord::DropTable {
            table_name: t.clone(),
        })
        .collect();
    append_records(dir, &manifest, &records)?;
    Ok(records.len())
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

/// What a compaction did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactReport {
    /// Live columns in the compacted base (base survivors + delta).
    pub n_columns: usize,
    pub n_vectors: usize,
    pub n_partitions: usize,
    /// Manifest version after the bump.
    pub index_version: u64,
    /// Records folded in from the delta log.
    pub records_folded: usize,
    /// Base columns dropped by tombstones.
    pub columns_dropped: usize,
}

/// Fold `dir`'s delta log into fresh base partitions: read every live
/// column with [`read_lake_columns`] (base columns not tombstoned, plus
/// the replayed delta, in ascending external id), rebuild the
/// partitioning under the build options stored in the partitions (with
/// `policy` as their `exec`), bump the manifest version atomically, and
/// delete the log. External ids and build options are preserved —
/// queries answer identically before and after (`DeltaLake` overlay ≡
/// compacted base), only faster. A deployment whose columns repeat an
/// external id is refused before anything is written.
///
/// Crash safety: the rebuilt partitions, the manifest and the directory
/// are synced before the log is deleted, so no acknowledged ingest is
/// ever held only in the page cache. The manifest bump is an atomic
/// rename and happens *before* the log deletion, so a crash in between
/// leaves a log whose header names the old build — which every reader
/// recognises as already folded and ignores. The rebuild itself happens
/// *in place*, so a crash mid-rebuild leaves partitions that may mix the
/// old and new builds under the old manifest; the `COMPACT_MARKER_FILE`
/// written before the first partition byte makes that state a typed
/// [`PexesoError::Corrupt`] on every open path instead of a silent
/// double-apply of the delta log. (Serving daemons are unaffected either
/// way — they answer from resident memory.)
pub fn compact_lake(
    dir: &Path,
    partitions: Option<usize>,
    policy: ExecPolicy,
) -> Result<CompactReport> {
    let _lock = MaintenanceLock::acquire(dir)?;
    let manifest = LakeManifest::read(dir)?;
    verify_no_crashed_compaction(dir, &manifest)?;
    clear_stale_compact_marker(dir)?;
    let base = PartitionedLake::open(dir)?;
    let records = current_records(dir, &manifest)?;
    let next_external_id = allocation_floor(dir, &manifest, &records)?;
    let LakeColumns {
        columns,
        options,
        dropped,
    } = read_lake_columns(&base, &manifest, &DeltaState::replay(&records))?;
    let (n_columns, n_vectors) = (columns.n_columns(), columns.n_vectors());
    if n_columns == 0 {
        return Err(PexesoError::EmptyInput(
            "compaction would leave no live column",
        ));
    }

    let partition_config = PartitionConfig {
        k: partitions.unwrap_or_else(|| base.num_partitions()),
        method: PartitionMethod::JsdKmeans,
        ..Default::default()
    };
    let index_options = IndexOptions {
        exec: policy,
        ..options
    };
    // From here on the directory is transiently inconsistent (new
    // partition bytes under the old manifest). The marker makes a crash
    // in that window detectable instead of silently double-applying.
    write_compact_marker(dir, manifest.index_version)?;
    fault::check("lake.compact.build")?;
    let rebuilt = PartitionedLake::build_named(
        &columns,
        &manifest.metric,
        &partition_config,
        &index_options,
        dir,
    )?;
    // The log is the only durable copy of the ingests it folds until
    // `sync_files` has synced the partition files and the directory,
    // before the manifest names them.
    rebuilt.sync_files("lake.compact.sync")?;
    let new_manifest = LakeManifest {
        index_version: manifest.index_version + 1,
        next_external_id,
        ..manifest
    };
    fault::check("lake.compact.manifest")?;
    new_manifest.write(dir)?; // atomic: the point of no return
    fault::check("lake.compact.clear_marker")?;
    // The marker's version is behind the manifest now. The directory sync
    // makes its removal (and the manifest's rename) durable before the
    // log goes.
    clear_stale_compact_marker(dir)?;
    std::fs::File::open(dir)?.sync_all()?;
    fault::check("lake.compact.remove_log")?;
    remove_log(dir)?; // stale now even if this line never runs
    Ok(CompactReport {
        n_columns,
        n_vectors,
        n_partitions: rebuilt.num_partitions(),
        index_version: new_manifest.index_version,
        records_folded: records.len(),
        columns_dropped: dropped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{delta_log_path, read_log};
    use pexeso_core::codec::MAX_NAME_BYTES;
    use pexeso_core::config::PivotSelection;
    use pexeso_core::fault::{FaultAction, FaultRule};
    use pexeso_core::metric::Euclidean;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const DIM: usize = 6;

    fn unit(rng: &mut StdRng) -> Vec<f32> {
        let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n.max(1e-9));
        v
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pexeso_lake_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn deploy_small(dir: &Path) {
        let mut rng = StdRng::seed_from_u64(5);
        let mut columns = ColumnSet::new(DIM);
        for c in 0..3u64 {
            let floats: Vec<f32> = (0..6).flat_map(|_| unit(&mut rng)).collect();
            columns
                .add_column(&format!("b{c}"), "key", c, floats.chunks_exact(DIM))
                .unwrap();
        }
        PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig {
                k: 2,
                ..Default::default()
            },
            &IndexOptions {
                num_pivots: 3,
                levels: Some(3),
                pivot_selection: PivotSelection::Pca,
                seed: 7,
                ..Default::default()
            },
            dir,
        )
        .unwrap();
        let mut manifest = LakeManifest::new("hash", DIM);
        manifest.next_external_id = 3;
        manifest.write(dir).unwrap();
    }

    fn one_column(seed: u64, table: &str) -> IngestColumn {
        let mut rng = StdRng::seed_from_u64(seed);
        IngestColumn {
            table_name: table.to_string(),
            column_name: "key".into(),
            vectors: (0..4).flat_map(|_| unit(&mut rng)).collect(),
        }
    }

    #[test]
    fn maintenance_lock_serializes_writers_and_releases() {
        let _guard = fault::test_lock(); // another test arms a fault inside compaction
        let dir = tempdir("lock");
        deploy_small(&dir);
        // A held lock makes every write operation fail typed...
        let held = MaintenanceLock::acquire(&dir).unwrap();
        for result in [
            ingest_columns(&dir, &[one_column(1, "d0")]).map(|_| ()),
            drop_tables(&dir, &["b0".into()]).map(|_| ()),
            compact_lake(&dir, None, ExecPolicy::Sequential).map(|_| ()),
        ] {
            match result {
                Err(PexesoError::InvalidParameter(msg)) => {
                    assert!(msg.contains("maintenance"), "{msg}")
                }
                other => panic!("expected lock conflict, got {other:?}"),
            }
        }
        // ...and none of them touched the log.
        assert!(read_log(&dir).unwrap().is_none());
        // Releasing (drop) unblocks the next writer; each operation
        // releases its own lock on return, so a sequence just works.
        drop(held);
        ingest_columns(&dir, &[one_column(1, "d0")]).unwrap();
        drop_tables(&dir, &["b0".into()]).unwrap();
        compact_lake(&dir, None, ExecPolicy::Sequential).unwrap();
        assert!(!dir.join("maintenance.lock").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crashed_compaction_marker_fails_typed_until_stale() {
        let _guard = fault::test_lock(); // another test arms a fault inside compaction
        let dir = tempdir("marker");
        deploy_small(&dir);
        ingest_columns(&dir, &[one_column(9, "d0")]).unwrap();
        let manifest = LakeManifest::read(&dir).unwrap();
        // A marker naming the *current* build version means a compaction
        // crashed mid-rebuild: every path must fail typed, not replay.
        write_compact_marker(&dir, manifest.index_version).unwrap();
        for result in [
            DeltaLake::open(&dir).map(|_| ()),
            ingest_columns(&dir, &[one_column(10, "d1")]).map(|_| ()),
            drop_tables(&dir, &["b0".into()]).map(|_| ()),
            compact_lake(&dir, None, ExecPolicy::Sequential).map(|_| ()),
        ] {
            match result {
                Err(PexesoError::Corrupt(msg)) => {
                    assert!(msg.contains("compaction"), "{msg}")
                }
                other => panic!("expected crashed-compaction error, got {other:?}"),
            }
        }
        // A marker *behind* the manifest is stale (crash after the bump):
        // reads ignore it, the next write cleans it up.
        write_compact_marker(&dir, manifest.index_version - 1).unwrap();
        DeltaLake::open(&dir).unwrap();
        assert!(
            dir.join(COMPACT_MARKER_FILE).exists(),
            "open must not delete"
        );
        ingest_columns(&dir, &[one_column(11, "d1")]).unwrap();
        assert!(!dir.join(COMPACT_MARKER_FILE).exists());
        // A successful compaction leaves no marker behind.
        compact_lake(&dir, None, ExecPolicy::Sequential).unwrap();
        assert!(!dir.join(COMPACT_MARKER_FILE).exists());
        DeltaLake::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_ignores_stale_log_without_deleting_it() {
        let dir = tempdir("stale_ro");
        deploy_small(&dir);
        ingest_columns(&dir, &[one_column(2, "d0")]).unwrap();
        // Simulate the compaction crash window: manifest bumped, log
        // still on disk.
        let mut manifest = LakeManifest::read(&dir).unwrap();
        manifest.index_version += 1;
        manifest.write(&dir).unwrap();
        // Opening (a read path) serves the base only and leaves the
        // stale log alone — it must work on read-only mounts.
        let lake = DeltaLake::open(&dir).unwrap();
        assert!(lake.overlay().is_empty());
        assert!(delta_log_path(&dir).exists(), "open must not delete");
        // The next write operation cleans it up and starts fresh.
        ingest_columns(&dir, &[one_column(3, "d1")]).unwrap();
        let log = read_log(&dir).unwrap().unwrap();
        assert_eq!(log.header.base_index_version, manifest.index_version);
        assert_eq!(log.records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The name limit readers enforce is enforced before the append, so
    /// an over-long name fails its one request instead of bricking the
    /// log for every later reader.
    #[test]
    fn over_long_names_are_refused_before_the_write() {
        let dir = tempdir("long_name");
        deploy_small(&dir);
        ingest_columns(&dir, &[one_column(1, "d0")]).unwrap();
        let long = "n".repeat(MAX_NAME_BYTES as usize + 1);
        let mut column = one_column(2, "d1");
        column.column_name = long.clone();
        for result in [
            ingest_columns(&dir, &[one_column(3, &long)]).map(|_| ()),
            ingest_columns(&dir, &[column]).map(|_| ()),
            drop_tables(&dir, &[long]).map(|_| ()),
        ] {
            match result {
                Err(PexesoError::InvalidParameter(msg)) => {
                    assert!(msg.contains("name limit"), "{msg}")
                }
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
        let log = read_log(&dir).unwrap().unwrap();
        assert_eq!(log.records.len(), 1);
        DeltaLake::open(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Compaction rebuilds under the build options stored in the
    /// partitions (3 pivots, 3 levels, seed 7 here), not the defaults.
    #[test]
    fn compaction_keeps_the_stored_index_options() {
        let _guard = fault::test_lock(); // another test arms a fault inside compaction
        let dir = tempdir("compact_options");
        deploy_small(&dir);
        ingest_columns(&dir, &[one_column(6, "d0")]).unwrap();
        drop_tables(&dir, &["b1".into()]).unwrap();
        let report = compact_lake(&dir, None, ExecPolicy::Sequential).unwrap();
        assert_eq!((report.n_columns, report.columns_dropped), (3, 1));
        let units = DeltaLake::open(&dir).unwrap().load_base().unwrap();
        assert!(!units.is_empty());
        for unit in &units {
            let o = unit.options();
            let options = (o.num_pivots, o.levels, o.pivot_selection, o.seed);
            assert_eq!(options, (3, Some(3), PivotSelection::Pca, 7));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A failed sync of a rebuilt partition stops compaction before the
    /// manifest bump: the log, the only durable copy of the ingest, stays.
    #[test]
    fn compaction_syncs_before_the_log_goes() {
        let _guard = fault::test_lock();
        let dir = tempdir("compact_sync");
        deploy_small(&dir);
        ingest_columns(&dir, &[one_column(4, "d0")]).unwrap();
        let version = LakeManifest::read(&dir).unwrap().index_version;
        fault::arm("lake.compact.sync", FaultRule::nth(0, FaultAction::Error));
        let result = compact_lake(&dir, None, ExecPolicy::Sequential);
        fault::disarm_all();
        assert!(result.is_err());
        assert_eq!(LakeManifest::read(&dir).unwrap().index_version, version);
        assert!(delta_log_path(&dir).exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

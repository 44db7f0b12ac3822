//! Arc-swapped immutable, fully-resident index snapshots.
//!
//! A [`Snapshot`] is one opened deployment loaded *entirely into memory*
//! ([`ResidentPartitions`]) plus its manifest and — new with incremental
//! maintenance — the deployment's replayed delta log as a
//! [`pexeso_delta::AnyOverlay`], tagged with a serve-side *generation*
//! that increases by one on every publish. Residency is what makes the
//! daemon worth running — queries never pay the partition load the
//! one-shot CLI pays — and it is also what makes the swap safe: an
//! operator can re-index or compact the backing directory *in place*
//! while in-flight queries keep answering from the old snapshot's memory,
//! untouched by the filesystem.
//!
//! Two publish paths exist:
//!
//! * [`SnapshotCell::swap`] (the `RELOAD` verb) re-opens the directory
//!   from scratch — partitions, manifest, and delta log;
//! * [`SnapshotCell::apply_delta`] (the `APPLY` verb) re-reads *only*
//!   the delta log and publishes a new generation **sharing the resident
//!   base via `Arc`** — live ingest in milliseconds, no partition
//!   reloaded, no memory doubled. If the base build itself changed
//!   underneath the daemon (manifest `index_version` moved, e.g. a
//!   compaction or re-index finished), `apply_delta` falls back to a full
//!   load: the delta log belongs to the new base, not the resident one.
//!
//! Publishes are serialized by a dedicated swap mutex so generations are
//! strictly increasing — two racing operators can never mint the same
//! generation (which would let the result cache serve one deployment's
//! entries for the other).
//!
//! The manifest records the metric the partition indexes were built with;
//! the persisted pivot mappings are only valid under that metric, so
//! queries requesting any other metric are rejected with a typed error
//! instead of silently returning non-exact results.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use pexeso_core::error::{PexesoError, Result};
use pexeso_core::metric::{Angular, Chebyshev, Euclidean, Manhattan, Metric};
use pexeso_core::outofcore::{execute_on_index, LakeManifest, PartitionedLake, ResidentPartitions};
use pexeso_core::query::{Query, QueryResponse, Queryable};
use pexeso_core::vector::VectorStore;
use pexeso_delta::{check_header, read_log, AnyOverlay, DeltaOverlay, DeltaState, LogStatus};

/// The resident indexes, monomorphised per supported metric (the metric
/// type is fixed at load time by the manifest).
#[derive(Debug)]
enum ResidentLake {
    Euclidean(ResidentPartitions<Euclidean>),
    Manhattan(ResidentPartitions<Manhattan>),
    Chebyshev(ResidentPartitions<Chebyshev>),
    Angular(ResidentPartitions<Angular>),
}

/// One immutable, memory-resident opened deployment plus its delta
/// overlay.
#[derive(Debug)]
pub struct Snapshot {
    /// Path handles, kept for `disk_bytes` and same-dir reload.
    lake: PartitionedLake,
    /// Shared across delta generations: an `apply_delta` publish reuses
    /// the previous snapshot's resident base untouched.
    resident: Arc<ResidentLake>,
    manifest: LakeManifest,
    overlay: AnyOverlay,
    generation: u64,
    dir: PathBuf,
}

impl Snapshot {
    /// Open `dir` (manifest + partition files + delta log) as generation
    /// `generation` and load every partition into memory under the
    /// manifest's metric. A delta log left stale by a compaction crash
    /// (older base version) is ignored; a damaged one is a typed error.
    pub fn load(dir: &Path, generation: u64) -> Result<Self> {
        let manifest = LakeManifest::read(dir)?;
        let lake = PartitionedLake::open(dir)?;
        let resident = match manifest.metric.as_str() {
            "euclidean" => ResidentLake::Euclidean(ResidentPartitions::load(&lake, Euclidean)?),
            "manhattan" => ResidentLake::Manhattan(ResidentPartitions::load(&lake, Manhattan)?),
            "chebyshev" => ResidentLake::Chebyshev(ResidentPartitions::load(&lake, Chebyshev)?),
            "angular" => ResidentLake::Angular(ResidentPartitions::load(&lake, Angular)?),
            other => {
                return Err(PexesoError::Corrupt(format!(
                    "manifest names unsupported metric '{other}'"
                )))
            }
        };
        let overlay = load_overlay(dir, &manifest)?;
        Ok(Self {
            lake,
            resident: Arc::new(resident),
            manifest,
            overlay,
            generation,
            dir: dir.to_path_buf(),
        })
    }

    /// The `APPLY` fast path: a new snapshot serving the *same resident
    /// base* as `prev` with a freshly replayed delta log. The caller
    /// (`SnapshotCell::apply_delta`) guarantees the manifest on disk
    /// still matches `prev`'s — otherwise the base must be reloaded.
    fn with_fresh_overlay(prev: &Snapshot, generation: u64) -> Result<Self> {
        let overlay = load_overlay(&prev.dir, &prev.manifest)?;
        Ok(Self {
            lake: PartitionedLake::open(&prev.dir)?,
            resident: prev.resident.clone(),
            manifest: prev.manifest.clone(),
            overlay,
            generation,
            dir: prev.dir.clone(),
        })
    }

    pub fn lake(&self) -> &PartitionedLake {
        &self.lake
    }

    pub fn manifest(&self) -> &LakeManifest {
        &self.manifest
    }

    pub fn dim(&self) -> usize {
        self.manifest.dim
    }

    /// Serve-side generation; bumps on every publish (reload or apply).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The delta overlay served on top of the resident base.
    pub fn overlay(&self) -> &AnyOverlay {
        &self.overlay
    }

    /// Live columns ingested since the base build.
    pub fn delta_columns(&self) -> usize {
        self.overlay.n_delta_columns()
    }

    /// Dropped tables tombstoned since the base build.
    pub fn delta_tombstones(&self) -> usize {
        self.overlay.n_tombstones()
    }

    /// Structural statistics of the whole served deployment — every
    /// resident partition walked read-only, plus the delta overlay's
    /// depth — for the `INSPECT` verb (see [`pexeso_core::inspect`]).
    pub fn inspect(&self) -> pexeso_core::inspect::IndexInspection {
        fn partitions<M: Metric>(
            r: &ResidentPartitions<M>,
        ) -> Vec<pexeso_core::inspect::PartitionInspection> {
            (0..r.num_partitions())
                .map(|i| r.partition(i).inspect())
                .collect()
        }
        let parts = match &*self.resident {
            ResidentLake::Euclidean(r) => partitions(r),
            ResidentLake::Manhattan(r) => partitions(r),
            ResidentLake::Chebyshev(r) => partitions(r),
            ResidentLake::Angular(r) => partitions(r),
        };
        pexeso_core::inspect::IndexInspection {
            partitions: parts,
            delta_columns: self.overlay.n_delta_columns() as u64,
            delta_vectors: self.overlay.n_delta_vectors() as u64,
            delta_tombstones: self.overlay.n_tombstones() as u64,
            delta_records: self.overlay.n_records() as u64,
        }
    }

    /// Reject a query whose metric does not match the one the indexes
    /// were built with — the pivot mappings would be invalid and results
    /// silently wrong, violating the exactness contract.
    fn check_metric(&self, requested: &str) -> Result<()> {
        if requested == self.manifest.metric {
            Ok(())
        } else {
            Err(PexesoError::InvalidParameter(format!(
                "index was built with metric '{}'; cannot serve '{requested}'",
                self.manifest.metric
            )))
        }
    }

    fn execute_overlaid<M: Metric>(
        &self,
        resident: &ResidentPartitions<M>,
        overlay: &DeltaOverlay<M>,
        query: &Query,
        vectors: &VectorStore,
    ) -> Result<QueryResponse> {
        overlay.execute_with_base(
            resident.num_partitions(),
            query,
            vectors,
            |i, inner, guard| execute_on_index(resident.partition(i), inner, vectors, guard, None),
        )
    }
}

/// Read and replay `dir`'s delta log against `manifest`. Stale logs
/// (compacted already) read as empty; the metric mismatch and damage
/// cases are typed errors — as is the debris of a compaction that
/// crashed mid-rebuild (partitions possibly mixing old and new builds):
/// replaying a still-current log over them would double-apply records.
fn load_overlay(dir: &Path, manifest: &LakeManifest) -> Result<AnyOverlay> {
    pexeso_delta::verify_no_crashed_compaction(dir, manifest)?;
    let state = match read_log(dir)? {
        Some(contents) => match check_header(&contents.header, manifest)? {
            LogStatus::Current => DeltaState::replay(&contents.records),
            LogStatus::Stale => DeltaState::default(),
        },
        None => DeltaState::default(),
    };
    AnyOverlay::from_state(&state, &manifest.metric, manifest.dim)
}

/// A snapshot answers the unified [`Query`] by checking the metric
/// expectation against its manifest and delegating to the matching
/// monomorphised resident backend, overlaid with the delta — the serve
/// dispatch runs the exact same engine every local backend uses, so a
/// served reply is byte-identical to querying the deployment (base +
/// delta log) directly.
impl Queryable for Snapshot {
    fn execute(&self, query: &Query, vectors: &VectorStore) -> Result<QueryResponse> {
        if let Some(expected) = query.metric.as_deref() {
            self.check_metric(expected)?;
        }
        match (&*self.resident, &self.overlay) {
            (ResidentLake::Euclidean(r), AnyOverlay::Euclidean(o)) => {
                self.execute_overlaid(r, o, query, vectors)
            }
            (ResidentLake::Manhattan(r), AnyOverlay::Manhattan(o)) => {
                self.execute_overlaid(r, o, query, vectors)
            }
            (ResidentLake::Chebyshev(r), AnyOverlay::Chebyshev(o)) => {
                self.execute_overlaid(r, o, query, vectors)
            }
            (ResidentLake::Angular(r), AnyOverlay::Angular(o)) => {
                self.execute_overlaid(r, o, query, vectors)
            }
            // Both halves are built from the same manifest metric; a
            // mismatch would mean the snapshot was assembled wrong.
            _ => Err(PexesoError::InvalidParameter(
                "snapshot base and delta overlay disagree on the metric".into(),
            )),
        }
    }
}

/// The swap point: a shared cell holding the current snapshot.
pub struct SnapshotCell {
    current: RwLock<Arc<Snapshot>>,
    /// Serializes whole publishes (load + publish). Without it two
    /// concurrent reloads could both read generation G and both publish
    /// G+1 — duplicate generations would alias result-cache keys across
    /// deployments.
    swap_lock: Mutex<()>,
}

impl SnapshotCell {
    /// Open `dir` as the first served snapshot (generation 1).
    pub fn open(dir: &Path) -> Result<Self> {
        let snapshot = Snapshot::load(dir, 1)?;
        Ok(Self {
            current: RwLock::new(Arc::new(snapshot)),
            swap_lock: Mutex::new(()),
        })
    }

    /// The snapshot new requests should use. Cheap (`Arc` clone under a
    /// read lock); call once per request and reuse the `Arc`.
    pub fn current(&self) -> Arc<Snapshot> {
        self.current.read().expect("snapshot cell poisoned").clone()
    }

    /// Hot swap: load `dir` (or re-load the currently served directory),
    /// then atomically publish it with the next generation. On any load
    /// error the served snapshot is left untouched — a bad re-index never
    /// takes down live traffic. Publishes serialize; generations are
    /// strictly increasing.
    pub fn swap(&self, dir: Option<&Path>) -> Result<Arc<Snapshot>> {
        let _swapping = self.swap_lock.lock().expect("swap lock poisoned");
        let old = self.current();
        let target = dir.unwrap_or_else(|| old.dir());
        // Expensive directory scan + full resident load happens outside
        // the write lock, so readers never block behind a slow disk.
        let fresh = Arc::new(Snapshot::load(target, old.generation() + 1)?);
        self.publish(fresh.clone());
        Ok(fresh)
    }

    /// The live-ingest publish: re-read the served directory's delta log
    /// and publish a new generation that *shares the resident base* with
    /// the current snapshot — no partition is reloaded. Falls back to a
    /// full load when the on-disk manifest's `index_version` no longer
    /// matches the resident one (a compaction or re-index finished: the
    /// log now describes a different base). On any error the served
    /// snapshot is untouched.
    pub fn apply_delta(&self) -> Result<Arc<Snapshot>> {
        let _swapping = self.swap_lock.lock().expect("swap lock poisoned");
        let old = self.current();
        let disk_manifest = LakeManifest::read(old.dir())?;
        let fresh = if disk_manifest.index_version == old.manifest().index_version {
            Arc::new(Snapshot::with_fresh_overlay(&old, old.generation() + 1)?)
        } else {
            Arc::new(Snapshot::load(old.dir(), old.generation() + 1)?)
        };
        self.publish(fresh.clone());
        Ok(fresh)
    }

    fn publish(&self, fresh: Arc<Snapshot>) {
        *self.current.write().expect("snapshot cell poisoned") = fresh;
    }
}

//! Arc-swapped immutable, fully-resident index snapshots.
//!
//! A [`Snapshot`] is one opened deployment — a [`DeltaLake`]: manifest,
//! partition files and replayed delta overlay, opened by
//! [`DeltaLake::open`] like every other reader — with its base loaded
//! *entirely into memory*, every partition as an [`IndexUnit`], and
//! tagged with a serve-side *generation* that increases by one on every
//! publish. Residency is what makes the
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
//!   the delta log ([`DeltaLake::with_fresh_log`]) and publishes a new
//!   generation **sharing the resident base via `Arc`** — live ingest in
//!   milliseconds, no partition reloaded, no memory doubled. If the base
//!   build itself changed underneath the daemon (manifest `index_version`
//!   moved, e.g. a compaction or re-index finished), `apply_delta` falls
//!   back to a full load: the delta log belongs to the new base, not the
//!   resident one.
//!
//! A load reads every partition file, checks its CRC32C (a corrupt file
//! is a typed "checksum mismatch", a format 1 file a typed refusal that
//! says to rebuild) and rebuilds its grid, through [`DeltaLake::load_base`]: the partitions load
//! concurrently (the daemon owns the machine), largest file first. The
//! units keep partition order, and a failure is the lowest-indexed
//! partition's, as a sequential load would report it. A failed load
//! publishes nothing: a RELOAD onto a damaged directory leaves the served
//! snapshot untouched.
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

use std::path::Path;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

use pexeso_core::error::Result;
use pexeso_core::outofcore::{IndexUnit, LakeManifest};
use pexeso_core::query::{Query, QueryResponse, Queryable};
use pexeso_core::vector::VectorStore;
use pexeso_delta::DeltaLake;

use crate::conn::lock_unpoisoned;

/// One immutable, memory-resident opened deployment plus its delta
/// overlay.
#[derive(Debug)]
pub struct Snapshot {
    /// The deployment served: manifest, delta overlay, and the partition
    /// files `units` were loaded from.
    lake: DeltaLake,
    /// The resident base, one unit per partition file of `lake`. Shared
    /// across delta generations: an `apply_delta` publish reuses the
    /// previous snapshot's resident base untouched.
    units: Arc<Vec<Box<dyn IndexUnit>>>,
    /// Each unit's dead mask under the overlay
    /// ([`pexeso_delta::DeltaOverlay::dead_columns`]), built once per
    /// publish so no query builds one.
    dead: Vec<Option<Vec<bool>>>,
    generation: u64,
}

impl Snapshot {
    /// Open `dir` (manifest + partition files + delta log) as generation
    /// `generation` and load every partition into memory under the
    /// manifest's metric. A delta log left stale by a compaction crash
    /// (older base version) is ignored; a damaged one is a typed error.
    ///
    /// The partitions load concurrently, largest file first; the error of
    /// a failed load is the lowest-indexed failing partition's (see the
    /// [module docs](self)).
    pub fn load(dir: &Path, generation: u64) -> Result<Self> {
        let lake = DeltaLake::open(dir)?;
        let units = Arc::new(lake.load_base()?);
        Ok(Self::serving(lake, units, generation))
    }

    /// The `APPLY` fast path: a new snapshot serving the *same resident
    /// base* as `prev` with a freshly replayed delta log. The caller
    /// (`SnapshotCell::apply_delta`) guarantees the manifest on disk
    /// still matches `prev`'s — otherwise the base must be reloaded.
    fn with_fresh_overlay(prev: &Snapshot, generation: u64) -> Result<Self> {
        let lake = prev.lake.with_fresh_log()?;
        Ok(Self::serving(lake, prev.units.clone(), generation))
    }

    fn serving(lake: DeltaLake, units: Arc<Vec<Box<dyn IndexUnit>>>, generation: u64) -> Self {
        let dead = units
            .iter()
            .map(|u| lake.overlay().dead_columns(u.columns()))
            .collect();
        Self {
            lake,
            units,
            dead,
            generation,
        }
    }

    /// The partitions being served: the resident units. (The directory
    /// may already hold the files of an unpublished re-index.)
    pub fn num_partitions(&self) -> usize {
        self.units.len()
    }

    /// The deployment being served: its manifest, delta overlay and
    /// partition files.
    pub fn lake(&self) -> &DeltaLake {
        &self.lake
    }

    /// Serve-side generation; bumps on every publish (reload or apply).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Structural statistics of the whole served deployment — every
    /// resident partition walked read-only, its dropped columns counted
    /// off its dead mask, plus the delta overlay's depth — for the
    /// `pexeso_index_*` families of the METRICS scrape (see
    /// [`pexeso_core::inspect`]).
    pub fn inspect(&self) -> pexeso_core::inspect::IndexInspection {
        let partitions = self.units.iter().zip(&self.dead).map(|(unit, dead)| {
            pexeso_core::inspect::PartitionInspection {
                deleted_columns: dead.iter().flatten().filter(|&&d| d).count() as u64,
                ..unit.inspect()
            }
        });
        let overlay = self.lake.overlay();
        pexeso_core::inspect::IndexInspection {
            partitions: partitions.collect(),
            delta_vectors: overlay.n_delta_vectors() as u64,
            delta_records: overlay.n_records() as u64,
        }
    }
}

/// A snapshot answers the unified [`Query`] by checking the metric
/// expectation against its manifest — the pivot mappings are only valid
/// under the build metric — and running the resident units overlaid with
/// the delta: the exact same engine every local backend uses, so a
/// served reply is byte-identical to querying the deployment (base +
/// delta log) directly.
impl Queryable for Snapshot {
    fn execute(&self, query: &Query, vectors: &VectorStore) -> Result<QueryResponse> {
        query.check_metric("index", &self.lake.manifest().metric)?;
        let weights: Vec<u64> = self
            .units
            .iter()
            .map(|u| u.columns().n_vectors() as u64)
            .collect();
        self.lake
            .overlay()
            .execute_with_base(&weights, query, vectors, |i, inner, guard| {
                self.units[i].answer(inner, vectors, self.dead[i].as_deref(), guard)
            })
    }
}

/// The swap point: a shared cell holding the current snapshot.
pub struct SnapshotCell {
    current: RwLock<Arc<Snapshot>>,
    /// Serializes whole publishes (load + publish). Without it two
    /// concurrent reloads could both read generation G and both publish
    /// G+1 — duplicate generations would alias result-cache keys across
    /// deployments. It guards no data, so a publish that panicked while
    /// holding it (the connection core answers that one request with an
    /// error) must not disable every later one: poisoning is ignored.
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
        self.current
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Hot swap: load `dir` (or re-load the currently served directory),
    /// then atomically publish it with the next generation. On any load
    /// error the served snapshot is left untouched — a bad re-index never
    /// takes down live traffic. Publishes serialize; generations are
    /// strictly increasing.
    pub fn swap(&self, dir: Option<&Path>) -> Result<Arc<Snapshot>> {
        let _swapping = lock_unpoisoned(&self.swap_lock);
        let old = self.current();
        let target = dir.unwrap_or_else(|| old.lake().dir());
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
        let _swapping = lock_unpoisoned(&self.swap_lock);
        let old = self.current();
        let (dir, resident) = (old.lake().dir(), old.lake().manifest().index_version);
        let fresh = if LakeManifest::read(dir)?.index_version == resident {
            Arc::new(Snapshot::with_fresh_overlay(&old, old.generation() + 1)?)
        } else {
            Arc::new(Snapshot::load(dir, old.generation() + 1)?)
        };
        self.publish(fresh.clone());
        Ok(fresh)
    }

    fn publish(&self, fresh: Arc<Snapshot>) {
        // The slot holds one `Arc`, whole in every state a panic can
        // leave it.
        *self.current.write().unwrap_or_else(PoisonError::into_inner) = fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pexeso_core::inspect::PartitionInspection;
    use pexeso_core::prelude::*;

    #[test]
    fn a_publish_that_panicked_does_not_disable_later_ones() {
        let dir = std::env::temp_dir().join(format!("pexeso_snap_poison_{}", std::process::id()));
        let mut columns = ColumnSet::new(2);
        for c in 0..4u64 {
            let v = [1.0, c as f32];
            columns.add_column("t", "c", c, vec![&v[..]]).unwrap();
        }
        PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig::default(),
            &IndexOptions::default(),
            &dir,
        )
        .unwrap();
        LakeManifest::new("test", 2).write(&dir).unwrap();
        let cell = SnapshotCell::open(&dir).unwrap();

        // What a `Snapshot::load` panicking inside RELOAD/APPLY leaves
        // behind: the swap lock poisoned by the unwinding holder.
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = cell.swap_lock.lock().unwrap();
                panic!("publish panicked while holding the swap lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(cell.swap_lock.is_poisoned());

        assert_eq!(cell.apply_delta().unwrap().generation(), 2);
        assert_eq!(cell.swap(None).unwrap().generation(), 3);
        assert_eq!(cell.current().generation(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Partitions load concurrently, but a failure is still the
    /// lowest-indexed partition's, and a RELOAD that fails leaves the
    /// served generation in place.
    #[test]
    fn a_failed_load_reports_the_first_bad_partition() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let dir = std::env::temp_dir().join(format!("pexeso_snap_corrupt_{}", std::process::id()));
        let mut rng = StdRng::seed_from_u64(3);
        let dim = 16;
        let mut columns = ColumnSet::new(dim);
        for c in 0..40u64 {
            let vecs: Vec<Vec<f32>> = (0..20)
                .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
                .collect();
            columns
                .add_column("t", &format!("c{c}"), c, vecs.iter().map(Vec::as_slice))
                .unwrap();
        }
        let lake = PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig::default(),
            &IndexOptions::default(),
            &dir,
        )
        .unwrap();
        LakeManifest::new("test", dim).write(&dir).unwrap();
        let cell = SnapshotCell::open(&dir).unwrap();
        let files = lake.partition_files();
        assert_eq!(files.len(), 4);
        // Partition 1: a flipped checksum byte. Partition 3: a trailing
        // byte, which fails differently.
        let mut bytes = std::fs::read(&files[1]).unwrap();
        *bytes.last_mut().unwrap() ^= 0xff;
        std::fs::write(&files[1], bytes).unwrap();
        let mut bytes = std::fs::read(&files[3]).unwrap();
        bytes.push(0);
        std::fs::write(&files[3], bytes).unwrap();

        let err = Snapshot::load(&dir, 2).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        let err = cell.swap(None).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        assert_eq!(cell.current().generation(), 1);
        assert_eq!(cell.current().num_partitions(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The inspection counts the base columns a dropped table owns, from
    /// the moment the drop is applied.
    #[test]
    fn inspect_counts_the_columns_of_a_dropped_table() {
        let dir = std::env::temp_dir().join(format!("pexeso_snap_inspect_{}", std::process::id()));
        let mut columns = ColumnSet::new(2);
        // Table `a` owns three columns, table `b` two.
        for (c, table) in ["a", "b", "a", "b", "a"].into_iter().enumerate() {
            let v = [1.0, c as f32];
            let name = format!("c{c}");
            columns
                .add_column(table, &name, c as u64, vec![&v[..]])
                .unwrap();
        }
        PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig::default(),
            &IndexOptions::default(),
            &dir,
        )
        .unwrap();
        LakeManifest::new("test", 2).write(&dir).unwrap();
        let cell = SnapshotCell::open(&dir).unwrap();
        let sum = |snap: &Snapshot, pick: fn(&PartitionInspection) -> u64| {
            snap.inspect().partitions.iter().map(pick).sum::<u64>()
        };
        assert_eq!(sum(&cell.current(), |p| p.deleted_columns), 0);

        pexeso_delta::drop_tables(&dir, &["a".to_string()]).unwrap();
        let snap = cell.apply_delta().unwrap();
        assert_eq!(sum(&snap, |p| p.columns), 5);
        assert_eq!(sum(&snap, |p| p.deleted_columns), 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}

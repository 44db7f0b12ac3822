//! Out-of-core search over a partitioned lake (Section IV).
//!
//! When the repository exceeds main memory, columns are partitioned
//! (see [`crate::partition`]), one PEXESO index is built and persisted per
//! partition, and a search loads partitions one at a time, merging results.
//! A parallel [`Query::policy`] — a query's default — runs the same loop
//! under the crate-wide [`crate::config::ExecPolicy`]: partitions are
//! coarse work units handed out largest first by
//! [`crate::exec::try_map_units`], overlapping partition loading with
//! searching (an extension over the paper's sequential loop, which
//! [`crate::config::ExecPolicy::Sequential`] still is).
//! A one-partition deployment spends the policy inside its one search
//! instead ([`crate::config::ExecPolicy::split`]). Results are identical
//! for every policy.
//!
//! ## Units
//!
//! A deployment backend learns its metric from a string (the manifest's
//! `metric=` line) while the index is generic over the [`Metric`] type.
//! The two meet at the *index-unit boundary*: [`IndexUnit`] is the small
//! object-safe face of one loaded `PexesoIndex<M>`, and [`load_unit`],
//! [`build_unit`] and [`PartitionedLake::build_named`] are the only
//! places a name picks the type (through the one match in
//! [`crate::metric`]), so everything that holds units — this lake,
//! `pexeso-delta`'s overlay, `pexeso-serve`'s snapshot, the shard
//! splitter — is written once, not once per metric. The erased call is
//! made once per (query, unit). Behind it mapping, blocking, verification
//! and the kernels stay monomorphised: the metric itself is never a trait
//! object, because a virtual call per distance would sit inside the loop
//! that is ~99 % of search time.

use std::fs;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::column::{ColumnId, ColumnSet};
use crate::config::IndexOptions;
use crate::error::{PexesoError, Result};
use crate::exec;
use crate::inspect::PartitionInspection;
use crate::metric::{with_metric, Metric};
use crate::partition::{partition_columns, sub_column_set, PartitionConfig};
use crate::persist::{load_index, save_index};
use crate::query::{
    fold_outcome, rank_topk_hits, sort_threshold_hits, BudgetGuard, Exceeded, Query, QueryMode,
    QueryOutcome, QueryResponse, Queryable,
};
use crate::search::PexesoIndex;
use crate::stats::SearchStats;
use crate::vector::VectorStore;

/// A joinable column found in a partitioned lake, identified by the
/// caller-stable external id (partitioning reorders internal ids).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalHit {
    pub external_id: u64,
    pub table_name: String,
    pub column_name: String,
    /// Matched query vectors (lower bound under early termination).
    pub match_count: u32,
}

/// The small text manifest persisted next to the partition files of a
/// deployed lake. It records what cannot be recovered from the partition
/// files alone: the embedding dimensionality the query side must use, and
/// a monotonically increasing `index_version` bumped on every re-index so
/// long-running servers can tell one build of the same directory from the
/// next (the hot-swap path in `pexeso-serve` keys its result cache on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LakeManifest {
    /// Manifest format version (currently 1).
    pub format_version: u32,
    /// Name of the embedder family used at index time (e.g. `hash`).
    pub embedder: String,
    /// Embedding dimensionality of every vector in the deployment.
    pub dim: usize,
    /// Name of the [`Metric`] the partition indexes were built with. The
    /// persisted pivot mappings are only valid under this metric, so the
    /// query side must match it exactly (a server rejects mismatches).
    pub metric: String,
    /// Build generation of this directory; starts at 1, +1 per re-index.
    pub index_version: u64,
    /// The next free caller-stable external id: every column persisted in
    /// this build (base partitions *and* any compacted-in deltas) has an
    /// external id strictly below it. Incremental ingest assigns new ids
    /// from here so delta columns can never collide with base columns.
    /// Legacy manifests (written before incremental maintenance existed)
    /// default to 0, which spells "unknown — scan the partitions".
    pub next_external_id: u64,
    /// The external ids this deployment owns when it is one shard of a
    /// split lake (`shard-split` records each shard's `[lo, hi)`); `None`,
    /// what every other deployment has, is unbounded. A router drops every
    /// reply entry outside its shard's range, so ingest refuses to
    /// allocate an id outside this one.
    pub id_range: Option<Range<u64>>,
}

impl LakeManifest {
    /// Manifest location inside a deployment directory.
    pub fn path(dir: &Path) -> PathBuf {
        dir.join("manifest.txt")
    }

    /// A first-generation manifest for a fresh Euclidean deployment (the
    /// only metric the offline pipeline builds today).
    pub fn new(embedder: &str, dim: usize) -> Self {
        Self {
            format_version: 1,
            embedder: embedder.to_string(),
            dim,
            metric: "euclidean".to_string(),
            index_version: 1,
            next_external_id: 0,
            id_range: None,
        }
    }

    /// Read and parse `dir`'s manifest. Manifests written before
    /// `index_version`/`metric` existed default them to 1 / `euclidean`;
    /// one without the two `id_range_*` lines is unbounded.
    pub fn read(dir: &Path) -> Result<Self> {
        let text = fs::read_to_string(Self::path(dir))?;
        let mut format_version = 1u32;
        let mut embedder = String::from("hash");
        let mut dim = None;
        let mut metric = String::from("euclidean");
        let mut index_version = 1u64;
        let mut next_external_id = 0u64;
        let (mut id_lo, mut id_hi) = (None, None);
        let parse_id = |key: &str, value: &str| {
            value
                .trim()
                .parse::<u64>()
                .map_err(|_| PexesoError::Corrupt(format!("bad manifest {key} '{value}'")))
        };
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            match key.trim() {
                "version" => {
                    format_version = value.trim().parse().map_err(|_| {
                        PexesoError::Corrupt(format!("bad manifest version '{value}'"))
                    })?
                }
                "embedder" => embedder = value.trim().to_string(),
                "metric" => metric = value.trim().to_string(),
                "dim" => {
                    dim =
                        Some(value.trim().parse().map_err(|_| {
                            PexesoError::Corrupt(format!("bad manifest dim '{value}'"))
                        })?)
                }
                "index_version" => {
                    index_version = value.trim().parse().map_err(|_| {
                        PexesoError::Corrupt(format!("bad manifest index_version '{value}'"))
                    })?
                }
                "next_external_id" => {
                    next_external_id = value.trim().parse().map_err(|_| {
                        PexesoError::Corrupt(format!("bad manifest next_external_id '{value}'"))
                    })?
                }
                "id_range_lo" => id_lo = Some(parse_id("id_range_lo", value)?),
                "id_range_hi" => id_hi = Some(parse_id("id_range_hi", value)?),
                _ => {} // forward-compatible: ignore unknown keys
            }
        }
        let dim = dim.ok_or_else(|| PexesoError::Corrupt("manifest missing dim".into()))?;
        if dim == 0 {
            return Err(PexesoError::Corrupt("manifest dim must be positive".into()));
        }
        let id_range = match (id_lo, id_hi) {
            (None, None) => None,
            (Some(lo), Some(hi)) if lo < hi => Some(lo..hi),
            _ => {
                return Err(PexesoError::Corrupt(format!(
                    "manifest id range needs id_range_lo < id_range_hi, got {id_lo:?} / {id_hi:?}"
                )))
            }
        };
        Ok(Self {
            format_version,
            embedder,
            dim,
            metric,
            index_version,
            next_external_id,
            id_range,
        })
    }

    /// Write the manifest into `dir` crash-safely: the bytes go to a
    /// temporary file first and are published with an atomic rename, so a
    /// torn write (crash, full disk, SIGKILL mid-`write`) can never leave
    /// a half-written manifest over a working deployment — readers see
    /// either the old manifest or the new one, nothing in between. The
    /// temporary file is synced before the rename, so the name never
    /// points at bytes still only in the page cache; making the rename
    /// itself durable (a sync of `dir`) is the caller's call.
    pub fn write(&self, dir: &Path) -> Result<()> {
        let target = Self::path(dir);
        let tmp = dir.join("manifest.txt.tmp");
        let mut body = format!(
            "version={}\nembedder={}\ndim={}\nmetric={}\nindex_version={}\nnext_external_id={}\n",
            self.format_version,
            self.embedder,
            self.dim,
            self.metric,
            self.index_version,
            self.next_external_id,
        );
        if let Some(range) = &self.id_range {
            body += &format!("id_range_lo={}\nid_range_hi={}\n", range.start, range.end);
        }
        {
            let mut file = fs::File::create(&tmp)?;
            crate::fault::write_all(&mut file, body.as_bytes(), "manifest.write.tmp")?;
            file.sync_all()?;
        }
        crate::fault::check("manifest.rename")?;
        fs::rename(&tmp, &target)?;
        Ok(())
    }

    /// The manifest a re-index of `dir` should write: same identity, next
    /// `index_version` — continuing from the existing manifest when one is
    /// present, or starting a fresh line at 1 when none exists. A manifest
    /// that exists but cannot be read is an error: silently restarting the
    /// version line would erase the build lineage operators rely on.
    pub fn next_build(dir: &Path, embedder: &str, dim: usize) -> Result<Self> {
        match Self::read(dir) {
            Ok(prev) => Ok(Self {
                index_version: prev.index_version + 1,
                ..Self::new(embedder, dim)
            }),
            Err(PexesoError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                Ok(Self::new(embedder, dim))
            }
            Err(e) => Err(e),
        }
    }
}

/// A disk-resident, partitioned PEXESO deployment.
#[derive(Debug, Clone)]
pub struct PartitionedLake {
    dir: PathBuf,
    partition_files: Vec<PathBuf>,
}

impl PartitionedLake {
    /// Partition `columns`, build one index per partition, and persist
    /// everything under `dir` (created if missing; existing `part_*.pex`
    /// files are replaced).
    ///
    /// The partitions are built and saved as units of
    /// [`exec::try_map_units`] under `index_options.exec`, weighted by
    /// their vectors, with the policy split as a query splits it
    /// ([`crate::config::ExecPolicy::split`]): with two or more partitions
    /// they fan out and each builds sequentially, a single one gets the
    /// whole policy. File numbering does not depend on the policy: empty
    /// partitions are dropped and the others are numbered `part_0000.pex`,
    /// `part_0001.pex`, … in partition order, and every file's bytes are
    /// the same under every policy. Nothing is synced to disk; a caller
    /// about to publish a manifest over the files calls
    /// [`Self::sync_files`] first.
    pub fn build<M: Metric>(
        columns: &ColumnSet,
        metric: M,
        partition_config: &PartitionConfig,
        index_options: &IndexOptions,
        dir: &Path,
    ) -> Result<Self> {
        fs::create_dir_all(dir)?;
        // Clear stale partition files so `open` never mixes deployments
        // (including `.tmp` fragments a crashed atomic save left behind).
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().is_some_and(|e| e == "pex" || e == "tmp") {
                fs::remove_file(&path)?;
            }
        }
        let groups: Vec<Vec<usize>> = partition_columns(columns, partition_config)?
            .groups()
            .into_iter()
            .filter(|group| !group.is_empty())
            .collect();
        let weights: Vec<u64> = groups
            .iter()
            .map(|group| {
                let len = |&c: &usize| columns.column(ColumnId(c as u32)).len as u64;
                group.iter().map(len).sum()
            })
            .collect();
        let (fan_out, inside) = index_options.exec.split(groups.len());
        let options = IndexOptions {
            exec: inside,
            ..index_options.clone()
        };
        let files = exec::try_map_units(
            fan_out,
            &weights,
            || PexesoError::InvalidParameter("partition build worker panicked".into()),
            |i| {
                let sub = sub_column_set(columns, &groups[i]);
                let index = PexesoIndex::build(sub, metric.clone(), options.clone())?;
                let path = dir.join(format!("part_{i:04}.pex"));
                save_index(&index, &path)?;
                Ok(path)
            },
        )?;
        Ok(Self {
            dir: dir.to_path_buf(),
            partition_files: files,
        })
    }

    /// [`Self::build`] under the metric a manifest names.
    pub fn build_named(
        columns: &ColumnSet,
        metric_name: &str,
        partition_config: &PartitionConfig,
        index_options: &IndexOptions,
        dir: &Path,
    ) -> Result<Self> {
        with_metric!(metric_name, |m| Self::build(
            columns,
            m,
            partition_config,
            index_options,
            dir
        ))
    }

    /// Open an existing deployment directory.
    pub fn open(dir: &Path) -> Result<Self> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "pex"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(PexesoError::EmptyInput("no partition files in directory"));
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            partition_files: files,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn num_partitions(&self) -> usize {
        self.partition_files.len()
    }

    /// The partition files backing this deployment, in search order — the
    /// immutable handle set a resident server snapshots.
    pub fn partition_files(&self) -> &[PathBuf] {
        &self.partition_files
    }

    /// Load one partition's index into memory (e.g. for top-k merging or
    /// inspection).
    pub fn load_partition<M: Metric>(&self, i: usize, metric: M) -> Result<PexesoIndex<M>> {
        let path = self
            .partition_files
            .get(i)
            .ok_or_else(|| PexesoError::InvalidParameter(format!("no partition {i}")))?;
        load_index(path, metric)
    }

    /// Each partition's weight for [`exec::try_map_units`]: its file's
    /// bytes, all that is known of a disk-backed partition's size before
    /// it is loaded. An unreadable file weighs nothing here and fails
    /// with a typed error when loaded.
    pub fn file_weights(&self) -> Vec<u64> {
        self.partition_files
            .iter()
            .map(|f| fs::metadata(f).map_or(0, |m| m.len()))
            .collect()
    }

    /// Make the partition files durable before a manifest names them:
    /// `sync_all` every file, then the directory (for their names).
    /// [`save_index`] syncs nothing and [`LakeManifest::write`] syncs only
    /// its own bytes, so without this a power loss can leave a published
    /// manifest over partition bytes that never reached the disk. Each
    /// sync first crosses the caller's fault point `fault_point`.
    pub fn sync_files(&self, fault_point: &str) -> Result<()> {
        for path in self.partition_files.iter().chain([&self.dir]) {
            crate::fault::check(fault_point)?;
            fs::File::open(path)?.sync_all()?;
        }
        Ok(())
    }

    /// Total bytes on disk across partition files.
    pub fn disk_bytes(&self) -> Result<u64> {
        let mut total = 0;
        for f in &self.partition_files {
            total += fs::metadata(f)?.len();
        }
        Ok(total)
    }

    /// The metric this deployment must be queried with: the directory
    /// manifest's when one exists (an explicit [`Query::metric`]
    /// expectation that disagrees is a typed error — the persisted pivot
    /// mappings are only valid under the build metric); without a
    /// manifest the query's expectation, else Euclidean, the only metric
    /// the offline pipeline deploys.
    fn resolve_metric_name(&self, query: &Query) -> Result<String> {
        match LakeManifest::read(&self.dir) {
            Ok(m) => {
                query.check_metric("deployment", &m.metric)?;
                Ok(m.metric)
            }
            Err(PexesoError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Ok(query
                .metric
                .clone()
                .unwrap_or_else(|| "euclidean".to_string())),
            Err(e) => Err(e),
        }
    }
}

/// Out-of-core deployments answer the unified [`Query`] like every other
/// backend: the metric is resolved from the query's expectation and the
/// deployment manifest (see `resolve_metric_name`), and each partition is
/// loaded as an [`IndexUnit`] under it.
impl Queryable for PartitionedLake {
    fn execute(&self, query: &Query, vectors: &VectorStore) -> Result<QueryResponse> {
        let metric = self.resolve_metric_name(query)?;
        execute_partitioned(&self.file_weights(), query, |i, inner, guard| {
            load_unit(&self.partition_files[i], &metric)?.answer(inner, vectors, None, guard)
        })
    }
}

/// One loaded index with its metric type erased — what a deployment
/// backend holds per partition (and per delta overlay) once the manifest
/// has named the metric. See the [module docs](self#units).
pub trait IndexUnit: Send + Sync {
    /// Answer `query` for this unit alone (see [`PartitionAnswer`]): hits
    /// in global identities, tie-inclusive in top-k mode, the columns
    /// flagged in `dead` (one flag per column of the unit) never scanned,
    /// and `guard` carrying the query's budget across units. The one
    /// implementation is `PexesoIndex`'s, in [`crate::search`].
    fn answer(
        &self,
        query: &Query,
        vectors: &VectorStore,
        dead: Option<&[bool]>,
        guard: &mut Option<BudgetGuard>,
    ) -> Result<PartitionAnswer>;

    /// The unit's columns (metadata and raw vectors).
    fn columns(&self) -> &ColumnSet;

    /// The build options persisted with the unit.
    fn options(&self) -> &IndexOptions;

    /// Structural statistics for the introspection plane.
    fn inspect(&self) -> PartitionInspection;
}

impl std::fmt::Debug for dyn IndexUnit + '_ {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndexUnit")
            .field("columns", &self.columns().n_columns())
            .finish_non_exhaustive()
    }
}

/// Load the index persisted at `path` under the metric `metric_name`
/// spells (the persisted-metric check of [`load_index`] applies).
pub fn load_unit(path: &Path, metric_name: &str) -> Result<Box<dyn IndexUnit>> {
    with_metric!(metric_name, |m| load_index(path, m)
        .map(|index| Box::new(index) as Box<dyn IndexUnit>))
}

/// Build an in-memory index over `columns` under the metric
/// `metric_name` spells.
pub fn build_unit(
    columns: ColumnSet,
    metric_name: &str,
    options: IndexOptions,
) -> Result<Box<dyn IndexUnit>> {
    with_metric!(metric_name, |m| PexesoIndex::build(columns, m, options)
        .map(|index| Box::new(index) as Box<dyn IndexUnit>))
}

/// One column's answer from one partition (or any other single-index
/// unit): global hits, that unit's stats, any budget limit the sweep
/// tripped for it, and the count the unit's top-k scan was seeded with
/// (`None` for an unseeded scan and for a threshold query) — the one thing
/// an explain report says that the stats do not.
pub type PartitionAnswer = (Vec<GlobalHit>, SearchStats, Option<Exceeded>, Option<u32>);

/// The shared partition loop behind the out-of-core and resident
/// backends, over `weights.len()` partitions: fan `run(i, …)` over them
/// under `query.policy` when there are at least two — each partition's
/// search then runs sequentially — or hand the policy to the one
/// partition's search ([`crate::config::ExecPolicy::split`]), merge
/// per-partition results in partition order, and apply the unified final
/// ranking.
///
/// `weights[i]` estimates partition `i`'s cost — its vectors when it is
/// resident, its file's bytes when `run` loads it from disk. The fan-out
/// starts the heaviest partition first and spawns no thread the total
/// weight cannot pay for ([`exec::try_map_units`]); weights never reach
/// the answer.
///
/// A budgeted query runs the partition loop sequentially instead: the
/// guard carries the spent budget from one partition into the next, and
/// the loop stops at the first partition that trips a limit, so the
/// distance-cap cutoff is deterministic. `Topk(0)` answers empty without
/// touching any partition — the unified `k = 0` contract.
///
/// Public as a backend building block: a unit need not be a plain
/// partition — the delta-overlay executor in `pexeso-delta` passes
/// closures that hand each base unit its tombstones as the dead mask and
/// fold an in-memory delta index in as one extra unit, inheriting the
/// fan-out, budget, and ranking semantics unchanged.
pub fn execute_partitioned<F>(weights: &[u64], query: &Query, run: F) -> Result<QueryResponse>
where
    F: Fn(usize, &Query, &mut Option<BudgetGuard>) -> Result<PartitionAnswer> + Sync,
{
    let started = Instant::now();
    if let QueryMode::Topk(0) = query.mode {
        return Ok(empty_topk_response(query));
    }
    let n_partitions = weights.len();
    let (fan_out, inside) = query.policy.split(n_partitions);
    let inner = query.clone().with_policy(inside);
    let mut guard = BudgetGuard::start(&query.budget);
    let per_partition = if guard.is_some() {
        let mut out = Vec::new();
        for i in 0..n_partitions {
            let part = run(i, &inner, &mut guard)?;
            let tripped = part.2.is_some();
            out.push(part);
            if tripped {
                break;
            }
        }
        out
    } else {
        // `try_map_units` reports the failure the sequential `?` loop
        // would have, and converts a panic in any claiming thread into a
        // recoverable error instead of crashing a long-running server.
        exec::try_map_units(
            fan_out,
            weights,
            || PexesoError::InvalidParameter("partition query worker panicked".into()),
            |i| run(i, &inner, &mut None),
        )?
    };
    Ok(merge_answers(query, started, per_partition, true))
}

/// The one response tail of every backend in this crate: fold the
/// per-unit answers (in unit order) into one [`QueryResponse`] — merged
/// stats, the sticky first-tripped outcome, the unified final ranking,
/// and, when asked for, the phase trace and the explain report.
///
/// `partitioned` says the answers are the partitions of a multi-unit
/// backend: a [`crate::trace::TraceLevel::Detail`] trace then carries one
/// `partition/{i}` child per answer. A single [`PexesoIndex`] passes its
/// one answer with `false`.
pub(crate) fn merge_answers(
    query: &Query,
    started: Instant,
    answers: impl IntoIterator<Item = PartitionAnswer>,
    partitioned: bool,
) -> QueryResponse {
    // The one branch the untraced path pays; everything trace-related
    // below is behind it.
    let merge_start = query.trace.enabled().then(Instant::now);
    let mut unit_spans = Vec::new();
    let mut stats = SearchStats::new();
    let mut hits = Vec::new();
    let mut outcome = QueryOutcome::Exact;
    let mut seeds = Vec::new();
    for (i, (h, s, e, seed)) in answers.into_iter().enumerate() {
        if partitioned && query.trace == crate::trace::TraceLevel::Detail {
            unit_spans.push(crate::trace::unit_span(format!("partition/{i}"), &s));
        }
        stats.merge(&s);
        hits.extend(h);
        fold_outcome(&mut outcome, e);
        seeds.push(seed);
    }
    let hits = match query.mode {
        QueryMode::Threshold(_) => {
            sort_threshold_hits(&mut hits);
            hits
        }
        QueryMode::Topk(k) => rank_topk_hits(hits, k),
    };
    stats.total_time = started.elapsed();
    let trace = merge_start.map(|m| {
        let mut root = crate::trace::phase_tree(&stats, stats.total_time, m.elapsed());
        // Lay the per-partition spans back-to-back like the phases; under
        // a parallel policy they overlap in wall-clock, so the offsets
        // are a reading order, not a schedule.
        let mut off = 0;
        for mut s in unit_spans {
            s.start_us = off;
            off += s.duration_us;
            root.children.push(s);
        }
        crate::trace::QueryTrace::new(root)
    });
    let explain = query.explain.then(|| {
        crate::explain::ExplainReport::from_stats(query, &stats, hits.len() as u64, outcome, &seeds)
    });
    QueryResponse {
        hits,
        stats,
        outcome,
        trace,
        explain,
    }
}

/// A [`QueryResponse`] for the `Topk(0)` fast path: no hits, zeroed
/// stats, and (when asked) an all-zero explain funnel. Public so a
/// backend that fans out by other means (the shard router) answers
/// `k = 0` with the very same reply.
pub fn empty_topk_response(query: &Query) -> QueryResponse {
    let stats = SearchStats::new();
    let explain = query.explain.then(|| {
        crate::explain::ExplainReport::from_stats(query, &stats, 0, QueryOutcome::Exact, &[])
    });
    QueryResponse {
        hits: Vec::new(),
        stats,
        outcome: QueryOutcome::Exact,
        trace: None,
        explain,
    }
}

/// A partitioned deployment loaded fully into memory — the form a
/// resident server keeps hot. Search semantics (per-partition algorithms,
/// tie-inclusive top-k, merge order, policy determinism) are
/// identical to [`PartitionedLake`]; only the per-query `load_index`
/// disappears, so queries never touch the filesystem and a concurrent
/// re-index of the backing directory cannot affect answers already being
/// computed.
#[derive(Debug)]
pub struct ResidentPartitions<M: Metric> {
    indexes: Vec<PexesoIndex<M>>,
}

impl<M: Metric> ResidentPartitions<M> {
    /// Load every partition of `lake` into memory.
    pub fn load(lake: &PartitionedLake, metric: M) -> Result<Self> {
        let indexes = lake
            .partition_files()
            .iter()
            .map(|path| load_index(path, metric.clone()))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self { indexes })
    }

    pub fn num_partitions(&self) -> usize {
        self.indexes.len()
    }

    /// Borrow one resident partition index.
    pub fn partition(&self, i: usize) -> &PexesoIndex<M> {
        &self.indexes[i]
    }
}

/// Resident deployments answer the unified [`Query`] directly; the metric
/// is fixed at load time, so an explicit [`Query::metric`] expectation is
/// verified against it.
impl<M: Metric> Queryable for ResidentPartitions<M> {
    fn execute(&self, query: &Query, vectors: &VectorStore) -> Result<QueryResponse> {
        if let Some(index) = self.indexes.first() {
            query.check_metric("resident partitions", index.metric().name())?;
        }
        // The same partition loop as the disk-backed lake, minus the
        // per-query `load_index`.
        let weights: Vec<u64> = self
            .indexes
            .iter()
            .map(|index| index.columns().n_vectors() as u64)
            .collect();
        execute_partitioned(&weights, query, |i, inner, guard| {
            self.indexes[i].answer(inner, vectors, None, guard)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExecPolicy, JoinThreshold, PivotSelection, Tau};
    use crate::metric::Euclidean;
    use crate::partition::PartitionMethod;
    use crate::search::naive_search;
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
                .add_column("tab", &format!("col{c}"), c as u64, refs)
                .unwrap();
        }
        let mut query = VectorStore::new(dim);
        for _ in 0..nq {
            let v = unit(&mut rng, dim);
            query.push(&v).unwrap();
        }
        (columns, query)
    }

    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pexeso_ooc_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts() -> IndexOptions {
        IndexOptions {
            num_pivots: 3,
            levels: Some(3),
            pivot_selection: PivotSelection::Pca,
            seed: 7,
            ..Default::default()
        }
    }

    #[test]
    fn partitioned_search_equals_naive() {
        let (columns, query) = instance(1, 18, 25, 8);
        let dir = tempdir("eq");
        let lake = PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig {
                k: 3,
                method: PartitionMethod::JsdKmeans,
                ..Default::default()
            },
            &opts(),
            &dir,
        )
        .unwrap();
        let tau = Tau::Ratio(0.15);
        let t = JoinThreshold::Ratio(0.4);
        let resp = lake.execute(&Query::threshold(tau, t), &query).unwrap();
        assert!(resp.exact());
        let (naive, _) = naive_search(&columns, &Euclidean, &query, tau, t, false).unwrap();
        let got: Vec<u64> = resp.hits.iter().map(|h| h.external_id).collect();
        let expected: Vec<u64> = naive.iter().map(|h| h.column.0 as u64).collect();
        assert_eq!(got, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parallel_search_matches_sequential() {
        let (columns, query) = instance(2, 16, 20, 6);
        let dir = tempdir("par");
        let lake = PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig {
                k: 4,
                ..Default::default()
            },
            &opts(),
            &dir,
        )
        .unwrap();
        let tau = Tau::Ratio(0.2);
        let t = JoinThreshold::Ratio(0.3);
        let q = Query::threshold(tau, t);
        let seq = lake.execute(&q, &query).unwrap();
        let par = lake
            .execute(
                &q.clone().with_policy(ExecPolicy::Parallel { threads: 3 }),
                &query,
            )
            .unwrap();
        assert_eq!(seq.hits, par.hits);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An empty answer from a unit that was never really searched.
    fn no_hits() -> Result<PartitionAnswer> {
        Ok((Vec::new(), SearchStats::new(), None, None))
    }

    #[test]
    fn a_panicking_unit_is_one_typed_error_on_any_claiming_thread() {
        let q = Query::threshold(Tau::Ratio(0.2), JoinThreshold::Count(1))
            .with_policy(ExecPolicy::Fixed { threads: 2 });
        // The barrier holds whoever claims first inside its unit until the
        // other thread has claimed the second, so one panic is the
        // caller's and one a helper's.
        let gate = std::sync::Barrier::new(2);
        let err = execute_partitioned(&[7, 3], &q, |_, _, _| {
            gate.wait();
            panic!("unit blew up")
        })
        .unwrap_err();
        assert!(
            matches!(&err, PexesoError::InvalidParameter(m) if m.contains("panicked")),
            "{err:?}"
        );
        // The same loop answers the next query.
        assert!(execute_partitioned(&[7, 3], &q, |_, _, _| no_hits()).is_ok());
    }

    #[test]
    fn budgeted_sweep_ignores_weights_and_threads() {
        let caller = std::thread::current().id();
        let order = std::sync::Mutex::new(Vec::new());
        let q = Query::threshold(Tau::Ratio(0.2), JoinThreshold::Count(1))
            .with_policy(ExecPolicy::Fixed { threads: 3 })
            .with_max_distance_computations(1_000);
        execute_partitioned(&[1, 1, 10], &q, |i, inner, guard| {
            assert_eq!(std::thread::current().id(), caller);
            assert_eq!(inner.policy, ExecPolicy::Sequential);
            assert!(guard.is_some(), "the guard travels from unit to unit");
            order.lock().unwrap().push(i);
            no_hits()
        })
        .unwrap();
        assert_eq!(order.into_inner().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn open_roundtrip() {
        let (columns, query) = instance(3, 10, 15, 5);
        let dir = tempdir("open");
        let built = PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig {
                k: 2,
                ..Default::default()
            },
            &opts(),
            &dir,
        )
        .unwrap();
        let opened = PartitionedLake::open(&dir).unwrap();
        assert_eq!(built.num_partitions(), opened.num_partitions());
        let tau = Tau::Ratio(0.2);
        let t = JoinThreshold::Count(2);
        let q = Query::threshold(tau, t);
        let a = built.execute(&q, &query).unwrap();
        let b = opened.execute(&q, &query).unwrap();
        assert_eq!(a.hits, b.hits);
        assert!(opened.disk_bytes().unwrap() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_empty_dir_is_error() {
        let dir = tempdir("empty");
        assert!(PartitionedLake::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrip_and_version_bump() {
        let dir = tempdir("manifest");
        // No manifest yet: next_build starts a fresh line at version 1.
        let first = LakeManifest::next_build(&dir, "hash", 64).unwrap();
        assert_eq!(first.index_version, 1);
        assert_eq!(first.metric, "euclidean");
        first.write(&dir).unwrap();
        let read = LakeManifest::read(&dir).unwrap();
        assert_eq!(read, first);
        // Re-index: same identity, bumped version.
        let second = LakeManifest::next_build(&dir, "hash", 64).unwrap();
        assert_eq!(second.index_version, 2);
        second.write(&dir).unwrap();
        assert_eq!(LakeManifest::read(&dir).unwrap().index_version, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_writes_are_atomic_against_torn_writes() {
        let dir = tempdir("manifest_atomic");
        let mut good = LakeManifest::new("hash", 64);
        good.index_version = 3;
        good.next_external_id = 17;
        good.write(&dir).unwrap();
        // A torn write crashes after putting partial bytes in the temp
        // file but before the rename. Simulate exactly that state: the
        // deployed manifest must be untouched and still read back whole.
        let tmp = dir.join("manifest.txt.tmp");
        std::fs::write(&tmp, "version=1\nembedder=ha").unwrap();
        assert_eq!(LakeManifest::read(&dir).unwrap(), good);
        // The next successful write publishes over both the manifest and
        // the stale temp fragment.
        let mut next = good.clone();
        next.index_version = 4;
        next.write(&dir).unwrap();
        assert_eq!(LakeManifest::read(&dir).unwrap(), next);
        assert!(
            !tmp.exists(),
            "a successful write must consume the temp file"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrips_next_external_id() {
        let dir = tempdir("manifest_next_id");
        let mut m = LakeManifest::new("hash", 32);
        m.next_external_id = 41;
        m.write(&dir).unwrap();
        assert_eq!(LakeManifest::read(&dir).unwrap().next_external_id, 41);
        // Legacy manifests (no key) default to 0 = "unknown".
        std::fs::write(LakeManifest::path(&dir), "version=1\ndim=32\n").unwrap();
        assert_eq!(LakeManifest::read(&dir).unwrap().next_external_id, 0);
        // A corrupt value is a typed error.
        std::fs::write(
            LakeManifest::path(&dir),
            "version=1\ndim=32\nnext_external_id=banana\n",
        )
        .unwrap();
        assert!(matches!(
            LakeManifest::read(&dir),
            Err(PexesoError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_roundtrips_the_shard_id_range() {
        let dir = tempdir("manifest_id_range");
        let unbounded = LakeManifest::new("hash", 32);
        unbounded.write(&dir).unwrap();
        let text = std::fs::read_to_string(LakeManifest::path(&dir)).unwrap();
        assert!(!text.contains("id_range"), "no range, no lines: {text}");
        assert_eq!(LakeManifest::read(&dir).unwrap().id_range, None);

        let shard = LakeManifest {
            id_range: Some(5..12),
            ..unbounded
        };
        shard.write(&dir).unwrap();
        assert_eq!(LakeManifest::read(&dir).unwrap(), shard);
        // Half a range, an empty one or a garbled bound is corruption.
        for bad in [
            "id_range_lo=5\n",
            "id_range_lo=5\nid_range_hi=5\n",
            "id_range_lo=x\nid_range_hi=9\n",
        ] {
            std::fs::write(LakeManifest::path(&dir), format!("dim=32\n{bad}")).unwrap();
            assert!(
                matches!(LakeManifest::read(&dir), Err(PexesoError::Corrupt(_))),
                "{bad:?}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_tolerates_legacy_and_unknown_keys() {
        let dir = tempdir("manifest_legacy");
        // A pre-index_version/metric manifest (what older deployments wrote).
        std::fs::write(
            LakeManifest::path(&dir),
            "version=1\nembedder=hash\ndim=32\nfuture_knob=7\n",
        )
        .unwrap();
        let m = LakeManifest::read(&dir).unwrap();
        assert_eq!(m.dim, 32);
        assert_eq!(m.index_version, 1);
        assert_eq!(m.metric, "euclidean");
        // Corrupt dim is a typed error...
        std::fs::write(LakeManifest::path(&dir), "version=1\ndim=banana\n").unwrap();
        assert!(matches!(
            LakeManifest::read(&dir),
            Err(PexesoError::Corrupt(_))
        ));
        // ...and next_build must propagate it rather than silently
        // restarting the version line at 1.
        assert!(matches!(
            LakeManifest::next_build(&dir, "hash", 32),
            Err(PexesoError::Corrupt(_))
        ));
        std::fs::write(LakeManifest::path(&dir), "version=1\nembedder=hash\n").unwrap();
        assert!(LakeManifest::read(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resident_partitions_match_disk_search() {
        let (columns, query) = instance(12, 16, 20, 6);
        let dir = tempdir("resident");
        let lake = PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig {
                k: 3,
                ..Default::default()
            },
            &opts(),
            &dir,
        )
        .unwrap();
        let resident = ResidentPartitions::load(&lake, Euclidean).unwrap();
        assert_eq!(resident.num_partitions(), lake.num_partitions());
        let tau = Tau::Ratio(0.2);
        let t = JoinThreshold::Ratio(0.3);
        for policy in [ExecPolicy::Sequential, ExecPolicy::Parallel { threads: 3 }] {
            let q = Query::threshold(tau, t).with_policy(policy);
            let disk = lake.execute(&q, &query).unwrap();
            let mem = resident.execute(&q, &query).unwrap();
            assert_eq!(disk.hits, mem.hits, "threshold, {policy:?}");
            for k in [1, 3, 20] {
                let qk = Query::topk(tau, k).with_policy(policy);
                let disk_k = lake.execute(&qk, &query).unwrap();
                let mem_k = resident.execute(&qk, &query).unwrap();
                assert_eq!(disk_k.hits, mem_k.hits, "topk k={k}, {policy:?}");
            }
        }
        // Residency: deleting the backing files must not affect answers.
        let q = Query::threshold(tau, t);
        let before = resident.execute(&q, &query).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let after = resident.execute(&q, &query).unwrap();
        assert_eq!(
            before.hits, after.hits,
            "resident search must never touch disk"
        );
    }

    #[test]
    fn partition_files_expose_search_order() {
        let (columns, _) = instance(9, 8, 10, 3);
        let dir = tempdir("handles");
        let lake = PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig {
                k: 3,
                ..Default::default()
            },
            &opts(),
            &dir,
        )
        .unwrap();
        let files = lake.partition_files();
        assert_eq!(files.len(), lake.num_partitions());
        let mut sorted = files.to_vec();
        sorted.sort();
        assert_eq!(files, sorted.as_slice(), "files must stay in search order");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The partition fan-out changes nothing on disk: every policy writes
    /// the same files with the same bytes.
    #[test]
    fn build_writes_the_same_bytes_under_every_policy() {
        let (columns, _) = instance(8, 24, 30, 1);
        let policies = [
            ExecPolicy::Sequential,
            ExecPolicy::Fixed { threads: 3 },
            ExecPolicy::auto(),
        ];
        let builds: Vec<Vec<(PathBuf, Vec<u8>)>> = policies
            .iter()
            .enumerate()
            .map(|(n, &exec)| {
                let dir = tempdir(&format!("policy{n}"));
                let options = IndexOptions { exec, ..opts() };
                let config = PartitionConfig {
                    k: 4,
                    ..Default::default()
                };
                let lake =
                    PartitionedLake::build(&columns, Euclidean, &config, &options, &dir).unwrap();
                let files = lake
                    .partition_files()
                    .iter()
                    .map(|f| (f.file_name().unwrap().into(), std::fs::read(f).unwrap()))
                    .collect();
                std::fs::remove_dir_all(&dir).ok();
                files
            })
            .collect();
        assert!(builds[0].len() > 1, "the fan-out needs partitions");
        assert_eq!(builds[0], builds[1]);
        assert_eq!(builds[0], builds[2]);
    }

    /// Identical columns leave k-means with one non-empty cluster: the
    /// empty ones are dropped and the one survivor is numbered 0.
    #[test]
    fn identical_columns_build_one_partition_file() {
        let mut rng = StdRng::seed_from_u64(9);
        let vecs: Vec<Vec<f32>> = (0..6).map(|_| unit(&mut rng, 10)).collect();
        let mut columns = ColumnSet::new(10);
        for c in 0..12u64 {
            columns
                .add_column("tab", &format!("col{c}"), c, vecs.iter().map(Vec::as_slice))
                .unwrap();
        }
        let dir = tempdir("identical");
        let lake = PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig {
                k: 4,
                ..Default::default()
            },
            &opts(),
            &dir,
        )
        .unwrap();
        let names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(names, ["part_0000.pex"]);
        assert_eq!(lake.partition_files(), [dir.join("part_0000.pex")]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebuild_replaces_stale_partitions() {
        let (columns, _) = instance(4, 8, 10, 3);
        let dir = tempdir("stale");
        let a = PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig {
                k: 4,
                ..Default::default()
            },
            &opts(),
            &dir,
        )
        .unwrap();
        let first = a.num_partitions();
        let b = PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig {
                k: 2,
                ..Default::default()
            },
            &opts(),
            &dir,
        )
        .unwrap();
        assert!(b.num_partitions() <= first);
        let opened = PartitionedLake::open(&dir).unwrap();
        assert_eq!(opened.num_partitions(), b.num_partitions());
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! The shard daemon: a [`Handler`] serving one resident
//! [`crate::snapshot::Snapshot`] behind the connection core in
//! [`crate::conn`] (listener, bounded queue, worker pool, backpressure,
//! shutdown — shared with the router daemon).
//!
//! Each query request grabs the current snapshot `Arc` once and uses
//! it end-to-end; a concurrent `RELOAD` hot-swaps the cell without
//! touching in-flight queries (they finish on the old snapshot, new
//! arrivals see the new generation). Served results are memoised in the
//! sharded result cache, keyed on the query fingerprint + snapshot
//! generation and cleared wholesale on swap.

use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pexeso_core::error::{PexesoError, Result};
use pexeso_core::fault;
use pexeso_core::inspect::IndexInspection;
use pexeso_core::log::{self as plog, LogLevel, Value};
use pexeso_core::query::{Query, QueryMode, QueryOutcome, Queryable};
use pexeso_core::trace::TraceLevel;
use pexeso_core::vector::VectorStore;

use crate::cache::ShardedCache;
use crate::client::hits_reply;
use crate::conn::{
    answer_query, error_reply, failed, lock_unpoisoned, serve, verb_of, ConnConfig, ConnHandle,
    Handler, RequestCtx,
};
use crate::metrics::{EndpointMetrics, ServerMetrics, SlowQueryLog};
use crate::protocol::{query_fingerprint, HitsExt, HitsReply, InfoReply, Reply, Request, WireHit};
use crate::snapshot::{Snapshot, SnapshotCell};

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Accepted connections waiting for a worker before BUSY kicks in
    /// (at least 1).
    pub queue_capacity: usize,
    /// Total result-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Per-connection read timeout; an idle or wedged peer releases its
    /// worker after this long.
    pub read_timeout: Option<Duration>,
    /// Soft queue watermark: when the connection queue reaches this
    /// length, every other new connection is shed with a typed
    /// [`Reply::Shed`] — degradation begins *before* the hard
    /// `queue_capacity` limit turns everyone away with BUSY, so it lies
    /// in `1..queue_capacity`. `None` disables early shedding (hard limit
    /// only).
    pub queue_soft_watermark: Option<usize>,
    /// Write timeout for the one-frame BUSY/SHED rejection on the
    /// acceptor thread. A slow-reading (or malicious) rejected peer must
    /// not stall all accepts behind its receive window.
    pub reject_write_timeout: Duration,
    /// Fraction of *untraced* search/topk requests the server traces on
    /// its own initiative to feed the slow-query log (`0.0` = never,
    /// `1.0` = every one; nothing outside `[0, 1]`). Sampling is a deterministic 1-in-N counter,
    /// not a coin flip, so a test at rate 1.0 sees every request and a
    /// production daemon at 0.01 pays the trace cost on exactly one
    /// request in a hundred. Client-requested traces are always honoured
    /// regardless of this rate.
    pub metrics_sample_rate: f64,
    /// Slowest-N capacity of the slow-query log dumped by the `SLOW`
    /// verb (0 disables the log).
    pub slow_log_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            cache_capacity: 4096,
            read_timeout: Some(Duration::from_secs(30)),
            queue_soft_watermark: None,
            reject_write_timeout: Duration::from_millis(100),
            metrics_sample_rate: 0.0,
            slow_log_capacity: 8,
        }
    }
}

/// Result-cache shards.
const CACHE_SHARDS: usize = 8;

/// The 1-in-N sampling stride a rate in `[0, 1]` maps to: `0` = never,
/// else trace every `N`-th untraced request.
fn sample_stride(rate: f64) -> u64 {
    if rate == 0.0 {
        0
    } else {
        (1.0 / rate).round() as u64
    }
}

/// What a shard daemon serves: the snapshot cell, its result cache, and
/// the shard-side observability planes.
pub struct ShardHandler {
    snapshot: SnapshotCell,
    cache: ShardedCache<Arc<Vec<WireHit>>>,
    metrics: ServerMetrics,
    config: ServeConfig,
    /// Slowest sampled/traced requests with their phase trees.
    slow_log: SlowQueryLog,
    /// Untraced-request counter driving the deterministic 1-in-N trace
    /// sampler (`sample_stride` of the configured rate; 0 = off).
    sample_seq: AtomicU64,
    sample_every: u64,
    /// The index-shape walk behind METRICS' `pexeso_index_*` families is
    /// a full pass over every resident partition; memoise it per
    /// generation so repeated scrapes pay it once per publish.
    inspection: Mutex<Option<(u64, Arc<IndexInspection>)>>,
}

/// The daemon entry point.
pub struct Server;

impl Server {
    /// Open `index_dir` as the first snapshot, bind `addr` (use port 0 for
    /// an ephemeral test port), and spawn the acceptor + worker threads.
    /// A sample rate outside `[0, 1]` (NaN included) and a queue that
    /// would turn every connection away are refused first, before the
    /// deployment is loaded, as [`PexesoError::InvalidParameter`].
    pub fn start(
        index_dir: &Path,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> Result<ServerHandle> {
        let rate = config.metrics_sample_rate;
        if !(0.0..=1.0).contains(&rate) {
            return Err(PexesoError::InvalidParameter(format!(
                "metrics sample rate {rate} is out of range: it must be in [0, 1]"
            )));
        }
        let conn = ConnConfig {
            component: "serve",
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            queue_soft_watermark: config.queue_soft_watermark,
            read_timeout: config.read_timeout,
            reject_write_timeout: config.reject_write_timeout,
        };
        conn.validate()?;
        let snapshot = SnapshotCell::open(index_dir)?;
        let handler = ShardHandler {
            cache: ShardedCache::new(config.cache_capacity, CACHE_SHARDS),
            metrics: ServerMetrics::default(),
            slow_log: SlowQueryLog::new(config.slow_log_capacity),
            sample_seq: AtomicU64::new(0),
            sample_every: sample_stride(config.metrics_sample_rate),
            inspection: Mutex::new(None),
            snapshot,
            config,
        };
        Ok(serve(addr, conn, handler)?)
    }
}

/// A running daemon: `addr()`, `shutdown()` (initiate and join; in-flight
/// connections finish their current request, queued ones are still
/// served) and `join()` (block until a protocol `SHUTDOWN`).
pub type ServerHandle = ConnHandle<ShardHandler>;

impl Handler for ShardHandler {
    fn endpoint(&self, req: &Request) -> Option<&EndpointMetrics> {
        let m = &self.metrics;
        Some(match req {
            Request::Query { query, .. } => match query.mode {
                QueryMode::Threshold(_) => &m.search,
                QueryMode::Topk(_) => &m.topk,
            },
            Request::Info => &m.info,
            Request::Metrics | Request::Health | Request::SlowLog => &m.admin,
            Request::Reload { .. } => &m.reload,
            Request::ApplyDelta { .. } => &m.apply,
            Request::Drain { .. } | Request::Shutdown => return None,
        })
    }

    fn handle(&self, req: Request, ctx: &RequestCtx<'_>) -> Reply {
        match req {
            Request::Info => {
                let snap = self.snapshot.current();
                let manifest = snap.lake().manifest();
                match snap.lake().base().disk_bytes() {
                    Ok(disk_bytes) => Reply::Info(InfoReply {
                        dim: manifest.dim as u32,
                        generation: snap.generation(),
                        index_version: manifest.index_version,
                        partitions: snap.num_partitions() as u32,
                        disk_bytes,
                    }),
                    Err(e) => error_reply(ctx, e.to_string()),
                }
            }
            Request::Metrics => {
                let snap = self.snapshot.current();
                let mut text = self.metrics.render_prometheus(
                    ctx.uptime(),
                    ctx.counters(),
                    &self.cache.stats(),
                    &snap,
                );
                // The index shape rides the same scrape: per-partition
                // gauges + cell-shape histograms, walked once per generation.
                text.push_str(&crate::metrics::render_inspection_prometheus(
                    &self.inspection_of(&snap),
                ));
                Reply::Text { text }
            }
            Request::Health => Reply::Text {
                text: self.render_health(ctx),
            },
            // A shard daemon owns no replica set; draining happens at the
            // router tier (which rewrites its routing table) or by simply
            // shutting the daemon down.
            Request::Drain { .. } => Reply::Err {
                message: "DRAIN is a router verb; a shard daemon has no replica set".into(),
            },
            Request::SlowLog => Reply::Text {
                text: self.slow_log.render(),
            },
            Request::Reload { dir } => {
                let target: Option<PathBuf> = dir.map(PathBuf::from);
                match self.snapshot.swap(target.as_deref()) {
                    Ok(fresh) => {
                        // Every cached entry keyed the old generation; release
                        // the memory in one sweep.
                        self.cache.clear();
                        self.metrics.swaps.fetch_add(1, Ordering::Relaxed);
                        plog::log(
                            LogLevel::Info,
                            "serve",
                            "reloaded",
                            &[
                                ("generation", fresh.generation().into()),
                                ("partitions", (fresh.num_partitions() as u64).into()),
                            ],
                        );
                        Reply::Reloaded {
                            generation: fresh.generation(),
                            partitions: fresh.num_partitions() as u32,
                        }
                    }
                    // A failed load leaves the served snapshot untouched.
                    Err(e) => failed(ctx, "reload_failed", e),
                }
            }
            // The routed-ingest shard tail is addressing for the router tier;
            // a shard daemon owns exactly one deployment and applies it.
            Request::ApplyDelta { shard: _ } => {
                // Live ingest: republish from the delta log, sharing the
                // resident base. Cached entries keyed the old generation;
                // clear them so fresh queries see the new overlay. The fault
                // point arms a deterministic window for kill-mid-APPLY tests.
                match fault::check("serve.apply")
                    .map_err(PexesoError::Io)
                    .and_then(|()| self.snapshot.apply_delta())
                {
                    Ok(fresh) => {
                        self.cache.clear();
                        self.metrics.applies.fetch_add(1, Ordering::Relaxed);
                        let overlay = fresh.lake().overlay();
                        let delta_columns = overlay.n_delta_columns() as u64;
                        let tombstones = overlay.n_tombstones() as u64;
                        plog::log(
                            LogLevel::Info,
                            "serve",
                            "delta_applied",
                            &[
                                ("generation", fresh.generation().into()),
                                ("delta_columns", delta_columns.into()),
                                ("tombstones", tombstones.into()),
                            ],
                        );
                        Reply::Applied {
                            generation: fresh.generation(),
                            delta_columns,
                            tombstones,
                        }
                    }
                    // A failed apply leaves the served snapshot untouched.
                    Err(e) => failed(ctx, "apply_failed", e),
                }
            }
            Request::Shutdown => Reply::ShuttingDown,
            Request::Query { query, vectors } => {
                // Pin the snapshot for the whole query: a concurrent hot
                // swap must never split it across two index states.
                let snap = self.snapshot.current();
                answer_query(query, &vectors, ctx, |query, vectors| {
                    self.run_query_on(&snap, query, vectors)
                })
            }
        }
    }
}

impl ShardHandler {
    /// The memoised structural statistics of the snapshot's generation,
    /// computing (and caching) them on first use after a publish.
    fn inspection_of(&self, snap: &Arc<Snapshot>) -> Arc<IndexInspection> {
        let mut slot = lock_unpoisoned(&self.inspection);
        if let Some((generation, insp)) = slot.as_ref() {
            if *generation == snap.generation() {
                return insp.clone();
            }
        }
        let insp = Arc::new(snap.inspect());
        *slot = Some((snap.generation(), insp.clone()));
        insp
    }

    /// The `HEALTH` verb body: one `status=` line an orchestrator can gate
    /// on, plus the facts behind the verdict. `draining` while a shutdown is
    /// in flight, `degraded` when the accept queue has crossed the soft
    /// shed watermark (new arrivals are already being turned away), `ready`
    /// otherwise.
    fn render_health(&self, ctx: &RequestCtx<'_>) -> String {
        let snap = self.snapshot.current();
        let queue_depth = ctx.queue_depth();
        let status = if ctx.shutting_down() {
            "draining"
        } else if self
            .config
            .queue_soft_watermark
            .is_some_and(|soft| queue_depth >= soft)
        {
            "degraded"
        } else {
            "ready"
        };
        format!(
            "status={status}\ngeneration={}\npartitions={}\nqueue_depth={queue_depth}\n\
             queue_capacity={}\nworkers={}\n",
            snap.generation(),
            snap.num_partitions(),
            self.config.queue_capacity,
            self.config.workers.max(1),
        )
    }

    /// Answer one query against an already-pinned snapshot.
    fn run_query_on(
        &self,
        snap: &Arc<Snapshot>,
        query: &Query,
        vectors: &VectorStore,
    ) -> std::result::Result<HitsReply, String> {
        let dim = snap.lake().manifest().dim;
        if vectors.dim() != dim {
            return Err(format!(
                "query dimension {} does not match index dimension {}",
                vectors.dim(),
                dim
            ));
        }
        // A client-requested trace must describe *this* execution, so it
        // bypasses the result-cache read (untraced traffic is untouched, and
        // the executed result still populates the cache below); an EXPLAIN
        // request likewise — its funnel must describe a real execution, not
        // a memoised answer. Server-initiated sampling only traces requests
        // that would execute anyway — a sampled cache hit stays a cache hit.
        let requested = query.trace;
        let fingerprint = query_fingerprint(query, vectors, snap.generation());
        if !requested.enabled() && !query.explain {
            let lookup_start = Instant::now();
            let cached = self.cache.get(fingerprint);
            let hist = if cached.is_some() {
                &self.metrics.cache_hit_lookup
            } else {
                &self.metrics.cache_miss_lookup
            };
            hist.record_duration(lookup_start.elapsed());
            if let Some(hits) = cached {
                log_query_done(query, true, hits.len(), snap.generation(), 0);
                return Ok(HitsReply {
                    generation: snap.generation(),
                    cached: true,
                    hits: (*hits).clone(),
                    // Only exact results are cached, and the cache charges the
                    // requester no verification work.
                    ext: Some(HitsExt {
                        outcome: QueryOutcome::Exact,
                        distance_computations: 0,
                    }),
                    trace: None,
                    explain: None,
                });
            }
        }
        let sampled = !requested.enabled()
            && self.sample_every > 0
            && self
                .sample_seq
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.sample_every);
        // Hand the query to the snapshot's `Queryable` impl — the same
        // executor every local backend uses — traced if sampled.
        let resp = if sampled {
            snap.execute(&query.clone().with_trace(TraceLevel::Phases), vectors)
        } else {
            snap.execute(query, vectors)
        }
        .map_err(|e| e.to_string())?;
        self.metrics
            .distance_computations
            .fetch_add(resp.stats.distance_computations, Ordering::Relaxed);
        // Phase histograms cover every executed search — the breakdown does
        // not depend on the request asking for a trace.
        self.metrics.record_phases(&resp.stats);
        if requested.enabled() || sampled {
            let rendered = resp.trace.as_ref().map(|t| t.render()).unwrap_or_default();
            self.slow_log.offer_correlated(
                verb_of(query.mode),
                resp.stats.total_time,
                rendered,
                query.request_id,
                None,
            );
        }
        log_query_done(
            query,
            false,
            resp.hits.len(),
            snap.generation(),
            resp.stats.total_time.as_micros() as u64,
        );
        // A budget-limited partial answer must never masquerade as the exact
        // one for a later (possibly unbudgeted) identical request: cache
        // exact outcomes only. The fingerprint deliberately ignores the
        // options and budget — flags and quick-browse never change results,
        // and an exact answer is exact regardless of the budget that
        // allowed it — so budgeted and unbudgeted requests share a line.
        let exact = resp.outcome == QueryOutcome::Exact;
        let reply = hits_reply(query, snap.generation(), resp);
        if exact {
            self.cache.insert(fingerprint, Arc::new(reply.hits.clone()));
        }
        Ok(reply)
    }
}

/// One structured `query_done` line per answered query request, carrying
/// the request id (when the frame had one) so the shard's log joins the
/// router's on a single grep. Free when logging is off: the only cost is
/// the `enabled` atomic load.
fn log_query_done(query: &Query, cached: bool, hits: usize, generation: u64, latency_us: u64) {
    if !plog::enabled(LogLevel::Info) {
        return;
    }
    let mut fields: Vec<(&str, Value)> = Vec::with_capacity(6);
    if let Some(rid) = query.request_id {
        fields.push(("rid", Value::Rid(rid)));
    }
    fields.push(("verb", Value::Str(verb_of(query.mode))));
    fields.push(("cached", cached.into()));
    fields.push(("hits", (hits as u64).into()));
    fields.push(("generation", generation.into()));
    fields.push(("latency_us", latency_us.into()));
    plog::log(LogLevel::Info, "serve", "query_done", &fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sample rate outside `[0, 1]` is refused before the deployment is
    /// even opened (here it does not exist); 0 and 1 get as far as that.
    #[test]
    fn a_sample_rate_outside_the_unit_interval_is_refused() {
        let missing =
            std::env::temp_dir().join(format!("pexeso_no_deployment_{}", std::process::id()));
        let start = |rate: f64| {
            let config = ServeConfig {
                metrics_sample_rate: rate,
                ..ServeConfig::default()
            };
            match Server::start(&missing, "127.0.0.1:0", config) {
                Ok(_) => panic!("served a missing deployment"),
                Err(e) => e.to_string(),
            }
        };
        for rate in [f64::NAN, -1.0, 1.5, 7.0] {
            let err = start(rate);
            assert!(
                err.contains(&format!(
                    "metrics sample rate {rate} is out of range: it must be in [0, 1]"
                )),
                "{err}"
            );
        }
        for rate in [0.0, 1.0] {
            let err = start(rate);
            assert!(!err.contains("sample rate"), "{err}");
        }
    }

    #[test]
    fn sample_stride_maps_rates_to_strides() {
        assert_eq!(sample_stride(0.0), 0, "0 disables sampling");
        assert_eq!(sample_stride(1.0), 1, "1.0 samples everything");
        assert_eq!(sample_stride(0.5), 2);
        assert_eq!(sample_stride(0.01), 100);
        assert_eq!(sample_stride(0.001), 1000);
    }
}

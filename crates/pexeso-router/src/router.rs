//! [`Router`]: the scatter-gather [`Queryable`] over shard daemons.
//!
//! This is [`pexeso_core::outofcore::execute_partitioned`] lifted over
//! the wire: each shard of the map answers the query through its own
//! failover-capable [`ResilientClient`], replies are filtered to the
//! shard's assigned external-id range, and the per-shard results merge
//! with the same deterministic ranking every local backend uses
//! ([`sort_threshold_hits`] / [`rank_topk_hits`]). Because shard ranges
//! are disjoint and external ids are globally unique, the global
//! ordering restricted to one shard *is* that shard's local ordering —
//! so a shard's exact local answer is exactly its contribution to the
//! global answer, and the merge is exact without any cross-shard
//! coordination.
//!
//! ## Range filtering and the top-k over-ask loop
//!
//! The router never trusts a daemon to serve exactly its assigned
//! range: a replica may hold a superset (a full-lake node assigned a
//! sub-range during migration, or a shard directory that has ingested
//! columns beyond its cut). Every reply is filtered to `[lo, hi)`
//! before merging — for threshold queries that is the whole story, but
//! a *top-k* reply that lost entries to the filter may have been
//! truncated below `k` in-range columns. The router then re-asks that
//! shard with a larger `k`, growing by the observed number of
//! out-of-range entries. This is the stack's only over-ask: the filter
//! runs on replies that have already crossed the wire, where no scan can
//! be told which columns to skip (the delta overlay, by contrast, hands
//! its dropped columns to the scan as dead). When daemons serve exactly
//! their range (the common case) the filter removes nothing and no
//! re-ask ever happens: ask = k, one round trip per shard.
//!
//! ## EXPLAIN
//!
//! A shard's reply carries the counters of its EXPLAIN funnel, not a
//! finished report. The router adds up the counters (and concatenates
//! the top-k seeds) of every ask of every shard, then builds one
//! [`ExplainReport`] from them and the routed hits and outcome — so the
//! routed funnel counts exactly the work the routed stats count, re-asks
//! included, and its `columns` stage ends at the routed answer.
//!
//! ## Failure semantics
//!
//! A shard whose every replica is unreachable is a **typed refusal**
//! ([`PexesoError::Remote`]), never a silently partial answer: exactness
//! over availability — a missing shard's columns are unknowable, and
//! "the top-k of the shards that happened to be up" is a wrong answer
//! wearing an exact one's clothes. Budget trips, by contrast, degrade
//! typed *inside* the response ([`QueryOutcome::Exceeded`]), exactly as
//! local backends report them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use pexeso_core::error::{PexesoError, Result};
use pexeso_core::explain::{ExplainReport, FunnelCounters};
use pexeso_core::hist::{AtomicHistogram, HistSnapshot};
use pexeso_core::log::{self as plog, LogLevel, Value};
use pexeso_core::outofcore::GlobalHit;
use pexeso_core::query::{
    fold_outcome, rank_topk_hits, sort_threshold_hits, Query, QueryMode, QueryOutcome,
    QueryResponse, Queryable,
};
use pexeso_core::stats::SearchStats;
use pexeso_core::trace::{QueryTrace, TraceSpan};
use pexeso_core::vector::VectorStore;
use pexeso_serve::resilient::ReplicaStatus;
use pexeso_serve::{ClientError, ResilientClient, ResilientConfig, RetryStats, ServeClient};

use crate::shardmap::{ShardMap, ShardSpec};

/// Router tuning.
#[derive(Debug, Clone, Default)]
pub struct RouterConfig {
    /// Retry/failover/breaker tuning for every per-shard client.
    pub client: ResilientConfig,
}

/// One shard as the router drives it.
struct Shard {
    spec: ShardSpec,
    client: ResilientClient,
    /// Highest generation observed from this shard (queries and APPLYs).
    generation: AtomicU64,
}

/// Everything one shard contributed to one routed query.
struct ShardAnswer {
    hits: Vec<GlobalHit>,
    stats: SearchStats,
    outcome: QueryOutcome,
    trace: Option<QueryTrace>,
    /// EXPLAIN funnel counters summed over every ask (zero unless the
    /// query asked for a report).
    funnel: FunnelCounters,
    /// Offset of this shard's first attempt on the router clock (µs).
    start_us: u64,
    duration_us: u64,
    /// Extra round trips the over-ask loop needed (0 = single ask).
    reasks: u64,
    /// Replies dropped by the range filter across all asks.
    filtered: u64,
}

/// Aggregated deployment facts across every shard (the router's INFO).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterInfo {
    pub dim: u32,
    /// Sum of per-shard snapshot generations — bumps whenever any shard
    /// republishes, so cache-keying on it stays conservative.
    pub generation: u64,
    /// Highest `index_version` across shards (they share one source
    /// build, so this is normally uniform).
    pub index_version: u64,
    /// Total partitions across shards.
    pub partitions: u32,
    /// Total index bytes on disk across shards.
    pub disk_bytes: u64,
    pub shards: u32,
}

/// Per-shard health as the METRICS plane reports it.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    pub lo: u64,
    pub hi: u64,
    pub generation: u64,
    pub retry: RetryStats,
    pub replicas: Vec<ReplicaStatus>,
}

/// The scatter-gather backend over a shard map. See the module docs.
pub struct Router {
    shards: Vec<Shard>,
    /// End-to-end latency of every routed query (scatter + merge).
    query_latency: AtomicHistogram,
}

impl Router {
    /// Build the per-shard clients. Every shard must have at least one
    /// replica address (a plan-placeholder map is not routable); no
    /// connection is attempted yet, so daemons may come up later.
    pub fn new(map: ShardMap, config: RouterConfig) -> Result<Self> {
        let shards = map
            .shards()
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                if spec.replicas.is_empty() {
                    return Err(PexesoError::InvalidParameter(format!(
                        "shard {i} [{}, {}) has no replica addresses",
                        spec.lo, spec.hi
                    )));
                }
                Ok(Shard {
                    client: ResilientClient::new(&spec.replicas, config.client.clone())?,
                    spec: spec.clone(),
                    generation: AtomicU64::new(0),
                })
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            shards,
            query_latency: AtomicHistogram::new(),
        })
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The map this router was built from.
    pub fn map(&self) -> ShardMap {
        ShardMap::new(self.shards.iter().map(|s| s.spec.clone()).collect())
            .expect("a constructed router always holds a valid map")
    }

    /// Highest generation observed per shard, in map order (0 = never
    /// heard from).
    pub fn generations(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|s| s.generation.load(Ordering::Relaxed))
            .collect()
    }

    /// The router-level generation: the sum over shards, so any shard
    /// republishing bumps it.
    pub fn generation(&self) -> u64 {
        self.generations().iter().sum()
    }

    /// Snapshot of the end-to-end routed-query latency histogram.
    pub fn query_latency(&self) -> HistSnapshot {
        self.query_latency.snapshot()
    }

    /// Per-shard health gauges for the METRICS plane.
    pub fn shard_statuses(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .map(|s| ShardStatus {
                lo: s.spec.lo,
                hi: s.spec.hi,
                generation: s.generation.load(Ordering::Relaxed),
                retry: s.client.stats(),
                replicas: s.client.replica_status(),
            })
            .collect()
    }

    /// Administratively drain (or undrain) one replica address on
    /// whichever shards list it. Returns how many shard clients matched.
    pub fn set_drained(&self, addr: &str, drained: bool) -> usize {
        self.shards
            .iter()
            .filter(|s| s.client.set_drained(addr, drained))
            .count()
    }

    /// Aggregate INFO across shards (first healthy replica each). All
    /// shards must agree on the dimension — disagreement means the map
    /// points at deployments of different lakes, which is fatal, not a
    /// gauge.
    pub fn info(&self) -> Result<RouterInfo> {
        let mut dim: Option<u32> = None;
        let mut generation = 0u64;
        let mut index_version = 0u64;
        let mut partitions = 0u32;
        let mut disk_bytes = 0u64;
        for (i, shard) in self.shards.iter().enumerate() {
            let info = first_replica(shard, "INFO", ServeClient::info)?;
            if let Some(d) = dim {
                if d != info.dim {
                    return Err(PexesoError::InvalidParameter(format!(
                        "shard {i} serves dimension {} but shard 0 serves {d}: \
                         the map mixes deployments of different lakes",
                        info.dim
                    )));
                }
            } else {
                dim = Some(info.dim);
            }
            shard
                .generation
                .fetch_max(info.generation, Ordering::Relaxed);
            generation += info.generation;
            index_version = index_version.max(info.index_version);
            partitions += info.partitions;
            disk_bytes += info.disk_bytes;
        }
        Ok(RouterInfo {
            dim: dim.unwrap_or(0),
            generation,
            index_version,
            partitions,
            disk_bytes,
            shards: self.shards.len() as u32,
        })
    }

    /// Routed live ingest: tell every replica of shard `shard` to replay
    /// its delta log and publish a new generation. Only the owning
    /// shard's generation moves; every other shard is untouched. Returns
    /// (new router-level generation, delta columns, tombstones) from the
    /// freshest replica.
    ///
    /// Replicas apply independently (each owns its copy of the delta
    /// log), so a replica failing mid-fan-out leaves the others already
    /// applied — the error names the lagging replica and a retry
    /// converges (APPLY is idempotent over the same log).
    pub fn apply_delta(&self, shard: usize) -> Result<(u64, u64, u64)> {
        let s = self.shards.get(shard).ok_or_else(|| {
            PexesoError::InvalidParameter(format!(
                "no shard {shard} in a {}-shard map",
                self.shards.len()
            ))
        })?;
        let mut best: Option<(u64, u64, u64)> = None;
        for (i, addr) in s.spec.replicas.iter().enumerate() {
            let (generation, delta_columns, tombstones) =
                ask_replica(&s.client, i, ServeClient::apply_delta).map_err(|e| {
                    PexesoError::Remote(format!("shard {shard} replica {addr}: {e}"))
                })?;
            if best.is_none_or(|(g, _, _)| generation > g) {
                best = Some((generation, delta_columns, tombstones));
            }
        }
        let (generation, delta_columns, tombstones) =
            best.expect("a routable shard always has at least one replica");
        s.generation.fetch_max(generation, Ordering::Relaxed);
        Ok((self.generation(), delta_columns, tombstones))
    }

    /// One shard's (filtered) answer, including the top-k over-ask loop.
    /// `started` is the router clock the trace offsets are measured on.
    fn query_shard(
        &self,
        idx: usize,
        query: &Query,
        vectors: &VectorStore,
        started: Instant,
    ) -> Result<ShardAnswer> {
        let shard = &self.shards[idx];
        let start_us = started.elapsed().as_micros() as u64;
        let mut stats = SearchStats::new();
        let mut funnel = FunnelCounters::default();
        let mut outcome = QueryOutcome::Exact;
        let mut reasks = 0u64;
        let mut filtered = 0u64;
        let k = match query.mode {
            QueryMode::Topk(k) => k,
            QueryMode::Threshold(_) => 0,
        };
        let mut ask = k;
        let (hits, trace) = loop {
            let mut attempt = query.clone();
            if let QueryMode::Topk(_) = query.mode {
                attempt.mode = QueryMode::Topk(ask);
            }
            let mut resp = shard
                .client
                .execute(&attempt, vectors)
                .map_err(|e| shard_error(idx, &shard.spec, &e))?;
            let raw_len = resp.hits.len();
            let hits: Vec<GlobalHit> = resp
                .hits
                .into_iter()
                .filter(|h| shard.spec.owns(h.external_id))
                .collect();
            let removed = raw_len - hits.len();
            filtered += removed as u64;
            stats.merge(&resp.stats);
            if let Some(report) = resp.explain.take() {
                funnel.merge(report.counters);
            }
            fold_outcome(
                &mut outcome,
                match resp.outcome {
                    QueryOutcome::Exact => None,
                    QueryOutcome::Exceeded(e) => Some(e),
                },
            );
            // Threshold replies are complete by construction; a top-k
            // reply is done unless it was *truncated at the ask* and the
            // filter ate more than the over-ask slack — then in-range
            // columns may have been crowded out, and only a bigger ask
            // can prove they weren't. Budget-tripped replies stop here
            // either way: the partial outcome is already typed.
            let truncated = raw_len == ask;
            let done = matches!(query.mode, QueryMode::Threshold(_))
                || !truncated
                || removed <= ask - k
                || outcome != QueryOutcome::Exact;
            if done {
                break (hits, resp.trace.take());
            }
            ask = k + removed;
            reasks += 1;
        };
        shard
            .generation
            .fetch_max(shard.client.last_generation(), Ordering::Relaxed);
        Ok(ShardAnswer {
            hits,
            stats,
            outcome,
            trace,
            funnel,
            start_us,
            duration_us: started.elapsed().as_micros() as u64 - start_us,
            reasks,
            filtered,
        })
    }

    /// Parallel scatter over all shards; any shard error aborts the
    /// query with a typed refusal.
    fn execute_scatter(
        &self,
        query: &Query,
        vectors: &VectorStore,
        started: Instant,
    ) -> Result<Vec<ShardAnswer>> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.shards.len())
                .map(|i| scope.spawn(move || self.query_shard(i, query, vectors, started)))
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(PexesoError::InvalidParameter(
                            "shard query worker panicked".into(),
                        ))
                    })
                })
                .collect()
        })
    }

    /// Sequential sweep for distance-computation budgets: the cap is a
    /// *global* allowance, so shards are visited in map order, each
    /// shipped only what the previous shards left over — mirroring
    /// `execute_partitioned`'s budgeted partition sweep. The sweep stops
    /// at the first typed trip (a shard given a spent budget trips
    /// immediately server-side, keeping the outcome honest).
    fn execute_budgeted(
        &self,
        query: &Query,
        vectors: &VectorStore,
        cap: u64,
        started: Instant,
    ) -> Result<Vec<ShardAnswer>> {
        let mut remaining = cap;
        let mut answers = Vec::with_capacity(self.shards.len());
        for i in 0..self.shards.len() {
            let mut attempt = query.clone();
            attempt.budget.max_distance_computations = Some(remaining);
            let answer = self.query_shard(i, &attempt, vectors, started)?;
            remaining = remaining.saturating_sub(answer.stats.distance_computations);
            let tripped = answer.outcome != QueryOutcome::Exact;
            answers.push(answer);
            if tripped {
                break;
            }
        }
        Ok(answers)
    }

    /// Merge per-shard answers exactly like `execute_partitioned` merges
    /// partitions: stats fold in shard order, outcomes fold typed, and
    /// the final ranking is the unified one. Returns the merged response
    /// plus the index of the slowest scatter leg, so the daemon's SLOW
    /// log can name the shard that set the latency floor.
    fn merge(
        &self,
        query: &Query,
        answers: Vec<ShardAnswer>,
        started: Instant,
    ) -> (QueryResponse, Option<u32>) {
        let merge_start = query.trace.enabled().then(Instant::now);
        let mut stats = SearchStats::new();
        let mut hits = Vec::new();
        let mut outcome = QueryOutcome::Exact;
        let mut shard_spans = Vec::new();
        let mut funnel = FunnelCounters::default();
        let mut slowest: Option<(u32, u64)> = None;
        for (i, answer) in answers.into_iter().enumerate() {
            if slowest.is_none_or(|(_, d)| answer.duration_us > d) {
                slowest = Some((i as u32, answer.duration_us));
            }
            funnel.merge(answer.funnel);
            if query.trace.enabled() {
                let mut span =
                    TraceSpan::new(format!("shard/{i}"), answer.start_us, answer.duration_us)
                        .counter("hits", answer.hits.len() as u64)
                        .counter("filtered", answer.filtered)
                        .counter("reasks", answer.reasks);
                if let Some(t) = answer.trace {
                    // The shard's client trace (attempts, backoff, and
                    // the server's own phase tree) nests under its
                    // shard span, shifted onto the router clock.
                    span.children.push(t.nested_under(answer.start_us));
                }
                shard_spans.push(span);
            }
            stats.merge(&answer.stats);
            hits.extend(answer.hits);
            fold_outcome(
                &mut outcome,
                match answer.outcome {
                    QueryOutcome::Exact => None,
                    QueryOutcome::Exceeded(e) => Some(e),
                },
            );
        }
        let hits = match query.mode {
            QueryMode::Threshold(_) => {
                sort_threshold_hits(&mut hits);
                hits
            }
            QueryMode::Topk(k) => rank_topk_hits(hits, k),
        };
        // One report, built on the routed answer: the shards' counters
        // summed, the merged hit count and outcome.
        let explain = query
            .explain
            .then(|| ExplainReport::new(query, funnel, hits.len() as u64, outcome));
        stats.total_time = started.elapsed();
        let trace = merge_start.map(|m| {
            let mut root = TraceSpan::new("router", 0, stats.total_time.as_micros() as u64)
                .counter("shards", self.shards.len() as u64)
                .counter("merge_us", m.elapsed().as_micros() as u64);
            root.children = shard_spans;
            QueryTrace::new(root)
        });
        let resp = QueryResponse {
            hits,
            stats,
            outcome,
            trace,
            explain,
        };
        (resp, slowest.map(|(i, _)| i))
    }

    /// Execute a query and also return its routing metadata — the
    /// request id the query actually ran under and the slowest scatter
    /// leg. The router daemon uses this for SLOW-log shard attribution
    /// and request-correlated structured logs; library callers that only
    /// want the answer use [`Queryable::execute`].
    pub fn execute_routed(
        &self,
        query: &Query,
        vectors: &VectorStore,
    ) -> Result<(QueryResponse, RoutedMeta)> {
        let started = Instant::now();
        // Topk(0) answers empty without touching a shard, exactly like
        // every local backend (including the zero-funnel explain).
        if let QueryMode::Topk(0) = query.mode {
            let resp = pexeso_core::outofcore::empty_topk_response(query);
            let meta = RoutedMeta {
                request_id: query.request_id,
                slowest_shard: None,
            };
            return Ok((resp, meta));
        }
        // The router is the outermost hop: when observability is on
        // (trace, explain, or info-level logging) and the caller didn't
        // supply a correlation id, mint one here so the router log, every
        // shard log, and the SLOW entry all share the same handle.
        let minted;
        let query = if query.request_id.is_none()
            && (query.trace.enabled() || query.explain || plog::enabled(LogLevel::Info))
        {
            minted = query.clone().with_request_id(plog::mint_request_id());
            &minted
        } else {
            query
        };
        let answers = match query.budget.max_distance_computations {
            Some(cap) => self.execute_budgeted(query, vectors, cap, started)?,
            None => self.execute_scatter(query, vectors, started)?,
        };
        let (resp, slowest_shard) = self.merge(query, answers, started);
        self.query_latency.record_duration(started.elapsed());
        if plog::enabled(LogLevel::Info) {
            let mut fields: Vec<(&str, Value)> = Vec::with_capacity(5);
            if let Some(rid) = query.request_id {
                fields.push(("rid", Value::Rid(rid)));
            }
            fields.push(("shards", Value::U64(self.shards.len() as u64)));
            fields.push(("hits", Value::U64(resp.hits.len() as u64)));
            fields.push((
                "latency_us",
                Value::U64(resp.stats.total_time.as_micros() as u64),
            ));
            fields.push(("exact", Value::Bool(resp.exact())));
            plog::log(LogLevel::Info, "router", "query_routed", &fields);
        }
        let meta = RoutedMeta {
            request_id: query.request_id,
            slowest_shard,
        };
        Ok((resp, meta))
    }

    /// Roll per-shard replica state into one fleet health answer. A
    /// shard with every replica available (neither drained nor
    /// circuit-open) is `ready`; with some but not all available it is
    /// `degraded`; with none it is `down`. The fleet reports the worst
    /// shard's state, and `draining` overrides everything when the
    /// daemon is shutting down.
    pub fn health_text(&self, draining: bool) -> String {
        use std::fmt::Write as _;
        fn rank(status: &str) -> u8 {
            match status {
                "ready" => 0,
                "degraded" => 1,
                _ => 2,
            }
        }
        let statuses = self.shard_statuses();
        let mut fleet = "ready";
        let mut body = String::new();
        for (i, s) in statuses.iter().enumerate() {
            let total = s.replicas.len();
            let available = s
                .replicas
                .iter()
                .filter(|r| !r.drained && !r.circuit_open)
                .count();
            let status = if available == 0 {
                "down"
            } else if available < total {
                "degraded"
            } else {
                "ready"
            };
            if rank(status) > rank(fleet) {
                fleet = status;
            }
            let _ = writeln!(body, "shard{i}.status={status}");
            let _ = writeln!(body, "shard{i}.replicas={total}");
            let _ = writeln!(body, "shard{i}.available={available}");
        }
        if draining {
            fleet = "draining";
        }
        format!("status={fleet}\nshards={}\n{body}", statuses.len())
    }
}

/// Metadata about one routed execution, surfaced alongside the response
/// by [`Router::execute_routed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoutedMeta {
    /// The correlation id the query actually ran under: the caller's, or
    /// one minted by the router when observability wanted a handle.
    pub request_id: Option<u64>,
    /// Index of the scatter leg that took longest, when any leg ran.
    pub slowest_shard: Option<u32>,
}

/// One admin verb on replica `idx` of a shard, over the stream pool the
/// shard's query client already holds — the shard's workers are parked
/// on those streams, so a freshly dialed connection would wait in its
/// accept queue until one of them timed out. A pooled stream the shard
/// closed while idle costs its call a hang-up (`Disconnected`, or the
/// broken pipe of the write) and is dropped by it; ask again, at most
/// once per stream that was pooled. Every admin verb is idempotent.
fn ask_replica<T>(
    client: &ResilientClient,
    idx: usize,
    ask: impl Fn(&ServeClient) -> std::result::Result<T, ClientError>,
) -> std::result::Result<T, ClientError> {
    let replica = client.replica_client(idx)?;
    let mut stale = replica.idle_connections();
    loop {
        match ask(&replica) {
            Err(ClientError::Disconnected | ClientError::Io(_)) if stale > 0 => stale -= 1,
            answer => return answer,
        }
    }
}

/// One admin verb (`INFO`) answered by the first reachable replica of
/// a shard.
fn first_replica<T>(
    shard: &Shard,
    verb: &str,
    ask: impl Fn(&ServeClient) -> std::result::Result<T, ClientError>,
) -> Result<T> {
    let spec = &shard.spec;
    let mut last_err = None;
    for (i, addr) in spec.replicas.iter().enumerate() {
        match ask_replica(&shard.client, i, &ask) {
            Ok(answer) => return Ok(answer),
            Err(e) => last_err = Some(format!("{addr}: {e}")),
        }
    }
    Err(PexesoError::Remote(format!(
        "no replica of shard [{}, {}) answered {verb}: {}",
        spec.lo,
        spec.hi,
        last_err.unwrap_or_else(|| "no replicas".into())
    )))
}

/// A shard that could not answer is a typed refusal naming the shard —
/// never a silent partial result.
fn shard_error(idx: usize, spec: &ShardSpec, e: &PexesoError) -> PexesoError {
    PexesoError::Remote(format!(
        "shard {idx} [{}, {}) via {:?} failed: {e}",
        spec.lo, spec.hi, spec.replicas
    ))
}

impl Queryable for Router {
    fn execute(&self, query: &Query, vectors: &VectorStore) -> Result<QueryResponse> {
        self.execute_routed(query, vectors).map(|(resp, _)| resp)
    }
}

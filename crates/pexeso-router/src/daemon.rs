//! The router daemon: the [`Router`] behind the same wire protocol the
//! shard daemons speak.
//!
//! A client cannot tell a router from a single `pexeso serve` daemon —
//! same frames, same verbs, same reply shapes — which is the point: the
//! existing [`pexeso_serve::ServeClient`] / `pexeso query` tooling works
//! against either, and promoting a deployment from one node to N shards
//! changes an address, not a client. Connections, the worker pool,
//! `BUSY` backpressure and shutdown are [`pexeso_serve::conn`] — the
//! very core the shard daemon runs on; this module is the [`Handler`]
//! that routes instead of searching.
//!
//! Differences from a shard daemon, all deliberate:
//!
//! * **No result cache.** Each shard daemon already memoises exact
//!   results keyed on its own snapshot generation; a router cache would
//!   duplicate those bytes and add a second invalidation domain that
//!   must observe N independent generation bumps. Routed cache hits
//!   still happen — inside the shards, where the generations live.
//! * **`RELOAD` re-reads the shard map**, not an index directory: the
//!   router serves topology, and a map edit (add a replica, move a
//!   boundary after a re-split) hot-swaps the routing table without
//!   dropping queries in flight (they finish on the old table).
//! * **`APPLY` must name a shard** ([`Request::ApplyDelta`] with
//!   `shard: Some(_)`): a router fans ingest to the owning shard's
//!   replicas, and "apply... something, somewhere" is an error, not a
//!   guess.
//! * **No soft shed band.** The router sheds load at its own door with
//!   `BUSY` instead of amplifying a spike N-fold onto the shards, which
//!   run their own soft-watermark shedding.

use std::fmt::Display;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::{Arc, PoisonError, RwLock};
use std::time::Duration;

use pexeso_core::error::Result;
use pexeso_core::log::{self as plog, LogLevel, Value};
use pexeso_core::query::{Query, QueryMode};
use pexeso_core::vector::VectorStore;
use pexeso_serve::client::hits_reply;
use pexeso_serve::conn::{
    answer_query, error_reply, failed, serve, verb_of, ConnConfig, ConnHandle, Handler, RequestCtx,
};
use pexeso_serve::metrics::{EndpointMetrics, PromText, SlowQueryLog};
use pexeso_serve::protocol::{HitsReply, InfoReply, Reply, Request};
use pexeso_serve::{ReplicaStatus, ResilientConfig};

use crate::router::{Router, RouterConfig};
use crate::shardmap::ShardMap;

/// Router daemon tuning. The subset of `ServeConfig` that applies to a
/// tier that holds no index: no cache knobs, no sampling (every routed
/// query already carries per-shard spans when traced).
#[derive(Debug, Clone)]
pub struct RouterServeConfig {
    /// Worker threads serving connections.
    pub workers: usize,
    /// Accepted connections waiting for a worker before BUSY kicks in
    /// (at least 1).
    pub queue_capacity: usize,
    /// Per-connection read timeout.
    pub read_timeout: Option<Duration>,
    /// Write timeout for the one-frame BUSY rejection.
    pub reject_write_timeout: Duration,
    /// Slowest-N capacity of the traced-query log behind `SLOW`.
    pub slow_log_capacity: usize,
    /// Retry/failover tuning for the per-shard clients.
    pub client: ResilientConfig,
}

impl Default for RouterServeConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            queue_capacity: 64,
            read_timeout: Some(Duration::from_secs(30)),
            reject_write_timeout: Duration::from_millis(100),
            slow_log_capacity: 8,
            client: ResilientConfig::default(),
        }
    }
}

/// Router-tier request counters (the shard daemons keep their own).
#[derive(Default)]
struct RouterMetrics {
    search: EndpointMetrics,
    topk: EndpointMetrics,
    /// INFO/METRICS/SLOW/HEALTH/DRAIN/RELOAD.
    admin: EndpointMetrics,
    apply: EndpointMetrics,
}

impl RouterMetrics {
    fn endpoints(&self) -> [(&'static str, &EndpointMetrics); 4] {
        [
            ("search", &self.search),
            ("topk", &self.topk),
            ("admin", &self.admin),
            ("apply", &self.apply),
        ]
    }
}

/// What the router daemon serves: the hot-swappable routing table and
/// the router-tier observability planes.
pub(crate) struct RouterHandler {
    /// Hot-swapped on RELOAD; queries pin an `Arc` for their lifetime.
    router: RwLock<Arc<Router>>,
    map_path: PathBuf,
    config: RouterServeConfig,
    metrics: RouterMetrics,
    slow_log: SlowQueryLog,
}

/// The router daemon entry point.
pub struct RouterServer;

impl RouterServer {
    /// Read the shard map at `map_path`, build the router, bind `addr`
    /// (port 0 for an ephemeral test port), and spawn the acceptor +
    /// worker threads. A queue that would turn every connection away is
    /// refused first, before the map is read, as
    /// [`pexeso_core::error::PexesoError::InvalidParameter`].
    pub fn start(
        map_path: &Path,
        addr: impl ToSocketAddrs,
        config: RouterServeConfig,
    ) -> Result<RouterServerHandle> {
        let conn = ConnConfig {
            component: "router",
            workers: config.workers,
            queue_capacity: config.queue_capacity,
            queue_soft_watermark: None,
            read_timeout: config.read_timeout,
            reject_write_timeout: config.reject_write_timeout,
        };
        conn.validate()?;
        let router = load_router(map_path, &config.client)?;
        let handler = RouterHandler {
            router: RwLock::new(Arc::new(router)),
            map_path: map_path.to_path_buf(),
            metrics: RouterMetrics::default(),
            slow_log: SlowQueryLog::new(config.slow_log_capacity),
            config,
        };
        Ok(RouterServerHandle(serve(addr, conn, handler)?))
    }
}

/// Read a shard map and build the routing table over it.
fn load_router(map_path: &Path, client: &ResilientConfig) -> Result<Router> {
    Router::new(
        ShardMap::read(map_path)?,
        RouterConfig {
            client: client.clone(),
        },
    )
}

/// A running router daemon.
pub struct RouterServerHandle(ConnHandle<RouterHandler>);

impl RouterServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// The currently-routing [`Router`] (tests reach through this for
    /// generations and drain control).
    pub fn router(&self) -> Arc<Router> {
        self.0.handler().current_router()
    }

    /// Initiate shutdown (idempotent) and join every thread.
    pub fn shutdown(self) {
        self.0.shutdown()
    }

    /// Block until a protocol `SHUTDOWN` stops the daemon.
    pub fn join(self) {
        self.0.join()
    }
}

impl Handler for RouterHandler {
    fn endpoint(&self, req: &Request) -> Option<&EndpointMetrics> {
        let m = &self.metrics;
        Some(match req {
            Request::Query { query, .. } => match query.mode {
                QueryMode::Threshold(_) => &m.search,
                QueryMode::Topk(_) => &m.topk,
            },
            Request::ApplyDelta { .. } => &m.apply,
            Request::Shutdown => return None,
            _ => &m.admin,
        })
    }

    fn handle(&self, req: Request, ctx: &RequestCtx<'_>) -> Reply {
        match req {
            Request::Info => match self.current_router().info() {
                Ok(info) => Reply::Info(InfoReply {
                    dim: info.dim,
                    generation: info.generation,
                    index_version: info.index_version,
                    partitions: info.partitions,
                    disk_bytes: info.disk_bytes,
                }),
                Err(e) => error_reply(ctx, e.to_string()),
            },
            Request::Metrics => Reply::Text {
                text: self.render_prometheus(ctx),
            },
            Request::SlowLog => Reply::Text {
                text: self.slow_log.render(),
            },
            Request::Reload { dir } => {
                // Re-read the shard map (an explicit payload names an
                // alternative map file) and hot-swap the routing table.
                let path = dir.map_or_else(|| self.map_path.clone(), PathBuf::from);
                match load_router(&path, &self.config.client) {
                    Ok(fresh) => {
                        let shards = fresh.shard_count() as u32;
                        let generation = fresh.generation();
                        *self.router.write().unwrap_or_else(PoisonError::into_inner) =
                            Arc::new(fresh);
                        plog::log(
                            LogLevel::Info,
                            "router",
                            "map_reloaded",
                            &[
                                ("generation", Value::U64(generation)),
                                ("shards", Value::U64(shards as u64)),
                            ],
                        );
                        // `partitions` reports shard count at this tier: the
                        // router's units of spread are shards, not partition
                        // files it cannot see.
                        Reply::Reloaded {
                            generation,
                            partitions: shards,
                        }
                    }
                    // A failed reload keeps routing on the old table.
                    Err(e) => failed(ctx, "map_reload_failed", e),
                }
            }
            Request::ApplyDelta { shard: Some(s) } => {
                match self.current_router().apply_delta(s as usize) {
                    Ok((generation, delta_columns, tombstones)) => Reply::Applied {
                        generation,
                        delta_columns,
                        tombstones,
                    },
                    Err(e) => error_reply(ctx, e.to_string()),
                }
            }
            // A shard-less APPLY is addressed at "the deployment"; a
            // router has N of them and refuses to pick one silently.
            Request::ApplyDelta { shard: None } => {
                error_reply(ctx, "router APPLY requires a shard (use --shard N)".into())
            }
            Request::Health => Reply::Text {
                text: self.current_router().health_text(ctx.shutting_down()),
            },
            Request::Drain { addr, drained } => {
                let matched = self.current_router().set_drained(&addr, drained);
                if matched == 0 {
                    return error_reply(
                        ctx,
                        format!("no replica with address {addr} in the shard map"),
                    );
                }
                plog::log(
                    LogLevel::Info,
                    "router",
                    "replica_drained",
                    &[
                        ("addr", Value::Str(&addr)),
                        ("drained", Value::Bool(drained)),
                        ("replicas", Value::U64(matched as u64)),
                    ],
                );
                Reply::Text {
                    text: format!(
                        "drained={} addr={addr} replicas={matched}\n",
                        if drained { 1 } else { 0 }
                    ),
                }
            }
            Request::Shutdown => Reply::ShuttingDown,
            Request::Query { query, vectors } => {
                // One pinned routing table per query.
                let router = self.current_router();
                answer_query(query, &vectors, ctx, |query, vectors| {
                    self.run_query(&router, query, vectors)
                })
            }
        }
    }
}

impl RouterHandler {
    /// Pin the routing table for one request.
    fn current_router(&self) -> Arc<Router> {
        self.router
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Scatter one query. The router does not know the deployment
    /// dimension (the shards do), so dimension mismatches surface as typed
    /// per-shard errors rather than a local precheck.
    fn run_query(
        &self,
        router: &Router,
        query: &Query,
        vectors: &VectorStore,
    ) -> std::result::Result<HitsReply, String> {
        let (resp, meta) = router
            .execute_routed(query, vectors)
            .map_err(|e| e.to_string())?;
        if query.trace.enabled() {
            let rendered = resp.trace.as_ref().map(|t| t.render()).unwrap_or_default();
            self.slow_log.offer_correlated(
                verb_of(query.mode),
                resp.stats.total_time,
                rendered,
                meta.request_id,
                meta.slowest_shard,
            );
        }
        Ok(hits_reply(query, router.generation(), resp))
    }

    /// The `METRICS` Prometheus plane: every router-tier counter, plus
    /// per-shard and per-replica gauges. Validated against
    /// [`pexeso_serve::validate_prometheus`] by the integration tests.
    fn render_prometheus(&self, ctx: &RequestCtx<'_>) -> String {
        let router = self.current_router();
        let statuses = router.shard_statuses();
        let query_latency = router.query_latency();
        let mut out = PromText::with_capacity(4096);
        out.gauge(
            "pexeso_router_uptime_seconds",
            "Seconds since the router started.",
            ctx.uptime().as_secs_f64(),
        );
        out.gauge(
            "pexeso_router_shards",
            "Shards in the routing table.",
            router.shard_count() as f64,
        );
        out.gauge(
            "pexeso_router_generation",
            "Sum of per-shard snapshot generations.",
            router.generation() as f64,
        );
        out.family(
            "pexeso_router_shard_range",
            "External-id range [lo, hi) each shard owns (hi=\"*\": unbounded).",
            "gauge",
        );
        for (i, s) in statuses.iter().enumerate() {
            let hi: &dyn Display = if s.hi == u64::MAX { &"*" } else { &s.hi };
            out.sample(
                "pexeso_router_shard_range",
                &[("shard", &i), ("lo", &s.lo), ("hi", hi)],
                1,
            );
        }
        out.labelled(
            "pexeso_router_shard_generation",
            "Highest generation observed per shard.",
            "gauge",
            "shard",
            statuses.iter().map(|s| s.generation).enumerate(),
        );
        out.labelled(
            "pexeso_router_shard_retries_total",
            "Retries per shard client.",
            "counter",
            "shard",
            statuses.iter().map(|s| s.retry.retries).enumerate(),
        );
        out.labelled(
            "pexeso_router_shard_failovers_total",
            "Attempts moved to another replica, per shard client.",
            "counter",
            "shard",
            statuses.iter().map(|s| s.retry.failovers).enumerate(),
        );
        let per_replica =
            |out: &mut PromText, name: &str, help: &str, value: fn(&ReplicaStatus) -> u32| {
                out.family(name, help, "gauge");
                for (i, s) in statuses.iter().enumerate() {
                    for r in &s.replicas {
                        out.sample(name, &[("shard", &i), ("replica", &r.addr)], value(r));
                    }
                }
            };
        per_replica(
            &mut out,
            "pexeso_router_replica_open",
            "Replica circuit state (1 = open) per shard replica.",
            |r| r.circuit_open.into(),
        );
        per_replica(
            &mut out,
            "pexeso_router_replica_drained",
            "Replica administrative drain state per shard replica.",
            |r| r.drained.into(),
        );
        per_replica(
            &mut out,
            "pexeso_router_replica_failures",
            "Consecutive failures per shard replica.",
            |r| r.consecutive_failures,
        );
        out.labelled(
            "pexeso_router_requests_total",
            "Requests served, per endpoint.",
            "counter",
            "endpoint",
            self.metrics
                .endpoints()
                .map(|(name, ep)| (name, ep.requests.load(Ordering::Relaxed))),
        );
        out.labelled(
            "pexeso_router_errors_total",
            "Request errors, per endpoint.",
            "counter",
            "endpoint",
            self.metrics
                .endpoints()
                .map(|(name, ep)| (name, ep.errors.load(Ordering::Relaxed))),
        );
        out.counter(
            "pexeso_router_rejected_total",
            "Connections rejected with BUSY.",
            ctx.counters().busy_rejections.load(Ordering::Relaxed),
        );
        out.histogram(
            "pexeso_router_query_latency_microseconds",
            "End-to-end routed query latency (scatter + merge).",
            &query_latency,
        );
        out.quantiles(
            "pexeso_router_latency_quantile_microseconds",
            "Request latency per endpoint and routed query latency, at full bucket resolution.",
            self.metrics
                .endpoints()
                .map(|(name, ep)| (name, ep.latency_snapshot()))
                .into_iter()
                .chain([("query", query_latency)]),
        );
        out.finish()
    }
}

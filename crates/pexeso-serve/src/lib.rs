//! # pexeso-serve — a resident query-serving daemon for PEXESO
//!
//! The PEXESO indexes of a partitioned lake are expensive to build and
//! cheap to query — exactly the shape that wants a long-running process
//! instead of a pay-the-startup-cost-every-time CLI. This crate turns a
//! persisted [`pexeso_core::outofcore::PartitionedLake`] deployment into a
//! TCP daemon (`std::net` only; no external runtime):
//!
//! * [`protocol`] — a small length-prefixed binary protocol
//!   (`INFO`/`SEARCH`/`TOPK`/`METRICS`/`RELOAD`/`SHUTDOWN`, …) whose query
//!   request carries the unified [`pexeso_core::query::Query`] itself and
//!   the query vectors as raw `f32`s, explicit `BUSY` backpressure;
//! * [`snapshot`] — `Arc`-swapped immutable index snapshots with a
//!   versioned-manifest reload path: `RELOAD` re-opens the deployment
//!   directory and atomically publishes it under live traffic with zero
//!   dropped queries (in-flight requests finish on the old snapshot);
//!   snapshots also carry the deployment's replayed delta log
//!   (`pexeso-delta`), and the `APPLY` verb publishes a fresh overlay
//!   over the *shared resident base* — live ingest without reloading a
//!   single partition;
//! * [`cache`] — a sharded LRU result cache keyed on (query fingerprint,
//!   τ, T/k, metric, snapshot generation), invalidated wholesale on swap;
//! * [`conn`] — the connection/worker core: a fixed worker pool over a
//!   bounded connection queue, `BUSY`/`SHED` backpressure, panic
//!   isolation and a clean shutdown path, generic over a
//!   [`conn::Handler`] — shared with the router daemon, and with it the
//!   daemons' one view of a decoded query ([`conn::admit_query`]: the
//!   [`pexeso_core::config::ExecPolicy`] clamped, queue wait charged to
//!   the deadline);
//! * [`server`] — the shard daemon's handler over that core: pinned
//!   snapshot, result cache, admin verbs;
//! * [`metrics`] — lock-free per-endpoint counters and log-bucketed
//!   latency histograms ([`pexeso_core::hist::AtomicHistogram`]),
//!   rendered as Prometheus text format on the `METRICS` verb (validated
//!   in-repo by [`metrics::validate_prometheus`]), plus a slowest-N
//!   traced query log behind the `SLOW` verb;
//! * [`client`] — a synchronous client used by `pexeso query` and the
//!   integration tests; queries can request a server-side phase trace
//!   ([`pexeso_core::trace`]) that [`ResilientClient`] merges with its
//!   own attempt/backoff spans into one correlated timeline.
//!
//! Served results are exact: a reply is byte-identical to what a direct
//! `Queryable::execute` on the served
//! [`pexeso_core::outofcore::PartitionedLake`] returns, for every
//! execution policy (the crate-wide determinism contract is also
//! why a sequential and a parallel request may share one cache entry).

pub mod cache;
pub mod client;
pub mod conn;
pub mod metrics;
pub mod protocol;
pub mod resilient;
pub mod server;
pub mod snapshot;

pub use cache::{CacheStats, LruCache, ShardedCache};
pub use client::{wire_request, ClientError, RemoteMeta, ServeClient};
pub use metrics::{stat_value, validate_prometheus, ServerMetrics, SlowQueryLog};
pub use protocol::{HitsExt, HitsReply, InfoReply, Reply, Request, WireHit};
pub use resilient::{BackoffPolicy, ReplicaStatus, ResilientClient, ResilientConfig, RetryStats};
pub use server::{ServeConfig, Server, ServerHandle};
pub use snapshot::{Snapshot, SnapshotCell};

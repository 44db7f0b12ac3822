//! [`ResilientClient`]: a replica-aware, retrying, failover-capable
//! client over one or more `pexeso serve` daemons.
//!
//! [`crate::client::ServeClient`] is one logical connection: it reports
//! BUSY, shed, and transport failures to the caller and stops. This
//! module wraps a *set* of replica addresses into a single
//! [`pexeso_core::query::Queryable`] backend that absorbs transient
//! failure instead of surfacing it:
//!
//! * **Retries** on BUSY/shed/transport errors, with capped exponential
//!   backoff and decorrelated jitter ([`BackoffPolicy`]); delays come
//!   from a seeded RNG, so a test run's schedule is reproducible.
//! * **Deadline discipline**: a query's [`pexeso_core::query::QueryBudget`]
//!   deadline bounds the *whole* logical operation. Each attempt ships
//!   only the remaining budget in its wire extension, and no retry is
//!   ever issued once the deadline has elapsed — the schedule logic is
//!   the pure function [`plan_retry`], property-tested in isolation.
//! * **Failover**: attempts rotate across replicas, so a dead or
//!   saturated node costs one failed attempt, not the query.
//! * **Circuit breaking**: a replica failing [`ResilientConfig::failure_threshold`]
//!   times in a row is *open* (skipped) for [`ResilientConfig::open_for`],
//!   then half-open: one probe attempt decides whether it closes again.
//!   When every replica is open the breaker degrades gracefully —
//!   attempts proceed anyway (an open breaker must never turn "slow" into
//!   "down" when there is nothing left to fail over to).
//!
//! Exactness is untouched: a retry either returns the byte-identical
//! exact answer some replica computed, or a typed error/partial outcome
//! — never a silently different result (pinned by the differential test
//! in `tests/resilient.rs`).

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};

use pexeso_core::error::PexesoError;
use pexeso_core::log::{self as plog, LogLevel, Value};
use pexeso_core::query::{Query, QueryResponse, Queryable};
use pexeso_core::trace::{QueryTrace, TraceSpan};
use pexeso_core::vector::VectorStore;

use crate::client::{ClientError, ServeClient};
use crate::conn::lock_unpoisoned;

/// Capped exponential backoff with decorrelated jitter (each delay is
/// drawn uniformly from `[base, min(cap, prev · multiplier)]`, so
/// retries from many clients spread out instead of thundering back in
/// lockstep).
#[derive(Debug, Clone, Copy)]
pub struct BackoffPolicy {
    /// Lower bound of every delay (and the first draw's upper seed).
    pub base: Duration,
    /// Hard ceiling on any single delay.
    pub cap: Duration,
    /// Growth factor of the decorrelated-jitter envelope.
    pub multiplier: u32,
    /// Attempts after the first (i.e. retries) before giving up.
    pub max_retries: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        Self {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            multiplier: 3,
            max_retries: 8,
        }
    }
}

/// One step of the retry schedule, as a pure function so the contract is
/// property-testable without clocks or sockets.
///
/// Given the retry ordinal (1 = first retry), the previous delay, and
/// the remaining deadline budget (`None` = unbounded), decide whether to
/// retry and how long to sleep first. Guarantees, pinned by
/// `tests/backoff_props.rs`:
///
/// * `None` once `retry > max_retries` — bounded attempts;
/// * any returned delay is within `[base, cap]` (jitter never escapes
///   the configured envelope, and never exceeds the cap);
/// * with a remaining budget `r`, any returned delay is strictly less
///   than `r`, and `None` is returned when `r ≤ base` — a retry is never
///   issued past the deadline, and never issued when sleeping the
///   minimum would already consume the whole budget.
pub fn plan_retry<R: rand::RngCore>(
    policy: &BackoffPolicy,
    retry: u32,
    prev_delay: Duration,
    remaining: Option<Duration>,
    rng: &mut R,
) -> Option<Duration> {
    if retry > policy.max_retries {
        return None;
    }
    let base = policy.base.min(policy.cap);
    let envelope = prev_delay
        .max(base)
        .saturating_mul(policy.multiplier.max(1))
        .min(policy.cap);
    let lo = base.as_nanos() as u64;
    let hi = envelope.as_nanos() as u64;
    let delay = Duration::from_nanos(if hi > lo { rng.gen_range(lo..=hi) } else { lo });
    match remaining {
        Some(r) if delay >= r => None,
        _ => Some(delay),
    }
}

/// Tuning for [`ResilientClient`].
#[derive(Debug, Clone)]
pub struct ResilientConfig {
    pub backoff: BackoffPolicy,
    /// Consecutive failures that open a replica's circuit.
    pub failure_threshold: u32,
    /// How long an open circuit is skipped before a half-open probe.
    pub open_for: Duration,
    /// Per-reply timeout applied to every replica connection (and
    /// reconnect). `None` = wait forever (not recommended: a wedged
    /// replica then wedges the attempt).
    pub timeout: Option<Duration>,
    /// Seed for the jitter RNG — fixed so failure tests replay the same
    /// schedule.
    pub seed: u64,
}

impl Default for ResilientConfig {
    fn default() -> Self {
        Self {
            backoff: BackoffPolicy::default(),
            failure_threshold: 3,
            open_for: Duration::from_secs(1),
            timeout: Some(Duration::from_secs(10)),
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

/// A live snapshot of the client's failure-handling counters — what
/// `pexeso query` over a replica list prints so operators see
/// degradation without reading code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts beyond the first, across all operations.
    pub retries: u64,
    /// Attempts that moved to a different replica than the previous one.
    pub failovers: u64,
    /// BUSY rejections absorbed.
    pub busy: u64,
    /// Soft-watermark shed rejections absorbed.
    pub shed: u64,
    /// Connections discarded after a mid-frame failure (desync guard).
    pub desyncs: u64,
    /// Retry loops stopped by the query deadline (not by success).
    pub deadline_stops: u64,
    /// Circuit-breaker transitions to open.
    pub circuit_opens: u64,
}

#[derive(Default)]
struct Counters {
    retries: AtomicU64,
    failovers: AtomicU64,
    busy: AtomicU64,
    shed: AtomicU64,
    desyncs: AtomicU64,
    deadline_stops: AtomicU64,
    circuit_opens: AtomicU64,
}

/// Per-replica connection + circuit-breaker state. The lock around it
/// covers handing the client out and the breaker bookkeeping, never a
/// round trip: callers share the client's own stream pool. Every field is
/// valid on its own, so a panic under the lock leaves a usable state and
/// the lock is taken through [`lock_unpoisoned`].
struct ReplicaState {
    client: Option<Arc<ServeClient>>,
    consecutive_failures: u32,
    /// `Some(t)`: circuit open until `t`; after `t` the next pick is a
    /// half-open probe.
    open_until: Option<Instant>,
}

struct Replica {
    addr: String,
    state: Mutex<ReplicaState>,
    /// Administratively drained: skipped by `pick` (unless nothing else
    /// is left) without touching breaker state, so a rolling restart can
    /// steer traffic away *before* the node goes down and hand it back
    /// afterwards — no rebuilt client, no failure-counted churn.
    drained: AtomicBool,
}

/// One replica's health as seen by this client — the per-shard gauge a
/// router's METRICS plane reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStatus {
    pub addr: String,
    /// Administratively drained via [`ResilientClient::set_drained`].
    pub drained: bool,
    /// Circuit currently open (skipped until the half-open probe).
    pub circuit_open: bool,
    pub consecutive_failures: u32,
    /// A connection is currently established (healthy at last use).
    pub connected: bool,
}

/// A retrying, failover-capable [`Queryable`] over replica `pexeso
/// serve` daemons. Connections are created lazily (a replica that is
/// down at construction time is simply unhealthy, not fatal) and
/// re-created after any failure.
pub struct ResilientClient {
    replicas: Vec<Replica>,
    config: ResilientConfig,
    rng: Mutex<rand::rngs::StdRng>,
    counters: Counters,
    /// Rotates the starting replica so load spreads when healthy.
    cursor: AtomicUsize,
    /// Highest snapshot generation any replica has reported — the
    /// freshness gauge a router exposes per shard (0 until the first
    /// successful query).
    last_generation: AtomicU64,
}

impl ResilientClient {
    /// Wrap `addrs` (at least one). No connection is attempted yet.
    pub fn new(addrs: &[String], config: ResilientConfig) -> Result<Self, PexesoError> {
        if addrs.is_empty() {
            return Err(PexesoError::InvalidParameter(
                "resilient client needs at least one replica address".into(),
            ));
        }
        Ok(Self {
            replicas: addrs
                .iter()
                .map(|a| Replica {
                    addr: a.clone(),
                    state: Mutex::new(ReplicaState {
                        client: None,
                        consecutive_failures: 0,
                        open_until: None,
                    }),
                    drained: AtomicBool::new(false),
                })
                .collect(),
            rng: Mutex::new(rand::rngs::StdRng::seed_from_u64(config.seed)),
            counters: Counters::default(),
            config,
            cursor: AtomicUsize::new(0),
            last_generation: AtomicU64::new(0),
        })
    }

    /// The replica addresses, in configuration order.
    pub fn addrs(&self) -> Vec<&str> {
        self.replicas.iter().map(|r| r.addr.as_str()).collect()
    }

    /// The highest snapshot generation any replica has reported on a
    /// successful query (0 until one lands) — how a router tracks shard
    /// freshness without a dedicated probe.
    pub fn last_generation(&self) -> u64 {
        self.last_generation.load(Ordering::Relaxed)
    }

    /// Administratively drain (or undrain) the replica at `addr`:
    /// `pick` steers new attempts away from a drained replica without
    /// rebuilding the client or touching its breaker state, so a rolling
    /// restart is: drain → restart → undrain. Returns `false` when no
    /// replica has that address. When *every* eligible replica is
    /// drained the drain degrades gracefully, exactly like an all-open
    /// breaker: attempts proceed anyway rather than refusing outright.
    pub fn set_drained(&self, addr: &str, drained: bool) -> bool {
        let Some(replica) = self.replicas.iter().find(|r| r.addr == addr) else {
            return false;
        };
        replica.drained.store(drained, Ordering::Relaxed);
        true
    }

    /// Per-replica health gauges, in configuration order.
    pub fn replica_status(&self) -> Vec<ReplicaStatus> {
        let now = Instant::now();
        self.replicas
            .iter()
            .map(|r| {
                let state = lock_unpoisoned(&r.state);
                ReplicaStatus {
                    addr: r.addr.clone(),
                    drained: r.drained.load(Ordering::Relaxed),
                    circuit_open: state.open_until.is_some_and(|until| now < until),
                    consecutive_failures: state.consecutive_failures,
                    connected: state.client.is_some(),
                }
            })
            .collect()
    }

    /// Snapshot the failure-handling counters.
    pub fn stats(&self) -> RetryStats {
        let c = &self.counters;
        RetryStats {
            retries: c.retries.load(Ordering::Relaxed),
            failovers: c.failovers.load(Ordering::Relaxed),
            busy: c.busy.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            desyncs: c.desyncs.load(Ordering::Relaxed),
            deadline_stops: c.deadline_stops.load(Ordering::Relaxed),
            circuit_opens: c.circuit_opens.load(Ordering::Relaxed),
        }
    }

    /// Pick the next replica to try: rotate from `start`, skipping
    /// drained replicas and open circuits (half-open ones — whose open
    /// window elapsed — are eligible as probes). Degradation order when
    /// nothing is eligible: first fall back to undrained replicas even
    /// with open circuits (with nowhere to fail over, probing a suspect
    /// replica beats refusing to try at all), and only when *everything*
    /// is drained ignore the drain too — an administrative flag must
    /// never turn "all drained" into "down".
    fn pick(&self, start: usize, now: Instant) -> usize {
        let n = self.replicas.len();
        let mut fallback = None;
        for off in 0..n {
            let i = (start + off) % n;
            let replica = &self.replicas[i];
            if replica.drained.load(Ordering::Relaxed) {
                continue;
            }
            fallback.get_or_insert(i);
            let state = lock_unpoisoned(&replica.state);
            let open = state.open_until.is_some_and(|until| now < until);
            if !open {
                return i;
            }
        }
        fallback.unwrap_or(start % n)
    }

    /// The client of replica `idx` (configuration order, see
    /// [`Self::addrs`]), connected on first use with
    /// [`ResilientConfig::timeout`]. Queries and admin verbs alike go
    /// through it, so they reuse the streams a daemon's workers are
    /// already parked on instead of queueing a fresh connection behind
    /// them. Panics when `idx` is out of range.
    pub fn replica_client(&self, idx: usize) -> Result<Arc<ServeClient>, ClientError> {
        let replica = &self.replicas[idx];
        if let Some(client) = &lock_unpoisoned(&replica.state).client {
            return Ok(client.clone());
        }
        // Dial outside the lock (an unreachable host must not block
        // status readers); of two racing first users one client wins.
        let client = ServeClient::connect(replica.addr.as_str())?;
        client.set_timeout(self.config.timeout)?;
        let mut state = lock_unpoisoned(&replica.state);
        Ok(state.client.get_or_insert_with(|| Arc::new(client)).clone())
    }

    /// One attempt against one replica, updating its breaker state.
    fn try_replica(
        &self,
        idx: usize,
        query: &Query,
        vectors: &VectorStore,
    ) -> Result<QueryResponse, ClientError> {
        let replica = &self.replicas[idx];
        // A replica that cannot be dialled has failed this attempt like
        // one that hung up mid-reply: both reach the breaker below.
        let (client, result) = match self.replica_client(idx) {
            Ok(client) => {
                let result = client.execute_detailed(query, vectors).map(|(resp, meta)| {
                    // Track the freshest generation seen across replicas
                    // (max, not last: a lagging replica must not roll the
                    // gauge backwards).
                    self.last_generation
                        .fetch_max(meta.generation, Ordering::Relaxed);
                    resp
                });
                (Some(client), result)
            }
            Err(e) => (None, Err(e)),
        };
        let mut state = lock_unpoisoned(&replica.state);
        match &result {
            Ok(_) => {
                state.consecutive_failures = 0;
                state.open_until = None;
            }
            Err(e) => {
                // Connection-level failures make the cached client
                // suspect; drop it so the next attempt reconnects —
                // unless a concurrent attempt already replaced it.
                if matches!(
                    e,
                    ClientError::Io(_) | ClientError::Desynced(_) | ClientError::Disconnected
                ) && client
                    .as_ref()
                    .is_some_and(|mine| state.client.as_ref().is_some_and(|c| Arc::ptr_eq(c, mine)))
                {
                    state.client = None;
                }
                state.consecutive_failures += 1;
                if state.consecutive_failures >= self.config.failure_threshold {
                    // (Re-)open the circuit; a half-open probe that
                    // fails lands here again and re-opens it.
                    state.open_until = Some(Instant::now() + self.config.open_for);
                    self.counters.circuit_opens.fetch_add(1, Ordering::Relaxed);
                    plog::log(
                        LogLevel::Warn,
                        "client",
                        "circuit_opened",
                        &[
                            ("addr", Value::Str(&replica.addr)),
                            (
                                "consecutive_failures",
                                Value::U64(state.consecutive_failures as u64),
                            ),
                        ],
                    );
                }
            }
        }
        result
    }

    fn record_failure_kind(&self, e: &ClientError) {
        let c = &self.counters;
        match e {
            ClientError::Busy => c.busy.fetch_add(1, Ordering::Relaxed),
            ClientError::Shed => c.shed.fetch_add(1, Ordering::Relaxed),
            ClientError::Desynced(_) => c.desyncs.fetch_add(1, Ordering::Relaxed),
            _ => return,
        };
    }
}

/// Failures worth another attempt: backpressure, shed, transport, and
/// torn-connection errors. A typed server error or protocol violation is
/// not — the same request would fail the same way everywhere.
fn retryable(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Io(_)
            | ClientError::Busy
            | ClientError::Shed
            | ClientError::Disconnected
            | ClientError::Desynced(_)
    )
}

impl Queryable for ResilientClient {
    /// Execute with retry/failover. The query's deadline bounds the whole
    /// loop: each attempt carries only the remaining budget, and once it
    /// is spent the last failure (or the server's typed partial outcome)
    /// is what the caller gets — never a late retry.
    fn execute(
        &self,
        query: &Query,
        vectors: &VectorStore,
    ) -> pexeso_core::error::Result<QueryResponse> {
        let started = Instant::now();
        let deadline = query.budget.deadline;
        let tracing = query.trace.enabled();
        // Client-side attempt/backoff spans, accumulated only when the
        // query asked for a trace; merged with the winning attempt's
        // server-side trace into one correlated timeline.
        let mut client_spans: Vec<TraceSpan> = Vec::new();
        let mut attempt_query = query.clone();
        let mut retry = 0u32;
        let mut prev_delay = self.config.backoff.base;
        let mut idx = self.pick(self.cursor.fetch_add(1, Ordering::Relaxed), Instant::now());
        loop {
            if let Some(d) = deadline {
                // Ship only the unspent budget, so a replica that queues
                // us still answers (or typed-expires) within the total.
                attempt_query.budget.deadline = Some(d.saturating_sub(started.elapsed()));
            }
            let attempt_start = started.elapsed();
            let result = self.try_replica(idx, &attempt_query, vectors);
            let attempt_dur = started.elapsed() - attempt_start;
            let err = match result {
                Ok(mut resp) => {
                    if tracing {
                        let start_us = attempt_start.as_micros() as u64;
                        let mut span = TraceSpan::new(
                            format!("attempt/{retry}"),
                            start_us,
                            attempt_dur.as_micros() as u64,
                        )
                        .counter("replica", idx as u64);
                        // Nest the server's phase tree inside the attempt
                        // that produced it, shifted onto the client clock.
                        if let Some(server) = resp.trace.take() {
                            span.children.push(server.nested_under(start_us));
                        }
                        client_spans.push(span);
                        let mut root =
                            TraceSpan::new("client", 0, started.elapsed().as_micros() as u64)
                                .counter("retries", retry as u64);
                        root.children = client_spans;
                        resp.trace = Some(QueryTrace::new(root));
                    }
                    return Ok(resp);
                }
                Err(e) => e,
            };
            if tracing {
                client_spans.push(
                    TraceSpan::new(
                        format!("attempt/{retry}"),
                        attempt_start.as_micros() as u64,
                        attempt_dur.as_micros() as u64,
                    )
                    .counter("replica", idx as u64)
                    .counter("failed", 1),
                );
            }
            self.record_failure_kind(&err);
            if !retryable(&err) {
                return Err(err.into());
            }
            retry += 1;
            let remaining = deadline.map(|d| d.saturating_sub(started.elapsed()));
            let plan = {
                let mut rng = lock_unpoisoned(&self.rng);
                plan_retry(
                    &self.config.backoff,
                    retry,
                    prev_delay,
                    remaining,
                    &mut *rng,
                )
            };
            let Some(delay) = plan else {
                // Within the retry allowance, `None` can only mean the
                // deadline guard refused the sleep.
                if retry <= self.config.backoff.max_retries {
                    self.counters.deadline_stops.fetch_add(1, Ordering::Relaxed);
                }
                return Err(err.into());
            };
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
            if plog::enabled(LogLevel::Warn) {
                let error = err.to_string();
                let mut fields: Vec<(&str, Value)> = Vec::with_capacity(4);
                if let Some(rid) = query.request_id {
                    fields.push(("rid", Value::Rid(rid)));
                }
                fields.push(("addr", Value::Str(&self.replicas[idx].addr)));
                fields.push(("retry", Value::U64(retry as u64)));
                fields.push(("error", Value::Str(&error)));
                plog::log(LogLevel::Warn, "client", "query_retry", &fields);
            }
            if tracing {
                client_spans.push(TraceSpan::new(
                    format!("backoff/{retry}"),
                    started.elapsed().as_micros() as u64,
                    delay.as_micros() as u64,
                ));
            }
            std::thread::sleep(delay);
            prev_delay = delay;
            let next = self.pick(idx + 1, Instant::now());
            if next != idx {
                self.counters.failovers.fetch_add(1, Ordering::Relaxed);
            }
            idx = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    fn policy() -> BackoffPolicy {
        BackoffPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            multiplier: 3,
            max_retries: 5,
        }
    }

    #[test]
    fn delays_stay_inside_the_envelope() {
        let p = policy();
        let mut rng = StdRng::seed_from_u64(7);
        let mut prev = p.base;
        for retry in 1..=p.max_retries {
            let d = plan_retry(&p, retry, prev, None, &mut rng).expect("unbounded retries allowed");
            assert!(d >= p.base, "delay {d:?} under base");
            assert!(d <= p.cap, "delay {d:?} over cap");
            prev = d;
        }
        assert_eq!(
            plan_retry(&p, p.max_retries + 1, prev, None, &mut rng),
            None,
            "retries must be bounded"
        );
    }

    #[test]
    fn never_retries_past_the_deadline() {
        let p = policy();
        let mut rng = StdRng::seed_from_u64(7);
        // Remaining budget at or under the minimum sleep: no retry.
        assert_eq!(
            plan_retry(&p, 1, p.base, Some(Duration::from_millis(5)), &mut rng),
            None
        );
        assert_eq!(plan_retry(&p, 1, p.base, Some(p.base), &mut rng), None);
        // With room, the delay fits strictly inside the remainder.
        for _ in 0..200 {
            let remaining = Duration::from_millis(40);
            if let Some(d) = plan_retry(&p, 1, p.cap, Some(remaining), &mut rng) {
                assert!(d < remaining);
            }
        }
    }

    #[test]
    fn schedule_is_deterministic_for_a_seed() {
        let p = policy();
        let run = || {
            let mut rng = StdRng::seed_from_u64(42);
            let mut prev = p.base;
            let mut out = Vec::new();
            for retry in 1..=p.max_retries {
                let d = plan_retry(&p, retry, prev, None, &mut rng).unwrap();
                out.push(d);
                prev = d;
            }
            out
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn constructor_rejects_no_replicas() {
        assert!(ResilientClient::new(&[], ResilientConfig::default()).is_err());
    }

    #[test]
    fn stats_start_at_zero() {
        let c = ResilientClient::new(&["127.0.0.1:1".into()], ResilientConfig::default()).unwrap();
        assert_eq!(c.stats(), RetryStats::default());
        assert_eq!(c.addrs(), vec!["127.0.0.1:1"]);
        assert_eq!(c.last_generation(), 0);
    }

    fn three_replicas() -> ResilientClient {
        ResilientClient::new(
            &[
                "127.0.0.1:1".into(),
                "127.0.0.1:2".into(),
                "127.0.0.1:3".into(),
            ],
            ResilientConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn drained_replicas_are_skipped_without_rebuilding() {
        let c = three_replicas();
        let now = Instant::now();
        assert_eq!(c.pick(0, now), 0);
        assert!(c.set_drained("127.0.0.1:1", true));
        assert_eq!(c.pick(0, now), 1, "rotation skips the drained replica");
        assert_eq!(c.pick(1, now), 1);
        // Undrain hands traffic back; the replica set never changed.
        assert!(c.set_drained("127.0.0.1:1", false));
        assert_eq!(c.pick(0, now), 0);
        assert!(!c.set_drained("10.0.0.9:1", true), "unknown address");
    }

    #[test]
    fn all_drained_degrades_to_plain_rotation() {
        let c = three_replicas();
        for addr in ["127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"] {
            assert!(c.set_drained(addr, true));
        }
        // Draining everything must not turn the client into a refusal
        // machine: picks proceed as if nothing were drained.
        let now = Instant::now();
        assert_eq!(c.pick(1, now), 1);
        let status = c.replica_status();
        assert_eq!(status.len(), 3);
        assert!(status.iter().all(|s| s.drained && !s.circuit_open));
    }

    #[test]
    fn drain_beats_open_circuit_in_fallback_order() {
        let c = three_replicas();
        // Open replica 1's circuit and drain replica 0: the pick must
        // land on 2 (healthy), then — with 2 drained too — fall back to
        // the *undrained* open replica 1, not the drained 0.
        c.replicas[1]
            .state
            .lock()
            .unwrap()
            .open_until
            .replace(Instant::now() + Duration::from_secs(60));
        assert!(c.set_drained("127.0.0.1:1", true));
        let now = Instant::now();
        assert_eq!(c.pick(0, now), 2);
        assert!(c.set_drained("127.0.0.1:3", true));
        assert_eq!(c.pick(0, now), 1);
    }

    /// A thread that panics while holding a replica's state costs itself,
    /// not every later routed query.
    #[test]
    fn a_poisoned_replica_lock_is_recovered() {
        let c = three_replicas();
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _state = c.replicas[0].state.lock().unwrap();
                panic!("while holding a replica's state");
            })
            .join()
        });
        assert!(holder.is_err() && c.replicas[0].state.is_poisoned());
        assert_eq!(c.pick(0, Instant::now()), 0);
        assert_eq!(c.replica_status().len(), 3);
    }
}

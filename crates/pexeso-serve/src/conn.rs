//! The connection/worker core both daemons run on.
//!
//! One acceptor thread owns the listening socket and feeds accepted
//! connections into a bounded queue; a fixed pool of worker threads pops
//! connections and serves request frames until the peer closes. When the
//! queue is full the acceptor answers the connection with a single BUSY
//! frame and drops it — explicit backpressure instead of unbounded
//! queueing, so a traffic spike degrades into fast rejections rather than
//! ballooning latency for everyone. Inside an optional soft band below
//! that limit every other arrival is turned away with SHED.
//!
//! Everything here is about connections, not about what is served: the
//! shard daemon ([`crate::server`]) and the router daemon
//! (`pexeso-router`) are [`Handler`]s over this core. The handler sees
//! one decoded [`Request`] plus a [`RequestCtx`] and returns a [`Reply`];
//! a handler that panics costs its request a typed error, not the worker
//! thread. The query plumbing both handlers share — the
//! deadline-expired-in-queue refusal and the daemon's view of a decoded
//! query ([`admit_query`]) — lives in [`answer_query`].

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pexeso_core::config::ExecPolicy;
use pexeso_core::fault;
use pexeso_core::hist::AtomicHistogram;
use pexeso_core::log::{self as plog, LogLevel, Value};
use pexeso_core::query::{Query, QueryMode};
use pexeso_core::vector::VectorStore;

use crate::metrics::EndpointMetrics;
use crate::protocol::{
    decode_request, encode_reply, read_frame, write_frame, HitsReply, Reply, Request,
    MAX_FRAME_BYTES,
};

/// What the core needs to know about the daemon it carries.
#[derive(Debug, Clone)]
pub struct ConnConfig {
    /// Log component and fault-point prefix (`serve`, `router`).
    pub component: &'static str,
    /// Worker threads (at least one is spawned).
    pub workers: usize,
    /// Queued connections at which BUSY kicks in.
    pub queue_capacity: usize,
    /// Queue length from which every other arrival is shed, if any.
    pub queue_soft_watermark: Option<usize>,
    pub read_timeout: Option<Duration>,
    /// Write timeout for the one-frame BUSY/SHED rejection.
    pub reject_write_timeout: Duration,
}

/// Backpressure counters and the queue-wait histogram: written here,
/// read by each daemon's METRICS renderer.
#[derive(Default)]
pub struct ConnCounters {
    /// Connections rejected with a BUSY reply (queue full).
    pub busy_rejections: AtomicU64,
    /// Connections rejected with a SHED reply (soft watermark crossed
    /// before the hard BUSY limit — degradation beginning).
    pub shed: AtomicU64,
    /// Requests answered `DeadlineExpired`: their deadline budget
    /// elapsed in the queue before a worker ever popped them.
    pub expired: AtomicU64,
    /// Time a query request sat in the accept queue before a worker
    /// popped it.
    pub queue_wait: AtomicHistogram,
}

/// What is served behind the core.
pub trait Handler: Send + Sync + 'static {
    /// Answer one decoded request.
    fn handle(&self, req: Request, ctx: &RequestCtx<'_>) -> Reply;

    /// The endpoint `req` is accounted to: the core records the handling
    /// latency there, and [`error_reply`] (a panicking
    /// [`Handler::handle`] included) counts its errors there. `None`
    /// leaves the request unaccounted.
    fn endpoint(&self, req: &Request) -> Option<&EndpointMetrics>;
}

/// One accepted connection waiting for a worker, stamped with its accept
/// time so queue wait can be charged against the request's deadline.
struct QueuedConn {
    stream: TcpStream,
    accepted_at: Instant,
}

struct Core {
    config: ConnConfig,
    counters: ConnCounters,
    queue: Mutex<VecDeque<QueuedConn>>,
    queue_cv: Condvar,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    started: Instant,
    /// Accept-sequence counter inside the soft-watermark band, driving
    /// the deterministic every-other shed.
    shed_seq: AtomicU64,
    /// Every connection currently owned by a worker, keyed by an
    /// arbitrary id. Shutdown closes these sockets directly so an idle
    /// keep-alive peer (e.g. a router's pooled connection) cannot hold
    /// a worker hostage for a full `read_timeout`.
    live_conns: Mutex<HashMap<u64, TcpStream>>,
    conn_seq: AtomicU64,
    /// `<component>.conn.read` / `<component>.conn.write`, built once.
    fault_read: String,
    fault_write: String,
}

/// Lock a mutex whose data is valid in every state a panic can leave it
/// (a queue, a registry, a memo slot): a poisoned lock is recovered, not
/// propagated, so one panicking thread cannot wedge the daemon.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-request context handed to the [`Handler`].
pub struct RequestCtx<'a> {
    /// How long the connection waited in the accept queue — `Some` only
    /// for the first request on it; later requests on the same
    /// (interactive) connection never queued.
    pub queue_wait: Option<Duration>,
    /// When the worker started handling this request.
    pub started: Instant,
    /// [`Handler::endpoint`] of this request.
    pub endpoint: Option<&'a EndpointMetrics>,
    core: &'a Core,
}

impl RequestCtx<'_> {
    /// Whether a shutdown is in flight.
    pub fn shutting_down(&self) -> bool {
        self.core.shutting_down.load(Ordering::SeqCst)
    }

    /// Connections currently waiting for a worker (takes the queue lock;
    /// for `HEALTH`, not for the query path).
    pub fn queue_depth(&self) -> usize {
        lock_unpoisoned(&self.core.queue).len()
    }

    pub fn counters(&self) -> &ConnCounters {
        &self.core.counters
    }

    /// Time since the daemon started.
    pub fn uptime(&self) -> Duration {
        self.core.started.elapsed()
    }
}

/// A running daemon: its address, its handler, and the threads to join.
pub struct ConnHandle<H> {
    threads: Vec<std::thread::JoinHandle<()>>,
    core: Arc<Core>,
    handler: Arc<H>,
}

impl<H> ConnHandle<H> {
    pub fn addr(&self) -> SocketAddr {
        self.core.addr
    }

    pub fn handler(&self) -> &H {
        &self.handler
    }

    /// Initiate shutdown (idempotent) and join every thread. In-flight
    /// connections finish their current request; queued connections are
    /// still served before workers exit.
    pub fn shutdown(self) {
        initiate_shutdown(&self.core);
        self.join();
    }

    /// Block until the daemon shuts down via a protocol `SHUTDOWN`.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Bind `addr` (port 0 for an ephemeral test port) and spawn the acceptor
/// plus `config.workers` worker threads serving `handler`. Refuses,
/// before binding, a queue that would turn every connection away: a
/// capacity of 0, or a soft watermark outside `1..queue_capacity`.
pub fn serve<H: Handler>(
    addr: impl ToSocketAddrs,
    config: ConnConfig,
    handler: H,
) -> std::io::Result<ConnHandle<H>> {
    let capacity = config.queue_capacity;
    let refusal = if capacity == 0 {
        Some("queue capacity 0 is out of range: it must be at least 1".to_string())
    } else {
        config
            .queue_soft_watermark
            .filter(|soft| !(1..capacity).contains(soft))
            .map(|soft| {
                format!(
                    "soft queue watermark {soft} is out of range: it must be at least 1 \
                     and below the queue capacity {capacity}"
                )
            })
    };
    if let Some(message) = refusal {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            message,
        ));
    }
    let listener = TcpListener::bind(addr)?;
    let workers = config.workers.max(1);
    let core = Arc::new(Core {
        counters: ConnCounters::default(),
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutting_down: AtomicBool::new(false),
        addr: listener.local_addr()?,
        started: Instant::now(),
        shed_seq: AtomicU64::new(0),
        live_conns: Mutex::new(HashMap::new()),
        conn_seq: AtomicU64::new(0),
        fault_read: format!("{}.conn.read", config.component),
        fault_write: format!("{}.conn.write", config.component),
        config,
    });
    let handler = Arc::new(handler);
    let mut threads = Vec::with_capacity(workers + 1);
    {
        let core = core.clone();
        threads.push(std::thread::spawn(move || accept_loop(listener, &core)));
    }
    for _ in 0..workers {
        let (core, handler) = (core.clone(), handler.clone());
        threads.push(std::thread::spawn(move || worker_loop(&core, &*handler)));
    }
    Ok(ConnHandle {
        threads,
        core,
        handler,
    })
}

fn initiate_shutdown(core: &Core) {
    if core.shutting_down.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    core.queue_cv.notify_all();
    // The acceptor is parked in `accept`; poke it with a throwaway
    // connection so it observes the flag.
    let _ = TcpStream::connect_timeout(&core.addr, Duration::from_secs(1));
    // Workers parked in `read_frame` on idle keep-alive connections
    // would otherwise only notice the flag after `read_timeout`; close
    // the sockets out from under them so they return immediately.
    for conn in lock_unpoisoned(&core.live_conns).values() {
        let _ = conn.shutdown(std::net::Shutdown::Both);
    }
}

/// RAII registration of a worker-owned connection in the shutdown
/// registry; deregisters on every exit path out of `handle_connection`.
struct ConnRegistration<'a> {
    core: &'a Core,
    id: u64,
}

impl Drop for ConnRegistration<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.core.live_conns).remove(&self.id);
    }
}

fn register_conn<'a>(core: &'a Core, stream: &TcpStream) -> Option<ConnRegistration<'a>> {
    let clone = stream.try_clone().ok()?;
    let id = core.conn_seq.fetch_add(1, Ordering::Relaxed);
    lock_unpoisoned(&core.live_conns).insert(id, clone);
    Some(ConnRegistration { core, id })
}

fn accept_loop(listener: TcpListener, core: &Core) {
    for conn in listener.incoming() {
        if core.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let accepted_at = Instant::now();
        let mut queue = lock_unpoisoned(&core.queue);
        let len = queue.len();
        if len >= core.config.queue_capacity {
            drop(queue);
            // Explicit backpressure: one BUSY frame, then hang up.
            reject(core, stream, &Reply::Busy, len);
        } else if core
            .config
            .queue_soft_watermark
            .is_some_and(|soft| len >= soft)
            // Deterministic every-other shed inside the soft band: half
            // the arrivals are turned away early (so retry-capable
            // clients back off before saturation), the other half still
            // queue — the queue can reach the hard limit under sustained
            // load, keeping BUSY reachable and the shed rate bounded.
            && core
                .shed_seq
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(2)
        {
            drop(queue);
            reject(core, stream, &Reply::Shed, len);
        } else {
            queue.push_back(QueuedConn {
                stream,
                accepted_at,
            });
            drop(queue);
            core.queue_cv.notify_one();
        }
    }
    // Unblock any workers still parked on the queue.
    core.queue_cv.notify_all();
}

/// Count, log and answer a rejected connection with one frame, bounded by
/// the rejection write timeout: this runs on the acceptor thread, and a
/// peer that never drains its receive buffer must not stall every accept
/// behind it. A timed-out (or otherwise failed) write just drops the
/// connection — the peer sees a hang-up, which it must treat as
/// retryable anyway.
fn reject(core: &Core, mut stream: TcpStream, reply: &Reply, queue_depth: usize) {
    let (counter, event) = match reply {
        Reply::Shed => (&core.counters.shed, "load_shed"),
        _ => (&core.counters.busy_rejections, "busy_rejected"),
    };
    counter.fetch_add(1, Ordering::Relaxed);
    plog::log(
        LogLevel::Warn,
        core.config.component,
        event,
        &[("queue_depth", queue_depth.into())],
    );
    let _ = stream.set_write_timeout(Some(core.config.reject_write_timeout));
    let _ = write_frame(&mut stream, &encode_reply(reply));
}

fn worker_loop<H: Handler>(core: &Core, handler: &H) {
    loop {
        let conn = {
            let mut queue = lock_unpoisoned(&core.queue);
            loop {
                if let Some(c) = queue.pop_front() {
                    break Some(c);
                }
                if core.shutting_down.load(Ordering::SeqCst) {
                    break None;
                }
                queue = core
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match conn {
            Some(conn) => handle_connection(core, handler, conn),
            None => break,
        }
    }
}

fn handle_connection<H: Handler>(core: &Core, handler: &H, conn: QueuedConn) {
    let QueuedConn {
        mut stream,
        accepted_at,
    } = conn;
    let _ = stream.set_read_timeout(core.config.read_timeout);
    let _ = stream.set_nodelay(true);
    let registration = register_conn(core, &stream);
    // The first request on a connection waited in the accept queue; that
    // wait is charged against its deadline.
    let mut queue_wait = Some(accepted_at.elapsed());
    loop {
        // Dev-only fault point: delay models a wedged server socket, an
        // injected error a connection torn mid-stream.
        if fault::check(&core.fault_read).is_err() {
            return;
        }
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            // Clean close, read timeout, or garbage framing: hang up.
            Ok(None) | Err(_) => return,
        };
        match decode_request(&payload) {
            Ok(req) => {
                let is_shutdown = matches!(req, Request::Shutdown);
                if is_shutdown {
                    plog::log(
                        LogLevel::Info,
                        core.config.component,
                        "shutdown_requested",
                        &[],
                    );
                }
                let frame = dispatch(core, handler, req, queue_wait.take());
                if is_shutdown {
                    // Close every other connection before the requester
                    // reads SHUTTING_DOWN: no peer is answered after it.
                    drop(registration);
                    initiate_shutdown(core);
                    if fault::check(&core.fault_write).is_ok() {
                        let _ = write_frame(&mut stream, &frame);
                    }
                    return;
                }
                if fault::check(&core.fault_write).is_err() {
                    return;
                }
                if write_frame(&mut stream, &frame).is_err() {
                    return;
                }
                // A shutdown initiated elsewhere must not be held open by
                // a chatty keep-alive peer: finish the current request,
                // then close instead of reading the next frame.
                if core.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
            }
            Err(e) => {
                let reply = Reply::Err {
                    message: format!("bad request: {e}"),
                };
                let _ = write_frame(&mut stream, &encode_reply(&reply));
                return; // a peer speaking garbage gets one error, not a loop
            }
        }
    }
}

/// Run the handler on one request, record its endpoint latency, and
/// encode the reply frame. A handler panic, or a reply too large to
/// frame, becomes a typed error on that request alone.
fn dispatch<H: Handler>(
    core: &Core,
    handler: &H,
    req: Request,
    queue_wait: Option<Duration>,
) -> Vec<u8> {
    let ctx = RequestCtx {
        queue_wait,
        started: Instant::now(),
        endpoint: handler.endpoint(&req),
        core,
    };
    // The handler holds no core lock while it runs, and every lock the
    // core takes recovers from poisoning, so resuming after an unwind
    // cannot observe a broken invariant here.
    let reply = catch_unwind(AssertUnwindSafe(|| handler.handle(req, &ctx))).unwrap_or_else(|p| {
        let what = p
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| p.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("opaque panic payload");
        plog::log(
            LogLevel::Error,
            core.config.component,
            "request_panicked",
            &[("panic", Value::Str(what))],
        );
        error_reply(
            &ctx,
            format!("internal error: request handler panicked: {what}"),
        )
    });
    if let Some(endpoint) = ctx.endpoint {
        endpoint.record(ctx.started.elapsed());
    }
    let mut frame = encode_reply(&reply);
    if frame.len() > MAX_FRAME_BYTES as usize {
        // The peer's `read_frame` would refuse this and hang up.
        let message = format!(
            "reply of {} bytes exceeds the frame cap {MAX_FRAME_BYTES}",
            frame.len()
        );
        frame = encode_reply(&error_reply(&ctx, message));
    }
    frame
}

/// The verb name a query mode is logged under.
pub fn verb_of(mode: QueryMode) -> &'static str {
    match mode {
        QueryMode::Threshold(_) => "search",
        QueryMode::Topk(_) => "topk",
    }
}

/// Log a failed admin verb under `event` and answer with its error.
pub fn failed(ctx: &RequestCtx<'_>, event: &str, error: impl std::fmt::Display) -> Reply {
    let message = error.to_string();
    plog::log(
        LogLevel::Error,
        ctx.core.config.component,
        event,
        &[("error", Value::Str(&message))],
    );
    error_reply(ctx, message)
}

/// Answer with an error, counted on the request's endpoint.
pub fn error_reply(ctx: &RequestCtx<'_>, message: String) -> Reply {
    if let Some(endpoint) = ctx.endpoint {
        endpoint.record_error();
    }
    Reply::Err { message }
}

/// Ceiling on the thread count of a per-request `ExecPolicy`, on the
/// shard daemon and (for what it forwards to the shards) the router.
pub const MAX_REQUEST_THREADS: usize = 16;

/// Resolve `Parallel { threads: 0 }` to the machine size and clamp to the
/// daemon's per-request ceiling, so routed and direct requests resolve a
/// wire policy identically.
pub fn clamp_policy(policy: ExecPolicy, max_threads: usize) -> ExecPolicy {
    match policy {
        ExecPolicy::Sequential => ExecPolicy::Sequential,
        ExecPolicy::Parallel { .. } => ExecPolicy::Parallel {
            threads: policy.effective_threads().clamp(1, max_threads.max(1)),
        },
        // Fixed bypasses the adaptive break-even clamp in the core but
        // still honours the daemon's resource ceiling.
        ExecPolicy::Fixed { threads } => ExecPolicy::Fixed {
            threads: threads.clamp(1, max_threads.max(1)),
        },
    }
}

/// The query a daemon executes for a decoded one: the policy clamped to
/// [`MAX_REQUEST_THREADS`], and the deadline reduced by `queue_wait`, the
/// part of it the request already spent in the accept queue.
pub fn admit_query(query: &mut Query, queue_wait: Option<Duration>) {
    query.policy = clamp_policy(query.policy, MAX_REQUEST_THREADS);
    if let (Some(deadline), Some(wait)) = (&mut query.budget.deadline, queue_wait) {
        *deadline = deadline.saturating_sub(wait);
    }
}

/// Answer a query request with `run`, handing it the query as
/// [`admit_query`] adjusts it.
///
/// Queue wait counts against the request's deadline budget. A request
/// whose whole deadline elapsed before a worker popped it gets a typed
/// refusal immediately — computing (or even cache-serving) a dead answer
/// would hide the overload the deadline exists to expose.
pub fn answer_query<F>(
    mut query: Query,
    vectors: &VectorStore,
    ctx: &RequestCtx<'_>,
    run: F,
) -> Reply
where
    F: FnOnce(&Query, &VectorStore) -> std::result::Result<HitsReply, String>,
{
    if let Some(wait) = ctx.queue_wait {
        ctx.core.counters.queue_wait.record_duration(wait);
        if query
            .budget
            .deadline
            .is_some_and(|deadline| wait >= deadline)
        {
            ctx.core.counters.expired.fetch_add(1, Ordering::Relaxed);
            let waited_ms = wait.as_millis() as u64;
            let mut fields: Vec<(&str, Value)> = vec![("waited_ms", waited_ms.into())];
            if let Some(rid) = query.request_id {
                fields.push(("rid", Value::Rid(rid)));
            }
            plog::log(
                LogLevel::Warn,
                ctx.core.config.component,
                "deadline_expired_in_queue",
                &fields,
            );
            return Reply::DeadlineExpired { waited_ms };
        }
    }
    admit_query(&mut query, ctx.queue_wait);
    match run(&query, vectors) {
        Ok(hits) => Reply::Hits(hits),
        Err(message) => error_reply(ctx, message),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_clamping() {
        assert_eq!(
            clamp_policy(ExecPolicy::Sequential, 4),
            ExecPolicy::Sequential
        );
        assert_eq!(
            clamp_policy(ExecPolicy::Parallel { threads: 99 }, 4),
            ExecPolicy::Parallel { threads: 4 }
        );
        let auto = clamp_policy(ExecPolicy::Parallel { threads: 0 }, 8);
        match auto {
            ExecPolicy::Parallel { threads } => assert!((1..=8).contains(&threads)),
            _ => panic!("auto must stay parallel"),
        }
        assert_eq!(
            clamp_policy(ExecPolicy::Fixed { threads: 99 }, 4),
            ExecPolicy::Fixed { threads: 4 }
        );
        assert_eq!(
            clamp_policy(ExecPolicy::Fixed { threads: 2 }, 4),
            ExecPolicy::Fixed { threads: 2 }
        );
        assert_eq!(
            clamp_policy(ExecPolicy::Fixed { threads: 0 }, 4),
            ExecPolicy::Fixed { threads: 1 }
        );
    }
}

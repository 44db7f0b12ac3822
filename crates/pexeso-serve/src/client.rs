//! Synchronous client for the `pexeso serve` protocol.
//!
//! One [`ServeClient`] wraps one TCP connection and can issue any number
//! of requests sequentially. The server's explicit backpressure surfaces
//! as [`ClientError::Busy`] so callers can retry elsewhere or back off.
//!
//! The client is the *remote* [`Queryable`] backend: a unified
//! [`Query`] executes over the wire exactly like it would against a local
//! index — the request frame carries the `Query` itself, and the
//! outcome/stats come back in the reply.
//! The stream is guarded by a mutex so the trait's `&self` surface stays
//! sound; requests on one connection serialize.

use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::path::Path;
use std::sync::Mutex;
use std::time::Duration;

use pexeso_core::error::PexesoError;
use pexeso_core::explain::ExplainReport;
use pexeso_core::outofcore::GlobalHit;
use pexeso_core::query::{Exceeded, Query, QueryOutcome, QueryResponse, Queryable};
use pexeso_core::stats::SearchStats;
use pexeso_core::vector::VectorStore;

use crate::conn::lock_unpoisoned;
use crate::protocol::{
    decode_reply, encode_request, read_frame, write_frame, HitsExt, HitsReply, InfoReply, Reply,
    Request, WireError, WireHit,
};

/// Client-side failure modes.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect/read/write).
    Io(std::io::Error),
    /// The server rejected the connection under load; retry later.
    Busy,
    /// The server shed the connection early (soft watermark); same
    /// caller contract as [`ClientError::Busy`], reported separately so
    /// degradation is visible before saturation.
    Shed,
    /// The server processed the request and answered with an error.
    Server(String),
    /// The reply violated the protocol (or the connection died mid-frame).
    Protocol(String),
    /// The server hung up cleanly before sending any reply byte (e.g. it
    /// was killed, or is shutting down). Nothing is in flight; the next
    /// call transparently reconnects. Retryable.
    Disconnected,
    /// A reply failed to arrive whole (e.g. a read timeout mid-frame):
    /// the stream may still carry the rest of that reply, so it can
    /// never be reused for another request. The connection has been
    /// discarded; the next call transparently reconnects.
    Desynced(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Busy => write!(f, "server busy; retry later"),
            ClientError::Shed => write!(f, "server shedding load; retry later"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Disconnected => {
                write!(f, "server closed the connection before replying")
            }
            ClientError::Desynced(msg) => {
                write!(f, "connection desynced and discarded: {msg}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(e) => ClientError::Io(e),
            WireError::Malformed(msg) => ClientError::Protocol(msg),
        }
    }
}

/// Fold client failures into the unified error type so `&dyn Queryable`
/// callers handle remote and local backends identically.
impl From<ClientError> for PexesoError {
    fn from(e: ClientError) -> Self {
        match e {
            ClientError::Io(e) => PexesoError::Io(e),
            other => PexesoError::Remote(other.to_string()),
        }
    }
}

type ClientResult<T> = std::result::Result<T, ClientError>;

/// The wire request a unified [`Query`] over one column travels as: the
/// frame carries the query itself — mode, τ, T/k, policy, metric
/// expectation, lemma toggles, quick-browse, budget, trace level, request
/// id and explain flag — and the column's raw vectors.
pub fn wire_request(query: &Query, vectors: &VectorStore) -> Request {
    Request::Query {
        query: query.clone(),
        vectors: vectors.clone(),
    }
}

/// Serve-side facts accompanying a remote [`QueryResponse`]: which
/// snapshot generation answered and whether the result cache did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteMeta {
    pub generation: u64,
    pub cached: bool,
}

/// Idle connections kept per daemon address — enough for a router's
/// per-shard fan-out to reuse warm streams across a query burst without
/// hoarding sockets.
const POOL_CAPACITY: usize = 4;

/// One logical client for a `pexeso serve` daemon, backed by a small
/// pool of TCP connections.
///
/// Concurrent `&self` calls each check a stream out of the idle pool
/// (connecting a fresh one when it is empty), so a scatter-gather caller
/// issuing N requests at once pays N× TCP setup only on the *first*
/// burst; afterwards the streams are reused. The pool keeps at most
/// `POOL_CAPACITY` idle streams — extras are closed on check-in.
///
/// A stream is discarded instead of returned whenever it can no longer
/// be trusted: any failure to read a *whole* reply (timeout mid-frame,
/// transport error, hang-up) poisons it, because a late reply arriving
/// on a reused stream would answer the wrong request. The failing call
/// surfaces a typed error ([`ClientError::Desynced`] when bytes may
/// still be in flight) and the next call transparently reconnects to
/// the remembered address.
pub struct ServeClient {
    addr: SocketAddr,
    /// Idle, trusted streams; a roundtrip pops one (or connects) and
    /// pushes it back only after reading a whole reply on it.
    pool: Mutex<Vec<TcpStream>>,
    /// Remembered so reconnects inherit the caller's timeout.
    timeout: Mutex<Option<Duration>>,
}

impl ServeClient {
    /// One stream is established eagerly so an unreachable daemon fails
    /// here, not on the first query.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other("address resolved to nothing"))?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            addr,
            pool: Mutex::new(vec![stream]),
            timeout: Mutex::new(None),
        })
    }

    /// The daemon address this client (re)connects to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Idle streams currently pooled (diagnostics; races with use).
    pub fn idle_connections(&self) -> usize {
        lock_unpoisoned(&self.pool).len()
    }

    /// Bound how long any single reply may take. Applies to every pooled
    /// connection and every future reconnect.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        *lock_unpoisoned(&self.timeout) = timeout;
        for stream in lock_unpoisoned(&self.pool).iter() {
            stream.set_read_timeout(timeout)?;
            stream.set_write_timeout(timeout)?;
        }
        Ok(())
    }

    fn reconnect(&self) -> std::io::Result<TcpStream> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        let timeout = *lock_unpoisoned(&self.timeout);
        stream.set_read_timeout(timeout)?;
        stream.set_write_timeout(timeout)?;
        Ok(stream)
    }

    /// Pop an idle stream or dial a fresh one.
    fn checkout(&self) -> std::io::Result<TcpStream> {
        if let Some(stream) = lock_unpoisoned(&self.pool).pop() {
            return Ok(stream);
        }
        self.reconnect()
    }

    /// Return a still-trusted stream to the idle pool; beyond the bound
    /// it is simply closed.
    fn checkin(&self, stream: TcpStream) {
        let mut pool = lock_unpoisoned(&self.pool);
        if pool.len() < POOL_CAPACITY {
            pool.push(stream);
        }
    }

    fn roundtrip(&self, req: &Request) -> ClientResult<Reply> {
        let mut stream = self.checkout()?;
        // A rejected connection gets one BUSY/SHED frame and a hang-up
        // *before* we ever write; the write then fails with a broken pipe
        // while the rejection frame sits in our receive buffer. On write
        // failure, drain that pending reply instead of surfacing the
        // pipe error. (A pooled stream the server closed while idle fails
        // the same way and surfaces `Disconnected`, which retry-capable
        // callers treat as transient.)
        let write_err = match write_frame(&mut stream, &encode_request(req)) {
            // Over the frame cap: refused before a byte was written, so
            // no reply is coming and the stream is still in sync. Not
            // retryable — every replica would refuse it the same way.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
                self.checkin(stream);
                return Err(ClientError::Protocol(e.to_string()));
            }
            result => result.err(),
        };
        let payload = match read_frame(&mut stream) {
            Ok(Some(p)) => p,
            Ok(None) => {
                // Clean hang-up before any reply byte: the stream is
                // dead but carries nothing late; drop it, the next call
                // checks out another.
                return Err(write_err
                    .map(ClientError::Io)
                    .unwrap_or(ClientError::Disconnected));
            }
            Err(e) => {
                // The reply failed to arrive whole. Crucially this
                // includes a read *timeout* mid-frame: the server may
                // still deliver the rest later, so reusing this stream
                // would desync every subsequent exchange. Poison it
                // (drop, never check in) and name the state.
                return Err(write_err.map(ClientError::Io).unwrap_or_else(|| match e {
                    WireError::Io(io) => ClientError::Desynced(io.to_string()),
                    WireError::Malformed(msg) => ClientError::Desynced(msg),
                }));
            }
        };
        match decode_reply(&payload)? {
            // A rejection is always followed by a server hang-up; drop
            // the stream now so the next call dials fresh instead of
            // tripping over the closed socket first.
            Reply::Busy => Err(ClientError::Busy),
            Reply::Shed => Err(ClientError::Shed),
            // A typed server error still leaves the stream synchronized
            // (one request, one whole reply): reuse it.
            Reply::Err { message } => {
                self.checkin(stream);
                Err(ClientError::Server(message))
            }
            reply => {
                self.checkin(stream);
                Ok(reply)
            }
        }
    }

    pub fn info(&self) -> ClientResult<InfoReply> {
        match self.roundtrip(&Request::Info)? {
            Reply::Info(info) => Ok(info),
            other => Err(unexpected("INFO", &other)),
        }
    }

    /// Execute a unified [`Query`] remotely and also return the serve-side
    /// metadata (snapshot generation, cache hit). [`Queryable::execute`]
    /// is this minus the metadata.
    pub fn execute_detailed(
        &self,
        query: &Query,
        vectors: &VectorStore,
    ) -> ClientResult<(QueryResponse, RemoteMeta)> {
        let reply = match self.roundtrip(&wire_request(query, vectors))? {
            Reply::Hits(hits) => hits,
            Reply::DeadlineExpired { .. } => return Ok(expired_in_queue()),
            other => return Err(unexpected("SEARCH/TOPK", &other)),
        };
        unwrap_hits_reply(query, reply)
    }

    /// The body of a text verb's reply.
    fn text(&self, req: &Request, verb: &str) -> ClientResult<String> {
        match self.roundtrip(req)? {
            Reply::Text { text } => Ok(text),
            other => Err(unexpected(verb, &other)),
        }
    }

    /// The Prometheus text-format exposition (the `METRICS` verb): every
    /// counter the daemon keeps. Validates with
    /// [`crate::metrics::validate_prometheus`]; [`crate::metrics::stat_value`]
    /// reads one sample.
    pub fn metrics_text(&self) -> ClientResult<String> {
        self.text(&Request::Metrics, "METRICS")
    }

    /// The slow-query log: the slowest traced requests the daemon has
    /// seen, slowest first, each with its rendered phase tree (the
    /// `SLOW` verb). Empty until a traced or sampled query lands.
    pub fn slow_log_text(&self) -> ClientResult<String> {
        self.text(&Request::SlowLog, "SLOW")
    }

    /// Liveness/readiness summary as `key=value` text (the `HEALTH`
    /// verb): `status=ready|degraded|draining` plus supporting detail. A
    /// router rolls every shard's replica set into one fleet answer.
    pub fn health_text(&self) -> ClientResult<String> {
        self.text(&Request::Health, "HEALTH")
    }

    /// Mark a replica drained (`true`) or back in rotation (`false`) on a
    /// router (the `DRAIN` verb). Returns the router's confirmation
    /// text; shard daemons reject the verb.
    pub fn drain(&self, addr: &str, drained: bool) -> ClientResult<String> {
        let req = Request::Drain {
            addr: addr.to_string(),
            drained,
        };
        self.text(&req, "DRAIN")
    }

    /// Publish a new generation from the served directory's delta log
    /// without reloading the base snapshot (the `APPLY` live-ingest verb).
    /// Returns (new generation, live delta columns, tombstoned tables).
    pub fn apply_delta(&self) -> ClientResult<(u64, u64, u64)> {
        self.apply_delta_shard(None)
    }

    /// Routed live ingest: an APPLY that names the shard whose replicas
    /// should apply their delta log. A router requires `Some`; a shard
    /// daemon ignores the field.
    pub fn apply_delta_shard(&self, shard: Option<u32>) -> ClientResult<(u64, u64, u64)> {
        match self.roundtrip(&Request::ApplyDelta { shard })? {
            Reply::Applied {
                generation,
                delta_columns,
                tombstones,
            } => Ok((generation, delta_columns, tombstones)),
            other => Err(unexpected("APPLY", &other)),
        }
    }

    /// Hot-swap the served snapshot; `dir = None` re-opens the current
    /// directory. Returns (new generation, partition count).
    pub fn reload(&self, dir: Option<&Path>) -> ClientResult<(u64, u32)> {
        let dir = dir.map(|p| p.to_string_lossy().into_owned());
        match self.roundtrip(&Request::Reload { dir })? {
            Reply::Reloaded {
                generation,
                partitions,
            } => Ok((generation, partitions)),
            other => Err(unexpected("RELOAD", &other)),
        }
    }

    pub fn shutdown(&self) -> ClientResult<()> {
        match self.roundtrip(&Request::Shutdown)? {
            Reply::ShuttingDown => Ok(()),
            other => Err(unexpected("SHUTDOWN", &other)),
        }
    }
}

/// The remote backend: a unified [`Query`] answered by a `pexeso serve`
/// daemon, byte-identical to the same query against the served deployment
/// locally (pinned by `tests/query_api.rs` at the workspace root).
impl Queryable for ServeClient {
    fn execute(
        &self,
        query: &Query,
        vectors: &VectorStore,
    ) -> pexeso_core::error::Result<QueryResponse> {
        let (resp, _meta) = self.execute_detailed(query, vectors)?;
        // The server reports Exact for every uncapped query; trust but
        // keep the type honest if a budget was set and tripped remotely.
        debug_assert!(query.budget.is_limited() || resp.outcome == QueryOutcome::Exact);
        Ok(resp)
    }
}

/// What a `DeadlineExpired` refusal means to the caller: the deadline
/// elapsed in the server's queue, so the answer is the same typed partial
/// outcome a local backend reports when its deadline trips before any
/// work — empty hits, `Exceeded(Deadline)`.
fn expired_in_queue() -> (QueryResponse, RemoteMeta) {
    (
        QueryResponse {
            hits: Vec::new(),
            stats: SearchStats::new(),
            outcome: QueryOutcome::Exceeded(Exceeded::Deadline),
            trace: None,
            explain: None,
        },
        RemoteMeta {
            generation: 0,
            cached: false,
        },
    )
}

/// The `HITS` entry a daemon answers `requested` with from an executed
/// response — the daemon half of `unwrap_hits_reply` below. Only a trace
/// the decoded query asked for travels back: one the daemon's sampler
/// added exists for the slow-query log and never changes the reply.
pub fn hits_reply(requested: &Query, generation: u64, resp: QueryResponse) -> HitsReply {
    HitsReply {
        generation,
        cached: false,
        hits: resp.hits.iter().map(WireHit::from).collect(),
        ext: Some(HitsExt {
            outcome: resp.outcome,
            distance_computations: resp.stats.distance_computations,
        }),
        trace: resp.trace.filter(|_| requested.trace.enabled()),
        explain: resp.explain.map(|report| Box::new(report.counters)),
    }
}

/// Convert one wire `HITS` entry answering `query` into the unified
/// response + metadata. The EXPLAIN report is built here, from the
/// funnel counters the reply carries, `query`, and the reply's hits and
/// outcome.
fn unwrap_hits_reply(query: &Query, reply: HitsReply) -> ClientResult<(QueryResponse, RemoteMeta)> {
    let meta = RemoteMeta {
        generation: reply.generation,
        cached: reply.cached,
    };
    let ext = reply.ext.ok_or_else(|| {
        ClientError::Protocol("server answered a query without the outcome extension".into())
    })?;
    let hits: Vec<GlobalHit> = reply
        .hits
        .into_iter()
        .map(|h| GlobalHit {
            external_id: h.external_id,
            table_name: h.table_name,
            column_name: h.column_name,
            match_count: h.match_count,
        })
        .collect();
    let mut stats = SearchStats {
        distance_computations: ext.distance_computations,
        ..SearchStats::new()
    };
    // A requested trace doubles as the wire carrier for the per-phase
    // timings: rehydrate the `SearchStats` phase durations from the
    // server's span tree so client-side consumers (Table VI tooling)
    // see the same breakdown a local backend reports.
    if let Some(trace) = &reply.trace {
        let phase = |name: &str| trace.find(name).map(|s| s.duration()).unwrap_or_default();
        stats.mapping_time = phase("map");
        stats.block_time = phase("block");
        stats.verify_time = phase("verify");
        stats.total_time = trace.root.duration();
    }
    let explain = reply
        .explain
        .map(|c| ExplainReport::new(query, *c, hits.len() as u64, ext.outcome));
    Ok((
        QueryResponse {
            hits,
            stats,
            outcome: ext.outcome,
            trace: reply.trace,
            explain,
        },
        meta,
    ))
}

fn unexpected(verb: &str, reply: &Reply) -> ClientError {
    ClientError::Protocol(format!("unexpected reply to {verb}: {reply:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A thread that panics while holding the pool lock costs itself, not
    /// every later call through the client.
    #[test]
    fn a_poisoned_pool_lock_is_recovered() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let client = ServeClient::connect(listener.local_addr().unwrap()).unwrap();
        let holder = std::thread::scope(|s| {
            s.spawn(|| {
                let _pool = client.pool.lock().unwrap();
                let _timeout = client.timeout.lock().unwrap();
                panic!("while holding both client locks");
            })
            .join()
        });
        assert!(holder.is_err() && client.pool.is_poisoned() && client.timeout.is_poisoned());
        assert_eq!(client.idle_connections(), 1);
        client.set_timeout(Some(Duration::from_secs(1))).unwrap();
        let stream = client.checkout().unwrap();
        client.checkin(stream);
        assert_eq!(client.idle_connections(), 1);
    }
}

//! The wire protocol between `pexeso serve` / `pexeso router` and their
//! clients.
//!
//! Every message is one length-prefixed frame: a `u32` little-endian
//! payload length followed by the payload. Fields are the primitives of
//! [`pexeso_core::codec`]: little-endian integers, strings as `u32`
//! length + UTF-8 bytes, a `bool` as one byte `0|1`, an `opt T` as a tag
//! byte `0|1` followed by `T` when `1`. Query vectors travel as raw `f32`
//! bits — the embedding happens client-side so the daemon stays agnostic
//! to embedder implementations.
//!
//! The protocol is deliberately synchronous per connection: a client sends
//! one request frame and reads one reply frame, any number of times, then
//! closes. Backpressure is explicit — an overloaded server answers a
//! connection with a [`Reply::Busy`] frame instead of queueing unboundedly.
//!
//! There is exactly one layout, `PROTOCOL_VERSION` (9). A request stamped
//! with any other version is refused with one `Malformed` naming both
//! versions (the daemon answers `ERR` and hangs up): router, shards and
//! clients are deployed from one build. A decoder accepts exactly the
//! bytes the encoder can produce — every field below is always present,
//! nothing is inferred from "bytes remain", and any other tag, flag or
//! trailing byte is `Malformed` — and the encoder produces bytes the
//! decoder accepts for every [`Query`] the builder can express.
//!
//! # Requests
//!
//! Payload = `PXSV`, version byte, verb byte, body.
//!
//! | request | verb | byte | body |
//! |---|---|---|---|
//! | `Info` | `INFO` | 0 | — |
//! | `Query` (threshold mode) | `SEARCH` | 1 | threshold, *query* |
//! | `Query` (top-k mode) | `TOPK` | 2 | k: `u64`, *query* |
//! | `Reload` | `RELOAD` | 4 | dir: `str` (empty = the served directory) |
//! | `Shutdown` | `SHUTDOWN` | 5 | — |
//! | `ApplyDelta` | `APPLY` | 6 | shard: `opt u32` |
//! | `Metrics` | `METRICS` | 8 | — |
//! | `SlowLog` | `SLOW` | 9 | — |
//! | `Health` | `HEALTH` | 11 | — |
//! | `Drain` | `DRAIN` | 12 | addr: `str`, drained: `bool` |
//!
//! Verb bytes 3 (`STATS`), 7 (`BATCH`) and 10 (`INSPECT`) are retired:
//! they decode as `unknown verb`.
//!
//! *query* = [`Query`]'s fields and the query column in wire order:
//! metric (`str`, empty = `None`), τ (tag `0` absolute \| `1` ratio,
//! `f32`), policy (tag `0` sequential \| `1` parallel \| `2` fixed,
//! threads: `u32`), the column's dim `u32`, vector count `u32` and
//! `count × dim` × `f32`, the lemma mask `u8` and quick-browse `bool` of
//! the options, the budget's max distance computations `opt u64` and
//! deadline `opt u64` (whole milliseconds, rounded up), trace level
//! `u8`, request id `opt u64`, explain `bool`. A threshold is tag `0` +
//! count `u64` or tag `1` + ratio `f64`.
//!
//! # Replies
//!
//! Payload = kind byte, body.
//!
//! | kind | byte | body |
//! |---|---|---|
//! | `INFO` | 0 | dim `u32`, generation `u64`, index version `u64`, partitions `u32`, disk bytes `u64` |
//! | `HITS` | 1 | *hits* |
//! | `TEXT` | 2 | text: `str` (answers METRICS/SLOW/HEALTH/DRAIN) |
//! | `RELOADED` | 3 | generation `u64`, partitions `u32` |
//! | `SHUTTING_DOWN` | 4 | — |
//! | `APPLIED` | 6 | generation `u64`, delta columns `u64`, tombstones `u64` |
//! | `DEADLINE_EXPIRED` | 248 | waited ms `u64` |
//! | `SHED` | 249 | — |
//! | `BUSY` | 250 | — |
//! | `ERR` | 251 | message: `str` |
//!
//! *hits* = generation `u64`, cached `bool`, ext: `opt` (outcome `u8`,
//! distance computations `u64`), hit count `u32` + hits (external id
//! `u64`, table `str`, column `str`, match count `u32`), trace: `opt` span
//! tree, explain: `opt` funnel counters (the 12 `u64`s of
//! [`FunnelCounters::counts`], then the top-k seed count `u32` + seeds,
//! each an `opt u32`). The client builds the EXPLAIN report from them,
//! the query it sent and the reply's hits and outcome. The four refusal
//! kinds (248–251) keep their bytes and layouts across versions, so a
//! peer of any build can read a refusal.

use std::io::{Read, Write};
use std::time::Duration;

use pexeso_core::codec::{fnv64, read_len_prefix, Dec, DecodeError, Enc, MAX_NAME_BYTES};
use pexeso_core::config::{ExecPolicy, JoinThreshold, LemmaFlags, Tau};
use pexeso_core::explain::FunnelCounters;
use pexeso_core::outofcore::GlobalHit;
use pexeso_core::query::{Exceeded, Query, QueryBudget, QueryMode, QueryOutcome};
use pexeso_core::search::SearchOptions;
use pexeso_core::trace::{QueryTrace, TraceLevel, TraceSpan};
use pexeso_core::vector::VectorStore;

/// First bytes of every request payload.
pub const MAGIC: &[u8; 4] = b"PXSV";
/// The one protocol version this build speaks: every request frame is
/// stamped with it and [`decode_request`] refuses any other. Bump it with
/// any layout change (`golden_frames` pins the bytes).
pub(crate) const PROTOCOL_VERSION: u8 = 9;
/// Hard cap on a single frame; anything larger is treated as garbage
/// framing rather than a legitimate request.
pub const MAX_FRAME_BYTES: u32 = 64 << 20;

const VERB_INFO: u8 = 0;
const VERB_SEARCH: u8 = 1;
const VERB_TOPK: u8 = 2;
const VERB_RELOAD: u8 = 4;
const VERB_SHUTDOWN: u8 = 5;
const VERB_APPLY: u8 = 6;
/// Prometheus text exposition of the server metrics.
const VERB_METRICS: u8 = 8;
/// Dump the slow-query log (slowest traced requests + phase trees).
const VERB_SLOW: u8 = 9;
/// Readiness/health probe (ready/degraded/draining, generation, queue
/// facts; the router rolls shard replica health into one answer).
const VERB_HEALTH: u8 = 11;
/// Toggle the drain flag of one replica address (router only; a shard
/// daemon answers `ERR` — drain a shard by draining its address on the
/// router).
const VERB_DRAIN: u8 = 12;

const REPLY_INFO: u8 = 0;
const REPLY_HITS: u8 = 1;
const REPLY_TEXT: u8 = 2;
const REPLY_RELOADED: u8 = 3;
const REPLY_SHUTTING_DOWN: u8 = 4;
const REPLY_APPLIED: u8 = 6;
/// A request popped off the queue after its own deadline already
/// elapsed: answered typed instead of computing a dead result.
const REPLY_DEADLINE_EXPIRED: u8 = 248;
/// Early load shedding: the queue crossed its soft watermark.
const REPLY_SHED: u8 = 249;
const REPLY_BUSY: u8 = 250;
const REPLY_ERR: u8 = 251;

/// Wire-level failure: transport I/O or a malformed frame.
#[derive(Debug)]
pub enum WireError {
    Io(std::io::Error),
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o error: {e}"),
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Malformed(e.to_string())
    }
}

type WireResult<T> = std::result::Result<T, WireError>;

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Deployment facts a client needs before it can query (dimension,
    /// snapshot generation, partition count).
    Info,
    /// One query column under one [`Query`] — `SEARCH` on the wire in
    /// threshold mode, `TOPK` in top-k mode. The daemon clamps the
    /// policy to its own thread ceiling and charges queue wait against
    /// the deadline ([`crate::conn::admit_query`]).
    Query { query: Query, vectors: VectorStore },
    /// Every counter, histogram and p50/p99 gauge of the daemon in
    /// Prometheus text exposition format.
    Metrics,
    /// The slow-query log — the slowest sampled/traced requests with
    /// their phase trees, slowest first.
    SlowLog,
    /// Atomically hot-swap the served snapshot: re-open the given
    /// directory (`None` = the currently served one) and bump the
    /// generation. In-flight queries finish on the old snapshot.
    Reload { dir: Option<String> },
    /// Replay the served directory's delta log over the *already
    /// resident* base snapshot and publish the result as a new
    /// generation — live ingest without reloading a single partition.
    /// Falls back to a full reload only if the base build itself changed
    /// underneath the daemon.
    ///
    /// `shard` routes the ingest: a router receiving `Some(i)` forwards
    /// the APPLY to every replica of shard `i` only (the owning shard),
    /// leaving every other shard's generation untouched, and refuses
    /// `None`. A shard daemon ignores the field (it owns exactly one
    /// deployment).
    ApplyDelta { shard: Option<u32> },
    /// Readiness probe — `status=ready|degraded|draining` plus
    /// generation and queue facts; the router answers with the fleet
    /// roll-up.
    Health,
    /// Router only: set/clear the drain flag of the replica at
    /// `addr` across every shard that has it. A drained replica stops
    /// receiving routed queries but stays connected for un-drain.
    Drain { addr: String, drained: bool },
    /// Stop accepting connections and exit once in-flight work drains.
    Shutdown,
}

/// One joinable column on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireHit {
    pub external_id: u64,
    pub table_name: String,
    pub column_name: String,
    pub match_count: u32,
}

impl From<&GlobalHit> for WireHit {
    fn from(h: &GlobalHit) -> Self {
        WireHit {
            external_id: h.external_id,
            table_name: h.table_name.clone(),
            column_name: h.column_name.clone(),
            match_count: h.match_count,
        }
    }
}

/// Reply to [`Request::Info`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfoReply {
    pub dim: u32,
    /// Serve-side snapshot generation; bumps on every hot swap.
    pub generation: u64,
    /// `index_version` from the deployment manifest.
    pub index_version: u64,
    pub partitions: u32,
    pub disk_bytes: u64,
}

/// The `HITS` reply extension: the unified query outcome plus the
/// verification cost, so remote callers get the same exactness contract
/// local backends report. Cached replies carry `QueryOutcome::Exact` and
/// zero distance computations (only exact results are ever cached).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitsExt {
    pub outcome: QueryOutcome,
    pub distance_computations: u64,
}

/// Reply to [`Request::Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct HitsReply {
    /// Generation of the snapshot that answered (or populated the cached
    /// entry for) this query.
    pub generation: u64,
    /// True when the reply was served from the result cache.
    pub cached: bool,
    pub hits: Vec<WireHit>,
    /// Outcome/stats extension; the daemons always send it.
    pub ext: Option<HitsExt>,
    /// Server-side phase tree, present iff the request asked for a
    /// trace. Cached replies carry no trace — traced requests bypass the
    /// result cache so the tree always describes *this* execution.
    pub trace: Option<QueryTrace>,
    /// The counters of the server-side EXPLAIN funnel, present iff the
    /// request asked for one. Like traces, explain-requesting queries
    /// bypass the result cache so the funnel always describes *this*
    /// execution. Boxed so the common explain-free reply doesn't pay the
    /// counters' footprint.
    pub explain: Option<Box<FunnelCounters>>,
}

/// A server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    Info(InfoReply),
    Hits(HitsReply),
    /// The body of a text verb: METRICS, SLOW, HEALTH, DRAIN.
    Text {
        text: String,
    },
    Reloaded {
        generation: u64,
        partitions: u32,
    },
    /// Reply to [`Request::ApplyDelta`]: the new generation plus the
    /// overlay shape it serves.
    Applied {
        generation: u64,
        delta_columns: u64,
        tombstones: u64,
    },
    ShuttingDown,
    /// Explicit backpressure: worker pool and request queue are full.
    Busy,
    /// Early load shedding: the connection queue crossed its *soft*
    /// watermark, so the server rejected this connection before the hard
    /// BUSY limit — semantically identical to `Busy` for the caller
    /// (retry elsewhere / back off), but counted separately so operators
    /// can see degradation begin before saturation.
    Shed,
    /// The request's deadline budget had already elapsed while it waited
    /// in the queue; the server refused to compute a dead answer.
    /// Carries how long the request waited before being popped.
    DeadlineExpired {
        waited_ms: u64,
    },
    Err {
        message: String,
    },
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one length-prefixed frame. A payload [`read_frame`] would refuse
/// (over [`MAX_FRAME_BYTES`]) is refused here with `InvalidInput`, before
/// a byte is written, so the stream stays usable.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= MAX_FRAME_BYTES)
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "frame of {} bytes exceeds cap {MAX_FRAME_BYTES}",
                    payload.len()
                ),
            )
        })?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one length-prefixed frame. `Ok(None)` means the peer closed the
/// connection cleanly before starting a new frame.
pub fn read_frame(r: &mut impl Read) -> WireResult<Option<Vec<u8>>> {
    let Some(len) = read_len_prefix::<WireError>(r)? else {
        return Ok(None);
    };
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Malformed(format!(
            "frame of {len} bytes exceeds cap {MAX_FRAME_BYTES}"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)
        .map_err(|e| WireError::Malformed(format!("eof inside frame body: {e}")))?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Payload fields
// ---------------------------------------------------------------------------

fn put_tau(w: &mut Enc, tau: Tau) {
    match tau {
        Tau::Absolute(v) => {
            w.u8(0);
            w.f32(v);
        }
        Tau::Ratio(v) => {
            w.u8(1);
            w.f32(v);
        }
    }
}

fn take_tau(r: &mut Dec) -> WireResult<Tau> {
    match r.u8()? {
        0 => Ok(Tau::Absolute(r.f32()?)),
        1 => Ok(Tau::Ratio(r.f32()?)),
        t => Err(WireError::Malformed(format!("unknown tau tag {t}"))),
    }
}

fn put_threshold(w: &mut Enc, t: JoinThreshold) {
    match t {
        JoinThreshold::Count(c) => {
            w.u8(0);
            w.u64(c as u64);
        }
        JoinThreshold::Ratio(rat) => {
            w.u8(1);
            w.f64(rat);
        }
    }
}

fn take_threshold(r: &mut Dec) -> WireResult<JoinThreshold> {
    match r.u8()? {
        0 => Ok(JoinThreshold::Count(r.u64()? as usize)),
        1 => Ok(JoinThreshold::Ratio(r.f64()?)),
        t => Err(WireError::Malformed(format!("unknown threshold tag {t}"))),
    }
}

fn put_policy(w: &mut Enc, p: ExecPolicy) {
    let (tag, threads) = match p {
        ExecPolicy::Sequential => (0, 0),
        ExecPolicy::Parallel { threads } => (1, threads),
        ExecPolicy::Fixed { threads } => (2, threads),
    };
    w.u8(tag);
    w.u32(threads as u32);
}

fn take_policy(r: &mut Dec) -> WireResult<ExecPolicy> {
    let tag = r.u8()?;
    let threads = r.u32()? as usize;
    match (tag, threads) {
        (0, 0) => Ok(ExecPolicy::Sequential),
        // `Parallel { threads: 0 }` is "machine-sized"; `Fixed` with zero
        // threads runs on one, like it does locally.
        (1, _) => Ok(ExecPolicy::Parallel { threads }),
        (2, _) => Ok(ExecPolicy::Fixed { threads }),
        (0, _) => Err(WireError::Malformed(format!(
            "policy tag 0 cannot carry thread count {threads}"
        ))),
        (t, _) => Err(WireError::Malformed(format!("unknown policy tag {t}"))),
    }
}

/// Lemma flags travel as a 4-bit mask.
fn put_flags(w: &mut Enc, flags: LemmaFlags) {
    w.u8(flags.lemma1_vector_filter as u8
        | (flags.lemma2_vector_match as u8) << 1
        | (flags.lemma34_cell_filter as u8) << 2
        | (flags.lemma56_cell_match as u8) << 3);
}

fn take_flags(r: &mut Dec) -> WireResult<LemmaFlags> {
    let mask = r.u8()?;
    if mask & !0xf != 0 {
        return Err(WireError::Malformed(format!(
            "unknown lemma bits {mask:#x}"
        )));
    }
    Ok(LemmaFlags {
        lemma1_vector_filter: mask & 1 != 0,
        lemma2_vector_match: mask & 2 != 0,
        lemma34_cell_filter: mask & 4 != 0,
        lemma56_cell_match: mask & 8 != 0,
    })
}

/// Write a query frame from the verb byte on: the verb and T or k follow
/// from the mode, then every other field of the query and the column in
/// their one fixed order (the module doc's *query*).
fn put_query(w: &mut Enc, q: &Query, vectors: &VectorStore) {
    match q.mode {
        QueryMode::Threshold(t) => {
            w.u8(VERB_SEARCH);
            put_threshold(w, t);
        }
        QueryMode::Topk(k) => {
            w.u8(VERB_TOPK);
            w.u64(k as u64);
        }
    }
    w.str(q.metric.as_deref().unwrap_or_default());
    put_tau(w, q.tau);
    put_policy(w, q.policy);
    w.u32(vectors.dim() as u32);
    w.u32(vectors.len() as u32);
    w.f32s(vectors.raw_data());
    put_flags(w, q.options.flags);
    w.bool(q.options.quick_browse);
    w.opt(q.budget.max_distance_computations, Enc::u64);
    // Ceil to whole milliseconds: a sub-millisecond (but nonzero)
    // deadline must not truncate to an instant trip on the daemon.
    let deadline_ms = q
        .budget
        .deadline
        .map(|d| d.as_nanos().div_ceil(1_000_000) as u64);
    w.opt(deadline_ms, Enc::u64);
    w.u8(q.trace.as_u8());
    w.opt(q.request_id, Enc::u64);
    w.bool(q.explain);
}

/// Decode what [`put_query`] wrote after the verb and T or k.
fn take_query(r: &mut Dec, mode: QueryMode) -> WireResult<Request> {
    let metric = r.str(MAX_NAME_BYTES)?;
    let tau = take_tau(r)?;
    let policy = take_policy(r)?;
    let dim = r.u32()? as usize;
    if dim == 0 {
        return Err(WireError::Malformed("query dimension is zero".into()));
    }
    let n = r.u32()? as usize;
    let vectors = VectorStore::from_raw(dim, r.f32_vec(n * dim)?)
        .map_err(|e| WireError::Malformed(e.to_string()))?;
    let options = SearchOptions {
        flags: take_flags(r)?,
        quick_browse: r.bool()?,
    };
    let budget = QueryBudget {
        max_distance_computations: r.opt(Dec::u64)?,
        deadline: r.opt(Dec::u64)?.map(Duration::from_millis),
    };
    let trace = r.u8()?;
    let trace = TraceLevel::from_u8(trace)
        .ok_or_else(|| WireError::Malformed(format!("unknown trace level {trace}")))?;
    let query = Query {
        mode,
        tau,
        options,
        policy,
        metric: Some(metric).filter(|m| !m.is_empty()),
        budget,
        trace,
        request_id: r.opt(Dec::u64)?,
        explain: r.bool()?,
    };
    Ok(Request::Query { query, vectors })
}

/// Recursion/size limits for decoding a span tree from the wire: deeper
/// or wider trees are treated as garbage, not a reason to recurse to a
/// stack overflow.
const MAX_TRACE_DEPTH: usize = 16;
const MAX_TRACE_SPANS: u32 = 4096;

fn put_span(w: &mut Enc, s: &TraceSpan) {
    w.str(&s.name);
    w.u64(s.start_us);
    w.u64(s.duration_us);
    w.u32(s.counters.len() as u32);
    for (k, v) in &s.counters {
        w.str(k);
        w.u64(*v);
    }
    w.u32(s.children.len() as u32);
    for c in &s.children {
        put_span(w, c);
    }
}

fn take_span(r: &mut Dec, depth: usize, budget: &mut u32) -> WireResult<TraceSpan> {
    if depth > MAX_TRACE_DEPTH {
        return Err(WireError::Malformed("trace tree too deep".into()));
    }
    *budget = budget
        .checked_sub(1)
        .ok_or_else(|| WireError::Malformed("trace tree too large".into()))?;
    let name = r.str(256)?;
    let start_us = r.u64()?;
    let duration_us = r.u64()?;
    let n_counters = r.u32()?;
    if n_counters > 256 {
        return Err(WireError::Malformed("too many span counters".into()));
    }
    let mut counters = Vec::with_capacity(n_counters as usize);
    for _ in 0..n_counters {
        let k = r.str(256)?;
        let v = r.u64()?;
        counters.push((k, v));
    }
    let n_children = r.u32()?;
    if n_children > MAX_TRACE_SPANS {
        return Err(WireError::Malformed("too many child spans".into()));
    }
    let mut children = Vec::with_capacity(n_children.min(256) as usize);
    for _ in 0..n_children {
        children.push(take_span(r, depth + 1, budget)?);
    }
    Ok(TraceSpan {
        name,
        start_us,
        duration_us,
        counters,
        children,
    })
}

fn put_trace(w: &mut Enc, t: &QueryTrace) {
    put_span(w, &t.root);
}

fn take_trace(r: &mut Dec) -> WireResult<QueryTrace> {
    let mut budget = MAX_TRACE_SPANS;
    Ok(QueryTrace {
        root: take_span(r, 0, &mut budget)?,
    })
}

/// Cap on the top-k seeds of one EXPLAIN funnel (one per unit a scan
/// ran on): anything longer is treated as garbage, like an oversized
/// trace tree.
const MAX_TOPK_SEEDS: u32 = 1 << 16;

fn put_funnel(w: &mut Enc, c: &FunnelCounters) {
    for n in c.counts() {
        w.u64(n);
    }
    w.u32(c.topk_seeds.len() as u32);
    for seed in &c.topk_seeds {
        w.opt(*seed, Enc::u32);
    }
}

fn take_funnel(r: &mut Dec) -> WireResult<FunnelCounters> {
    let mut counts = [0; FunnelCounters::COUNTS];
    for n in &mut counts {
        *n = r.u64()?;
    }
    let n_seeds = r.u32()?;
    if n_seeds > MAX_TOPK_SEEDS {
        return Err(WireError::Malformed("too many top-k seeds".into()));
    }
    let mut seeds = Vec::new();
    for _ in 0..n_seeds {
        seeds.push(r.opt(Dec::u32)?);
    }
    Ok(FunnelCounters::from_counts(counts, seeds))
}

fn put_outcome(w: &mut Enc, outcome: QueryOutcome) {
    w.u8(match outcome {
        QueryOutcome::Exact => 0,
        QueryOutcome::Exceeded(Exceeded::DistanceComputations) => 1,
        QueryOutcome::Exceeded(Exceeded::Deadline) => 2,
    })
}

fn take_outcome(r: &mut Dec) -> WireResult<QueryOutcome> {
    match r.u8()? {
        0 => Ok(QueryOutcome::Exact),
        1 => Ok(QueryOutcome::Exceeded(Exceeded::DistanceComputations)),
        2 => Ok(QueryOutcome::Exceeded(Exceeded::Deadline)),
        t => Err(WireError::Malformed(format!("unknown outcome tag {t}"))),
    }
}

/// The body of a `HITS` reply.
fn put_hits_body(w: &mut Enc, h: &HitsReply) {
    w.u64(h.generation);
    w.bool(h.cached);
    w.opt(h.ext, |w, ext| {
        put_outcome(w, ext.outcome);
        w.u64(ext.distance_computations);
    });
    w.u32(h.hits.len() as u32);
    for hit in &h.hits {
        w.u64(hit.external_id);
        w.str(&hit.table_name);
        w.str(&hit.column_name);
        w.u32(hit.match_count);
    }
    w.opt(h.trace.as_ref(), put_trace);
    w.opt(h.explain.as_deref(), put_funnel);
}

fn take_hits_body(r: &mut Dec) -> WireResult<HitsReply> {
    let generation = r.u64()?;
    let cached = r.bool()?;
    let ext = r.opt(|r| -> WireResult<HitsExt> {
        Ok(HitsExt {
            outcome: take_outcome(r)?,
            distance_computations: r.u64()?,
        })
    })?;
    let n = r.u32()? as usize;
    let mut hits = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        hits.push(WireHit {
            external_id: r.u64()?,
            table_name: r.str(MAX_NAME_BYTES)?,
            column_name: r.str(MAX_NAME_BYTES)?,
            match_count: r.u32()?,
        });
    }
    Ok(HitsReply {
        generation,
        cached,
        hits,
        ext,
        trace: r.opt(take_trace)?,
        explain: r.opt(take_funnel)?.map(Box::new),
    })
}

// ---------------------------------------------------------------------------
// Request / reply codecs
// ---------------------------------------------------------------------------

/// Encode a request into a frame payload stamped `PROTOCOL_VERSION`.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Enc::new();
    w.bytes(MAGIC);
    w.u8(PROTOCOL_VERSION);
    match req {
        Request::Info => w.u8(VERB_INFO),
        Request::Query { query, vectors } => put_query(&mut w, query, vectors),
        Request::Metrics => w.u8(VERB_METRICS),
        Request::SlowLog => w.u8(VERB_SLOW),
        Request::Health => w.u8(VERB_HEALTH),
        Request::Drain { addr, drained } => {
            w.u8(VERB_DRAIN);
            w.str(addr);
            w.bool(*drained);
        }
        Request::Reload { dir } => {
            w.u8(VERB_RELOAD);
            w.str(dir.as_deref().unwrap_or(""));
        }
        Request::ApplyDelta { shard } => {
            w.u8(VERB_APPLY);
            w.opt(*shard, Enc::u32);
        }
        Request::Shutdown => w.u8(VERB_SHUTDOWN),
    }
    w.into_bytes()
}

/// Decode a frame payload into a request. Refuses every version but
/// `PROTOCOL_VERSION`.
pub fn decode_request(payload: &[u8]) -> WireResult<Request> {
    let mut r = Dec::new(payload);
    if r.bytes(4)? != MAGIC {
        return Err(WireError::Malformed("bad request magic".into()));
    }
    let version = r.u8()?;
    if version != PROTOCOL_VERSION {
        return Err(WireError::Malformed(format!(
            "protocol version {version} unsupported (this build speaks {PROTOCOL_VERSION})"
        )));
    }
    let req = match r.u8()? {
        VERB_INFO => Request::Info,
        VERB_SEARCH => {
            let t = take_threshold(&mut r)?;
            take_query(&mut r, QueryMode::Threshold(t))?
        }
        VERB_TOPK => {
            let k = r.u64()? as usize;
            take_query(&mut r, QueryMode::Topk(k))?
        }
        VERB_METRICS => Request::Metrics,
        VERB_SLOW => Request::SlowLog,
        VERB_HEALTH => Request::Health,
        VERB_DRAIN => Request::Drain {
            addr: r.str(4096)?,
            drained: r.bool()?,
        },
        VERB_RELOAD => {
            let dir = r.str(4096)?;
            Request::Reload {
                dir: if dir.is_empty() { None } else { Some(dir) },
            }
        }
        VERB_APPLY => Request::ApplyDelta {
            shard: r.opt(Dec::u32)?,
        },
        VERB_SHUTDOWN => Request::Shutdown,
        v => return Err(WireError::Malformed(format!("unknown verb {v}"))),
    };
    r.finish()?;
    Ok(req)
}

/// Encode a reply into a frame payload.
pub fn encode_reply(reply: &Reply) -> Vec<u8> {
    let mut w = Enc::new();
    match reply {
        Reply::Info(info) => {
            w.u8(REPLY_INFO);
            w.u32(info.dim);
            w.u64(info.generation);
            w.u64(info.index_version);
            w.u32(info.partitions);
            w.u64(info.disk_bytes);
        }
        Reply::Hits(h) => {
            w.u8(REPLY_HITS);
            put_hits_body(&mut w, h);
        }
        Reply::Text { text } => {
            w.u8(REPLY_TEXT);
            w.str(text);
        }
        Reply::Reloaded {
            generation,
            partitions,
        } => {
            w.u8(REPLY_RELOADED);
            w.u64(*generation);
            w.u32(*partitions);
        }
        Reply::Applied {
            generation,
            delta_columns,
            tombstones,
        } => {
            w.u8(REPLY_APPLIED);
            w.u64(*generation);
            w.u64(*delta_columns);
            w.u64(*tombstones);
        }
        Reply::ShuttingDown => w.u8(REPLY_SHUTTING_DOWN),
        Reply::Busy => w.u8(REPLY_BUSY),
        Reply::Shed => w.u8(REPLY_SHED),
        Reply::DeadlineExpired { waited_ms } => {
            w.u8(REPLY_DEADLINE_EXPIRED);
            w.u64(*waited_ms);
        }
        Reply::Err { message } => {
            w.u8(REPLY_ERR);
            w.str(message);
        }
    }
    w.into_bytes()
}

/// Decode a frame payload into a reply.
pub fn decode_reply(payload: &[u8]) -> WireResult<Reply> {
    let mut r = Dec::new(payload);
    let reply = match r.u8()? {
        REPLY_INFO => Reply::Info(InfoReply {
            dim: r.u32()?,
            generation: r.u64()?,
            index_version: r.u64()?,
            partitions: r.u32()?,
            disk_bytes: r.u64()?,
        }),
        REPLY_HITS => Reply::Hits(take_hits_body(&mut r)?),
        REPLY_TEXT => Reply::Text {
            text: r.str(1 << 20)?,
        },
        REPLY_RELOADED => Reply::Reloaded {
            generation: r.u64()?,
            partitions: r.u32()?,
        },
        REPLY_APPLIED => Reply::Applied {
            generation: r.u64()?,
            delta_columns: r.u64()?,
            tombstones: r.u64()?,
        },
        REPLY_SHUTTING_DOWN => Reply::ShuttingDown,
        REPLY_BUSY => Reply::Busy,
        REPLY_SHED => Reply::Shed,
        REPLY_DEADLINE_EXPIRED => Reply::DeadlineExpired {
            waited_ms: r.u64()?,
        },
        REPLY_ERR => Reply::Err {
            message: r.str(1 << 16)?,
        },
        k => return Err(WireError::Malformed(format!("unknown reply kind {k}"))),
    };
    r.finish()?;
    Ok(reply)
}

// ---------------------------------------------------------------------------
// Cache fingerprinting
// ---------------------------------------------------------------------------

/// Cache key for a query against one snapshot generation: FNV-1a over the
/// verb byte, metric, τ, T (or k), the raw query bits, and the
/// generation. The execution policy is deliberately *excluded* — results
/// are policy-independent by the crate-wide determinism contract, so a
/// sequential and a parallel request share one cache line — and so are
/// the options, budget, trace level, request id and explain flag, none
/// of which changes an exact answer.
pub fn query_fingerprint(query: &Query, vectors: &VectorStore, generation: u64) -> u64 {
    let raw = vectors.raw_data();
    let mut w = Enc::with_capacity(64 + 4 * raw.len());
    w.u8(match query.mode {
        QueryMode::Threshold(_) => VERB_SEARCH,
        QueryMode::Topk(_) => VERB_TOPK,
    });
    w.bytes(query.metric.as_deref().unwrap_or_default().as_bytes());
    put_tau(&mut w, query.tau);
    match query.mode {
        QueryMode::Threshold(t) => put_threshold(&mut w, t),
        QueryMode::Topk(k) => w.u64(k as u64),
    }
    w.u32(vectors.dim() as u32);
    w.f32s(raw);
    w.u64(generation);
    fnv64(w.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_vectors() -> VectorStore {
        VectorStore::from_raw(2, vec![1.0, -2.0, 0.5, 0.25]).unwrap()
    }

    /// `query` over τ = 6 % with a metric expectation and four threads,
    /// everything else at its default.
    fn plain(query: Query) -> Query {
        query
            .expect_metric("euclidean")
            .with_policy(ExecPolicy::Parallel { threads: 4 })
    }

    fn sample_query(mode: QueryMode) -> Query {
        plain(match mode {
            QueryMode::Threshold(t) => Query::threshold(Tau::Ratio(0.06), t),
            QueryMode::Topk(k) => Query::topk(Tau::Ratio(0.06), k),
        })
    }

    /// Budgeted, fixed-policy, traced, correlated, explained: every
    /// optional part of a query switched on.
    fn loaded(query: Query) -> Query {
        query
            .with_policy(ExecPolicy::Fixed { threads: 6 })
            .with_flags(LemmaFlags::without_lemma34())
            .quick_browse(false)
            .with_max_distance_computations(12345)
            .with_deadline(Duration::from_millis(250))
            .with_trace(TraceLevel::Detail)
            .with_request_id(0xDEAD_BEEF)
            .with_explain(true)
    }

    fn request(query: Query) -> Request {
        Request::Query {
            query,
            vectors: sample_vectors(),
        }
    }

    /// All 11 verbs, the query verbs with and without budget, trace,
    /// request id, explain and metric expectation. The first of each verb
    /// is its golden frame.
    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Info,
            request(loaded(sample_query(QueryMode::Threshold(
                JoinThreshold::Count(7),
            )))),
            request(sample_query(QueryMode::Threshold(JoinThreshold::Ratio(
                0.5,
            )))),
            request(sample_query(QueryMode::Topk(10))),
            request(
                sample_query(QueryMode::Topk(4))
                    .with_policy(ExecPolicy::Sequential)
                    .with_trace(TraceLevel::Phases)
                    .with_request_id(7)
                    .with_explain(true),
            ),
            request(
                Query::topk(Tau::Absolute(0.5), 0).with_policy(ExecPolicy::Fixed { threads: 0 }),
            ),
            Request::Reload {
                dir: Some("/d".into()),
            },
            Request::Reload { dir: None },
            Request::Shutdown,
            Request::ApplyDelta { shard: Some(2) },
            Request::ApplyDelta { shard: None },
            Request::Metrics,
            Request::SlowLog,
            Request::Health,
            Request::Drain {
                addr: "a:1".into(),
                drained: true,
            },
            Request::Drain {
                addr: "a:1".into(),
                drained: false,
            },
        ]
    }

    fn sample_trace() -> QueryTrace {
        QueryTrace::new(
            TraceSpan::new("query", 0, 120)
                .counter("dc", 41)
                .child(TraceSpan::new("map", 0, 30)),
        )
    }

    fn sample_funnel() -> FunnelCounters {
        FunnelCounters {
            candidate_pairs: 60,
            cell_pairs_filtered: 40,
            distance_computations: 777,
            topk_seeds: vec![Some(3), None],
            ..FunnelCounters::default()
        }
    }

    /// What a daemon answers from its cache.
    fn sample_hits() -> HitsReply {
        HitsReply {
            generation: 1,
            cached: true,
            hits: vec![WireHit {
                external_id: 42,
                table_name: "tab".into(),
                column_name: "col".into(),
                match_count: 9,
            }],
            ext: Some(HitsExt {
                outcome: QueryOutcome::Exact,
                distance_computations: 0,
            }),
            trace: None,
            explain: None,
        }
    }

    /// All 10 reply kinds, the hits-shaped ones with and without the
    /// extension, a trace and the explain funnel. The first of each kind
    /// is its golden frame.
    fn sample_replies() -> Vec<Reply> {
        let full = HitsReply {
            cached: false,
            ext: Some(HitsExt {
                outcome: QueryOutcome::Exceeded(Exceeded::Deadline),
                distance_computations: 777,
            }),
            trace: Some(sample_trace()),
            explain: Some(Box::new(sample_funnel())),
            ..sample_hits()
        };
        vec![
            Reply::Info(InfoReply {
                dim: 64,
                generation: 3,
                index_version: 2,
                partitions: 4,
                disk_bytes: 123456,
            }),
            Reply::Hits(full.clone()),
            Reply::Hits(sample_hits()),
            // Explain alone, and a trace alone.
            Reply::Hits(HitsReply {
                explain: Some(Box::new(sample_funnel())),
                ..sample_hits()
            }),
            Reply::Hits(HitsReply {
                hits: Vec::new(),
                ext: None,
                trace: Some(sample_trace()),
                ..sample_hits()
            }),
            Reply::Text { text: "a=1".into() },
            Reply::Reloaded {
                generation: 2,
                partitions: 3,
            },
            Reply::Applied {
                generation: 5,
                delta_columns: 7,
                tombstones: 2,
            },
            Reply::ShuttingDown,
            Reply::Busy,
            Reply::Shed,
            Reply::DeadlineExpired { waited_ms: 1500 },
            Reply::Err {
                message: "nope".into(),
            },
        ]
    }

    #[test]
    fn request_roundtrip_all_verbs() {
        for req in &sample_requests() {
            let bytes = encode_request(req);
            assert_eq!(bytes[4], PROTOCOL_VERSION, "{req:?}");
            assert_eq!(&decode_request(&bytes).unwrap(), req);
        }
    }

    #[test]
    fn reply_roundtrip_all_kinds() {
        for reply in &sample_replies() {
            let bytes = encode_reply(reply);
            assert_eq!(&decode_reply(&bytes).unwrap(), reply);
        }
    }

    /// No field is inferred from "bytes remain": cutting a frame anywhere
    /// never yields a different valid frame.
    #[test]
    fn strict_prefixes_never_decode() {
        for req in &sample_requests() {
            let bytes = encode_request(req);
            for cut in 0..bytes.len() {
                assert!(
                    decode_request(&bytes[..cut]).is_err(),
                    "{cut}-byte prefix of {req:?} decoded"
                );
            }
        }
        for reply in &sample_replies() {
            let bytes = encode_reply(reply);
            for cut in 0..bytes.len() {
                assert!(
                    decode_reply(&bytes[..cut]).is_err(),
                    "{cut}-byte prefix of {reply:?} decoded"
                );
            }
        }
    }

    /// The decoders accept only bytes the encoders produce: whatever a
    /// corrupted frame still decodes to encodes back to the same bytes.
    #[test]
    fn decoding_is_canonical_under_byte_mutation() {
        fn sweep<T: std::fmt::Debug>(
            frame: Vec<u8>,
            decode: fn(&[u8]) -> WireResult<T>,
            encode: fn(&T) -> Vec<u8>,
        ) {
            let mut mutated = frame.clone();
            for at in 0..frame.len() {
                for value in 0..=u8::MAX {
                    mutated[at] = value;
                    if let Ok(decoded) = decode(&mutated) {
                        assert_eq!(
                            encode(&decoded),
                            mutated,
                            "byte {at} = {value} decodes to {decoded:?}"
                        );
                    }
                }
                mutated[at] = frame[at];
            }
        }
        for req in &sample_requests() {
            sweep(encode_request(req), decode_request, encode_request);
        }
        for reply in &sample_replies() {
            sweep(encode_reply(reply), decode_reply, encode_reply);
        }
    }

    #[test]
    fn non_canonical_fields_rejected() {
        let search = |policy| {
            encode_request(&request(
                sample_query(QueryMode::Threshold(JoinThreshold::Count(3))).with_policy(policy),
            ))
        };
        let malformed =
            |bytes: &[u8]| matches!(decode_request(bytes), Err(WireError::Malformed(_)));
        // Sequential carries no thread count; Parallel and Fixed carry any,
        // zero included. (The policy sits after verb, threshold, metric
        // and τ.)
        let policy_at = 6 + 9 + (4 + "euclidean".len()) + 5;
        let mut bytes = search(ExecPolicy::Sequential);
        assert_eq!(bytes[policy_at], 0);
        bytes[policy_at + 1] = 3;
        assert!(malformed(&bytes));
        for policy in [
            ExecPolicy::Fixed { threads: 0 },
            ExecPolicy::Parallel { threads: 0 },
        ] {
            let bytes = search(policy);
            assert_eq!(bytes[policy_at + 1..policy_at + 5], [0; 4]);
            let Ok(Request::Query { query, .. }) = decode_request(&bytes) else {
                panic!("{policy:?} did not decode");
            };
            assert_eq!(query.policy, policy);
        }
        // The frame ends: …, trace level, request-id tag, explain flag.
        let bytes = search(ExecPolicy::Parallel { threads: 4 });
        let n = bytes.len();
        for (at, bad) in [(n - 1, 2), (n - 3, 3)] {
            let mut bytes = bytes.clone();
            bytes[at] = bad;
            assert!(malformed(&bytes), "byte {at} = {bad}");
        }
        // A reply's `cached` flag.
        let mut bytes = encode_reply(&Reply::Hits(sample_hits()));
        assert_eq!(bytes[9], 1);
        bytes[9] = 2;
        assert!(matches!(decode_reply(&bytes), Err(WireError::Malformed(_))));
    }

    /// One frame per verb and per reply kind — the first sample of each —
    /// byte for byte (`;` ends a frame, fields are spaced for reading): a
    /// layout change that forgets to bump `PROTOCOL_VERSION` fails here.
    #[test]
    fn golden_frames() {
        fn check(frames: impl Iterator<Item = Vec<u8>>, tag_at: usize, golden: &str) {
            let mut tags = Vec::new();
            let mut firsts = Vec::new();
            for frame in frames {
                if !tags.contains(&frame[tag_at]) {
                    tags.push(frame[tag_at]);
                    firsts.push(frame.iter().map(|b| format!("{b:02x}")).collect::<String>());
                }
            }
            let golden: Vec<String> = golden
                .split_terminator(';')
                .map(|frame| frame.split_whitespace().collect())
                .collect();
            assert_eq!(firsts, golden);
        }
        check(
            sample_requests().iter().map(encode_request),
            5,
            "50585356 09 00;
             50585356 09 01  00 0700000000000000  09000000 6575636c696465616e  01 8fc2753d
                02 06000000  02000000  02000000 0000803f 000000c0 0000003f 0000803e
                0b 00 01 3930000000000000 01 fa00000000000000  02  01 efbeadde00000000  01;
             50585356 09 02  0a00000000000000  09000000 6575636c696465616e  01 8fc2753d
                01 04000000  02000000  02000000 0000803f 000000c0 0000003f 0000803e
                0f 01 00 00  00  00  00;
             50585356 09 04  02000000 2f64;
             50585356 09 05;
             50585356 09 06  01 02000000;
             50585356 09 08;
             50585356 09 09;
             50585356 09 0b;
             50585356 09 0c  03000000 613a31  01;",
        );
        check(
            sample_replies().iter().map(encode_reply),
            0,
            "00  40000000 0300000000000000 0200000000000000 04000000 40e2010000000000;
             01  0100000000000000 00  01 02 0903000000000000
                01000000  2a00000000000000 03000000 746162 03000000 636f6c 09000000
                01  05000000 7175657279 0000000000000000 7800000000000000
                    01000000 02000000 6463 2900000000000000
                    01000000 03000000 6d6170 0000000000000000 1e00000000000000 00000000 00000000
                01  3c00000000000000 0000000000000000 2800000000000000 0000000000000000
                    0000000000000000 0000000000000000 0000000000000000 0000000000000000
                    0903000000000000 0000000000000000 0000000000000000 0000000000000000
                    02000000 01 03000000 00;
             02  03000000 613d31;
             03  0200000000000000 03000000;
             06  0500000000000000 0700000000000000 0200000000000000;
             04;
             fa;
             f9;
             f8  dc05000000000000;
             fb  04000000 6e6f7065;",
        );
    }

    /// The one version rule: equality with this build's.
    #[test]
    fn other_versions_are_refused() {
        for req in &sample_requests() {
            let mut bytes = encode_request(req);
            for version in [0u8, 1, 2, 3, 4, 5, 6, 7, 8, 255] {
                bytes[4] = version;
                let Err(WireError::Malformed(msg)) = decode_request(&bytes) else {
                    panic!("version {version} of {req:?} decoded");
                };
                assert_eq!(
                    msg,
                    format!("protocol version {version} unsupported (this build speaks 9)")
                );
            }
        }
    }

    #[test]
    fn trace_codec_rejects_absurd_depth() {
        // A span tree nested past MAX_TRACE_DEPTH encodes (the writer is
        // trusting) but must be rejected on decode — depth is attacker
        // controlled.
        let mut span = TraceSpan::new("leaf", 0, 1);
        for i in 0..=MAX_TRACE_DEPTH {
            span = TraceSpan::new(format!("level/{i}"), 0, 1).child(span);
        }
        let reply = Reply::Hits(HitsReply {
            trace: Some(QueryTrace::new(span)),
            ..sample_hits()
        });
        let bytes = encode_reply(&reply);
        assert!(matches!(decode_reply(&bytes), Err(WireError::Malformed(_))));
    }

    /// The writer is trusting, the reader is not: a funnel with more
    /// top-k seeds than MAX_TOPK_SEEDS encodes but must not decode.
    #[test]
    fn a_seed_list_over_its_cap_is_malformed() {
        let explained = |seeds: u32| {
            encode_reply(&Reply::Hits(HitsReply {
                explain: Some(Box::new(FunnelCounters {
                    topk_seeds: vec![Some(1); seeds as usize],
                    ..sample_funnel()
                })),
                ..sample_hits()
            }))
        };
        assert!(decode_reply(&explained(MAX_TOPK_SEEDS)).is_ok());
        let Err(WireError::Malformed(msg)) = decode_reply(&explained(MAX_TOPK_SEEDS + 1)) else {
            panic!("an over-long seed list decoded");
        };
        assert_eq!(msg, "too many top-k seeds");
    }

    /// Cut anywhere, an explained HITS reply is refused as malformed:
    /// the funnel's counters and seeds are all read, never inferred.
    #[test]
    fn every_truncation_of_an_explained_hits_reply_is_refused() {
        let bytes = encode_reply(&Reply::Hits(HitsReply {
            explain: Some(Box::new(sample_funnel())),
            ..sample_hits()
        }));
        for cut in 0..bytes.len() {
            assert!(
                matches!(decode_reply(&bytes[..cut]), Err(WireError::Malformed(_))),
                "{cut}-byte prefix decoded"
            );
        }
    }

    #[test]
    fn frame_roundtrip_over_a_pipe() {
        let payload = encode_request(&Request::Info);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        let back = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(back, payload);
        // A clean EOF after the frame reads as None, not an error.
        assert!(read_frame(&mut cursor).unwrap().is_none());
    }

    #[test]
    fn oversized_and_truncated_frames_rejected() {
        let mut giant = Vec::new();
        giant.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(giant)),
            Err(WireError::Malformed(_))
        ));
        let mut short = Vec::new();
        short.extend_from_slice(&100u32.to_le_bytes());
        short.extend_from_slice(&[1, 2, 3]);
        assert!(matches!(
            read_frame(&mut std::io::Cursor::new(short)),
            Err(WireError::Malformed(_))
        ));
    }

    /// The writer enforces the cap the reader enforces, and before the
    /// first byte: the largest frame passes both, one byte more neither.
    #[test]
    fn write_frame_refuses_what_read_frame_would() {
        let mut payload = vec![0u8; MAX_FRAME_BYTES as usize];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let back = read_frame(&mut std::io::Cursor::new(&buf))
            .unwrap()
            .unwrap();
        assert_eq!(back.len(), payload.len());
        payload.push(0);
        buf.clear();
        let err = write_frame(&mut buf, &payload).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(buf.is_empty(), "nothing may be written of a refused frame");
    }

    #[test]
    fn malformed_payloads_rejected() {
        assert!(decode_request(b"JUNKxxxx").is_err());
        // Trailing bytes after a valid request.
        let mut bytes = encode_request(&Request::Info);
        bytes.push(0);
        assert!(decode_request(&bytes).is_err());
        assert!(decode_reply(&[77]).is_err());
        // Retired reply kinds are unknown kinds.
        for kind in [5u8, 7, 8, 9, 10] {
            let mut bytes = encode_reply(&Reply::Hits(sample_hits()));
            bytes[0] = kind;
            let Err(WireError::Malformed(msg)) = decode_reply(&bytes) else {
                panic!("kind {kind} decoded");
            };
            assert_eq!(msg, format!("unknown reply kind {kind}"));
        }
        // So are the retired verbs 3, 7 and 10, under this build's own
        // version.
        for verb in [3u8, 7, 10] {
            let mut bytes = encode_request(&Request::Info);
            bytes[5] = verb;
            let Err(WireError::Malformed(msg)) = decode_request(&bytes) else {
                panic!("verb {verb} decoded");
            };
            assert_eq!(msg, format!("unknown verb {verb}"));
        }
    }

    #[test]
    fn fingerprint_sensitivity() {
        let fp = |tau, k, generation| {
            query_fingerprint(&plain(Query::topk(tau, k)), &sample_vectors(), generation)
        };
        let base = fp(Tau::Ratio(0.06), 10, 1);
        // Same request, same generation: stable.
        assert_eq!(base, fp(Tau::Ratio(0.06), 10, 1));
        // Any keyed field changing changes the fingerprint.
        assert_ne!(base, fp(Tau::Ratio(0.07), 10, 1));
        assert_ne!(base, fp(Tau::Ratio(0.06), 11, 1));
        assert_ne!(base, fp(Tau::Ratio(0.06), 10, 2));
    }

    /// The key hashes the bytes it always has — a build that changed
    /// them would re-key every cache line for no reason.
    #[test]
    fn golden_fingerprints() {
        let fp = |query: Query, generation| {
            format!(
                "{:#018x}",
                query_fingerprint(&query, &sample_vectors(), generation)
            )
        };
        let search = |t| Query::threshold(Tau::Ratio(0.06), t);
        assert_eq!(
            fp(sample_query(QueryMode::Topk(10)), 1),
            "0x93e95229e970cd3e"
        );
        assert_eq!(
            fp(plain(search(JoinThreshold::Count(7))), 3),
            "0xeb6792c9b60cc004"
        );
        assert_eq!(
            fp(search(JoinThreshold::Ratio(0.5)), 2),
            "0x816b1f84075d15ec"
        );
    }

    /// Policy, options, budget, trace level, request id and explain are
    /// *not* keyed: results are policy-independent, and the envelope
    /// never changes an exact answer, so such a query shares its cache
    /// line with the plain twin.
    #[test]
    fn fingerprint_ignores_policy_options_budget_trace_request_id_and_explain() {
        let fp = |query: Query| query_fingerprint(&query, &sample_vectors(), 1);
        let base = sample_query(QueryMode::Topk(10));
        let plain = fp(base.clone());
        assert_eq!(plain, fp(loaded(base.clone())));
        assert_eq!(plain, fp(base.clone().with_explain(true)));
        assert_eq!(plain, fp(base.with_policy(ExecPolicy::Sequential)));
    }
}

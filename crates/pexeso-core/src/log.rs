//! Structured, request-correlated logging.
//!
//! The serving tier needs one more observability plane than traces and
//! metrics give it: an event log that can be grepped by **request id**
//! across the router daemon, every shard daemon, and the SLOW log. This
//! module is that plane's core: a leveled, JSON-lines logger engineered
//! around the same discipline as [`crate::trace`] — *disabled means
//! free*:
//!
//! * When logging is off (the default), [`enabled`] is a single relaxed
//!   atomic load and [`log`] returns before touching anything else — no
//!   allocation, no lock, no formatting. Field lists are borrowed
//!   stack-only slices, so call sites build them for free too.
//! * When on, the calling thread only formats one line and pushes it
//!   onto a bounded ring; a detached writer thread drains the ring and
//!   performs the actual I/O, so a slow or blocked sink never stalls a
//!   request. When the ring is full the new line is *dropped and
//!   counted* — back-pressure never propagates into the query path —
//!   and the drop count is reported in a synthetic `log_dropped` line
//!   once the writer catches up.
//!
//! Every line is a single JSON object (JSON-lines), hand-rendered by
//! `format_line` so the core crate stays dependency-free:
//!
//! ```json
//! {"ts_us":1723111845123456,"level":"info","target":"server","event":"request_done","rid":"00f3a2...","latency_us":1421}
//! ```
//!
//! Request ids are minted with [`mint_request_id`] at the *outermost*
//! hop (CLI or router), rendered with [`fmt_request_id`], and carried
//! over the wire in every query frame so one grep correlates a query
//! end-to-end.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// Severity of a log line, ordered `Error < Warn < Info < Debug` so a
/// configured level admits itself and everything more severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum LogLevel {
    /// A request or subsystem failed.
    Error = 1,
    /// Degraded but continuing (retries, failovers, shed load).
    Warn = 2,
    /// Request lifecycle and administrative events.
    Info = 3,
    /// High-volume diagnostic detail.
    Debug = 4,
}

impl LogLevel {
    /// The lowercase name used in rendered lines and CLI flags.
    pub fn as_str(self) -> &'static str {
        match self {
            LogLevel::Error => "error",
            LogLevel::Warn => "warn",
            LogLevel::Info => "info",
            LogLevel::Debug => "debug",
        }
    }

    /// Parse a CLI-style level name; `off`/`none` yield `None`.
    pub fn parse(s: &str) -> Option<Option<LogLevel>> {
        match s {
            "off" | "none" => Some(None),
            "error" => Some(Some(LogLevel::Error)),
            "warn" => Some(Some(LogLevel::Warn)),
            "info" => Some(Some(LogLevel::Info)),
            "debug" => Some(Some(LogLevel::Debug)),
            _ => None,
        }
    }
}

/// A borrowed field value; the variants cover everything the serving
/// tier logs without ever allocating at a disabled call site.
#[derive(Debug, Clone, Copy)]
pub enum Value<'a> {
    /// Unsigned counter/size.
    U64(u64),
    /// Signed quantity.
    I64(i64),
    /// Floating-point quantity.
    F64(f64),
    /// Borrowed string (JSON-escaped on render).
    Str(&'a str),
    /// Boolean flag.
    Bool(bool),
    /// A request id, rendered as a 16-digit zero-padded hex string.
    Rid(u64),
}

impl From<u64> for Value<'_> {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value<'_> {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value<'_> {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}
impl From<i64> for Value<'_> {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value<'_> {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl<'a> From<&'a str> for Value<'a> {
    fn from(v: &'a str) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value<'_> {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Append `s` to `out` JSON-escaped (quotes, backslashes, control
/// characters; no other transformation).
fn escape_json_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Render one JSON-lines log record (without trailing newline).
///
/// Pure so it can be unit-tested away from the global logger. The fixed
/// keys `ts_us`, `level`, `target`, and `event` come first, then the
/// caller's fields in order.
pub(crate) fn format_line(
    ts_us: u64,
    level: LogLevel,
    target: &str,
    event: &str,
    fields: &[(&str, Value<'_>)],
) -> String {
    let mut out = String::with_capacity(96 + fields.len() * 24);
    out.push_str("{\"ts_us\":");
    out.push_str(&ts_us.to_string());
    out.push_str(",\"level\":\"");
    out.push_str(level.as_str());
    out.push_str("\",\"target\":\"");
    escape_json_into(&mut out, target);
    out.push_str("\",\"event\":\"");
    escape_json_into(&mut out, event);
    out.push('"');
    for (key, value) in fields {
        out.push_str(",\"");
        escape_json_into(&mut out, key);
        out.push_str("\":");
        match value {
            Value::U64(v) => out.push_str(&v.to_string()),
            Value::I64(v) => out.push_str(&v.to_string()),
            Value::F64(v) => {
                if v.is_finite() {
                    out.push_str(&v.to_string());
                } else {
                    out.push_str("null");
                }
            }
            Value::Str(s) => {
                out.push('"');
                escape_json_into(&mut out, s);
                out.push('"');
            }
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Rid(r) => {
                out.push('"');
                out.push_str(&fmt_request_id(*r));
                out.push('"');
            }
        }
    }
    out.push('}');
    out
}

/// The bounded line ring shared between loggers and the writer thread.
#[derive(Debug, Default)]
struct Ring {
    lines: VecDeque<String>,
    /// Lines dropped since the writer last drained.
    dropped: u64,
    /// Total lines accepted into the ring.
    pushed: u64,
    /// Total lines the writer has durably written and flushed.
    written: u64,
}

/// A leveled JSON-lines logger with a bounded ring and an asynchronous
/// writer. One global instance serves the process (see [`init`]); the
/// type is public mainly so the buffering behaviour can be tested
/// directly.
#[derive(Debug)]
pub struct Logger {
    level: AtomicU8,
    ring: Mutex<Ring>,
    cond: Condvar,
    capacity: usize,
}

impl Logger {
    /// A logger holding at most `capacity` undrained lines.
    pub fn new(level: LogLevel, capacity: usize) -> Self {
        Self {
            level: AtomicU8::new(level as u8),
            ring: Mutex::new(Ring::default()),
            cond: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Whether `level` is admitted. One relaxed load.
    #[inline]
    pub fn enabled(&self, level: LogLevel) -> bool {
        self.level.load(Ordering::Relaxed) >= level as u8
    }

    /// Change the admitted level at runtime.
    pub(crate) fn set_level(&self, level: LogLevel) {
        self.level.store(level as u8, Ordering::Relaxed);
    }

    /// Format and enqueue one record; drops (and counts) when the ring
    /// is full so the caller never blocks on the sink.
    pub fn log(&self, level: LogLevel, target: &str, event: &str, fields: &[(&str, Value<'_>)]) {
        if !self.enabled(level) {
            return;
        }
        let line = format_line(now_us(), level, target, event, fields);
        let mut ring = self.ring.lock().unwrap();
        if ring.lines.len() >= self.capacity {
            ring.dropped += 1;
        } else {
            ring.lines.push_back(line);
            ring.pushed += 1;
        }
        drop(ring);
        self.cond.notify_all();
    }

    /// Lines currently buffered (test/diagnostic accessor).
    pub fn pending(&self) -> usize {
        self.ring.lock().unwrap().lines.len()
    }

    /// Lines dropped because the ring was full, since the last drain.
    pub fn dropped(&self) -> u64 {
        self.ring.lock().unwrap().dropped
    }

    /// Start the detached writer thread draining this logger into
    /// `sink`. Called once per logger; the thread runs for the life of
    /// the process.
    pub(crate) fn spawn_writer(self: &Arc<Self>, sink: Box<dyn Write + Send>) {
        let logger = Arc::clone(self);
        let _ = std::thread::Builder::new()
            .name("pexeso-log".into())
            .spawn(move || logger.writer_loop(sink));
    }

    fn writer_loop(&self, mut sink: Box<dyn Write + Send>) {
        loop {
            let (batch, dropped) = {
                let mut ring = self.ring.lock().unwrap();
                while ring.lines.is_empty() && ring.dropped == 0 {
                    ring = self.cond.wait(ring).unwrap();
                }
                let batch: Vec<String> = ring.lines.drain(..).collect();
                let dropped = std::mem::take(&mut ring.dropped);
                (batch, dropped)
            };
            let n = batch.len() as u64;
            for line in &batch {
                let _ = sink.write_all(line.as_bytes());
                let _ = sink.write_all(b"\n");
            }
            if dropped > 0 {
                let line = format_line(
                    now_us(),
                    LogLevel::Warn,
                    "log",
                    "log_dropped",
                    &[("count", Value::U64(dropped))],
                );
                let _ = sink.write_all(line.as_bytes());
                let _ = sink.write_all(b"\n");
            }
            let _ = sink.flush();
            let mut ring = self.ring.lock().unwrap();
            ring.written += n;
            drop(ring);
            self.cond.notify_all();
        }
    }

    /// Block (bounded by `timeout`) until every line enqueued before the
    /// call has been written and flushed. Returns whether it drained.
    pub fn flush(&self, timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut ring = self.ring.lock().unwrap();
        let target = ring.pushed;
        while ring.written < target {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self.cond.wait_timeout(ring, left).unwrap();
            ring = guard;
        }
        true
    }
}

/// Global level mirror: one relaxed load answers [`enabled`] even
/// before/without [`init`] (0 = off, the process default).
static GLOBAL_LEVEL: AtomicU8 = AtomicU8::new(0);
static GLOBAL: OnceLock<Arc<Logger>> = OnceLock::new();

/// Default ring capacity for the process-global logger.
pub(crate) const DEFAULT_RING_CAPACITY: usize = 4096;

/// Install the process-global logger writing JSON lines to `sink` and
/// admitting `level`. The first call wins the sink and spawns the
/// writer thread; later calls only adjust the level. Returns the
/// global logger.
pub fn init(level: LogLevel, sink: Box<dyn Write + Send>) -> Arc<Logger> {
    let mut installed_sink = Some(sink);
    let logger = GLOBAL.get_or_init(|| {
        let logger = Arc::new(Logger::new(level, DEFAULT_RING_CAPACITY));
        logger.spawn_writer(installed_sink.take().unwrap());
        logger
    });
    logger.set_level(level);
    GLOBAL_LEVEL.store(level as u8, Ordering::Relaxed);
    Arc::clone(logger)
}

/// [`init`] with the conventional daemon sink: standard error.
pub fn init_stderr(level: LogLevel) -> Arc<Logger> {
    init(level, Box::new(std::io::stderr()))
}

/// Whether the global logger admits `level`. A single relaxed atomic
/// load — the entire cost of a disabled call site.
#[inline]
pub fn enabled(level: LogLevel) -> bool {
    GLOBAL_LEVEL.load(Ordering::Relaxed) >= level as u8
}

/// Log one record on the global logger; free (one atomic load) when the
/// level is not admitted or [`init`] was never called.
#[inline]
pub fn log(level: LogLevel, target: &str, event: &str, fields: &[(&str, Value<'_>)]) {
    if !enabled(level) {
        return;
    }
    if let Some(logger) = GLOBAL.get() {
        logger.log(level, target, event, fields);
    }
}

/// Block (up to one second) until the global logger has written every
/// line enqueued so far. CLI entry points call this before exiting so
/// short-lived processes don't lose their tail.
pub fn flush() {
    if let Some(logger) = GLOBAL.get() {
        logger.flush(Duration::from_secs(1));
    }
}

/// Microseconds since the Unix epoch (0 when the clock is before it).
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// SplitMix64 finalizer: well-mixed 64-bit ids from a counter.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Mint a process-unique, nonzero request id.
///
/// Minted at the *outermost* hop of a request (the CLI or the router
/// front door) and propagated unchanged to every shard, so one id
/// correlates router log, shard logs, SLOW entries, and merged trace
/// spans. Ids mix a per-process time-derived seed with an atomic
/// counter, so concurrent processes don't collide in practice and one
/// process never repeats.
pub fn mint_request_id() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let seed = *SEED.get_or_init(|| {
        let t = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x5eed);
        splitmix64(t ^ (std::process::id() as u64).rotate_left(32))
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let id = splitmix64(seed ^ n);
    if id == 0 {
        1
    } else {
        id
    }
}

/// Canonical request-id rendering: 16 lowercase hex digits, zero
/// padded. Every plane (logs, SLOW, traces, CLI) uses this form so a
/// single grep matches across all of them.
pub fn fmt_request_id(rid: u64) -> String {
    format!("{rid:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    /// A `Write` sink capturing into shared memory.
    struct Capture(Arc<StdMutex<Vec<u8>>>);
    impl Write for Capture {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn format_line_renders_each_value_kind() {
        let line = format_line(
            42,
            LogLevel::Info,
            "server",
            "request_done",
            &[
                ("n", Value::U64(7)),
                ("delta", Value::I64(-3)),
                ("ratio", Value::F64(0.5)),
                ("verb", Value::Str("query")),
                ("cached", Value::Bool(true)),
                ("rid", Value::Rid(0xab)),
            ],
        );
        assert_eq!(
            line,
            "{\"ts_us\":42,\"level\":\"info\",\"target\":\"server\",\
             \"event\":\"request_done\",\"n\":7,\"delta\":-3,\"ratio\":0.5,\
             \"verb\":\"query\",\"cached\":true,\"rid\":\"00000000000000ab\"}"
        );
    }

    #[test]
    fn format_line_escapes_json_metacharacters() {
        let line = format_line(
            1,
            LogLevel::Error,
            "t",
            "e",
            &[("msg", Value::Str("a\"b\\c\nd\te\u{1}"))],
        );
        assert!(line.contains("a\\\"b\\\\c\\nd\\te\\u0001"));
        // Non-finite floats must not produce invalid JSON.
        let nan = format_line(1, LogLevel::Error, "t", "e", &[("x", Value::F64(f64::NAN))]);
        assert!(nan.contains("\"x\":null"));
    }

    #[test]
    fn levels_below_the_logger_level_are_ignored() {
        let logger = Logger::new(LogLevel::Warn, 8);
        logger.log(LogLevel::Info, "t", "ignored", &[]);
        logger.log(LogLevel::Debug, "t", "ignored", &[]);
        assert_eq!(logger.pending(), 0);
        logger.log(LogLevel::Warn, "t", "kept", &[]);
        logger.log(LogLevel::Error, "t", "kept", &[]);
        assert_eq!(logger.pending(), 2);
    }

    #[test]
    fn full_ring_drops_and_counts_instead_of_blocking() {
        let logger = Logger::new(LogLevel::Info, 4);
        for i in 0..10u64 {
            logger.log(LogLevel::Info, "t", "e", &[("i", i.into())]);
        }
        assert_eq!(logger.pending(), 4);
        assert_eq!(logger.dropped(), 6);
    }

    #[test]
    fn writer_drains_ring_and_reports_drops() {
        let buf = Arc::new(StdMutex::new(Vec::new()));
        let logger = Arc::new(Logger::new(LogLevel::Debug, 2));
        logger.log(LogLevel::Info, "t", "one", &[]);
        logger.log(LogLevel::Info, "t", "two", &[]);
        logger.log(LogLevel::Info, "t", "overflow", &[]);
        logger.spawn_writer(Box::new(Capture(Arc::clone(&buf))));
        assert!(logger.flush(Duration::from_secs(5)));
        // Give the drop-notice write (same drain pass) a moment to land.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
            if text.contains("log_dropped") {
                assert!(text.contains("\"event\":\"one\""));
                assert!(text.contains("\"event\":\"two\""));
                assert!(!text.contains("overflow"));
                assert!(text.contains("\"count\":1"));
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "drop notice never written"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        // Subsequent lines flow through the now-empty ring.
        logger.log(LogLevel::Debug, "t", "three", &[]);
        assert!(logger.flush(Duration::from_secs(5)));
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert!(text.contains("\"event\":\"three\""));
    }

    #[test]
    fn request_ids_are_nonzero_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let rid = mint_request_id();
            assert_ne!(rid, 0);
            assert!(seen.insert(rid), "request id repeated");
        }
        assert_eq!(fmt_request_id(0xab), "00000000000000ab");
        assert_eq!(fmt_request_id(u64::MAX), "ffffffffffffffff");
    }

    #[test]
    fn level_parse_covers_cli_forms() {
        assert_eq!(LogLevel::parse("off"), Some(None));
        assert_eq!(LogLevel::parse("warn"), Some(Some(LogLevel::Warn)));
        assert_eq!(LogLevel::parse("bogus"), None);
        assert!(LogLevel::Error < LogLevel::Debug);
        assert_eq!(LogLevel::Info.as_str(), "info");
    }
}

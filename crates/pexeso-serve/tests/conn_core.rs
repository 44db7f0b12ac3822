//! The connection/worker core against a fake [`Handler`]: backpressure,
//! queue-wait accounting, framing errors (garbage, another protocol
//! version, frames over the cap in either direction), shutdown and panic
//! isolation, pinned once here instead of once per daemon.

use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pexeso_core::config::{ExecPolicy, JoinThreshold, Tau};
use pexeso_core::query::{Query, QueryOutcome};
use pexeso_core::vector::VectorStore;
use pexeso_serve::conn::{answer_query, serve, ConnConfig, ConnHandle, Handler, RequestCtx};
use pexeso_serve::metrics::{stat_value, validate_prometheus, EndpointMetrics, PromText};
use pexeso_serve::protocol::{
    decode_reply, encode_request, read_frame, write_frame, HitsExt, HitsReply, Reply, Request,
    MAX_FRAME_BYTES,
};
use pexeso_serve::{ClientError, ServeClient};

/// Echoes a query frame back as an empty exact `HITS` whose generation is
/// the column's dimension (through the shared `answer_query` plumbing),
/// answers `METRICS` with the core's counters
/// and `SLOW` with a text one byte too long to frame, and — when armed
/// — panics on its first request.
#[derive(Default)]
struct Echo {
    endpoint: EndpointMetrics,
    panic_once: AtomicBool,
}

impl Handler for Echo {
    fn endpoint(&self, _req: &Request) -> Option<&EndpointMetrics> {
        Some(&self.endpoint)
    }

    fn handle(&self, req: Request, ctx: &RequestCtx<'_>) -> Reply {
        if self.panic_once.swap(false, Ordering::SeqCst) {
            panic!("echo handler armed to panic");
        }
        match req {
            Request::Metrics => {
                let c = ctx.counters();
                let mut out = PromText::with_capacity(2048);
                let load = |n: &std::sync::atomic::AtomicU64| n.load(Ordering::Relaxed);
                out.counter("busy", "BUSY rejections.", load(&c.busy_rejections));
                out.counter("shed", "SHED rejections.", load(&c.shed));
                out.counter(
                    "expired",
                    "Deadlines expired in the queue.",
                    load(&c.expired),
                );
                out.histogram("queue_wait", "Accept-queue wait.", &c.queue_wait.snapshot());
                out.counter("errors", "Request errors.", load(&self.endpoint.errors));
                Reply::Text { text: out.finish() }
            }
            Request::SlowLog => Reply::Text {
                text: "x".repeat(MAX_FRAME_BYTES as usize),
            },
            Request::Shutdown => Reply::ShuttingDown,
            Request::Query { query, vectors } => {
                answer_query(query, &vectors, ctx, |_, vectors| {
                    Ok(HitsReply {
                        generation: vectors.dim() as u64,
                        cached: false,
                        hits: Vec::new(),
                        ext: Some(HitsExt {
                            outcome: QueryOutcome::Exact,
                            distance_computations: 0,
                        }),
                        trace: None,
                        explain: None,
                    })
                })
            }
            other => Reply::Err {
                message: format!("echo does not answer {other:?}"),
            },
        }
    }
}

fn start(
    workers: usize,
    queue_capacity: usize,
    soft: Option<usize>,
    handler: Echo,
) -> ConnHandle<Echo> {
    let config = ConnConfig {
        component: "conntest",
        workers,
        queue_capacity,
        queue_soft_watermark: soft,
        read_timeout: Some(Duration::from_secs(30)),
        reject_write_timeout: Duration::from_millis(100),
    };
    serve("127.0.0.1:0", config, handler).unwrap()
}

/// One raw protocol connection: no pooling, no retry — every frame the
/// core sends is observed exactly as sent.
struct Peer(TcpStream);

impl Peer {
    fn connect(handle: &ConnHandle<Echo>) -> Self {
        let stream = TcpStream::connect(handle.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Peer(stream)
    }

    fn send(&mut self, req: &Request) {
        write_frame(&mut self.0, &encode_request(req)).unwrap();
    }

    /// The next reply frame, or `None` once the core hung up.
    fn recv(&mut self) -> Option<Reply> {
        let frame = read_frame(&mut self.0).ok().flatten()?;
        Some(decode_reply(&frame).unwrap())
    }

    fn call(&mut self, req: &Request) -> Reply {
        self.send(req);
        self.recv().expect("the core answers a well-formed request")
    }

    /// One sample of the handler's `METRICS` scrape, which must be valid.
    fn stat(&mut self, series: &str) -> f64 {
        match self.call(&Request::Metrics) {
            Reply::Text { text } => {
                validate_prometheus(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
                stat_value(&text, series).unwrap()
            }
            other => panic!("expected METRICS text, got {other:?}"),
        }
    }
}

/// A sequential, correlated threshold query, with a deadline if given.
fn query(deadline_ms: Option<u64>) -> Query {
    let query = Query::threshold(Tau::Ratio(0.1), JoinThreshold::Count(1))
        .with_policy(ExecPolicy::Sequential)
        .with_request_id(7);
    match deadline_ms {
        Some(ms) => query.with_deadline(Duration::from_millis(ms)),
        None => query,
    }
}

/// `n` two-dimensional vectors.
fn column(n: usize) -> VectorStore {
    VectorStore::from_raw(2, vec![0.5; 2 * n]).unwrap()
}

fn search(deadline_ms: Option<u64>) -> Request {
    Request::Query {
        query: query(deadline_ms),
        vectors: column(1),
    }
}

/// A peer whose round-trip completed is owned by a worker, which now
/// sits in `read_frame` on it: with one worker, later arrivals queue.
fn occupy_worker(handle: &ConnHandle<Echo>) -> Peer {
    let mut peer = Peer::connect(handle);
    assert!(matches!(peer.call(&search(None)), Reply::Hits(_)));
    peer
}

#[test]
fn full_queue_answers_one_busy_frame() {
    let handle = start(1, 1, None, Echo::default());
    let mut holder = occupy_worker(&handle);
    let queued = Peer::connect(&handle);
    // The acceptor takes connections in arrival order, so `queued` fills
    // the one queue slot before this one is looked at.
    let mut rejected = Peer::connect(&handle);
    assert_eq!(rejected.recv(), Some(Reply::Busy));
    assert_eq!(rejected.recv(), None, "BUSY is followed by a hang-up");
    assert_eq!(holder.stat("busy"), 1.0);
    drop((holder, queued));
    handle.shutdown();
}

#[test]
fn soft_band_sheds_every_other_arrival_and_busy_stays_reachable() {
    let handle = start(1, 3, Some(1), Echo::default());
    let mut holder = occupy_worker(&handle);
    // Queue length below the watermark: queued silently.
    let mut queued = vec![Peer::connect(&handle)];
    // Inside the band [1, 3): shed, queue, shed, queue — which fills the
    // queue to its hard limit, where the next arrival gets BUSY.
    for round in 0..2 {
        let mut shed = Peer::connect(&handle);
        assert_eq!(shed.recv(), Some(Reply::Shed), "round {round}");
        assert_eq!(shed.recv(), None);
        queued.push(Peer::connect(&handle));
    }
    let mut busy = Peer::connect(&handle);
    assert_eq!(busy.recv(), Some(Reply::Busy));
    assert_eq!(holder.stat("shed"), 2.0);
    assert_eq!(holder.stat("busy"), 1.0);
    drop((holder, queued));
    handle.shutdown();
}

/// A queue that would turn every connection away — no capacity, or a
/// soft watermark that sheds from an empty queue or never before BUSY —
/// is refused before the core binds: the address is held by another
/// listener, so a bind would have failed with `AddrInUse` instead.
#[test]
fn a_queue_that_turns_every_connection_away_is_refused_before_binding() {
    let held = TcpListener::bind("127.0.0.1:0").unwrap();
    let below = "is out of range: it must be at least 1 and below the queue capacity";
    for (queue_capacity, soft, refusal) in [
        (
            0,
            None,
            "queue capacity 0 is out of range: it must be at least 1".to_string(),
        ),
        (8, Some(0), format!("soft queue watermark 0 {below} 8")),
        (8, Some(8), format!("soft queue watermark 8 {below} 8")),
        (1, Some(1), format!("soft queue watermark 1 {below} 1")),
    ] {
        let config = ConnConfig {
            component: "conntest",
            workers: 1,
            queue_capacity,
            queue_soft_watermark: soft,
            read_timeout: None,
            reject_write_timeout: Duration::from_millis(100),
        };
        let Err(err) = serve(held.local_addr().unwrap(), config, Echo::default()) else {
            panic!("queue {queue_capacity}, soft {soft:?} was served");
        };
        assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
        assert_eq!(err.to_string(), refusal);
    }
}

#[test]
fn queue_wait_is_charged_to_the_first_request_only() {
    let handle = start(1, 8, None, Echo::default());
    let holder = occupy_worker(&handle);
    // `waiter` queues behind `holder` with a 1 ms deadline and waits far
    // longer than that before the only worker is released to it.
    let mut waiter = Peer::connect(&handle);
    waiter.send(&search(Some(1)));
    std::thread::sleep(Duration::from_millis(30));
    drop(holder);
    match waiter.recv() {
        Some(Reply::DeadlineExpired { waited_ms }) => assert!(waited_ms >= 30, "{waited_ms}"),
        other => panic!("expected DeadlineExpired, got {other:?}"),
    }
    // The same request again on the same connection never queued: it is
    // answered, and neither the refusal counter nor the queue-wait
    // histogram (holder's first + waiter's first) moves.
    assert!(matches!(waiter.call(&search(Some(1))), Reply::Hits(_)));
    assert_eq!(waiter.stat("expired"), 1.0);
    assert_eq!(waiter.stat("queue_wait_count"), 2.0);
    drop(waiter);
    handle.shutdown();
}

#[test]
fn garbage_frame_gets_one_bad_request_then_a_hang_up() {
    let handle = start(1, 8, None, Echo::default());
    let mut peer = Peer::connect(&handle);
    write_frame(&mut peer.0, b"not a pexeso frame").unwrap();
    match peer.recv() {
        Some(Reply::Err { message }) => assert!(message.starts_with("bad request"), "{message}"),
        other => panic!("expected a bad-request error, got {other:?}"),
    }
    assert_eq!(peer.recv(), None, "one error, then the core hangs up");
    handle.shutdown();
}

/// An `INFO` frame with the byte at `at` replaced by `value` gets one
/// `bad request` containing `refusal` and a hang-up, and the daemon is
/// none the worse: the next connection is served.
fn one_refusal_then_a_hang_up(at: usize, value: u8, refusal: &str) {
    let handle = start(1, 8, None, Echo::default());
    let mut peer = Peer::connect(&handle);
    let mut frame = encode_request(&Request::Info);
    frame[at] = value;
    write_frame(&mut peer.0, &frame).unwrap();
    match peer.recv() {
        Some(Reply::Err { message }) => {
            assert!(message.starts_with("bad request"), "{message}");
            assert!(message.contains(refusal), "{message}");
        }
        other => panic!("expected a bad-request error, got {other:?}"),
    }
    assert_eq!(peer.recv(), None, "one refusal, then the core hangs up");
    let mut next = Peer::connect(&handle);
    assert!(matches!(next.call(&search(None)), Reply::Hits(_)));
    drop(next);
    handle.shutdown();
}

#[test]
fn another_protocol_version_gets_one_refusal_naming_both_then_a_hang_up() {
    one_refusal_then_a_hang_up(4, 8, "protocol version 8 unsupported (this build speaks 9)");
}

/// Verb 7 (a parent build's `BATCH`) is an unknown verb like any other.
#[test]
fn the_retired_batch_verb_gets_one_refusal_naming_it_then_a_hang_up() {
    one_refusal_then_a_hang_up(5, 7, "unknown verb 7");
}

/// So is verb 3 (an earlier build's `STATS`).
#[test]
fn the_retired_stats_verb_gets_one_refusal_naming_it_then_a_hang_up() {
    one_refusal_then_a_hang_up(5, 3, "unknown verb 3");
}

#[test]
fn a_reply_over_the_frame_cap_becomes_a_typed_error_on_a_live_connection() {
    let handle = start(1, 8, None, Echo::default());
    let mut peer = Peer::connect(&handle);
    match peer.call(&Request::SlowLog) {
        Reply::Err { message } => assert!(message.contains("exceeds the frame cap"), "{message}"),
        other => panic!("expected a typed error, got {other:?}"),
    }
    // Same connection, still in sync, and the error was counted.
    assert!(matches!(peer.call(&search(None)), Reply::Hits(_)));
    assert_eq!(peer.stat("errors"), 1.0);
    drop(peer);
    handle.shutdown();
}

#[test]
fn a_request_over_the_frame_cap_is_refused_before_it_is_sent() {
    let handle = start(1, 8, None, Echo::default());
    let client = ServeClient::connect(handle.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(10))).unwrap();
    let giant = column(MAX_FRAME_BYTES as usize / 8);
    match client.execute_detailed(&query(None), &giant) {
        Err(ClientError::Protocol(message)) => {
            assert!(message.contains("exceeds cap"), "{message}")
        }
        other => panic!("expected a refusal on the client side, got {other:?}"),
    }
    // Nothing reached the wire: the pooled connection answers the next
    // request instead of waiting for a reply that is not coming.
    assert_eq!(client.idle_connections(), 1);
    let (resp, meta) = client.execute_detailed(&query(None), &column(1)).unwrap();
    assert!(resp.exact() && resp.hits.is_empty());
    assert_eq!(meta.generation, 2, "the echo's generation is the dimension");
    drop(client);
    handle.shutdown();
}

#[test]
fn shutdown_does_not_wait_for_an_idle_keep_alive_peer() {
    let handle = start(2, 8, None, Echo::default());
    let idle = occupy_worker(&handle);
    let started = Instant::now();
    handle.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?} with an idle peer attached (read_timeout is 30 s)",
        started.elapsed()
    );
    drop(idle);
}

#[test]
fn a_panicking_handler_costs_one_request_not_the_worker() {
    let handle = start(
        1,
        8,
        None,
        Echo {
            panic_once: AtomicBool::new(true),
            ..Echo::default()
        },
    );
    let mut first = Peer::connect(&handle);
    match first.call(&search(None)) {
        Reply::Err { message } => assert!(message.starts_with("internal error"), "{message}"),
        other => panic!("expected a typed internal error, got {other:?}"),
    }
    drop(first);
    // The only worker survived: a new connection is still answered, and
    // the panic was charged to the endpoint's error counter.
    let mut second = Peer::connect(&handle);
    assert!(matches!(second.call(&search(None)), Reply::Hits(_)));
    assert_eq!(second.stat("errors"), 1.0);
    drop(second);
    handle.shutdown();
}

//! Failure-mode integration tests: desynced-stream discipline, resilient
//! retry/failover, deadline-bounded retries, and graceful degradation
//! (soft-watermark shed, queue-wait deadline expiry).
//!
//! Every test takes [`pexeso_core::fault::test_lock`]: the fault
//! registry is process-global, and even the tests that arm nothing start
//! servers whose connection hooks would otherwise consume another test's
//! armed rules.

use std::io::Write;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pexeso_core::column::ColumnSet;
use pexeso_core::config::{IndexOptions, JoinThreshold, PivotSelection, Tau};
use pexeso_core::fault::{self, FaultAction, FaultRule};
use pexeso_core::metric::Euclidean;
use pexeso_core::outofcore::{LakeManifest, PartitionedLake};
use pexeso_core::partition::{PartitionConfig, PartitionMethod};
use pexeso_core::query::{Exceeded, Query, QueryOutcome, Queryable};
use pexeso_core::vector::VectorStore;
use pexeso_serve::protocol::{
    encode_reply, read_frame, write_frame, HitsExt, HitsReply, InfoReply, Reply,
};
use pexeso_serve::{
    stat_value, validate_prometheus, ClientError, ResilientClient, ResilientConfig, ServeClient,
    ServeConfig, Server,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 10;

fn unit(rng: &mut StdRng) -> Vec<f32> {
    let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

fn workload(seed: u64, n_cols: usize) -> (ColumnSet, VectorStore) {
    let mut rng = StdRng::seed_from_u64(seed);
    let query_vecs: Vec<Vec<f32>> = (0..5).map(|_| unit(&mut rng)).collect();
    let mut columns = ColumnSet::new(DIM);
    for c in 0..n_cols {
        let mut vecs: Vec<Vec<f32>> = (0..12).map(|_| unit(&mut rng)).collect();
        if c < 3 {
            for (slot, q) in vecs.iter_mut().zip(&query_vecs) {
                slot.clone_from(q);
            }
        }
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns
            .add_column(&format!("tab{c}"), "key", c as u64, refs)
            .unwrap();
    }
    let mut query = VectorStore::new(DIM);
    for q in &query_vecs {
        query.push(q).unwrap();
    }
    (columns, query)
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pexeso_fail_{name}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn deploy(dir: &Path, columns: &ColumnSet) -> PartitionedLake {
    let lake = PartitionedLake::build(
        columns,
        Euclidean,
        &PartitionConfig {
            k: 3,
            method: PartitionMethod::JsdKmeans,
            ..Default::default()
        },
        &IndexOptions {
            num_pivots: 3,
            levels: Some(3),
            pivot_selection: PivotSelection::Pca,
            seed: 7,
            ..Default::default()
        },
        dir,
    )
    .unwrap();
    LakeManifest::next_build(dir, "test", DIM)
        .unwrap()
        .write(dir)
        .unwrap();
    lake
}

fn battery() -> Vec<Query> {
    let mut queries = Vec::new();
    for tau in [Tau::Ratio(0.05), Tau::Ratio(0.2)] {
        for t in [JoinThreshold::Ratio(0.5), JoinThreshold::Count(2)] {
            queries.push(Query::threshold(tau, t));
        }
        for k in [1usize, 3, 50] {
            queries.push(Query::topk(tau, k));
        }
    }
    queries
}

/// Satellite regression: a reply that fails to arrive whole (read
/// timeout mid-frame) must surface as a typed [`ClientError::Desynced`]
/// and poison the stream — the next call reconnects and succeeds, and no
/// late bytes from the stalled reply can ever answer the wrong request.
#[test]
fn desynced_stream_is_discarded_and_reconnected() {
    let _guard = fault::test_lock();
    fault::disarm_all();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mock = std::thread::spawn(move || {
        // First connection: read the request, promise a 64-byte reply,
        // deliver 4 bytes, stall (the socket stays open well past the
        // client's read timeout).
        let (mut first, _) = listener.accept().unwrap();
        read_frame(&mut first).unwrap();
        first.write_all(&64u32.to_le_bytes()).unwrap();
        first.write_all(&[0u8; 4]).unwrap();
        first.flush().unwrap();
        // Second connection (the client's reconnect): answer properly.
        let (mut second, _) = listener.accept().unwrap();
        read_frame(&mut second).unwrap();
        let reply = Reply::Info(InfoReply {
            dim: DIM as u32,
            generation: 1,
            index_version: 1,
            partitions: 3,
            disk_bytes: 0,
        });
        write_frame(&mut second, &encode_reply(&reply)).unwrap();
        drop(first);
    });

    let client = ServeClient::connect(addr).unwrap();
    client
        .set_timeout(Some(Duration::from_millis(200)))
        .unwrap();
    match client.info() {
        Err(ClientError::Desynced(_)) => {}
        other => panic!("mid-frame stall must desync, got {other:?}"),
    }
    // The poisoned stream was discarded: this reconnects and succeeds.
    let info = client.info().expect("reconnect after desync must work");
    assert_eq!(info.dim as usize, DIM);
    mock.join().unwrap();
}

/// The resilient differential: with one replica killed mid-run and a
/// transient injected reply-write fault on the survivor, every query
/// through `&dyn Queryable` still answers **byte-identically** to the
/// direct local execution.
#[test]
fn resilient_client_fails_over_and_retries_byte_identically() {
    let _guard = fault::test_lock();
    fault::disarm_all();
    let dir = tempdir("resilient");
    let (columns, query) = workload(91, 9);
    let lake = deploy(&dir, &columns);

    let handle_a = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let handle_b = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let resilient = ResilientClient::new(
        &[handle_a.addr().to_string(), handle_b.addr().to_string()],
        ResilientConfig {
            timeout: Some(Duration::from_secs(5)),
            ..Default::default()
        },
    )
    .unwrap();
    let remote: &dyn Queryable = &resilient;

    let queries = battery();
    let direct: Vec<_> = queries
        .iter()
        .map(|q| lake.execute(q, &query).unwrap().hits)
        .collect();
    assert!(direct.iter().any(|h| !h.is_empty()));

    // First half with both replicas healthy.
    let half = queries.len() / 2;
    for (q, expect) in queries[..half].iter().zip(&direct) {
        assert_eq!(remote.execute(q, &query).unwrap().hits, *expect);
    }
    // Kill replica A outright; the client must absorb the corpse.
    handle_a.shutdown();
    // And make the survivor flaky for one reply write: the client sees a
    // hang-up before the reply and must retry the same request.
    fault::arm("serve.conn.write", FaultRule::nth(0, FaultAction::Error));
    for (q, expect) in queries[half..].iter().zip(&direct[half..]) {
        assert_eq!(
            remote.execute(q, &query).unwrap().hits,
            *expect,
            "degraded-mode answers must stay byte-identical"
        );
    }
    fault::disarm_all();

    let stats = resilient.stats();
    assert!(stats.retries >= 1, "the dead replica must cost retries");
    assert!(stats.failovers >= 1, "retries must fail over: {stats:?}");
    assert_eq!(stats.deadline_stops, 0);

    handle_b.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// No retry is ever issued past the query deadline: with every replica
/// refusing connections, the retry loop gives up within the budget and
/// reports a deadline stop — it does not burn the full retry allowance.
#[test]
fn resilient_client_never_retries_past_the_deadline() {
    let _guard = fault::test_lock();
    fault::disarm_all();
    // A bound-then-dropped listener: its port refuses connections.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let resilient = ResilientClient::new(
        &[dead_addr],
        ResilientConfig {
            backoff: pexeso_serve::BackoffPolicy {
                base: Duration::from_millis(20),
                cap: Duration::from_millis(100),
                multiplier: 3,
                max_retries: 1_000, // the deadline, not this, must stop the loop
            },
            ..Default::default()
        },
    )
    .unwrap();

    let deadline = Duration::from_millis(300);
    let mut q = Query::threshold(Tau::Ratio(0.1), JoinThreshold::Count(1));
    q.budget.deadline = Some(deadline);
    let mut store = VectorStore::new(DIM);
    store.push(&[0.1; DIM]).unwrap();

    let started = Instant::now();
    let result = resilient.execute(&q, &store);
    let elapsed = started.elapsed();
    assert!(result.is_err(), "no replica can answer");
    assert!(
        elapsed < deadline + Duration::from_millis(700),
        "retry loop must stop at the deadline, ran {elapsed:?}"
    );
    let stats = resilient.stats();
    assert_eq!(stats.deadline_stops, 1, "{stats:?}");
    assert!(stats.retries >= 1, "{stats:?}");
}

/// Satellite regression: a replica that refuses the *dial* fails the
/// attempt through the same breaker bookkeeping as one that fails the
/// round trip. With a closed port as the only replica, `failure_threshold`
/// attempts open its circuit (before the fix the dial error returned
/// ahead of the bookkeeping: no failure was ever counted and the circuit
/// never opened). With a healthy replica beside it, the open circuit then
/// keeps attempts off the dead one without dialling it again.
#[test]
fn refused_dials_count_as_failures_and_open_the_circuit() {
    let _guard = fault::test_lock();
    fault::disarm_all();
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let config = ResilientConfig {
        backoff: pexeso_serve::BackoffPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(5),
            multiplier: 2,
            max_retries: 0, // one attempt per call
        },
        failure_threshold: 3,
        open_for: Duration::from_secs(600),
        ..Default::default()
    };
    let q = Query::threshold(Tau::Ratio(0.1), JoinThreshold::Count(1));
    let mut store = VectorStore::new(DIM);
    store.push(&[0.1; DIM]).unwrap();

    let alone = ResilientClient::new(std::slice::from_ref(&dead_addr), config.clone()).unwrap();
    for attempt in 1..=3u32 {
        assert_eq!(alone.stats().circuit_opens, 0, "before attempt {attempt}");
        assert!(alone.execute(&q, &store).is_err(), "nothing listens there");
        let status = &alone.replica_status()[0];
        assert_eq!(status.consecutive_failures, attempt);
        assert!(!status.connected);
    }
    assert_eq!(alone.stats().circuit_opens, 1);
    assert!(alone.replica_status()[0].circuit_open);

    // Beside a live daemon: once the dead replica's circuit is open,
    // every call goes straight to the survivor — no attempt, retry or
    // failover is spent on the dead one.
    let dir = tempdir("dial_breaker");
    let (columns, query) = workload(97, 9);
    let lake = deploy(&dir, &columns);
    let handle = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let pair = ResilientClient::new(
        &[dead_addr, handle.addr().to_string()],
        ResilientConfig {
            backoff: pexeso_serve::BackoffPolicy {
                max_retries: 5,
                ..config.backoff
            },
            ..config
        },
    )
    .unwrap();
    let q = &battery()[0];
    let expect = lake.execute(q, &query).unwrap().hits;
    let mut calls = 0;
    while pair.stats().circuit_opens == 0 {
        assert_eq!(pair.execute(q, &query).unwrap().hits, expect);
        calls += 1;
        assert!(calls <= 16, "the dead replica's circuit never opened");
    }
    let opened = pair.stats();
    assert_eq!(opened.retries, 3, "one per refused dial: {opened:?}");
    for _ in 0..6 {
        assert_eq!(pair.execute(q, &query).unwrap().hits, expect);
    }
    assert_eq!(pair.stats(), opened, "an open circuit is not dialled");
    let status = pair.replica_status();
    assert!(status[0].circuit_open && !status[0].connected);
    assert!(!status[1].circuit_open && status[1].connected);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Satellite regression: a replica's lock covers handing its client out
/// and the breaker bookkeeping, never the round trip. Against a daemon
/// that takes 400 ms per query, `replica_status()` (the router's
/// METRICS/HEALTH) answers while a query is in flight instead of
/// after it, and two overlapping queries overlap on the client's stream
/// pool instead of running back to back.
#[test]
fn replica_lock_is_not_held_across_the_round_trip() {
    let _guard = fault::test_lock();
    fault::disarm_all();
    const SERVICE: Duration = Duration::from_millis(400);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let (received_tx, received_rx) = std::sync::mpsc::channel();
    // Two connections: the one the client dials first, and the one its
    // pool adds for the second concurrent query.
    let daemon = std::thread::spawn(move || {
        let connections: Vec<_> = (0..2)
            .map(|_| {
                let (mut stream, _) = listener.accept().unwrap();
                let received = received_tx.clone();
                std::thread::spawn(move || {
                    while let Ok(Some(_)) = read_frame(&mut stream) {
                        received.send(()).unwrap();
                        std::thread::sleep(SERVICE);
                        let reply = Reply::Hits(HitsReply {
                            generation: 1,
                            cached: false,
                            hits: Vec::new(),
                            ext: Some(HitsExt {
                                outcome: QueryOutcome::Exact,
                                distance_computations: 0,
                            }),
                            trace: None,
                            explain: None,
                        });
                        write_frame(&mut stream, &encode_reply(&reply)).unwrap();
                    }
                })
            })
            .collect();
        for c in connections {
            c.join().unwrap();
        }
    });

    let resilient = ResilientClient::new(&[addr], ResilientConfig::default()).unwrap();
    let q = Query::threshold(Tau::Ratio(0.1), JoinThreshold::Count(1));
    let mut store = VectorStore::new(DIM);
    store.push(&[0.1; DIM]).unwrap();

    std::thread::scope(|s| {
        let in_flight = s.spawn(|| resilient.execute(&q, &store).unwrap());
        received_rx.recv().unwrap();
        let asked = Instant::now();
        let status = resilient.replica_status();
        let waited = asked.elapsed();
        assert!(status[0].connected, "{status:?}");
        assert!(
            waited < Duration::from_millis(150),
            "status waited {waited:?} behind an in-flight query"
        );
        in_flight.join().unwrap();
    });

    let started = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| resilient.execute(&q, &store).unwrap());
        }
    });
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(700),
        "two overlapping {SERVICE:?} queries took {elapsed:?}"
    );
    drop(resilient);
    daemon.join().unwrap();
}

/// Graceful degradation: above the soft watermark the acceptor sheds
/// every other connection with a typed SHED reply, and a request whose
/// deadline elapsed while it sat in the accept queue gets the typed
/// `DeadlineExpired` reply (surfacing as the standard partial outcome)
/// instead of a full — and pointless — search. Both show up in METRICS.
#[test]
fn soft_watermark_sheds_and_queue_wait_expires_deadlines() {
    let _guard = fault::test_lock();
    fault::disarm_all();
    let dir = tempdir("degrade");
    let (columns, query) = workload(44, 6);
    deploy(&dir, &columns);
    let handle = Server::start(
        &dir,
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_capacity: 8,
            queue_soft_watermark: Some(1),
            read_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // A occupies the single worker (connected, sends nothing).
    let conn_a = ServeClient::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // B queues below the soft watermark and waits there.
    let conn_b = ServeClient::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // Releasing A hands the worker to B, whose queue wait is now ~150ms:
    // a 1ms-deadline query must expire typed, with no search work done.
    drop(conn_a);
    std::thread::sleep(Duration::from_millis(100));
    let mut expired_q = Query::threshold(Tau::Ratio(0.2), JoinThreshold::Count(1));
    expired_q.budget.deadline = Some(Duration::from_millis(1));
    let (resp, _meta) = conn_b.execute_detailed(&expired_q, &query).unwrap();
    assert_eq!(resp.outcome, QueryOutcome::Exceeded(Exceeded::Deadline));
    assert!(resp.hits.is_empty());
    // The same connection keeps working, and an undeadlined repeat is a
    // real answer: expiry is per-request, not per-connection.
    let (ok, _) = conn_b
        .execute_detailed(
            &Query::threshold(Tau::Ratio(0.05), JoinThreshold::Ratio(0.5)),
            &query,
        )
        .unwrap();
    assert!(!ok.hits.is_empty());

    // The worker is still parked on B (keep-alive). C queues (len 0 →
    // below soft), then D/E/F arrive above the watermark: every other
    // one is shed — D and F turned away typed, E still queued.
    let conn_c = ServeClient::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let conn_d = ServeClient::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let conn_e = ServeClient::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let conn_f = ServeClient::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    for shed_conn in [&conn_d, &conn_f] {
        match shed_conn.info() {
            Err(ClientError::Shed) => {}
            other => panic!("expected typed shed, got {other:?}"),
        }
    }
    // Drain the queue: B and C release the worker, E answers.
    drop(conn_b);
    drop(conn_c);
    let info = conn_e.info().expect("queued connection must be served");
    assert_eq!(info.generation, 1);
    let metrics = conn_e.metrics_text().unwrap();
    validate_prometheus(&metrics).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{metrics}"));
    for (reason, count) in [("shed", 2.0), ("expired", 1.0)] {
        let series = format!("pexeso_rejected_total{{reason=\"{reason}\"}}");
        assert_eq!(stat_value(&metrics, &series), Some(count), "{metrics}");
    }

    drop(conn_e);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

//! Loopback integration tests for the serving daemon: served replies vs
//! direct `PartitionedLake` calls, hot swap under concurrent load, warm
//! cache behaviour, BUSY backpressure, and clean shutdown.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use pexeso_core::column::ColumnSet;
use pexeso_core::config::{ExecPolicy, IndexOptions, JoinThreshold, PivotSelection, Tau};
use pexeso_core::metric::Euclidean;
use pexeso_core::outofcore::{LakeManifest, PartitionedLake};
use pexeso_core::partition::{PartitionConfig, PartitionMethod};
use pexeso_core::query::{Query, QueryResponse, Queryable};
use pexeso_core::vector::VectorStore;
use pexeso_serve::{
    stat_value, validate_prometheus, ClientError, RemoteMeta, ServeClient, ServeConfig, Server,
    SnapshotCell,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 12;

fn unit(rng: &mut StdRng) -> Vec<f32> {
    let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

/// A lake where the first columns contain exact copies of the query
/// vectors (guaranteed matches at any τ) and the rest are random.
fn workload(seed: u64, n_cols: usize, tag: &str) -> (ColumnSet, VectorStore) {
    let mut rng = StdRng::seed_from_u64(seed);
    let query_vecs: Vec<Vec<f32>> = (0..6).map(|_| unit(&mut rng)).collect();
    let mut columns = ColumnSet::new(DIM);
    for c in 0..n_cols {
        let mut vecs: Vec<Vec<f32>> = (0..15).map(|_| unit(&mut rng)).collect();
        if c < 3 {
            // Plant the query inside the first three columns.
            for (slot, q) in vecs.iter_mut().zip(&query_vecs) {
                slot.clone_from(q);
            }
        }
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns
            .add_column(&format!("{tag}_tab{c}"), "key", c as u64, refs)
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
        "pexeso_serve_{name}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build + persist a deployment (partitions, manifest) and return it.
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

/// One `METRICS` scrape, checked to be valid Prometheus text.
fn scrape(client: &ServeClient) -> String {
    let text = client.metrics_text().unwrap();
    validate_prometheus(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    text
}

/// A query that expects the deployments' metric, on the given policy.
fn euclidean(query: Query, policy: ExecPolicy) -> Query {
    query.expect_metric("euclidean").with_policy(policy)
}

/// A served answer is the direct call's: same hits, same outcome, and the
/// direct call's verification cost unless the result cache answered.
fn assert_served_is_direct(
    (served, meta): &(QueryResponse, RemoteMeta),
    direct: &QueryResponse,
    what: &str,
) {
    assert_eq!(served.hits, direct.hits, "{what}");
    assert_eq!(served.outcome, direct.outcome, "{what}");
    let cost = if meta.cached {
        0
    } else {
        direct.stats.distance_computations
    };
    assert_eq!(served.stats.distance_computations, cost, "{what}");
}

#[test]
fn served_answers_equal_direct_calls() {
    let dir = tempdir("exact");
    let (columns, query) = workload(11, 10, "a");
    let lake = deploy(&dir, &columns);
    let handle = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let client = ServeClient::connect(handle.addr()).unwrap();

    let info = client.info().unwrap();
    assert_eq!(info.dim as usize, DIM);
    assert_eq!(info.generation, 1);
    assert_eq!(info.partitions as usize, lake.num_partitions());

    for tau in [Tau::Ratio(0.05), Tau::Ratio(0.2)] {
        for t in [
            JoinThreshold::Ratio(0.5),
            JoinThreshold::Ratio(0.9),
            JoinThreshold::Count(2),
        ] {
            // The policy is not part of the cache key: the parallel
            // repeat is the sequential run's cached answer.
            for (policy, cached) in [
                (ExecPolicy::Sequential, false),
                (ExecPolicy::Parallel { threads: 4 }, true),
            ] {
                let served = client
                    .execute_detailed(&euclidean(Query::threshold(tau, t), policy), &query)
                    .unwrap();
                assert_eq!(
                    served.1,
                    RemoteMeta {
                        generation: 1,
                        cached
                    }
                );
                let direct = lake.execute(&Query::threshold(tau, t), &query).unwrap();
                assert!(!direct.hits.is_empty(), "workload must produce hits");
                assert_served_is_direct(
                    &served,
                    &direct,
                    &format!("tau={tau:?} t={t:?} policy={policy:?}"),
                );
            }
        }
        for k in [1usize, 3, 8] {
            let served = client
                .execute_detailed(
                    &euclidean(Query::topk(tau, k), ExecPolicy::Sequential),
                    &query,
                )
                .unwrap();
            assert_eq!(
                served.1,
                RemoteMeta {
                    generation: 1,
                    cached: false
                }
            );
            let direct = lake.execute(&Query::topk(tau, k), &query).unwrap();
            assert_served_is_direct(&served, &direct, &format!("tau={tau:?} k={k}"));
        }
    }

    // Typed server-side errors come back as ClientError::Server.
    let expecting = |metric: &str| {
        Query::threshold(Tau::Ratio(0.1), JoinThreshold::Count(1))
            .expect_metric(metric)
            .with_policy(ExecPolicy::Sequential)
    };
    let bad_metric = client.execute_detailed(&expecting("cosine"), &query);
    assert!(matches!(bad_metric, Err(ClientError::Server(_))));
    // A *known* metric that differs from the build metric must also be
    // rejected — running Manhattan over Euclidean pivot mappings would
    // silently return non-exact results.
    let wrong_metric = client.execute_detailed(&expecting("manhattan"), &query);
    match wrong_metric {
        Err(ClientError::Server(msg)) => {
            assert!(
                msg.contains("euclidean"),
                "should name the build metric: {msg}"
            )
        }
        other => panic!("expected metric-mismatch rejection, got {other:?}"),
    }
    let mut wrong_dim = VectorStore::new(DIM + 1);
    wrong_dim.push(&[0.0; DIM + 1]).unwrap();
    let bad_dim = client.execute_detailed(&expecting("euclidean"), &wrong_dim);
    assert!(matches!(bad_dim, Err(ClientError::Server(_))));

    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every query a local backend answers is decoded by the daemon too:
/// `Fixed { threads: 0 }` runs on one thread locally and is clamped to
/// one served; a metric expectation longer than any metric name gets
/// the same typed refusal it gets locally. Neither costs the client its
/// pooled connection: the next query on it is answered.
#[test]
fn every_local_query_is_decoded_and_keeps_the_connection() {
    let dir = tempdir("any_query");
    let (columns, query) = workload(77, 8, "a");
    let lake = deploy(&dir, &columns);
    let handle = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let client = ServeClient::connect(handle.addr()).unwrap();

    let fixed0 = Query::threshold(Tau::Ratio(0.2), JoinThreshold::Count(1))
        .with_policy(ExecPolicy::Fixed { threads: 0 });
    let direct = lake.execute(&fixed0, &query).unwrap();
    assert!(!direct.hits.is_empty(), "workload must produce hits");
    let served = client.execute_detailed(&fixed0, &query).unwrap();
    assert_served_is_direct(&served, &direct, "fixed:0");

    let long = "m".repeat(100);
    let local = lake.execute(&fixed0.clone().expect_metric(&long), &query);
    let remote = client.execute_detailed(&fixed0.expect_metric(&long), &query);
    match (local, remote) {
        (Err(local), Err(ClientError::Server(remote))) => {
            let refusal = format!("built with metric 'euclidean'; query expects '{long}'");
            assert!(local.to_string().contains(&refusal), "{local}");
            assert!(remote.contains(&refusal), "{remote}");
        }
        other => panic!("expected the local refusal remotely, got {other:?}"),
    }

    let next = Query::topk(Tau::Ratio(0.2), 3);
    let served = client.execute_detailed(&next, &query).unwrap();
    assert_served_is_direct(&served, &lake.execute(&next, &query).unwrap(), "next");
    assert_eq!(
        client.idle_connections(),
        1,
        "one stream, reused throughout"
    );

    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_cache_serves_repeats_without_search_work() {
    let dir = tempdir("cache");
    let (columns, query) = workload(22, 10, "a");
    deploy(&dir, &columns);
    let handle = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let client = ServeClient::connect(handle.addr()).unwrap();

    let search = |t| {
        client.execute_detailed(
            &euclidean(Query::threshold(Tau::Ratio(0.2), t), ExecPolicy::Sequential),
            &query,
        )
    };
    let (cold, cold_meta) = search(JoinThreshold::Ratio(0.5)).unwrap();
    assert!(!cold_meta.cached);
    let (dc, hits) = (
        "pexeso_distance_computations_total",
        "pexeso_cache_ops_total{op=\"hit\"}",
    );
    let after_cold = scrape(&client);
    let dc_cold = stat_value(&after_cold, dc).unwrap();
    assert!(dc_cold > 0.0, "cold query must verify with real distances");
    let hits_cold = stat_value(&after_cold, hits).unwrap();

    let (warm, warm_meta) = search(JoinThreshold::Ratio(0.5)).unwrap();
    assert!(warm_meta.cached, "repeat query must come from cache");
    assert_eq!(warm.hits, cold.hits);
    assert_eq!(warm_meta.generation, cold_meta.generation);

    let after_warm = scrape(&client);
    // The hit counter moved...
    assert_eq!(stat_value(&after_warm, hits).unwrap(), hits_cold + 1.0);
    // ...and no verify-stage distance computation happened for the repeat.
    assert_eq!(stat_value(&after_warm, dc).unwrap(), dc_cold);
    // A different T is a different cache key.
    let (_, other) = search(JoinThreshold::Ratio(0.9)).unwrap();
    assert!(!other.cached);

    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_swap_under_concurrent_load_drops_nothing() {
    let dir_a = tempdir("swap_a");
    let dir_b = tempdir("swap_b");
    let (columns_a, query) = workload(33, 10, "a");
    let lake_a = deploy(&dir_a, &columns_a);
    // B shares the query but is a different lake (more columns, new tag).
    let (columns_b, _) = workload(33, 14, "b");
    let lake_b = deploy(&dir_b, &columns_b);

    let tau = Tau::Ratio(0.2);
    let t = JoinThreshold::Ratio(0.5);
    let direct_a = lake_a
        .execute(&Query::threshold(tau, t), &query)
        .unwrap()
        .hits;
    let direct_b = lake_b
        .execute(&Query::threshold(tau, t), &query)
        .unwrap()
        .hits;
    let (expect_a, expect_b) = (&direct_a, &direct_b);
    assert_ne!(expect_a, expect_b, "swap must be observable in results");
    let served_query = euclidean(Query::threshold(tau, t), ExecPolicy::Sequential);

    let handle = Server::start(
        &dir_a,
        "127.0.0.1:0",
        ServeConfig {
            workers: 6,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    const CLIENTS: usize = 4;
    let stop = AtomicBool::new(false);
    let swap_result = std::thread::scope(|scope| {
        let mut client_threads = Vec::new();
        for _ in 0..CLIENTS {
            let (stop, query, served_query) = (&stop, &query, &served_query);
            client_threads.push(scope.spawn(move || {
                let client = ServeClient::connect(addr).unwrap();
                let mut generations: Vec<u64> = Vec::new();
                let mut served = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (reply, meta) = client
                        .execute_detailed(served_query, query)
                        .expect("no query may be dropped during a hot swap");
                    // Replies must match the snapshot they claim to be from.
                    match meta.generation {
                        1 => assert_eq!(&reply.hits, expect_a),
                        2 => assert_eq!(&reply.hits, expect_b),
                        g => panic!("unexpected generation {g}"),
                    }
                    generations.push(meta.generation);
                    served += 1;
                }
                (generations, served)
            }));
        }

        // Let traffic flow on generation 1, then hot-swap to B.
        std::thread::sleep(Duration::from_millis(120));
        let admin = ServeClient::connect(addr).unwrap();
        let (generation, partitions) = admin.reload(Some(&dir_b)).unwrap();
        assert_eq!(generation, 2);
        assert_eq!(partitions as usize, lake_b.num_partitions());
        // Let traffic flow on generation 2, then stop the clients.
        std::thread::sleep(Duration::from_millis(120));
        stop.store(true, Ordering::Relaxed);

        let mut total_served = 0;
        let mut saw_gen = [false; 3];
        for th in client_threads {
            let (generations, served) = th.join().unwrap();
            total_served += served;
            // Generations never go backwards within a connection.
            assert!(generations.windows(2).all(|w| w[0] <= w[1]));
            for g in generations {
                saw_gen[g as usize] = true;
            }
        }
        (admin, total_served, saw_gen)
    });
    let (admin, total_served, saw_gen) = swap_result;
    assert!(total_served > 0);
    assert!(saw_gen[1] && saw_gen[2], "load must straddle the swap");

    // After the swap the daemon serves B, and the swap was counted.
    let (final_reply, meta) = admin.execute_detailed(&served_query, &query).unwrap();
    assert_eq!(meta.generation, 2);
    assert_eq!(&final_reply.hits, expect_b);
    let metrics = scrape(&admin);
    assert_eq!(stat_value(&metrics, "pexeso_swaps_total"), Some(1.0));
    assert_eq!(
        stat_value(&metrics, "pexeso_snapshot_generation"),
        Some(2.0)
    );

    drop(admin);
    handle.shutdown();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

#[test]
fn busy_backpressure_rejects_beyond_queue() {
    let dir = tempdir("busy");
    let (columns, query) = workload(44, 8, "a");
    deploy(&dir, &columns);
    // One worker, queue of one: the third concurrent connection gets BUSY.
    let handle = Server::start(
        &dir,
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            read_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        },
    )
    .unwrap();
    let addr = handle.addr();

    // A occupies the single worker (connected, sends nothing yet).
    let conn_a = ServeClient::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // B fills the queue slot.
    let conn_b = ServeClient::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // C overflows: the acceptor answers BUSY and hangs up.
    let conn_c = ServeClient::connect(addr).unwrap();
    let busy = conn_c.info();
    assert!(matches!(busy, Err(ClientError::Busy)), "got {busy:?}");

    // A's worker was never stolen: it still serves its held connection.
    let one_match = euclidean(
        Query::threshold(Tau::Ratio(0.2), JoinThreshold::Count(1)),
        ExecPolicy::Sequential,
    );
    let (reply, _) = conn_a.execute_detailed(&one_match, &query).unwrap();
    assert!(!reply.hits.is_empty());
    // Releasing A lets the queued B be served.
    drop(conn_a);
    let info = conn_b.info().unwrap();
    assert_eq!(info.generation, 1);
    let metrics = scrape(&conn_b);
    assert_eq!(
        stat_value(&metrics, "pexeso_rejected_total{reason=\"busy\"}"),
        Some(1.0)
    );

    drop(conn_b);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reload_same_dir_picks_up_reindex_and_failures_keep_serving() {
    let dir = tempdir("reindex");
    let (columns, query) = workload(55, 8, "a");
    let lake_a = deploy(&dir, &columns);
    // Direct answer of the first build, captured while its files exist.
    let direct_a = lake_a
        .execute(
            &Query::threshold(Tau::Ratio(0.2), JoinThreshold::Count(3)),
            &query,
        )
        .unwrap()
        .hits;
    let handle = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let client = ServeClient::connect(handle.addr()).unwrap();
    assert_eq!(client.info().unwrap().index_version, 1);

    // A reload pointing at garbage fails without hurting live serving.
    let missing = tempdir("reindex_missing");
    std::fs::remove_dir_all(&missing).ok();
    assert!(matches!(
        client.reload(Some(&missing)),
        Err(ClientError::Server(_))
    ));
    assert_eq!(
        client.info().unwrap().generation,
        1,
        "failed swap is a no-op"
    );

    // Re-index the same directory *in place*: this deletes and rewrites
    // every partition file under the live daemon. The snapshot is fully
    // resident, so an *uncached* query during the window (Count(3) was
    // never asked before, so this is a real search, not a cache hit)
    // still answers from the old build, exactly.
    let (columns2, _) = workload(56, 9, "a2");
    deploy(&dir, &columns2);
    let search = |t| {
        client.execute_detailed(
            &euclidean(Query::threshold(Tau::Ratio(0.2), t), ExecPolicy::Sequential),
            &query,
        )
    };
    let (during, meta) = search(JoinThreshold::Count(3)).unwrap();
    assert_eq!(meta.generation, 1);
    assert!(!meta.cached);
    assert_eq!(during.hits, direct_a, "must keep serving the old build");

    // Now pick the re-index up (manifest bumps to 2).
    let (generation, _) = client.reload(None).unwrap();
    assert_eq!(generation, 2);
    let info = client.info().unwrap();
    assert_eq!(info.index_version, 2, "manifest version travels in INFO");
    let (_, meta) = search(JoinThreshold::Count(1)).unwrap();
    assert_eq!(meta.generation, 2);

    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_shutdown_drains_and_joins() {
    let dir = tempdir("shutdown");
    let (columns, _) = workload(66, 6, "a");
    deploy(&dir, &columns);
    let handle = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = handle.addr();
    // A chatty keep-alive peer must not be able to hold the daemon open:
    // after shutdown it gets at most its in-flight reply, then the
    // connection closes.
    let chatty = ServeClient::connect(addr).unwrap();
    chatty.info().unwrap();
    let client = ServeClient::connect(addr).unwrap();
    client.shutdown().unwrap();
    drop(client);
    // Whether this request sneaks in before the worker observes the flag
    // or fails on a closed connection, the follow-up must fail and join()
    // must return instead of hanging on the chatty peer.
    let first = chatty.info();
    let second = chatty.info();
    assert!(
        first.is_err() || second.is_err(),
        "a shutting-down server must close keep-alive connections"
    );
    drop(chatty);
    // The daemon exits on its own: join() returns instead of hanging.
    handle.join();
    // And the port is actually released/refusing.
    std::thread::sleep(Duration::from_millis(50));
    let late = match ServeClient::connect(addr) {
        Err(_) => return, // refused outright: fine
        Ok(c) => c,
    };
    assert!(late.info().is_err(), "a shut-down server must not answer");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_ingest_applies_without_reloading_the_base() {
    use pexeso_delta::{drop_tables, ingest_columns, DeltaLake, IngestColumn};

    let dir = tempdir("ingest");
    let (columns, query) = workload(77, 8, "a");
    deploy(&dir, &columns);
    let handle = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let client = ServeClient::connect(handle.addr()).unwrap();

    let tau = Tau::Ratio(0.05);
    let t = JoinThreshold::Ratio(0.9);
    let q = Query::threshold(tau, t).with_policy(ExecPolicy::Sequential);
    let (before, meta) = client.execute_detailed(&q, &query).unwrap();
    assert_eq!(meta.generation, 1);
    assert!(!before.hits.iter().any(|h| h.table_name == "fresh_tab"));
    // Warm the cache so we can prove the apply invalidates it.
    let (_, warm) = client.execute_detailed(&q, &query).unwrap();
    assert!(warm.cached);

    // Ingest a table that mirrors the query (matches at any τ), then ask
    // the live daemon to publish it from the delta log.
    let mirror: Vec<f32> = (0..query.len())
        .flat_map(|i| query.get_raw(i).to_vec())
        .collect();
    ingest_columns(
        &dir,
        &[IngestColumn {
            table_name: "fresh_tab".into(),
            column_name: "key".into(),
            vectors: mirror,
        }],
    )
    .unwrap();
    let (generation, delta_columns, tombstones) = client.apply_delta().unwrap();
    assert_eq!(generation, 2);
    assert_eq!((delta_columns, tombstones), (1, 0));

    // The base build itself is untouched — only the serve generation
    // moved. An uncached query under the new generation sees the table,
    // byte-identical to opening the deployment (base + log) directly.
    let info = client.info().unwrap();
    assert_eq!(info.generation, 2);
    assert_eq!(info.index_version, 1, "APPLY must not re-index the base");
    let (after, meta) = client.execute_detailed(&q, &query).unwrap();
    assert_eq!(meta.generation, 2);
    assert!(!meta.cached, "the apply must invalidate the result cache");
    assert!(after.hits.iter().any(|h| h.table_name == "fresh_tab"));
    let direct = DeltaLake::open(&dir).unwrap();
    let local = direct.execute(&q, &query).unwrap();
    assert_eq!(local.hits, after.hits);

    // Tombstone one of the planted base tables; the next apply hides it.
    drop_tables(&dir, &["a_tab0".into()]).unwrap();
    let (generation, delta_columns, tombstones) = client.apply_delta().unwrap();
    assert_eq!(generation, 3);
    assert_eq!((delta_columns, tombstones), (1, 1));
    let (dropped, _) = client.execute_detailed(&q, &query).unwrap();
    assert!(!dropped.hits.iter().any(|h| h.table_name == "a_tab0"));
    assert!(dropped.hits.iter().any(|h| h.table_name == "fresh_tab"));

    // METRICS exposes the delta shape and the apply counter.
    let metrics = scrape(&client);
    for (series, value) in [
        ("pexeso_delta_columns", 1.0),
        ("pexeso_delta_tombstones", 1.0),
        ("pexeso_index_delta_records", 2.0),
        ("pexeso_applies_total", 2.0),
        ("pexeso_requests_total{endpoint=\"apply\"}", 2.0),
    ] {
        assert_eq!(stat_value(&metrics, series), Some(value), "{series}");
    }

    // Compact the directory underneath the daemon, then APPLY again: the
    // manifest version moved, so the apply falls back to a full load of
    // the new base — and keeps answering the same thing.
    let report = pexeso_delta::compact_lake(&dir, None, ExecPolicy::Sequential).unwrap();
    assert_eq!(report.index_version, 2);
    let (generation, delta_columns, tombstones) = client.apply_delta().unwrap();
    assert_eq!(generation, 4);
    assert_eq!((delta_columns, tombstones), (0, 0));
    let info = client.info().unwrap();
    assert_eq!(info.index_version, 2);
    let (compacted, meta) = client.execute_detailed(&q, &query).unwrap();
    assert_eq!(meta.generation, 4);
    assert_eq!(compacted.hits, dropped.hits);

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// `partitions=` names what is being served, not what the directory
/// holds. While an in-place re-index is under way (a new `part_*.pex`
/// written, the manifest not yet bumped) an `APPLY` republishes the
/// resident base, so the published snapshot — and `INFO`, `METRICS` and
/// `HEALTH` after it — must still count the resident partitions.
#[test]
fn apply_reports_the_partitions_it_serves_during_a_reindex() {
    let dir = tempdir("apply_parts");
    let (columns, _) = workload(31, 8, "a");
    let lake = deploy(&dir, &columns);
    let served = lake.num_partitions();
    let cell = SnapshotCell::open(&dir).unwrap();
    let handle = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let client = ServeClient::connect(handle.addr()).unwrap();
    assert_eq!(client.info().unwrap().partitions as usize, served);

    let extra = dir.join(format!("part_{served:04}.pex"));
    std::fs::copy(&lake.partition_files()[0], &extra).unwrap();

    let fresh = cell.apply_delta().unwrap();
    assert_eq!(fresh.generation(), 2);
    assert_eq!(fresh.inspect().partitions.len(), served);
    assert_eq!(fresh.num_partitions(), served);

    let (generation, ..) = client.apply_delta().unwrap();
    assert_eq!(generation, 2);
    assert_eq!(client.info().unwrap().partitions as usize, served);
    assert_eq!(
        stat_value(&scrape(&client), "pexeso_snapshot_partitions"),
        Some(served as f64)
    );
    let health = client.health_text().unwrap();
    assert!(
        health.contains(&format!("partitions={served}\n")),
        "{health}"
    );

    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The observability plane over loopback: a client-requested trace comes
/// back as a merged timeline whose phase spans are consistent with the
/// stats and bounded by the measured request latency; `METRICS` renders
/// valid Prometheus text; traced queries feed the slow-query log; and
/// requesting a trace never changes the answer.
#[test]
fn trace_metrics_and_slow_log_over_loopback() {
    use pexeso_core::trace::TraceLevel;
    use pexeso_serve::{ResilientClient, ResilientConfig};

    let dir = tempdir("observability");
    let (columns, query) = workload(29, 8, "obs");
    deploy(&dir, &columns);
    let config = ServeConfig {
        metrics_sample_rate: 1.0,
        ..ServeConfig::default()
    };
    let handle = Server::start(&dir, "127.0.0.1:0", config).unwrap();
    let client = ServeClient::connect(handle.addr()).unwrap();

    // Sequential policy so phase durations sum ≤ wall-clock: under a
    // parallel policy per-partition work overlaps and the back-to-back
    // span layout is reading order, not a schedule.
    let q = Query::threshold(Tau::Ratio(0.2), JoinThreshold::Ratio(0.5))
        .with_policy(ExecPolicy::Sequential);
    let (untraced, _) = client.execute_detailed(&q, &query).unwrap();
    assert!(!untraced.hits.is_empty(), "workload must produce hits");
    assert!(untraced.trace.is_none(), "no trace unless requested");

    let traced_q = q.clone().with_trace(TraceLevel::Detail);
    let started = std::time::Instant::now();
    let (traced, meta) = client.execute_detailed(&traced_q, &query).unwrap();
    let wall = started.elapsed();
    // Tracing never changes the answer (and bypasses the cache so the
    // trace reflects a real execution).
    assert_eq!(traced.hits, untraced.hits);
    assert!(!meta.cached, "traced queries bypass the cache read");
    let trace = traced.trace.as_ref().expect("requested trace must arrive");
    for phase in ["map", "block", "verify", "merge"] {
        assert!(trace.find(phase).is_some(), "missing {phase} span");
    }
    assert!(trace.span_count() >= 5, "root + four phases at minimum");
    // The server-side phase sum is bounded by the client's measured
    // round-trip (which additionally includes the network and queue).
    assert!(
        trace.phase_sum() <= wall,
        "phase sum {:?} exceeds wall {:?}",
        trace.phase_sum(),
        wall
    );
    // The stats phase durations are the very numbers the spans carry.
    assert_eq!(
        traced.stats.mapping_time,
        trace.find("map").unwrap().duration()
    );
    assert_eq!(
        traced.stats.block_time,
        trace.find("block").unwrap().duration()
    );
    assert_eq!(
        traced.stats.verify_time,
        trace.find("verify").unwrap().duration()
    );

    // The resilient client nests the same server trace under its own
    // attempt timeline: one correlated client→attempt→query tree.
    let resilient =
        ResilientClient::new(&[handle.addr().to_string()], ResilientConfig::default()).unwrap();
    let merged = resilient.execute(&traced_q, &query).unwrap();
    assert_eq!(merged.hits, untraced.hits);
    let mtrace = merged.trace.as_ref().expect("merged trace must arrive");
    assert_eq!(mtrace.root.name, "client");
    let attempt = mtrace.find("attempt/0").expect("attempt span");
    let server_root = attempt.children.first().expect("nested server trace");
    assert_eq!(server_root.name, "query");
    assert!(
        server_root.start_us >= attempt.start_us,
        "nesting must shift the server trace onto the client clock"
    );
    assert!(mtrace.find("verify").is_some());

    // METRICS: valid Prometheus exposition carrying the request and
    // phase histogram families (the validator checks bucket monotonicity
    // and the +Inf == _count invariant for every series).
    let metrics = scrape(&client);
    for family in [
        "pexeso_requests_total",
        "pexeso_request_latency_microseconds_bucket",
        "pexeso_phase_microseconds_sum",
        "pexeso_queue_wait_microseconds_count",
    ] {
        assert!(metrics.contains(family), "missing {family} in:\n{metrics}");
    }

    // The traced queries (and, at sample rate 1.0, every uncached one)
    // landed in the slow-query log with their rendered span trees.
    let slow = client.slow_log_text().unwrap();
    assert!(!slow.is_empty(), "slow log must have entries");
    assert!(
        slow.contains("verify"),
        "entries carry the span tree:\n{slow}"
    );

    // The p50/p99 gauges cover every endpoint and the queue wait.
    for series in ["search", "topk", "admin", "queue_wait"] {
        let p99 = format!(
            "pexeso_latency_quantile_microseconds{{series=\"{series}\",quantile=\"0.99\"}}"
        );
        assert!(stat_value(&metrics, &p99).is_some(), "missing {p99}");
    }

    // Close both client connections before joining: a worker parked in
    // a read on a live keep-alive stream only notices shutdown at the
    // read timeout.
    drop(resilient);
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn inspect_health_and_correlated_slow_log_over_loopback() {
    use pexeso_core::trace::TraceLevel;

    let dir = tempdir("introspect");
    let (columns, query) = workload(53, 8, "ins");
    deploy(&dir, &columns);
    let config = ServeConfig {
        metrics_sample_rate: 1.0,
        ..ServeConfig::default()
    };
    let handle = Server::start(&dir, "127.0.0.1:0", config).unwrap();
    let client = ServeClient::connect(handle.addr()).unwrap();

    // METRICS carries the index shape of the live snapshot: every
    // partition's structural gauges and pivot-spread width as one
    // labelled sample each, and the two cell-shape histograms over every
    // partition, all equal to the snapshot's own inspection.
    let metrics = scrape(&client);
    let inspection = SnapshotCell::open(&dir).unwrap().current().inspect();
    assert!(inspection.partitions.len() > 1);
    let once = |series: &str| {
        let lines = metrics
            .lines()
            .filter(|l| l.rsplit_once(' ').is_some_and(|(s, _)| s == series));
        assert_eq!(lines.count(), 1, "{series} in:\n{metrics}");
        stat_value(&metrics, series)
    };
    for (i, p) in inspection.partitions.iter().enumerate() {
        let width = p.pivot_width().unwrap();
        for (name, value) in [
            ("columns", p.columns as f64),
            ("deleted_columns", p.deleted_columns as f64),
            ("vectors", p.vectors as f64),
            ("cells", p.cells as f64),
            ("postings", p.postings as f64),
        ] {
            let series = format!("pexeso_index_{name}{{partition=\"{i}\"}}");
            assert_eq!(once(&series), Some(value), "{series}");
        }
        for (stat, value) in [("min", width.min), ("max", width.max), ("mean", width.mean)] {
            let series = format!("pexeso_index_pivot_spread{{partition=\"{i}\",stat=\"{stat}\"}}");
            assert_eq!(once(&series), Some(f64::from(value)), "{series}");
        }
    }
    let columns = |i: usize| {
        stat_value(
            &metrics,
            &format!("pexeso_index_columns{{partition=\"{i}\"}}"),
        )
    };
    let total: f64 = (0..inspection.partitions.len())
        .map(|i| columns(i).unwrap())
        .sum();
    assert_eq!(total, 8.0);
    assert_eq!(
        stat_value(&metrics, "pexeso_index_columns"),
        None,
        "no unlabelled total"
    );
    for (name, hist) in [
        ("postings_length", inspection.postings_len()),
        ("cell_occupancy", inspection.cell_occupancy()),
    ] {
        let series = format!("pexeso_index_{name}_count");
        assert_eq!(once(&series), Some(hist.count as f64), "{series}");
        let series = format!("pexeso_index_{name}_sum");
        assert_eq!(once(&series), Some(hist.sum as f64), "{series}");
    }

    // HEALTH: an idle daemon is ready; DRAIN is refused (router verb).
    let health = client.health_text().unwrap();
    assert!(health.starts_with("status=ready\n"), "{health}");
    assert!(health.contains("generation=1"), "{health}");
    assert!(health.contains("queue_depth=0"), "{health}");
    assert!(client.drain("127.0.0.1:1", true).is_err());

    // A traced query carrying a caller-minted request id lands in the
    // slow log under that id (a shard daemon adds no shard attribution).
    let q = Query::threshold(Tau::Ratio(0.2), JoinThreshold::Ratio(0.5))
        .with_trace(TraceLevel::Phases)
        .with_request_id(0xFACE);
    let (resp, meta) = client.execute_detailed(&q, &query).unwrap();
    assert!(!meta.cached && resp.trace.is_some());
    let slow = client.slow_log_text().unwrap();
    assert!(slow.contains("rid=000000000000face"), "{slow}");
    assert!(!slow.contains("shard="), "{slow}");

    // An EXPLAIN report comes back over the wire and balances.
    let (resp, _) = client
        .execute_detailed(
            &q.clone().with_trace(TraceLevel::Off).with_explain(true),
            &query,
        )
        .unwrap();
    let report = resp.explain.expect("requested report travels back");
    assert!(report.consistent());
    assert_eq!(report.mode(), "threshold");

    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A queue that would turn every connection away is refused before the
/// deployment is loaded, as an invalid parameter: on a directory that does
/// not exist the refusal is still `InvalidParameter`, not an I/O error.
#[test]
fn a_refused_queue_is_an_invalid_parameter_before_any_load() {
    let dir = tempdir("refused_queue");
    let missing = dir.join("missing");
    for (queue_capacity, queue_soft_watermark) in [(0, None), (8, Some(8))] {
        let config = ServeConfig {
            queue_capacity,
            queue_soft_watermark,
            ..ServeConfig::default()
        };
        match Server::start(&missing, "127.0.0.1:0", config) {
            Err(pexeso_core::error::PexesoError::InvalidParameter(message)) => {
                assert!(message.contains("is out of range"), "{message}")
            }
            Err(other) => panic!("queue {queue_capacity}: {other}"),
            Ok(_) => panic!("queue {queue_capacity} was served"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

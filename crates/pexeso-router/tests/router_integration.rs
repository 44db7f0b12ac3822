//! The distributed-serving differential suite: a router over shard
//! daemons must answer **byte-identically** to a single-node
//! `PartitionedLake` over the un-split source — hits and outcome — for
//! every metric, both query modes, shard counts 1–4, and adversarial
//! cross-shard tie layouts; replica failure mid-suite must change no
//! answer bytes.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pexeso_core::column::ColumnSet;
use pexeso_core::config::{ExecPolicy, IndexOptions, JoinThreshold, PivotSelection, Tau};
use pexeso_core::error::PexesoError;
use pexeso_core::explain::ExplainReport;
use pexeso_core::metric::Euclidean;
use pexeso_core::outofcore::{GlobalHit, LakeManifest, PartitionedLake};
use pexeso_core::partition::{PartitionConfig, PartitionMethod};
use pexeso_core::persist::load_index;
use pexeso_core::query::{Query, QueryOutcome, Queryable};
use pexeso_core::trace::TraceLevel;
use pexeso_core::vector::VectorStore;
use pexeso_delta::{compact_lake, delta_log_path, ingest_columns, IngestColumn};
use pexeso_router::daemon::{RouterServeConfig, RouterServer};
use pexeso_router::router::{Router, RouterConfig};
use pexeso_router::shardmap::{ShardMap, ShardSpec};
use pexeso_router::split::{plan_shards, shard_dir_name, split_lake, SHARD_MAP_FILE};
use pexeso_serve::protocol::WireHit;
use pexeso_serve::resilient::BackoffPolicy;
use pexeso_serve::{
    stat_value, validate_prometheus, ResilientConfig, ServeClient, ServeConfig, Server,
    ServerHandle,
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

/// An adversarial tie workload: every column holds an exact-copy count
/// from `counts`, so at a tight τ the match counts are known and heavily
/// tied — the top-k boundary lands inside a tie class whose members are
/// deliberately spread across the whole external-id range (and thus
/// across every shard of any contiguous cut).
fn tie_workload(seed: u64, counts: &[u32], tag: &str) -> (ColumnSet, VectorStore) {
    let mut rng = StdRng::seed_from_u64(seed);
    let query_vecs: Vec<Vec<f32>> = (0..6).map(|_| unit(&mut rng)).collect();
    let mut columns = ColumnSet::new(DIM);
    for (c, &count) in counts.iter().enumerate() {
        let mut vecs: Vec<Vec<f32>> = (0..15).map(|_| unit(&mut rng)).collect();
        for (slot, q) in vecs.iter_mut().zip(query_vecs.iter().take(count as usize)) {
            slot.clone_from(q);
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
        "pexeso_router_{name}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build + persist a deployment under `metric`, manifest included.
fn deploy(dir: &Path, columns: &ColumnSet, metric: &str) -> PartitionedLake {
    let config = PartitionConfig {
        k: 3,
        method: PartitionMethod::JsdKmeans,
        ..Default::default()
    };
    let options = IndexOptions {
        num_pivots: 3,
        levels: Some(3),
        pivot_selection: PivotSelection::Pca,
        seed: 7,
        ..Default::default()
    };
    let lake = PartitionedLake::build_named(columns, metric, &config, &options, dir).unwrap();
    let mut manifest = LakeManifest::next_build(dir, "test", DIM).unwrap();
    manifest.metric = metric.to_string();
    manifest.write(dir).unwrap();
    lake
}

/// Failover tuning fast enough for tests: milliseconds, not seconds.
fn fast_client() -> ResilientConfig {
    ResilientConfig {
        backoff: BackoffPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            multiplier: 3,
            max_retries: 3,
        },
        failure_threshold: 2,
        open_for: Duration::from_millis(200),
        timeout: Some(Duration::from_secs(5)),
        ..ResilientConfig::default()
    }
}

/// Split `src` into `shards` deployments, start one daemon per shard,
/// and build the router over the live addresses.
fn start_cluster(src: &Path, shards: usize, name: &str) -> (Vec<ServerHandle>, Router) {
    start_cluster_with(src, shards, name, ServeConfig::default())
}

fn start_cluster_with(
    src: &Path,
    shards: usize,
    name: &str,
    config: ServeConfig,
) -> (Vec<ServerHandle>, Router) {
    let out = tempdir(&format!("{name}_shards"));
    let map = split_lake(src, shards, &out).unwrap();
    let mut daemons = Vec::new();
    let mut specs = Vec::new();
    for (i, spec) in map.shards().iter().enumerate() {
        let handle =
            Server::start(&out.join(shard_dir_name(i)), "127.0.0.1:0", config.clone()).unwrap();
        specs.push(ShardSpec {
            lo: spec.lo,
            hi: spec.hi,
            replicas: vec![handle.addr().to_string()],
        });
        daemons.push(handle);
    }
    let router = Router::new(
        ShardMap::new(specs).unwrap(),
        RouterConfig {
            client: fast_client(),
        },
    )
    .unwrap();
    (daemons, router)
}

fn wire(hits: &[GlobalHit]) -> Vec<WireHit> {
    hits.iter().map(WireHit::from).collect()
}

/// Assert routed ≡ direct for a grid of taus, thresholds, and ks —
/// byte-identical hits (via the wire encoding) and identical outcome.
fn assert_differential(direct: &dyn Queryable, routed: &dyn Queryable, query: &VectorStore) {
    for tau in [Tau::Ratio(0.05), Tau::Ratio(0.2)] {
        for t in [JoinThreshold::Ratio(0.5), JoinThreshold::Count(2)] {
            let q = Query::threshold(tau, t);
            let d = direct.execute(&q, query).unwrap();
            let r = routed.execute(&q, query).unwrap();
            assert_eq!(wire(&d.hits), wire(&r.hits), "threshold {tau:?} {t:?}");
            assert_eq!(d.outcome, r.outcome, "threshold outcome {tau:?} {t:?}");
        }
        for k in [1usize, 3, 7, 100] {
            let q = Query::topk(tau, k);
            let d = direct.execute(&q, query).unwrap();
            let r = routed.execute(&q, query).unwrap();
            assert_eq!(wire(&d.hits), wire(&r.hits), "topk {tau:?} k={k}");
            assert_eq!(d.outcome, r.outcome, "topk outcome {tau:?} k={k}");
        }
    }
}

#[test]
fn routed_matches_single_node_across_shard_counts() {
    let dir = tempdir("counts_src");
    let (columns, query) = workload(11, 10, "a");
    let lake = deploy(&dir, &columns, "euclidean");
    for shards in 1..=4usize {
        let (daemons, router) = start_cluster(&dir, shards, &format!("counts{shards}"));
        assert_differential(&lake, &router, &query);
        for d in daemons {
            d.shutdown();
        }
    }
}

#[test]
fn routed_matches_single_node_across_metrics() {
    for (i, metric) in ["euclidean", "manhattan", "chebyshev", "angular"]
        .iter()
        .enumerate()
    {
        let dir = tempdir(&format!("metric_{metric}_src"));
        let (columns, query) = workload(23 + i as u64, 9, metric);
        let lake = deploy(&dir, &columns, metric);
        let (daemons, router) = start_cluster(&dir, 3, &format!("metric_{metric}"));
        assert_differential(&lake, &router, &query);
        for d in daemons {
            d.shutdown();
        }
    }
}

#[test]
fn adversarial_cross_shard_ties_rank_identically() {
    // Tie classes spread across the id range: counts 2 and 3 recur on
    // ids that land on *different* shards of any contiguous cut, so the
    // k-th slot regularly falls inside a tie whose correct members (by
    // external-id ascending) interleave across shards.
    let counts = [2u32, 3, 2, 1, 3, 2, 0, 2, 3, 2, 1, 2, 3, 2, 0, 2];
    let dir = tempdir("ties_src");
    let (columns, query) = tie_workload(37, &counts, "tie");
    let lake = deploy(&dir, &columns, "euclidean");
    for shards in [2usize, 3, 4] {
        let (daemons, router) = start_cluster(&dir, shards, &format!("ties{shards}"));
        // Tight τ: planted copies match, random vectors don't — the
        // ranking is fully determined by the tie structure above.
        for k in 1..=counts.len() + 2 {
            let q = Query::topk(Tau::Ratio(0.01), k);
            let d = lake.execute(&q, &query).unwrap();
            let r = router.execute(&q, &query).unwrap();
            assert_eq!(wire(&d.hits), wire(&r.hits), "shards={shards} k={k}");
            assert_eq!(d.outcome, r.outcome);
        }
        for t in [JoinThreshold::Count(2), JoinThreshold::Count(3)] {
            let q = Query::threshold(Tau::Ratio(0.01), t);
            let d = lake.execute(&q, &query).unwrap();
            let r = router.execute(&q, &query).unwrap();
            assert_eq!(wire(&d.hits), wire(&r.hits), "shards={shards} {t:?}");
        }
        for d in daemons {
            d.shutdown();
        }
    }
}

#[test]
fn range_filter_and_reask_handle_superset_daemons() {
    // One daemon serves the FULL lake, but the map assigns it two
    // sub-ranges: every reply contains out-of-range columns the router
    // must filter, and a truncated top-k reply must trigger the over-ask
    // loop to recover crowded-out in-range columns.
    let dir = tempdir("superset_src");
    let (columns, query) = workload(51, 12, "s");
    let lake = deploy(&dir, &columns, "euclidean");
    let daemon = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = daemon.addr().to_string();
    let map = ShardMap::new(vec![
        ShardSpec {
            lo: 0,
            hi: 6,
            replicas: vec![addr.clone()],
        },
        ShardSpec {
            lo: 6,
            hi: u64::MAX,
            replicas: vec![addr],
        },
    ])
    .unwrap();
    let router = Router::new(
        map,
        RouterConfig {
            client: fast_client(),
        },
    )
    .unwrap();
    assert_differential(&lake, &router, &query);
    daemon.shutdown();
}

#[test]
fn replica_kill_and_drain_change_no_answer_bytes() {
    let dir = tempdir("failover_src");
    let (columns, query) = workload(67, 10, "f");
    let lake = deploy(&dir, &columns, "euclidean");
    let out = tempdir("failover_shards");
    let map = split_lake(&dir, 2, &out).unwrap();
    // Shard 0 runs two replicas over the same shard deployment.
    let r0a = Server::start(
        &out.join(shard_dir_name(0)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .unwrap();
    let r0b = Server::start(
        &out.join(shard_dir_name(0)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .unwrap();
    let r1 = Server::start(
        &out.join(shard_dir_name(1)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .unwrap();
    let survivor = r0b.addr().to_string();
    let specs = vec![
        ShardSpec {
            lo: map.shards()[0].lo,
            hi: map.shards()[0].hi,
            replicas: vec![r0a.addr().to_string(), survivor.clone()],
        },
        ShardSpec {
            lo: map.shards()[1].lo,
            hi: map.shards()[1].hi,
            replicas: vec![r1.addr().to_string()],
        },
    ];
    let router = Router::new(
        ShardMap::new(specs).unwrap(),
        RouterConfig {
            client: fast_client(),
        },
    )
    .unwrap();
    let q = Query::topk(Tau::Ratio(0.1), 5);
    let before = router.execute(&q, &query).unwrap();
    assert_eq!(
        wire(&before.hits),
        wire(&lake.execute(&q, &query).unwrap().hits)
    );

    // Administrative drain steers traffic off a replica without error.
    assert_eq!(router.set_drained(&survivor, true), 1);
    assert!(router.shard_statuses()[0]
        .replicas
        .iter()
        .any(|r| r.addr == survivor && r.drained));
    let drained = router.execute(&q, &query).unwrap();
    assert_eq!(wire(&before.hits), wire(&drained.hits));
    assert_eq!(router.set_drained(&survivor, false), 1);

    // Kill replica A outright: failover to B, answers byte-identical.
    r0a.shutdown();
    let after = router.execute(&q, &query).unwrap();
    assert_eq!(wire(&before.hits), wire(&after.hits));
    assert_eq!(before.outcome, after.outcome);
    assert_differential(&lake, &router, &query);

    r0b.shutdown();
    r1.shutdown();
}

#[test]
fn unreachable_shard_is_a_typed_refusal_never_partial() {
    // Bind-then-drop guarantees a dead port.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let router = Router::new(
        ShardMap::new(vec![ShardSpec {
            lo: 0,
            hi: u64::MAX,
            replicas: vec![dead],
        }])
        .unwrap(),
        RouterConfig {
            client: fast_client(),
        },
    )
    .unwrap();
    let (_, query) = workload(5, 4, "u");
    let err = router
        .execute(&Query::topk(Tau::Ratio(0.1), 3), &query)
        .unwrap_err();
    match err {
        PexesoError::Remote(msg) => assert!(msg.contains("shard 0"), "names the shard: {msg}"),
        other => panic!("expected typed Remote refusal, got {other:?}"),
    }
}

#[test]
fn budget_trips_stay_typed_through_the_router() {
    let dir = tempdir("budget_src");
    let (columns, query) = workload(83, 10, "b");
    deploy(&dir, &columns, "euclidean");
    let (daemons, router) = start_cluster(&dir, 2, "budget");
    let q = Query::threshold(Tau::Ratio(0.2), JoinThreshold::Ratio(0.5)).with_budget(
        pexeso_core::query::QueryBudget {
            max_distance_computations: Some(1),
            deadline: None,
        },
    );
    let resp = router.execute(&q, &query).unwrap();
    assert_ne!(
        resp.outcome,
        QueryOutcome::Exact,
        "a spent distance budget must surface as a typed partial outcome"
    );
    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn routed_apply_bumps_only_the_owning_shard() {
    let dir = tempdir("apply_src");
    let (columns, query) = workload(91, 8, "g");
    deploy(&dir, &columns, "euclidean");
    let out = tempdir("apply_shards");
    split_lake(&dir, 2, &out).unwrap();
    let shard0_dir = out.join(shard_dir_name(0));
    let shard1_dir = out.join(shard_dir_name(1));
    let planted = IngestColumn {
        table_name: "ingested".into(),
        column_name: "key".into(),
        vectors: (0..query.len())
            .flat_map(|i| query.get(pexeso_core::vector::VectorId(i as u32)).to_vec())
            .collect(),
    };
    // Fresh external ids allocate above the source's watermark, which
    // only the last shard's unbounded range owns: the router would drop
    // a column ingested anywhere else, so the first shard refuses it
    // before writing a byte.
    match ingest_columns(&shard0_dir, std::slice::from_ref(&planted)) {
        Err(PexesoError::InvalidParameter(msg)) => assert!(msg.contains("unbounded"), "{msg}"),
        other => panic!("ingest into a bounded shard must be refused, got {other:?}"),
    }
    assert!(!delta_log_path(&shard0_dir).exists());
    // The last shard takes it.
    ingest_columns(&shard1_dir, &[planted]).unwrap();
    let d0 = Server::start(&shard0_dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let d1 = Server::start(&shard1_dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let map = split_lake(&dir, 2, &tempdir("apply_ranges")).unwrap();
    let specs = vec![
        ShardSpec {
            lo: map.shards()[0].lo,
            hi: map.shards()[0].hi,
            replicas: vec![d0.addr().to_string()],
        },
        ShardSpec {
            lo: map.shards()[1].lo,
            hi: map.shards()[1].hi,
            replicas: vec![d1.addr().to_string()],
        },
    ];
    let router = Router::new(
        ShardMap::new(specs).unwrap(),
        RouterConfig {
            client: fast_client(),
        },
    )
    .unwrap();
    let q = Query::threshold(Tau::Ratio(0.05), JoinThreshold::Ratio(0.9));
    router.execute(&q, &query).unwrap();
    assert_eq!(router.generations(), vec![1, 1], "both shards at gen 1");

    let (total, delta_columns, _) = router.apply_delta(1).unwrap();
    assert_eq!(delta_columns, 1);
    assert_eq!(total, 3, "router generation is the per-shard sum");
    assert_eq!(
        router.generations(),
        vec![1, 2],
        "APPLY bumps only the owning shard"
    );
    // The published overlay column is now part of routed answers.
    let resp = router.execute(&q, &query).unwrap();
    assert!(
        resp.hits.iter().any(|h| h.table_name == "ingested"),
        "routed answers include the applied delta column: {:?}",
        resp.hits
    );
    // Out-of-range APPLY targets are refused, not guessed.
    assert!(router.apply_delta(7).is_err());

    d0.shutdown();
    d1.shutdown();
}

/// Satellite regression: the router's admin verbs ride the streams its
/// per-shard query client already holds. A one-worker shard's only
/// worker is parked on that pooled stream after a routed query, so a
/// freshly dialed APPLY used to wait in the accept queue for the shard's
/// whole read timeout. And a pooled stream the shard has since closed
/// (its read timeout elapsed on the idle peer) costs the verb a re-ask,
/// not a failure.
#[test]
fn routed_admin_verbs_reuse_the_query_streams() {
    let dir = tempdir("admin_src");
    let (columns, query) = workload(97, 8, "a");
    deploy(&dir, &columns, "euclidean");
    let one_worker = |read_timeout| ServeConfig {
        workers: 1,
        read_timeout: Some(read_timeout),
        ..ServeConfig::default()
    };
    let q = Query::threshold(Tau::Ratio(0.05), JoinThreshold::Ratio(0.9));

    let (daemons, router) =
        start_cluster_with(&dir, 1, "admin_busy", one_worker(Duration::from_secs(3)));
    router.execute(&q, &query).unwrap();
    let started = Instant::now();
    router.apply_delta(0).unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "routed APPLY waited {elapsed:?} behind the parked worker"
    );
    for d in daemons {
        d.shutdown();
    }

    let idle = Duration::from_millis(200);
    let (daemons, router) = start_cluster_with(&dir, 1, "admin_idle", one_worker(idle));
    router.execute(&q, &query).unwrap();
    std::thread::sleep(3 * idle);
    assert_eq!(router.info().unwrap().dim as usize, DIM);
    router.apply_delta(0).unwrap();
    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn router_daemon_speaks_the_serve_protocol() {
    let dir = tempdir("daemon_src");
    let (columns, query) = workload(103, 10, "d");
    let lake = deploy(&dir, &columns, "euclidean");
    let out = tempdir("daemon_shards");
    let map = split_lake(&dir, 2, &out).unwrap();
    let mut daemons = Vec::new();
    let mut specs = Vec::new();
    for (i, spec) in map.shards().iter().enumerate() {
        let h = Server::start(
            &out.join(shard_dir_name(i)),
            "127.0.0.1:0",
            ServeConfig::default(),
        )
        .unwrap();
        specs.push(ShardSpec {
            lo: spec.lo,
            hi: spec.hi,
            replicas: vec![h.addr().to_string()],
        });
        daemons.push(h);
    }
    let map_path = out.join(SHARD_MAP_FILE);
    ShardMap::new(specs).unwrap().write(&map_path).unwrap();
    let handle = RouterServer::start(
        &map_path,
        "127.0.0.1:0",
        RouterServeConfig {
            client: fast_client(),
            ..RouterServeConfig::default()
        },
    )
    .unwrap();
    let client = ServeClient::connect(handle.addr()).unwrap();

    // INFO aggregates the shard deployments.
    let info = client.info().unwrap();
    assert_eq!(info.dim as usize, DIM);
    assert_eq!(info.generation, 2, "sum of two gen-1 shards");

    // Routed queries through the ordinary client are byte-identical to
    // the single-node lake, traced queries carry shard spans.
    for k in [1usize, 4, 20] {
        let q = Query::topk(Tau::Ratio(0.1), k);
        let (resp, meta) = client.execute_detailed(&q, &query).unwrap();
        let direct = lake.execute(&q, &query).unwrap();
        assert_eq!(wire(&direct.hits), wire(&resp.hits), "k={k}");
        assert_eq!(direct.outcome, resp.outcome);
        assert_eq!(meta.generation, 2);
    }
    let traced = client
        .execute_detailed(
            &Query::topk(Tau::Ratio(0.1), 3).with_trace(TraceLevel::Phases),
            &query,
        )
        .unwrap()
        .0;
    let rendered = traced.trace.expect("requested trace travels back").render();
    assert!(rendered.contains("router"), "root span: {rendered}");
    assert!(rendered.contains("shard/0"), "per-shard spans: {rendered}");
    assert!(rendered.contains("shard/1"), "per-shard spans: {rendered}");

    // METRICS: one well-formed Prometheus plane carrying the router-level,
    // per-shard and per-replica series and the p50/p99 gauges.
    let metrics = client.metrics_text().unwrap();
    validate_prometheus(&metrics).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{metrics}"));
    let (s0, s1) = (&map.shards()[0], &map.shards()[1]);
    let replica0 = daemons[0].addr();
    for (series, value) in [
        ("pexeso_router_shards".to_string(), 2.0),
        (
            format!(
                "pexeso_router_shard_range{{shard=\"0\",lo=\"{}\",hi=\"{}\"}}",
                s0.lo, s0.hi
            ),
            1.0,
        ),
        (
            format!(
                "pexeso_router_shard_range{{shard=\"1\",lo=\"{}\",hi=\"*\"}}",
                s1.lo
            ),
            1.0,
        ),
        ("pexeso_router_shard_generation{shard=\"1\"}".into(), 1.0),
        (
            "pexeso_router_shard_failovers_total{shard=\"0\"}".into(),
            0.0,
        ),
        (
            format!("pexeso_router_replica_failures{{shard=\"0\",replica=\"{replica0}\"}}"),
            0.0,
        ),
        (
            "pexeso_router_requests_total{endpoint=\"topk\"}".into(),
            4.0,
        ),
    ] {
        assert_eq!(stat_value(&metrics, &series), Some(value), "{series}");
    }
    for series in ["topk", "query"] {
        let p99 = format!(
            "pexeso_router_latency_quantile_microseconds{{series=\"{series}\",quantile=\"0.99\"}}"
        );
        assert!(stat_value(&metrics, &p99).unwrap() > 0.0, "{p99}");
    }
    assert!(metrics.contains("pexeso_router_query_latency_microseconds_bucket"));

    // SLOW plane: the traced query above fed the log.
    assert!(client.slow_log_text().unwrap().contains("topk"));

    // RELOAD re-reads the shard map.
    let (_, partitions) = client.reload(None).unwrap();
    assert_eq!(partitions, 2, "router reload reports shard count");

    // Bare APPLY (no shard tail) is refused at the router.
    assert!(client.apply_delta().is_err());

    client.shutdown().unwrap();
    handle.join();
    for d in daemons {
        d.shutdown();
    }
}

/// A replica address is whatever token the shard-map file holds, and the
/// router dials nobody at start: the scrape stays valid Prometheus text
/// whatever the address contains, and names it escaped.
#[test]
fn metrics_escape_replica_addresses_from_the_shard_map() {
    let dir = tempdir("escape");
    let map_path = dir.join(SHARD_MAP_FILE);
    std::fs::write(&map_path, "shard 0 * a\"b:7001\n").unwrap();
    let handle =
        RouterServer::start(&map_path, "127.0.0.1:0", RouterServeConfig::default()).unwrap();
    let client = ServeClient::connect(handle.addr()).unwrap();
    let metrics = client.metrics_text().unwrap();
    validate_prometheus(&metrics).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{metrics}"));
    for family in ["open", "drained", "failures"] {
        let series = format!(r#"pexeso_router_replica_{family}{{shard="0",replica="a\"b:7001"}}"#);
        assert_eq!(stat_value(&metrics, &series), Some(0.0), "{metrics}");
    }
    drop(client);
    handle.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A router daemon whose queue would turn every connection away as BUSY
/// is refused before it binds.
#[test]
fn a_router_with_no_queue_is_refused() {
    let dir = tempdir("no_queue");
    let map_path = dir.join(SHARD_MAP_FILE);
    std::fs::write(&map_path, "shard 0 * 127.0.0.1:1\n").unwrap();
    let config = RouterServeConfig {
        queue_capacity: 0,
        ..RouterServeConfig::default()
    };
    let Err(err) = RouterServer::start(&map_path, "127.0.0.1:0", config) else {
        panic!("a router with no queue was served");
    };
    assert!(
        err.to_string().contains("queue capacity 0 is out of range"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The same refusal comes before the shard map is read: a router over a
/// map that does not exist is refused as an invalid parameter, not as an
/// I/O error.
#[test]
fn a_router_with_no_queue_is_refused_before_its_map_is_read() {
    let dir = tempdir("no_queue_no_map");
    let missing = dir.join(SHARD_MAP_FILE);
    let config = RouterServeConfig {
        queue_capacity: 0,
        ..RouterServeConfig::default()
    };
    match RouterServer::start(&missing, "127.0.0.1:0", config) {
        Err(PexesoError::InvalidParameter(message)) => assert!(
            message.contains("queue capacity 0 is out of range"),
            "{message}"
        ),
        Err(other) => panic!("{other}"),
        Ok(_) => panic!("a router with no queue was served"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn explain_through_the_router_changes_nothing_and_merges() {
    let dir = tempdir("explain_src");
    let (columns, query) = workload(113, 10, "e");
    let lake = deploy(&dir, &columns, "euclidean");
    let (daemons, router) = start_cluster(&dir, 3, "explain");
    for q in [
        Query::threshold(Tau::Ratio(0.2), JoinThreshold::Count(2)),
        Query::topk(Tau::Ratio(0.2), 5),
    ] {
        let direct = lake.execute(&q, &query).unwrap();
        let off = router.execute(&q, &query).unwrap();
        assert!(off.explain.is_none(), "no report unless asked");
        let on = router
            .execute(&q.clone().with_explain(true), &query)
            .unwrap();
        assert_eq!(
            wire(&off.hits),
            wire(&on.hits),
            "explain changed the answer"
        );
        assert_eq!(wire(&direct.hits), wire(&on.hits), "routed ≠ single-node");
        assert_eq!(off.outcome, on.outcome);
        let report = on.explain.expect("requested report travels back merged");
        assert!(report.consistent(), "merged funnel must balance");
        // The merged funnel keeps the canonical stage order.
        let stages = report.stages();
        let names: Vec<&str> = stages.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["block", "verify", "columns"]);
    }
    for d in daemons {
        d.shutdown();
    }
}

/// Every shard answers its own top-k, so the shards' `columns` stages
/// add up to more than the routed answer; the routed report ends at the
/// answer's own hit count.
#[test]
fn routed_explain_columns_stage_ends_at_the_routed_answer() {
    let counts = [3u32, 1, 2, 3, 2, 1, 3, 2, 1];
    let dir = tempdir("explain_k_src");
    let (columns, query) = tie_workload(41, &counts, "xk");
    deploy(&dir, &columns, "euclidean");
    let (daemons, router) = start_cluster(&dir, 3, "explain_k");
    let q = Query::topk(Tau::Ratio(0.01), 2).with_explain(true);
    let shard_hits: usize = daemons
        .iter()
        .map(|d| {
            let client = ServeClient::connect(d.addr()).unwrap();
            client.execute(&q, &query).unwrap().hits.len()
        })
        .sum();
    let resp = router.execute(&q, &query).unwrap();
    assert_eq!(resp.hits.len(), 2);
    assert!(shard_hits > resp.hits.len(), "shards answered {shard_hits}");
    let report = resp.explain.expect("explained");
    let stages = report.stages();
    let columns = stages.iter().find(|s| s.name == "columns").unwrap();
    assert_eq!(columns.output, resp.hits.len() as u64);
    assert!(report.consistent(), "{}", report.render());
    for d in daemons {
        d.shutdown();
    }
}

/// A routed EXPLAIN lists each decision once: every count is the sum of
/// the shards' own reports, each shard queried directly, and the top-k
/// seeds are the shards' in shard order.
#[test]
fn routed_explain_sums_the_shards_decisions() {
    let dir = tempdir("explain_sum_src");
    let (columns, query) = workload(117, 12, "s");
    deploy(&dir, &columns, "euclidean");
    let (daemons, router) = start_cluster(&dir, 3, "explain_sum");
    let key = |d: &str| d.split(['=', ' ']).next().unwrap().to_string();
    for q in [
        Query::threshold(Tau::Ratio(0.2), JoinThreshold::Count(2)),
        Query::topk(Tau::Ratio(0.2), 3),
    ] {
        let q = q.with_explain(true);
        let shards: Vec<Vec<String>> = daemons
            .iter()
            .map(|d| {
                let client = ServeClient::connect(d.addr()).unwrap();
                let resp = client.execute(&q, &query).unwrap();
                resp.explain.expect("explained").decisions()
            })
            .collect();
        assert!(
            shards.windows(2).any(|w| w[0] != w[1]),
            "the shards must decide differently: {shards:#?}"
        );
        let routed = router.execute(&q, &query).unwrap();
        let routed = routed.explain.expect("explained").decisions();
        let mut keys: Vec<String> = routed.iter().map(|d| key(d)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), routed.len(), "{routed:#?}");
        assert_eq!(routed.len(), shards[0].len(), "{routed:#?}");
        for line in &routed {
            let own: Vec<&String> = shards
                .iter()
                .map(|report| report.iter().find(|d| key(d) == key(line)).unwrap())
                .collect();
            for (i, field) in line.split(' ').enumerate() {
                let (name, value) = field.split_once('=').unwrap();
                let values: Vec<&str> = own
                    .iter()
                    .map(|d| d.split(' ').nth(i).unwrap().split_once('=').unwrap().1)
                    .collect();
                match name {
                    "topk_seed" => assert_eq!(value, values.join(","), "{line}"),
                    "outcome" | "quick_browse" => {
                        assert!(values.iter().all(|v| *v == value), "{line}: {values:?}")
                    }
                    _ => {
                        let sum: u64 = values.iter().map(|v| v.parse::<u64>().unwrap()).sum();
                        assert_eq!(value.parse::<u64>().unwrap(), sum, "{line}: {values:?}");
                    }
                }
            }
        }
    }
    for d in daemons {
        d.shutdown();
    }
}

/// The count a report's decision lines give `key` (`key=N` in one line).
fn decision_count(report: &ExplainReport, key: &str) -> u64 {
    let prefix = format!("{key}=");
    let counts: Vec<u64> = report
        .decisions()
        .iter()
        .flat_map(|line| line.split(' '))
        .filter_map(|field| field.strip_prefix(prefix.as_str()))
        .map(|n| n.parse().unwrap())
        .collect();
    assert_eq!(counts.len(), 1, "{key} in {}", report.render());
    counts[0]
}

/// A re-asked shard's funnel counts every ask: one daemon serves the
/// whole lake under a two-range map, so a top-1 reply loses its head to
/// the range filter and the router asks again. The routed report's
/// distance count is the routed stats', re-asks included.
#[test]
fn routed_explain_counts_every_reask() {
    let dir = tempdir("explain_reask_src");
    let (columns, query) = workload(51, 12, "s");
    deploy(&dir, &columns, "euclidean");
    let daemon = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let addr = daemon.addr().to_string();
    let map = ShardMap::new(vec![
        ShardSpec {
            lo: 0,
            hi: 6,
            replicas: vec![addr.clone()],
        },
        ShardSpec {
            lo: 6,
            hi: u64::MAX,
            replicas: vec![addr],
        },
    ])
    .unwrap();
    let router = Router::new(
        map,
        RouterConfig {
            client: fast_client(),
        },
    )
    .unwrap();
    let q = Query::topk(Tau::Ratio(0.05), 1).with_explain(true);
    let traced = router
        .execute(&q.clone().with_trace(TraceLevel::Phases), &query)
        .unwrap();
    let reasks: u64 = traced
        .trace
        .expect("traced")
        .root
        .children
        .iter()
        .flat_map(|shard| &shard.counters)
        .filter(|(name, _)| name == "reasks")
        .map(|(_, n)| n)
        .sum();
    assert!(reasks > 0, "the map must make the router re-ask");
    let resp = router.execute(&q, &query).unwrap();
    let report = resp.explain.expect("explained");
    assert!(report.consistent(), "{}", report.render());
    assert_eq!(
        decision_count(&report, "distance_computations"),
        resp.stats.distance_computations,
        "{}",
        report.render()
    );
    daemon.shutdown();
}

/// The routed `columns` stage prunes what the shards' Lemma 7 pruned:
/// its count is the sum of the shards' own, each queried directly.
#[test]
fn routed_explain_columns_stage_counts_the_shards_lemma7() {
    let dir = tempdir("explain_l7_src");
    let (columns, query) = workload(121, 12, "l");
    deploy(&dir, &columns, "euclidean");
    let (daemons, router) = start_cluster(&dir, 3, "explain_l7");
    let q = Query::threshold(Tau::Ratio(0.05), JoinThreshold::Ratio(0.5)).with_explain(true);
    let lemma7 = |report: ExplainReport| report.stages()[2].pruned.clone();
    let shards: u64 = daemons
        .iter()
        .map(|d| {
            let client = ServeClient::connect(d.addr()).unwrap();
            lemma7(
                client
                    .execute(&q, &query)
                    .unwrap()
                    .explain
                    .expect("explained"),
            )[0]
            .1
        })
        .sum();
    assert!(shards > 0, "the shards must prune by Lemma 7");
    let routed = router
        .execute(&q, &query)
        .unwrap()
        .explain
        .expect("explained");
    assert_eq!(lemma7(routed), [("lemma7".to_string(), shards)]);
    for d in daemons {
        d.shutdown();
    }
}

/// Under a distance budget the router sweeps the shards in order and
/// stops at the first trip; the routed report prints that one outcome
/// and counts the distances the routed stats count.
#[test]
fn routed_explain_under_a_distance_budget() {
    let dir = tempdir("explain_budget_src");
    let (columns, query) = workload(119, 12, "b");
    deploy(&dir, &columns, "euclidean");
    let (daemons, router) = start_cluster(&dir, 3, "explain_budget");
    for q in [
        Query::threshold(Tau::Ratio(0.2), JoinThreshold::Count(2)),
        Query::topk(Tau::Ratio(0.2), 3),
    ] {
        let q = q.with_max_distance_computations(1).with_explain(true);
        let resp = router.execute(&q, &query).unwrap();
        let QueryOutcome::Exceeded(tripped) = resp.outcome else {
            panic!("a budget of one distance did not trip: {q:?}");
        };
        let report = resp.explain.expect("explained");
        let outcomes: Vec<String> = report
            .decisions()
            .into_iter()
            .filter(|d| d.starts_with("outcome="))
            .collect();
        assert_eq!(outcomes, [format!("outcome=exceeded({tripped})")]);
        assert_eq!(
            decision_count(&report, "distance_computations"),
            resp.stats.distance_computations,
            "{}",
            report.render()
        );
        assert!(report.consistent(), "{}", report.render());
    }
    for d in daemons {
        d.shutdown();
    }
}

/// Compaction and split read a deployment's columns through the same
/// reader, which refuses a repeated external id before anything is
/// written.
#[test]
fn duplicate_external_ids_are_refused_by_compaction_and_split() {
    let dir = tempdir("dup_src");
    let (mut columns, _) = workload(17, 6, "dup");
    let v = unit(&mut StdRng::seed_from_u64(1));
    columns
        .add_column("dup_again", "key", 2, vec![v.as_slice()])
        .unwrap();
    deploy(&dir, &columns, "euclidean");
    let listing = |dir: &Path| {
        let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
            .collect();
        files.sort();
        files
    };
    let before = listing(&dir);
    let out = tempdir("dup_out");
    std::fs::remove_dir_all(&out).unwrap();
    for result in [
        compact_lake(&dir, None, ExecPolicy::Sequential).map(|_| ()),
        split_lake(&dir, 2, &out).map(|_| ()),
    ] {
        match result {
            Err(PexesoError::Corrupt(msg)) => assert!(msg.contains("external id 2"), "{msg}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
    }
    assert!(listing(&dir) == before, "the source changed");
    assert!(!out.exists(), "split wrote its output directory");
}

#[test]
fn routed_meta_carries_request_id_and_slowest_shard() {
    let dir = tempdir("meta_src");
    let (columns, query) = workload(127, 8, "m");
    deploy(&dir, &columns, "euclidean");
    let (daemons, router) = start_cluster(&dir, 2, "meta");
    // A plain query with logging disabled mints nothing: correlation is
    // strictly opt-in, so untraced traffic pays no id bookkeeping.
    let plain = Query::topk(Tau::Ratio(0.1), 3);
    let (_, meta) = router.execute_routed(&plain, &query).unwrap();
    assert_eq!(meta.request_id, None);
    // An explained query makes the router the outermost hop: it mints an
    // id and reports which shard dominated the latency.
    let (_, meta) = router
        .execute_routed(&plain.clone().with_explain(true), &query)
        .unwrap();
    assert!(
        meta.request_id.is_some(),
        "router must mint a correlation id"
    );
    assert!(meta.slowest_shard.is_some_and(|s| s < 2));
    // A caller-supplied id is used verbatim, never re-minted.
    let (_, meta) = router
        .execute_routed(
            &plain.clone().with_explain(true).with_request_id(0xBEEF),
            &query,
        )
        .unwrap();
    assert_eq!(meta.request_id, Some(0xBEEF));
    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn health_rollup_tracks_drain_state() {
    let dir = tempdir("health_src");
    let (columns, _) = workload(131, 8, "h");
    deploy(&dir, &columns, "euclidean");
    let out = tempdir("health_shards");
    let map = split_lake(&dir, 2, &out).unwrap();
    // Shard 0 gets two replicas so a drain degrades instead of downing.
    let r0a = Server::start(
        &out.join(shard_dir_name(0)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .unwrap();
    let r0b = Server::start(
        &out.join(shard_dir_name(0)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .unwrap();
    let r1 = Server::start(
        &out.join(shard_dir_name(1)),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .unwrap();
    let drained_addr = r0a.addr().to_string();
    let specs = vec![
        ShardSpec {
            lo: map.shards()[0].lo,
            hi: map.shards()[0].hi,
            replicas: vec![drained_addr.clone(), r0b.addr().to_string()],
        },
        ShardSpec {
            lo: map.shards()[1].lo,
            hi: map.shards()[1].hi,
            replicas: vec![r1.addr().to_string()],
        },
    ];
    let router = Router::new(
        ShardMap::new(specs).unwrap(),
        RouterConfig {
            client: fast_client(),
        },
    )
    .unwrap();
    let healthy = router.health_text(false);
    assert!(healthy.starts_with("status=ready\nshards=2\n"), "{healthy}");
    assert!(healthy.contains("shard0.replicas=2"), "{healthy}");
    assert!(healthy.contains("shard0.available=2"), "{healthy}");

    assert_eq!(router.set_drained(&drained_addr, true), 1);
    let degraded = router.health_text(false);
    assert!(degraded.starts_with("status=degraded"), "{degraded}");
    assert!(degraded.contains("shard0.status=degraded"), "{degraded}");
    assert!(degraded.contains("shard0.available=1"), "{degraded}");
    assert!(degraded.contains("shard1.status=ready"), "{degraded}");

    // Draining the fleet overrides everything; undraining the replica
    // restores ready.
    assert!(router.health_text(true).starts_with("status=draining"));
    assert_eq!(router.set_drained(&drained_addr, false), 1);
    assert!(router.health_text(false).starts_with("status=ready"));

    r0a.shutdown();
    r0b.shutdown();
    r1.shutdown();
}

#[test]
fn router_daemon_observability_verbs_end_to_end() {
    let dir = tempdir("obsd_src");
    let (columns, query) = workload(139, 10, "o");
    deploy(&dir, &columns, "euclidean");
    let out = tempdir("obsd_shards");
    let map = split_lake(&dir, 2, &out).unwrap();
    let mut daemons = Vec::new();
    let mut specs = Vec::new();
    for (i, spec) in map.shards().iter().enumerate() {
        let h = Server::start(
            &out.join(shard_dir_name(i)),
            "127.0.0.1:0",
            ServeConfig::default(),
        )
        .unwrap();
        specs.push(ShardSpec {
            lo: spec.lo,
            hi: spec.hi,
            replicas: vec![h.addr().to_string()],
        });
        daemons.push(h);
    }
    let shard0_addr = specs[0].replicas[0].clone();
    let map_path = out.join(SHARD_MAP_FILE);
    ShardMap::new(specs).unwrap().write(&map_path).unwrap();
    let handle = RouterServer::start(
        &map_path,
        "127.0.0.1:0",
        RouterServeConfig {
            client: fast_client(),
            ..RouterServeConfig::default()
        },
    )
    .unwrap();
    let client = ServeClient::connect(handle.addr()).unwrap();

    // HEALTH: a fully-replicated fleet is ready; draining one replica of
    // a single-replica shard downs that shard and degrades nothing else.
    let health = client.health_text().unwrap();
    assert!(health.starts_with("status=ready\nshards=2\n"), "{health}");
    let ack = client.drain(&shard0_addr, true).unwrap();
    assert!(ack.contains("drained=1"), "{ack}");
    let health = client.health_text().unwrap();
    assert!(health.contains("shard0.status=down"), "{health}");
    assert!(health.contains("shard1.status=ready"), "{health}");
    let ack = client.drain(&shard0_addr, false).unwrap();
    assert!(ack.contains("drained=0"), "{ack}");
    assert!(client.health_text().unwrap().starts_with("status=ready"));
    // Draining an unknown address is a typed refusal.
    assert!(client.drain("10.255.0.1:9", true).is_err());

    // SLOW: a traced + correlated query lands with its id and the
    // owning-shard attribution.
    let q = Query::topk(Tau::Ratio(0.1), 4)
        .with_trace(TraceLevel::Phases)
        .with_request_id(0xC0FFEE);
    let (resp, _) = client.execute_detailed(&q, &query).unwrap();
    assert!(resp.trace.is_some());
    let slow = client.slow_log_text().unwrap();
    assert!(slow.contains("rid=0000000000c0ffee"), "{slow}");
    assert!(slow.contains("shard="), "{slow}");

    client.shutdown().unwrap();
    handle.join();
    for d in daemons {
        d.shutdown();
    }
}

#[test]
fn shard_plan_is_deterministic_and_matches_split() {
    let dir = tempdir("plan_src");
    let (columns, _) = workload(7, 12, "p");
    deploy(&dir, &columns, "euclidean");
    let plan = plan_shards(&dir, 3).unwrap();
    assert_eq!(plan, plan_shards(&dir, 3).unwrap(), "planning is pure");
    let out = tempdir("plan_out");
    let split = split_lake(&dir, 3, &out).unwrap();
    for (p, s) in plan.shards().iter().zip(split.shards()) {
        assert_eq!((p.lo, p.hi), (s.lo, s.hi), "split executes the plan");
    }
    assert_eq!(
        ShardMap::read(&out.join(SHARD_MAP_FILE)).unwrap(),
        split,
        "written map round-trips"
    );
    // Union exactness: every source column appears in exactly one shard.
    let mut seen = Vec::new();
    for i in 0..3 {
        let shard = PartitionedLake::open(&out.join(shard_dir_name(i))).unwrap();
        for file in shard.partition_files() {
            let idx = load_index(file, Euclidean).unwrap();
            // Shards are rebuilt under the source's stored build options.
            let o = idx.options();
            let options = (o.num_pivots, o.levels, o.pivot_selection, o.seed);
            assert_eq!(options, (3, Some(3), PivotSelection::Pca, 7));
            for meta in idx.columns().columns() {
                assert!(
                    split.shards()[i].owns(meta.external_id),
                    "shard {i} holds foreign id {}",
                    meta.external_id
                );
                seen.push(meta.external_id);
            }
        }
    }
    seen.sort_unstable();
    assert_eq!(seen, (0..12).collect::<Vec<u64>>(), "exact in union");
}

//! The EXPLAIN differential contract: asking for a query plan can never
//! change the answer. On every backend — in-memory [`PexesoIndex`],
//! disk-backed [`PartitionedLake`], fully resident
//! [`ResidentPartitions`], and the remote [`ServeClient`] over loopback
//! — an explained query returns hits **and** stats byte-identical to
//! the unexplained run (wall-clock timings exempt), a report arrives
//! exactly when one was asked for, and the funnel arithmetic mirrors
//! [`SearchStats`] counter for counter.

use std::path::PathBuf;
use std::time::Duration;

use pexeso::prelude::*;
use pexeso::serve::{ServeClient, ServeConfig, Server};
use pexeso_core::explain::ExplainReport;
use pexeso_core::partition::PartitionMethod;
use pexeso_core::stats::SearchStats;

const DIM: usize = 12;

fn unit(rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    use rand::Rng;
    let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

/// Same workload shape as `tests/query_api.rs`: joinable columns planted
/// in the first three, plus tie-prone twin columns, so both the blocking
/// and the verification stages do real pruning work.
fn workload(seed: u64) -> (ColumnSet, VectorStore) {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let query_vecs: Vec<Vec<f32>> = (0..6).map(|_| unit(&mut rng)).collect();
    let mut columns = ColumnSet::new(DIM);
    for c in 0..10u64 {
        let mut vecs: Vec<Vec<f32>> = (0..14).map(|_| unit(&mut rng)).collect();
        if c < 3 {
            for (slot, q) in vecs.iter_mut().zip(&query_vecs) {
                slot.clone_from(q);
            }
        }
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns
            .add_column(&format!("tab{c}"), "key", c, refs)
            .unwrap();
    }
    let twin: Vec<Vec<f32>> = query_vecs.iter().take(4).cloned().collect();
    for (name, ext) in [("twin_hi", 21u64), ("twin_lo", 20)] {
        let refs: Vec<&[f32]> = twin.iter().map(|v| v.as_slice()).collect();
        columns.add_column("twins", name, ext, refs).unwrap();
    }
    let mut query = VectorStore::new(DIM);
    for q in &query_vecs {
        query.push(q).unwrap();
    }
    (columns, query)
}

fn tempdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pexeso_explain_{name}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn index_options() -> IndexOptions {
    IndexOptions {
        num_pivots: 3,
        levels: Some(3),
        pivot_selection: PivotSelection::Pca,
        seed: 7,
        ..Default::default()
    }
}

struct Backends {
    index: PexesoIndex<Euclidean>,
    lake: PartitionedLake,
    resident: ResidentPartitions<Euclidean>,
    client: ServeClient,
    handle: Option<pexeso::serve::ServerHandle>,
    dir: PathBuf,
}

impl Backends {
    fn build(seed: u64, tag: &str) -> (Self, VectorStore) {
        let (columns, query) = workload(seed);
        let dir = tempdir(tag);
        let index = PexesoIndex::build(columns.clone(), Euclidean, index_options()).unwrap();
        let lake = PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig {
                k: 3,
                method: PartitionMethod::JsdKmeans,
                ..Default::default()
            },
            &index_options(),
            &dir,
        )
        .unwrap();
        assert!(lake.num_partitions() > 1, "need a real partition merge");
        LakeManifest::next_build(&dir, "test", DIM)
            .unwrap()
            .write(&dir)
            .unwrap();
        let resident = ResidentPartitions::load(&lake, Euclidean).unwrap();
        let handle = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let client = ServeClient::connect(handle.addr()).unwrap();
        (
            Self {
                index,
                lake,
                resident,
                client,
                handle: Some(handle),
                dir,
            },
            query,
        )
    }

    fn as_dyn(&self) -> Vec<(&'static str, &dyn Queryable)> {
        vec![
            ("index", &self.index),
            ("lake", &self.lake),
            ("resident", &self.resident),
            ("serve", &self.client),
        ]
    }

    fn finish(mut self) {
        let _ = self.client.shutdown();
        if let Some(handle) = self.handle.take() {
            handle.join();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn run(backend: &dyn Queryable, query: &Query, vectors: &VectorStore) -> QueryResponse {
    backend.execute(query, vectors).unwrap()
}

/// Zero the wall-clock fields so two runs of the same query compare
/// counter-for-counter: the explain contract covers work done, never
/// elapsed time.
fn scrub(mut stats: SearchStats) -> SearchStats {
    stats.mapping_time = Duration::ZERO;
    stats.block_time = Duration::ZERO;
    stats.verify_time = Duration::ZERO;
    stats.total_time = Duration::ZERO;
    stats
}

/// The query matrix every differential test sweeps. Each entry is
/// distinct modulo the result-cache fingerprint (which ignores the
/// execution policy), so the remote backend executes every unexplained
/// run for real instead of answering a repeat from its cache — a cached
/// reply legitimately reports zero distance computations and would fake
/// a stats divergence.
fn query_matrix() -> Vec<Query> {
    let mut queries = Vec::new();
    for (tau, policy) in [
        (Tau::Ratio(0.05), ExecPolicy::Sequential),
        (Tau::Ratio(0.25), ExecPolicy::Parallel { threads: 3 }),
    ] {
        for t in [JoinThreshold::Count(2), JoinThreshold::Ratio(0.5)] {
            queries.push(
                Query::threshold(tau, t)
                    .with_policy(policy)
                    .expect_metric("euclidean"),
            );
        }
        for k in [1usize, 3, 50] {
            queries.push(
                Query::topk(tau, k)
                    .with_policy(policy)
                    .expect_metric("euclidean"),
            );
        }
    }
    queries
}

/// The acceptance criterion: explain-on ≡ explain-off in hits and
/// (timing-scrubbed) stats on all four backends, and the report is
/// present exactly when requested.
#[test]
fn explain_never_changes_results_across_backends() {
    let (backends, query_vecs) = Backends::build(42, "diff");
    let mut nonempty = 0;
    for q in &query_matrix() {
        let explained = q.clone().with_explain(true);
        for (name, backend) in backends.as_dyn() {
            let off = run(backend, q, &query_vecs);
            let on = run(backend, &explained, &query_vecs);
            assert!(
                off.explain.is_none(),
                "{name} explained without being asked"
            );
            assert!(on.explain.is_some(), "{name} dropped the requested report");
            assert_eq!(
                on.hits, off.hits,
                "{name} answer changed under explain for {q:?}"
            );
            assert_eq!(on.outcome, off.outcome, "{name} outcome changed for {q:?}");
            assert_eq!(
                scrub(on.stats.clone()),
                scrub(off.stats.clone()),
                "{name} stats changed under explain for {q:?}"
            );
            if name == "index" && !on.hits.is_empty() {
                nonempty += 1;
            }
        }
    }
    assert!(nonempty > 4, "workload must produce hits to be meaningful");
    backends.finish();
}

/// Check one backend's report against the stats and hits the same
/// response carried: stage arithmetic balances, and every pruned count
/// equals the matching [`SearchStats`] counter verbatim.
fn check_funnel(name: &str, q: &Query, resp: &QueryResponse) {
    let report = resp.explain.as_ref().unwrap();
    assert!(report.consistent(), "{name} funnel unbalanced for {q:?}");
    let stages = report.stages();
    assert_eq!(stages.len(), 3, "{name} stage count");
    let block = &stages[0];
    assert_eq!(
        (block.name.as_str(), block.unit.as_str()),
        ("block", "pairs")
    );
    let verify = &stages[1];
    assert_eq!(
        (verify.name.as_str(), verify.unit.as_str()),
        ("verify", "rows")
    );
    let columns = &stages[2];
    assert_eq!(
        (columns.name.as_str(), columns.unit.as_str()),
        ("columns", "columns")
    );
    assert_eq!(
        columns.output,
        resp.hits.len() as u64,
        "{name} columns stage must end at the hit count"
    );
    let s = &resp.stats;
    assert_eq!(
        block.output,
        s.candidate_pairs + s.matching_pairs,
        "{name} block output"
    );
    assert_eq!(
        block.pruned,
        vec![("lemma3".to_string(), s.cell_pairs_filtered)],
        "{name} block prunes"
    );
    assert_eq!(
        verify.output,
        s.lemma2_matched + s.distance_computations,
        "{name} verify output"
    );
    assert_eq!(
        verify.pruned,
        vec![("lemma1".to_string(), s.lemma1_filtered)],
        "{name} verify prunes"
    );
    let mode = match q.mode {
        QueryMode::Threshold(_) => "threshold",
        QueryMode::Topk(_) => "topk",
    };
    assert_eq!(report.mode(), mode);
    // Both modes prune columns by Lemma 7: under T, or under the seed.
    assert_eq!(
        columns.pruned,
        vec![("lemma7".to_string(), s.lemma7_pruned)],
        "{name} {mode} column prunes"
    );
    let decisions = report.decisions();
    let seed_lines = decisions.iter().filter(|d| d.starts_with("topk_seed="));
    assert_eq!(
        seed_lines.count(),
        usize::from(mode == "topk"),
        "{name}: a top-k report, and only that, prints its seed"
    );
}

/// The funnel-consistency property: on the local backends (whose wire
/// carries full stats) every prune reason in the report equals the
/// matching counter, and the final stage lands exactly on the hit
/// count. The remote report must equal the resident one — the server
/// answers over the same resident partitions.
#[test]
fn explain_funnel_mirrors_search_stats() {
    let (backends, query_vecs) = Backends::build(47, "funnel");
    for q in &query_matrix() {
        let explained = q.clone().with_explain(true);
        let mut resident_report: Option<ExplainReport> = None;
        for (name, backend) in backends.as_dyn() {
            let resp = run(backend, &explained, &query_vecs);
            if name == "serve" {
                // The wire reply carries the funnel's counters but, of
                // the stats, only the distance counter, so the
                // counter-level cross-check happens against the resident
                // backend's report instead.
                let report = resp.explain.as_ref().unwrap();
                assert!(report.consistent(), "serve funnel unbalanced for {q:?}");
                assert_eq!(
                    Some(report),
                    resident_report.as_ref(),
                    "remote report diverged from the resident backend for {q:?}"
                );
                continue;
            }
            check_funnel(name, q, &resp);
            if name == "index" {
                // Blocking meets every ⟨query vector, leaf⟩ pair once.
                let leaves = backends.index.inverted_index().num_cells();
                assert_eq!(
                    resp.explain.as_ref().unwrap().stages()[0].input,
                    (query_vecs.len() * leaves) as u64,
                    "index block stage input is |Q| · leaves for {q:?}"
                );
            }
            if name == "resident" {
                resident_report = resp.explain.clone();
            }
        }
    }
    backends.finish();
}

/// One response tail: a single index is a one-unit backend. Over the
/// same columns, `PexesoIndex` and a one-partition `ResidentPartitions`
/// return the same hits, outcome (budget trips included) and stats
/// counters, the same trace spans — the resident form adds exactly its
/// `partition/0` child at `Detail` — and the same explain report,
/// top-k seed included.
#[test]
fn single_index_and_one_partition_deployment_share_one_response_tail() {
    let (columns, query_vecs) = workload(42);
    let dir = tempdir("tail");
    let index = PexesoIndex::build(columns.clone(), Euclidean, index_options()).unwrap();
    let lake = PartitionedLake::build(
        &columns,
        Euclidean,
        &PartitionConfig {
            k: 1,
            ..Default::default()
        },
        &index_options(),
        &dir,
    )
    .unwrap();
    let resident = ResidentPartitions::load(&lake, Euclidean).unwrap();
    assert_eq!(resident.num_partitions(), 1);
    let mut queries = query_matrix();
    queries.push(
        Query::threshold(Tau::Ratio(0.25), JoinThreshold::Count(2))
            .with_max_distance_computations(5),
    );
    queries.push(Query::topk(Tau::Ratio(0.25), 3).with_max_distance_computations(5));
    let span_names = |resp: &QueryResponse| -> Vec<String> {
        let root = &resp.trace.as_ref().expect("trace requested").root;
        std::iter::once(&root.name)
            .chain(root.children.iter().map(|c| &c.name))
            .filter(|n| n.as_str() != "partition/0")
            .cloned()
            .collect()
    };
    let mut tripped = 0;
    for q in &queries {
        let q = q.clone().with_explain(true).with_trace(TraceLevel::Detail);
        let solo = run(&index, &q, &query_vecs);
        let unit = run(&resident, &q, &query_vecs);
        assert_eq!(solo.hits, unit.hits, "hits for {q:?}");
        assert_eq!(solo.outcome, unit.outcome, "outcome for {q:?}");
        tripped += usize::from(!solo.exact());
        assert_eq!(
            scrub(solo.stats.clone()),
            scrub(unit.stats.clone()),
            "stats counters for {q:?}"
        );
        assert_eq!(span_names(&solo), span_names(&unit), "spans for {q:?}");
        assert!(solo.trace.as_ref().unwrap().find("partition/0").is_none());
        assert!(unit.trace.as_ref().unwrap().find("partition/0").is_some());
        assert_eq!(solo.explain, unit.explain, "explain report for {q:?}");
    }
    assert_eq!(tripped, 2, "both budgeted queries must trip their cap");
    std::fs::remove_dir_all(&dir).ok();
}

/// An explained remote query bypasses the result cache (the report must
/// describe *this* execution), yet its executed result still lands in
/// the cache for later plain repeats.
#[test]
fn explained_serve_queries_bypass_the_result_cache() {
    let (backends, query_vecs) = Backends::build(23, "cache");
    let q = Query::threshold(Tau::Ratio(0.2), JoinThreshold::Count(2)).expect_metric("euclidean");
    let (first, meta) = backends.client.execute_detailed(&q, &query_vecs).unwrap();
    assert!(!meta.cached, "first run cannot be cached");
    let (_, meta) = backends.client.execute_detailed(&q, &query_vecs).unwrap();
    assert!(meta.cached, "plain repeat must hit the cache");
    let explained = q.clone().with_explain(true);
    let (resp, meta) = backends
        .client
        .execute_detailed(&explained, &query_vecs)
        .unwrap();
    assert!(!meta.cached, "explained repeat must bypass the cache");
    assert!(resp.explain.is_some());
    assert_eq!(resp.hits, first.hits, "bypass must not change the answer");
    backends.finish();
}

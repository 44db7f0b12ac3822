//! The unified query API contract, end to end: one [`Query`] executed
//! through `&dyn Queryable` against all four backends — the in-memory
//! [`PexesoIndex`], the out-of-core [`PartitionedLake`], the fully
//! resident [`ResidentPartitions`], and a remote [`ServeClient`] over
//! loopback — must return **byte-identical** rankings. Also pins the
//! shared edge-case contract (`k = 0`, `T = 0`, invalid τ), the typed
//! budget outcomes, and batched execution through the trait object.

use std::path::PathBuf;
use std::time::Duration;

use pexeso::prelude::*;
use pexeso::serve::{ServeClient, ServeConfig, Server};
use pexeso_core::partition::PartitionMethod;

const DIM: usize = 12;

fn unit(rng: &mut rand::rngs::StdRng) -> Vec<f32> {
    use rand::Rng;
    let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

/// A workload with guaranteed joinable columns (exact copies of the query
/// vectors planted in the first three columns), plus boundary ties whose
/// external ids run *opposite* to insertion order — the adversarial case
/// for top-k tie-breaks across backends.
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
    // Two identical twin columns with *descending* external ids: any
    // backend breaking top-k ties on its internal order instead of the
    // external ids gets these wrong.
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
        "pexeso_qapi_{name}_{}_{:?}",
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

/// All four backends over the same repository: in-memory, disk, resident,
/// remote (loopback daemon). The server handle shuts the daemon down on
/// drop of the struct via `finish`.
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
        Self::build_partitioned(seed, tag, 3)
    }

    /// The same four backends over a deployment of (up to) `partitions`
    /// partitions; `1` is the one-unit deployment, whose execution policy
    /// is spent inside the search instead of across partitions.
    fn build_partitioned(seed: u64, tag: &str, partitions: usize) -> (Self, VectorStore) {
        let (columns, query) = workload(seed);
        let config = PartitionConfig {
            k: partitions,
            method: PartitionMethod::JsdKmeans,
            ..Default::default()
        };
        let backends = Self::build_over(&columns, tag, &config);
        assert_eq!(
            backends.lake.num_partitions() > 1,
            partitions > 1,
            "need a real partition merge exactly when asked for one"
        );
        (backends, query)
    }

    /// The four backends over `columns`, deployed under `config`.
    fn build_over(columns: &ColumnSet, tag: &str, config: &PartitionConfig) -> Self {
        let dir = tempdir(tag);
        let index = PexesoIndex::build(columns.clone(), Euclidean, index_options()).unwrap();
        let lake =
            PartitionedLake::build(columns, Euclidean, config, &index_options(), &dir).unwrap();
        LakeManifest::next_build(&dir, "test", DIM)
            .unwrap()
            .write(&dir)
            .unwrap();
        let resident = ResidentPartitions::load(&lake, Euclidean).unwrap();
        let handle = Server::start(&dir, "127.0.0.1:0", ServeConfig::default()).unwrap();
        let client = ServeClient::connect(handle.addr()).unwrap();
        Self {
            index,
            lake,
            resident,
            client,
            handle: Some(handle),
            dir,
        }
    }

    /// The four backends as trait objects — the object-safety check is
    /// that this compiles at all.
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

/// Run one query through a trait object.
fn run(backend: &dyn Queryable, query: &Query, vectors: &VectorStore) -> QueryResponse {
    backend.execute(query, vectors).unwrap()
}

/// `q` answers under each of `policies` exactly like under `Sequential`,
/// on every backend: hits, outcome, every counter (timings are the only
/// policy-dependent part of the stats) and the explain funnel.
fn assert_policy_invariant(
    backends: &Backends,
    vectors: &VectorStore,
    q: &Query,
    policies: &[ExecPolicy],
) {
    let counters = |s: &SearchStats| SearchStats {
        mapping_time: Duration::ZERO,
        block_time: Duration::ZERO,
        verify_time: Duration::ZERO,
        total_time: Duration::ZERO,
        ..s.clone()
    };
    for (name, backend) in backends.as_dyn() {
        let seq = run(
            backend,
            &q.clone().with_policy(ExecPolicy::Sequential),
            vectors,
        );
        assert!(!seq.hits.is_empty(), "workload must produce hits");
        for &policy in policies {
            let par = run(backend, &q.clone().with_policy(policy), vectors);
            assert_eq!(par.hits, seq.hits, "{name} hits under {policy:?}");
            assert_eq!(par.outcome, seq.outcome, "{name} outcome under {policy:?}");
            assert_eq!(
                counters(&par.stats),
                counters(&seq.stats),
                "{name} counters under {policy:?}"
            );
            assert_eq!(par.explain, seq.explain, "{name} funnel under {policy:?}");
        }
    }
}

/// The acceptance-criterion test: one `Query` through `&dyn Queryable`
/// on all four backends returns byte-identical rankings (hit-for-hit
/// equality of external id, table name, column name, and match count),
/// across modes, thresholds, k values, and execution policies.
#[test]
fn one_query_four_backends_byte_identical() {
    let (backends, query_vecs) = Backends::build(42, "diff");
    let policies = [ExecPolicy::Sequential, ExecPolicy::Parallel { threads: 3 }];
    let mut queries: Vec<Query> = Vec::new();
    for tau in [Tau::Ratio(0.05), Tau::Ratio(0.25)] {
        for policy in policies {
            for t in [
                JoinThreshold::Count(2),
                JoinThreshold::Ratio(0.5),
                JoinThreshold::Ratio(1.0),
            ] {
                queries.push(
                    Query::threshold(tau, t)
                        .with_policy(policy)
                        .expect_metric("euclidean"),
                );
            }
            for k in [1usize, 3, 5, 50] {
                queries.push(
                    Query::topk(tau, k)
                        .with_policy(policy)
                        .expect_metric("euclidean"),
                );
            }
        }
    }
    let mut nonempty = 0;
    for q in &queries {
        let reference = run(&backends.index, q, &query_vecs);
        assert!(reference.exact());
        if !reference.hits.is_empty() {
            nonempty += 1;
        }
        for (name, backend) in backends.as_dyn() {
            let resp = run(backend, q, &query_vecs);
            assert!(resp.exact(), "{name} not exact for {q:?}");
            assert_eq!(
                resp.hits, reference.hits,
                "{name} diverged from the in-memory backend for {q:?}"
            );
        }
    }
    assert!(nonempty > queries.len() / 2, "workload must produce hits");
    backends.finish();
}

/// One policy, spent where it can be: a one-partition deployment has no
/// partition loop to fan out, so a parallel policy reaches the parallel
/// mapping, blocking and verification code of its one search — on disk,
/// resident, and served over loopback — and must answer exactly like the
/// sequential run: hits, outcome, every counter, and the explain funnel.
#[test]
fn one_partition_deployment_is_policy_invariant() {
    let (backends, query_vecs) = Backends::build_partitioned(42, "onepart", 1);
    // Explained queries bypass the daemon's result cache, so every served
    // run is a real execution.
    let queries = [
        Query::threshold(Tau::Ratio(0.25), JoinThreshold::Ratio(0.5)).with_explain(true),
        Query::topk(Tau::Ratio(0.25), 4).with_explain(true),
    ];
    let policies = [
        ExecPolicy::auto(),
        ExecPolicy::Parallel { threads: 3 },
        ExecPolicy::Fixed { threads: 3 },
    ];
    for q in &queries {
        assert_policy_invariant(&backends, &query_vecs, q, &policies);
    }
    backends.finish();
}

/// A query that names no policy runs under `ExecPolicy::auto()` — the
/// partition loop fans out on whatever cores the executing host has,
/// heaviest partition first — and answers exactly like the sequential
/// run on every backend: hits, outcome, every counter, the explain
/// funnel. The deployment is the claim order's adversarial case (the
/// largest partition is stored *last*, so index order would start it
/// last) and large enough to clear the fan-out's weight floor wherever
/// there is a second core; `Fixed` forces the same loop everywhere else.
#[test]
fn default_policy_is_auto_and_answers_like_sequential() {
    use pexeso_core::partition::partition_columns;
    use rand::SeedableRng;
    let config = PartitionConfig {
        k: 3,
        method: PartitionMethod::Random,
        ..Default::default()
    };
    // Random assignment depends on the column count and seed only, so a
    // probe of empty-ish columns tells which columns the last partition
    // gets; those are the long ones.
    let n_cols = 24usize;
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let query_vecs: Vec<Vec<f32>> = (0..6).map(|_| unit(&mut rng)).collect();
    let lake_of = |len: &dyn Fn(usize) -> usize, rng: &mut rand::rngs::StdRng| {
        let mut columns = ColumnSet::new(DIM);
        for c in 0..n_cols {
            let mut vecs: Vec<Vec<f32>> = (0..len(c)).map(|_| unit(rng)).collect();
            if c % 5 == 0 {
                for (slot, q) in vecs.iter_mut().zip(&query_vecs) {
                    slot.clone_from(q);
                }
            }
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns
                .add_column(&format!("tab{c}"), "key", c as u64, refs)
                .unwrap();
        }
        columns
    };
    let probe = lake_of(&|_| 6, &mut rng);
    let assignments = partition_columns(&probe, &config).unwrap().assignments;
    let last = *assignments.iter().max().unwrap();
    let columns = lake_of(&|c| if assignments[c] == last { 900 } else { 60 }, &mut rng);
    let mut query_store = VectorStore::new(DIM);
    for q in &query_vecs {
        query_store.push(q).unwrap();
    }

    let backends = Backends::build_over(&columns, "default_policy", &config);
    let sizes: Vec<usize> = (0..backends.resident.num_partitions())
        .map(|i| backends.resident.partition(i).columns().n_vectors())
        .collect();
    assert!(sizes.len() >= 2, "need a partition loop: {sizes:?}");
    let (largest_at, _) = sizes.iter().enumerate().max_by_key(|&(_, n)| *n).unwrap();
    assert_eq!(
        largest_at,
        sizes.len() - 1,
        "largest partition last: {sizes:?}"
    );
    assert!(sizes.iter().sum::<usize>() >= 4096, "{sizes:?}");

    // Explained queries bypass the daemon's result cache, so every served
    // run is a real execution.
    let queries = [
        Query::threshold(Tau::Ratio(0.2), JoinThreshold::Ratio(0.5)).with_explain(true),
        Query::topk(Tau::Ratio(0.2), 4).with_explain(true),
    ];
    for q in &queries {
        assert_eq!(q.policy, ExecPolicy::auto(), "the default policy");
        let policies = [q.policy, ExecPolicy::Fixed { threads: 2 }];
        assert_policy_invariant(&backends, &query_store, q, &policies);
    }
    backends.finish();
}

/// Requesting a trace never changes the answer: on every backend, a
/// traced query returns hits byte-identical to the untraced run, a
/// trace arrives exactly when one was asked for, and the canonical
/// phase spans are present (including over the wire).
#[test]
fn tracing_never_changes_results_across_backends() {
    let (backends, query_vecs) = Backends::build(47, "trace");
    let queries = [
        Query::threshold(Tau::Ratio(0.2), JoinThreshold::Ratio(0.5)),
        Query::topk(Tau::Ratio(0.2), 5),
    ];
    for q in &queries {
        let untraced = run(&backends.index, q, &query_vecs);
        assert!(untraced.trace.is_none(), "no trace unless requested");
        for (name, backend) in backends.as_dyn() {
            let plain = run(backend, q, &query_vecs);
            assert!(plain.trace.is_none(), "{name} traced an untraced query");
            for level in [TraceLevel::Phases, TraceLevel::Detail] {
                let traced = run(backend, &q.clone().with_trace(level), &query_vecs);
                assert_eq!(
                    traced.hits, untraced.hits,
                    "{name} answer changed under {level:?} tracing for {q:?}"
                );
                let trace = traced
                    .trace
                    .as_ref()
                    .unwrap_or_else(|| panic!("{name} dropped the requested {level:?} trace"));
                for phase in ["map", "block", "verify", "merge"] {
                    assert!(trace.find(phase).is_some(), "{name} missing {phase} span");
                }
                assert!(trace.phase_sum() <= trace.root.duration() + Duration::from_millis(1));
            }
        }
    }
    backends.finish();
}

/// Top-k boundary ties resolve by external id on every backend, even
/// where external ids run opposite to insertion order.
#[test]
fn topk_boundary_ties_rank_by_external_id_everywhere() {
    let (backends, query_vecs) = Backends::build(7, "ties");
    // The two twin columns tie with 4 exact matches each; k = 4 puts the
    // boundary inside the tie, so the smaller external id (20) must win
    // the last slot on every backend.
    let q = Query::topk(Tau::Ratio(0.02), 4).expect_metric("euclidean");
    let reference = run(&backends.index, &q, &query_vecs);
    let twin_slots: Vec<u64> = reference
        .hits
        .iter()
        .filter(|h| h.external_id >= 20)
        .map(|h| h.external_id)
        .collect();
    assert_eq!(twin_slots, vec![20], "tie must keep external id 20, not 21");
    for (name, backend) in backends.as_dyn() {
        assert_eq!(
            run(backend, &q, &query_vecs).hits,
            reference.hits,
            "{name} broke the tie differently"
        );
    }
    backends.finish();
}

/// The shared edge-case contract: `k = 0` answers empty (exact, no
/// error), `T = Count(0)` clamps to 1, and an invalid τ is a typed error
/// — identically on all four backends.
#[test]
fn edge_cases_identical_across_backends() {
    let (backends, query_vecs) = Backends::build(11, "edge");
    let k0 = Query::topk(Tau::Ratio(0.1), 0).expect_metric("euclidean");
    let t0 = Query::threshold(Tau::Ratio(0.25), JoinThreshold::Count(0)).expect_metric("euclidean");
    let t1 = Query::threshold(Tau::Ratio(0.25), JoinThreshold::Count(1)).expect_metric("euclidean");
    let bad_tau =
        Query::threshold(Tau::Ratio(1.5), JoinThreshold::Count(1)).expect_metric("euclidean");
    let t1_reference = run(&backends.index, &t1, &query_vecs);
    for (name, backend) in backends.as_dyn() {
        // k = 0: empty, exact, no error.
        let resp = backend.execute(&k0, &query_vecs).unwrap();
        assert!(resp.hits.is_empty() && resp.exact(), "{name} k=0 contract");
        // T = 0 clamps to "at least one match" — same answer as T = 1.
        let resp = backend.execute(&t0, &query_vecs).unwrap();
        assert_eq!(resp.hits, t1_reference.hits, "{name} T=0 contract");
        // Invalid τ: typed error, never a silent empty result.
        assert!(
            backend.execute(&bad_tau, &query_vecs).is_err(),
            "{name} must reject tau ratio > 1"
        );
        // Metric expectation mismatch: typed error on every backend.
        let wrong =
            Query::threshold(Tau::Ratio(0.1), JoinThreshold::Count(1)).expect_metric("manhattan");
        assert!(
            backend.execute(&wrong, &query_vecs).is_err(),
            "{name} must reject a metric mismatch"
        );
        // No expectation at all: every backend (including the remote one,
        // whose wire frame spells `None` as an empty metric string)
        // answers with its own build metric.
        let agnostic = Query::threshold(Tau::Ratio(0.25), JoinThreshold::Count(1));
        let resp = backend.execute(&agnostic, &query_vecs).unwrap();
        assert_eq!(
            resp.hits, t1_reference.hits,
            "{name} metric-agnostic contract"
        );
    }
    backends.finish();
}

/// Budgets return the typed `Exceeded` outcome instead of silently
/// partial results, deterministically for the distance cap, on local and
/// remote backends alike.
#[test]
fn budget_exceeded_is_typed_and_deterministic() {
    let (backends, query_vecs) = Backends::build(23, "budget");
    // Establish that the unbudgeted query really pays distance work.
    let full = Query::threshold(Tau::Ratio(0.25), JoinThreshold::Ratio(1.0))
        .with_flags(LemmaFlags {
            lemma2_vector_match: false, // force exact distances
            ..LemmaFlags::all()
        })
        .expect_metric("euclidean");
    let exact = run(&backends.index, &full, &query_vecs);
    assert!(
        exact.stats.distance_computations > 4,
        "workload too small to exercise the budget: {}",
        exact.stats.distance_computations
    );

    let capped = full.clone().with_max_distance_computations(2);
    for (name, backend) in backends.as_dyn() {
        let a = backend.execute(&capped, &query_vecs).unwrap();
        assert_eq!(
            a.outcome,
            QueryOutcome::Exceeded(Exceeded::DistanceComputations),
            "{name} must flag the tripped distance cap"
        );
        // Deterministic cutoff: the same budget yields the same partial
        // answer every time.
        let b = backend.execute(&capped, &query_vecs).unwrap();
        assert_eq!(a.hits, b.hits, "{name} budget cutoff must be deterministic");
        assert_eq!(a.outcome, b.outcome);
    }

    // A zero deadline trips the wall-clock limit (top-k checks it before
    // the probe pass, threshold at the first query vector).
    let instant = Query::topk(Tau::Ratio(0.25), 3)
        .with_deadline(Duration::ZERO)
        .expect_metric("euclidean");
    for (name, backend) in backends.as_dyn() {
        let resp = backend.execute(&instant, &query_vecs).unwrap();
        assert_eq!(
            resp.outcome,
            QueryOutcome::Exceeded(Exceeded::Deadline),
            "{name} must flag the expired deadline"
        );
    }

    // A generous budget changes nothing: exact results, exact flag.
    let roomy = full.clone().with_max_distance_computations(u64::MAX);
    for (name, backend) in backends.as_dyn() {
        let resp = backend.execute(&roomy, &query_vecs).unwrap();
        assert!(resp.exact(), "{name} must stay exact under a roomy budget");
        assert_eq!(resp.hits, exact.hits, "{name} roomy-budget hits diverged");
    }
    backends.finish();
}

/// `execute_many` through the trait object answers each column exactly
/// like `execute`, under both outer policies.
#[test]
fn execute_many_matches_execute_through_dyn() {
    let (backends, query_vecs) = Backends::build(31, "many");
    // Three query columns: the planted one and two random ones.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut q2 = VectorStore::new(DIM);
    let mut q3 = VectorStore::new(DIM);
    for _ in 0..5 {
        q2.push(&unit(&mut rng)).unwrap();
        q3.push(&unit(&mut rng)).unwrap();
    }
    let columns: Vec<&VectorStore> = vec![&query_vecs, &q2, &q3];
    // `Fixed` bypasses the adaptive clamp, so the fan-out paths run even
    // on single-core hosts where `Parallel` plans down to inline.
    for policy in [
        ExecPolicy::Sequential,
        ExecPolicy::Parallel { threads: 4 },
        ExecPolicy::Fixed { threads: 3 },
    ] {
        let base = Query::threshold(Tau::Ratio(0.2), JoinThreshold::Ratio(0.4));
        for q in [base, Query::topk(Tau::Ratio(0.2), 3)] {
            let q = q.with_policy(policy).expect_metric("euclidean");
            for (name, backend) in backends.as_dyn() {
                let batched = backend.execute_many(&q, &columns).unwrap();
                assert_eq!(batched.len(), 3);
                for (i, resp) in batched.iter().enumerate() {
                    let solo = backend.execute(&q, columns[i]).unwrap();
                    assert_eq!(
                        resp.hits, solo.hits,
                        "{name} column {i} diverged under {policy:?}"
                    );
                    assert_eq!(
                        resp.outcome, solo.outcome,
                        "{name} column {i} outcome diverged under {policy:?}"
                    );
                    // Counter-level equality: batching may only
                    // restructure the sweep, never change the work each
                    // column observes (wall-clock timings are exempt).
                    // The serve backend is excluded: its result cache
                    // legitimately answers repeats with zero distance
                    // computations, so counters are not reproducible
                    // across successive identical requests.
                    if name == "serve" {
                        continue;
                    }
                    assert_eq!(
                        resp.stats.distance_computations, solo.stats.distance_computations,
                        "{name} column {i} distance counter diverged under {policy:?}"
                    );
                    assert_eq!(resp.stats.mapping_distances, solo.stats.mapping_distances);
                    assert_eq!(resp.stats.candidate_pairs, solo.stats.candidate_pairs);
                    assert_eq!(resp.stats.matching_pairs, solo.stats.matching_pairs);
                    assert_eq!(resp.stats.early_joinable, solo.stats.early_joinable);
                    assert_eq!(resp.stats.lemma7_pruned, solo.stats.lemma7_pruned);
                }
            }
        }
    }
    backends.finish();
}

/// A generic function over `&dyn Queryable` (the shape batch drivers and
/// servers are written in) — and proof the trait object composes with the
/// pipeline's `run_queries`.
#[test]
fn dyn_queryable_composes_with_the_pipeline() {
    use pexeso::pipeline::{run_queries, EmbeddedLakeBuilder};
    let embedder = HashEmbedder::new(24);
    let lake = EmbeddedLakeBuilder::new(&embedder)
        .add_column(
            "cities",
            "name",
            &["Berlin".into(), "Paris".into(), "Rome".into()],
        )
        .add_column(
            "foods",
            "name",
            &["Bread".into(), "Cheese".into(), "Olives".into()],
        )
        .build()
        .unwrap();
    let index = PexesoIndex::build(lake.columns, Euclidean, IndexOptions::default()).unwrap();
    let backend: &dyn Queryable = &index;
    let query = Query::threshold(Tau::Ratio(0.05), JoinThreshold::Ratio(0.9));
    let results = run_queries(
        backend,
        &embedder,
        &[
            vec!["Berlin".into(), "Paris".into(), "Rome".into()],
            vec!["Bread".into(), "Cheese".into(), "Olives".into()],
        ],
        &query,
    )
    .unwrap();
    assert_eq!(results.len(), 2);
    assert_eq!(results[0].1.hits.len(), 1);
    assert_eq!(results[0].1.hits[0].table_name, "cities");
    assert_eq!(results[1].1.hits.len(), 1);
    assert_eq!(results[1].1.hits[0].table_name, "foods");
}

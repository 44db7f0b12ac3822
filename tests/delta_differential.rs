//! Differential coverage for incremental maintenance: a deployment plus
//! its delta log must answer **byte-identically** to a from-scratch
//! rebuild over the final table set —
//!
//! * threshold and top-k, across τ / T / k,
//! * all four metrics (Euclidean, Manhattan, Chebyshev, Angular),
//! * every `ExecPolicy` variant, on multi-partition builds (the policy
//!   fans the units out) and one-partition builds (it is spent inside the
//!   one search),
//! * through `&dyn Queryable` (the only surface callers use),
//! * on both delta-capable backends: the disk-backed [`DeltaLake`] and
//!   the resident serve [`Snapshot`] (base shared, overlay applied), and
//! * after compaction, whose output must be byte-identical to the
//!   rebuild *deployment* itself (same partitioning, same answers).
//!
//! Adversarial cases: boundary count-ties interacting with tombstones
//! (the masked scan must keep tie-inclusiveness), dropping the dominant
//! column, re-adding a dropped table, dropping everything (no distance
//! computed), and budgets over tombstones.

use std::path::{Path, PathBuf};
use std::time::Duration;

use pexeso::prelude::*;
use pexeso_core::column::ColumnSet;
use pexeso_core::config::PivotSelection;
use pexeso_core::metric::{Angular, Chebyshev, Manhattan, Metric};
use pexeso_core::oracle;
use pexeso_core::outofcore::LakeManifest;
use pexeso_core::partition::PartitionConfig;
use pexeso_core::query::rank_topk_hits;
use pexeso_delta::{
    compact_lake, drop_tables, ingest_columns, read_log, DeltaLake, DeltaState, IngestColumn,
};
use pexeso_router::split::{shard_dir_name, split_lake};
use pexeso_serve::Snapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 8;

fn unit(rng: &mut StdRng) -> Vec<f32> {
    let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

fn column_floats(rng: &mut StdRng, len: usize) -> Vec<f32> {
    (0..len).flat_map(|_| unit(rng)).collect()
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

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pexeso_delta_diff_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build a deployment of `partitions` partitions over `columns` under
/// `metric_name` and write the manifest (the pipeline only deploys
/// Euclidean; tests deploy all four).
fn deploy<M: Metric>(
    dir: &Path,
    columns: &ColumnSet,
    metric: M,
    next_external_id: u64,
    partitions: usize,
) -> PartitionedLake {
    let lake = PartitionedLake::build_named(
        columns,
        metric.name(),
        &PartitionConfig {
            k: partitions,
            ..Default::default()
        },
        &index_options(),
        dir,
    )
    .unwrap();
    let manifest = LakeManifest {
        metric: metric.name().to_string(),
        next_external_id,
        ..LakeManifest::new("hash", DIM)
    };
    manifest.write(dir).unwrap();
    assert_eq!(lake.num_partitions(), partitions);
    lake
}

fn base_columns(seed: u64, n_cols: usize, len: usize) -> ColumnSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut columns = ColumnSet::new(DIM);
    for c in 0..n_cols {
        let floats = column_floats(&mut rng, len);
        columns
            .add_column(&format!("b{c}"), "key", c as u64, floats.chunks_exact(DIM))
            .unwrap();
    }
    columns
}

fn query_store(seed: u64, n: usize) -> VectorStore {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut q = VectorStore::new(DIM);
    for _ in 0..n {
        q.push(&unit(&mut rng)).unwrap();
    }
    q
}

/// The final live set of (base ∪ delta log) with original external ids,
/// as one ColumnSet in canonical (ascending-id) order — what a rebuild
/// over the final tables indexes.
fn final_table_set(dir: &Path, base: &ColumnSet) -> ColumnSet {
    let state = match read_log(dir).unwrap() {
        Some(log) => DeltaState::replay(&log.records),
        None => DeltaState::default(),
    };
    let mut live: Vec<(u64, String, String, Vec<f32>)> = Vec::new();
    for meta in base.columns() {
        if state.dropped_tables.contains(&meta.table_name) {
            continue;
        }
        let mut floats = Vec::new();
        for v in meta.vector_range() {
            floats.extend_from_slice(base.store().get_raw(v as usize));
        }
        live.push((
            meta.external_id,
            meta.table_name.clone(),
            meta.column_name.clone(),
            floats,
        ));
    }
    for col in &state.live {
        live.push((
            col.external_id,
            col.table_name.clone(),
            col.column_name.clone(),
            col.vectors.clone(),
        ));
    }
    live.sort_by_key(|(id, ..)| *id);
    let mut columns = ColumnSet::new(DIM);
    for (id, table, column, floats) in &live {
        columns
            .add_column(table, column, *id, floats.chunks_exact(DIM))
            .unwrap();
    }
    columns
}

/// `Parallel { threads: 0 }` is `ExecPolicy::auto()`, what a query that
/// names no policy carries. `Fixed` bypasses the adaptive clamp, so the
/// sharded code and the largest-first unit loop run even on hosts (and
/// lakes this small) where `Parallel` plans down to inline.
const POLICIES: [ExecPolicy; 4] = [
    ExecPolicy::Sequential,
    ExecPolicy::Parallel { threads: 0 },
    ExecPolicy::Parallel { threads: 3 },
    ExecPolicy::Fixed { threads: 3 },
];

/// Pin two backends byte-identical through `&dyn Queryable` across
/// modes, τ / T / k, and every policy.
fn assert_equivalent(a: &dyn Queryable, b: &dyn Queryable, q: &VectorStore, tag: &str) {
    for policy in POLICIES {
        for (tau, t) in [
            (Tau::Ratio(0.1), JoinThreshold::Count(1)),
            (Tau::Ratio(0.25), JoinThreshold::Ratio(0.3)),
            (Tau::Ratio(0.4), JoinThreshold::Count(3)),
        ] {
            let query = Query::threshold(tau, t).with_policy(policy);
            let ra = a.execute(&query, q).unwrap();
            let rb = b.execute(&query, q).unwrap();
            assert!(ra.exact() && rb.exact());
            assert_eq!(
                ra.hits, rb.hits,
                "{tag}: threshold tau={tau:?} t={t:?} policy={policy:?}"
            );
        }
        for (tau, k) in [
            (Tau::Ratio(0.25), 1usize),
            (Tau::Ratio(0.25), 3),
            (Tau::Ratio(0.4), 5),
            (Tau::Ratio(0.4), 100),
        ] {
            let query = Query::topk(tau, k).with_policy(policy);
            let ra = a.execute(&query, q).unwrap();
            let rb = b.execute(&query, q).unwrap();
            assert_eq!(
                ra.hits, rb.hits,
                "{tag}: topk tau={tau:?} k={k} policy={policy:?}"
            );
        }
    }
}

/// One backend answers the same under every policy: hits, outcome, and
/// every counter (timings are the only policy-dependent part of the
/// stats).
fn assert_policy_invariant(backend: &dyn Queryable, q: &VectorStore, tag: &str) {
    let counters = |s: &SearchStats| SearchStats {
        mapping_time: Duration::ZERO,
        block_time: Duration::ZERO,
        verify_time: Duration::ZERO,
        total_time: Duration::ZERO,
        ..s.clone()
    };
    for base in [
        Query::threshold(Tau::Ratio(0.25), JoinThreshold::Ratio(0.3)),
        Query::topk(Tau::Ratio(0.4), 3),
    ] {
        assert_eq!(base.policy, POLICIES[1], "the default policy is auto");
        let seq = backend
            .execute(&base.clone().with_policy(ExecPolicy::Sequential), q)
            .unwrap();
        for policy in POLICIES {
            let got = backend
                .execute(&base.clone().with_policy(policy), q)
                .unwrap();
            assert_eq!(got.hits, seq.hits, "{tag}: hits under {policy:?}");
            assert_eq!(got.outcome, seq.outcome, "{tag}: outcome under {policy:?}");
            assert_eq!(
                counters(&got.stats),
                counters(&seq.stats),
                "{tag}: counters under {policy:?}"
            );
        }
    }
}

/// One full lifecycle under a given metric: deploy → ingest → drop →
/// delta answers ≡ rebuild (DeltaLake *and* resident serve Snapshot) →
/// compact → compacted deployment ≡ rebuild deployment byte-identically.
fn lifecycle_under_metric<M: Metric>(metric: M, seed: u64) {
    let name = metric.name();
    let dir = tempdir(&format!("life_{name}"));
    let base = base_columns(seed, 6, 10);
    deploy(&dir, &base, metric.clone(), 6, 2);

    // Ingest three tables, drop one base table and one ingested table.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    let cols: Vec<IngestColumn> = (0..3)
        .map(|i| IngestColumn {
            table_name: format!("d{i}"),
            column_name: "key".into(),
            vectors: column_floats(&mut rng, 6 + i),
        })
        .collect();
    let readded = IngestColumn {
        table_name: "b1".into(),
        column_name: "key".into(),
        vectors: column_floats(&mut rng, 7),
    };
    let write_log = |dir: &Path| {
        let report = ingest_columns(dir, &cols).unwrap();
        assert_eq!(report.first_external_id, 6);
        assert_eq!(report.next_external_id, 9);
        drop_tables(dir, &["b1".into(), "d0".into()]).unwrap();
        // Re-add the dropped base table: only the new column must be live.
        ingest_columns(dir, std::slice::from_ref(&readded)).unwrap();
    };
    write_log(&dir);

    // Rebuild oracle over the final live set, same external ids.
    let rebuild_dir = tempdir(&format!("life_{name}_rebuild"));
    let live = final_table_set(&dir, &base);
    deploy(&rebuild_dir, &live, metric.clone(), 10, 2);
    let rebuilt = PartitionedLake::open(&rebuild_dir).unwrap();

    let q = query_store(seed ^ 0x71, 6);
    let delta_lake = DeltaLake::open(&dir).unwrap();
    assert_eq!(delta_lake.overlay().n_delta_columns(), 3); // d1, d2, re-added b1
    assert_eq!(delta_lake.overlay().n_tombstones(), 2);
    assert_equivalent(
        &delta_lake,
        &rebuilt,
        &q,
        &format!("{name}: DeltaLake vs rebuild"),
    );

    // The resident serve snapshot overlays the same delta over a shared
    // in-memory base: same answers again.
    let snapshot = Snapshot::load(&dir, 1).unwrap();
    assert_equivalent(
        &snapshot,
        &rebuilt,
        &q,
        &format!("{name}: Snapshot vs rebuild"),
    );

    // The same base as ONE partition. With only a tombstone in the log the
    // overlay adds no unit, so the deployment is a single unit and a
    // parallel policy is spent inside its one search — mapping, blocking
    // and verification — with the dropped table dead in the scan. With
    // the whole log there are two units (base + delta
    // index) and the policy fans them out. Either way: the sequential
    // answer, counter for counter, and the rebuild's hits.
    let one_dir = tempdir(&format!("life_{name}_one"));
    deploy(&one_dir, &base, metric.clone(), 6, 1);
    drop_tables(&one_dir, &["b1".into()]).unwrap();
    for whole_log in [false, true] {
        if whole_log {
            write_log(&one_dir);
        }
        let lake = DeltaLake::open(&one_dir).unwrap();
        let snapshot = Snapshot::load(&one_dir, 1).unwrap();
        assert_eq!(
            lake.overlay().n_delta_columns(),
            if whole_log { 3 } else { 0 }
        );
        for (backend, what) in [
            (&lake as &dyn Queryable, "DeltaLake"),
            (&snapshot, "Snapshot"),
        ] {
            let tag = format!("{name}: one-partition {what}, whole log: {whole_log}");
            assert_policy_invariant(backend, &q, &tag);
            if whole_log {
                assert_equivalent(backend, &rebuilt, &q, &tag);
            }
        }
    }
    std::fs::remove_dir_all(&one_dir).ok();

    // Compact: the folded deployment answers identically, the manifest
    // version bumps, the log is gone — and because compaction presents
    // the same canonical column order as the rebuild, the deployments
    // answer byte-identically partition for partition.
    let compact_report = compact_lake(&dir, None, ExecPolicy::Sequential).unwrap();
    assert_eq!(compact_report.index_version, 2);
    assert_eq!(compact_report.n_columns, live.n_columns());
    // Only base columns count as dropped: d0 was added *and* dropped
    // inside the log, so it never reaches compaction at all.
    assert_eq!(compact_report.columns_dropped, 1); // the original b1
    assert!(
        read_log(&dir).unwrap().is_none(),
        "compaction removes the log"
    );
    let compacted = DeltaLake::open(&dir).unwrap();
    assert!(compacted.overlay().is_empty());
    assert_equivalent(
        &compacted,
        &rebuilt,
        &q,
        &format!("{name}: compacted vs rebuild"),
    );
    assert_eq!(
        LakeManifest::read(&dir).unwrap().next_external_id,
        10,
        "compaction records the id high-water mark"
    );

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&rebuild_dir).ok();
}

#[test]
fn lifecycle_euclidean() {
    lifecycle_under_metric(Euclidean, 11);
}

#[test]
fn lifecycle_manhattan() {
    lifecycle_under_metric(Manhattan, 12);
}

#[test]
fn lifecycle_chebyshev() {
    lifecycle_under_metric(Chebyshev, 13);
}

#[test]
fn lifecycle_angular() {
    lifecycle_under_metric(Angular, 14);
}

/// Adversarial top-k: columns exactly tied with the query compete at the
/// boundary while tombstones knock out the strongest candidates — the
/// masked scan must keep the surviving tie group intact so the merged
/// ranking stays identical to the rebuild's.
#[test]
fn topk_boundary_ties_with_tombstones() {
    let dir = tempdir("ties");
    let q = query_store(99, 6);
    // Ten base columns that are exact mirrors of the query (all tied at
    // full count) plus three weaker columns.
    let mut columns = ColumnSet::new(DIM);
    let mirror: Vec<&[f32]> = (0..q.len()).map(|i| q.get_raw(i)).collect();
    for c in 0..10u64 {
        columns
            .add_column(&format!("m{c}"), "key", c, mirror.clone())
            .unwrap();
    }
    let mut rng = StdRng::seed_from_u64(1234);
    for c in 10..13u64 {
        let floats = column_floats(&mut rng, 8);
        columns
            .add_column(&format!("w{c}"), "key", c, floats.chunks_exact(DIM))
            .unwrap();
    }
    deploy(&dir, &columns, Euclidean, 13, 2);
    // Drop seven of the ten mirrors: every local top-k list was full of
    // tombstoned entries.
    let dropped: Vec<String> = (0..7).map(|c| format!("m{c}")).collect();
    drop_tables(&dir, &dropped).unwrap();

    let rebuild_dir = tempdir("ties_rebuild");
    let base_for_final = columns.clone();
    let live = final_table_set(&dir, &base_for_final);
    assert_eq!(live.n_columns(), 6);
    deploy(&rebuild_dir, &live, Euclidean, 13, 2);
    let rebuilt = PartitionedLake::open(&rebuild_dir).unwrap();
    let delta_lake = DeltaLake::open(&dir).unwrap();
    assert_equivalent(&delta_lake, &rebuilt, &q, "boundary ties");

    // Spot-check: k=2 must surface surviving mirrors (full count), not
    // lose them to the tombstoned ones that outranked them locally.
    let resp = delta_lake
        .execute(&Query::topk(Tau::Ratio(0.02), 2), &q)
        .unwrap();
    assert_eq!(resp.hits.len(), 2);
    assert!(resp.hits.iter().all(|h| h.table_name.starts_with('m')));
    assert_eq!(resp.hits[0].match_count as usize, q.len());
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&rebuild_dir).ok();
}

/// A dropped column costs nothing: with every base table dropped and
/// nothing added, both delta-capable backends answer empty without a
/// single distance computation — each base unit's scan starts with every
/// column dead instead of verifying them and filtering the hits.
#[test]
fn dropped_columns_cost_no_verification() {
    let dir = tempdir("all_dropped");
    let base = base_columns(41, 6, 10);
    let lake = deploy(&dir, &base, Euclidean, 6, 2);
    let q = query_store(42, 6);
    let tau = Tau::Ratio(0.4);
    let queries = [
        Query::threshold(tau, JoinThreshold::Count(1)),
        Query::topk(tau, 3),
    ];
    for query in &queries {
        let before = lake.execute(query, &q).unwrap();
        assert!(
            !before.hits.is_empty(),
            "{:?} must find columns",
            query.mode
        );
        assert!(before.stats.distance_computations > 0);
    }
    let tables: Vec<String> = base
        .columns()
        .iter()
        .map(|m| m.table_name.clone())
        .collect();
    drop_tables(&dir, &tables).unwrap();
    let delta_lake = DeltaLake::open(&dir).unwrap();
    let snapshot = Snapshot::load(&dir, 1).unwrap();
    for (backend, what) in [
        (&delta_lake as &dyn Queryable, "DeltaLake"),
        (&snapshot, "Snapshot"),
    ] {
        for query in &queries {
            let resp = backend.execute(query, &q).unwrap();
            assert!(
                resp.hits.is_empty() && resp.exact(),
                "{what} {:?}",
                query.mode
            );
            assert_eq!(
                resp.stats.distance_computations, 0,
                "{what} {:?}",
                query.mode
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Budgets over tombstones, threshold and top-k: a cap one above what the
/// unbudgeted query spends answers exactly like no cap, and a cap of one
/// distance trips typed without ever surfacing a dropped table — base or
/// delta.
#[test]
fn budgets_hold_over_tombstones() {
    let dir = tempdir("budget");
    let base = base_columns(31, 8, 10);
    deploy(&dir, &base, Euclidean, 8, 2);
    let mut rng = StdRng::seed_from_u64(32);
    let added: Vec<IngestColumn> = (0..2)
        .map(|i| IngestColumn {
            table_name: format!("d{i}"),
            column_name: "key".into(),
            vectors: column_floats(&mut rng, 6),
        })
        .collect();
    ingest_columns(&dir, &added).unwrap();
    let dropped = ["b0", "b3", "b5", "d1"].map(String::from);
    drop_tables(&dir, &dropped).unwrap();
    let lake = DeltaLake::open(&dir).unwrap();
    let q = query_store(33, 6);
    let tau = Tau::Ratio(0.4);
    for query in [
        Query::threshold(tau, JoinThreshold::Count(1)),
        Query::topk(tau, 4),
    ] {
        let mode = query.mode;
        let free = lake.execute(&query, &q).unwrap();
        assert!(free.exact() && !free.hits.is_empty(), "{mode:?}");
        let spent = free.stats.distance_computations;
        let generous = query.clone().with_max_distance_computations(spent + 1);
        let resp = lake.execute(&generous, &q).unwrap();
        assert_eq!(resp.outcome, free.outcome, "{mode:?}");
        assert_eq!(resp.hits, free.hits, "{mode:?}");
        assert_eq!(resp.stats.distance_computations, spent, "{mode:?}");

        let capped = query.with_max_distance_computations(1);
        let resp = lake.execute(&capped, &q).unwrap();
        assert_eq!(
            resp.outcome,
            QueryOutcome::Exceeded(Exceeded::DistanceComputations),
            "{mode:?}"
        );
        for hit in &resp.hits {
            assert!(!dropped.contains(&hit.table_name), "{mode:?}: {hit:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// `k = 0`, invalid metric expectations, and dimension mismatches behave
/// exactly like every other backend (the unified contract).
#[test]
fn delta_lake_obeys_the_unified_contract() {
    let dir = tempdir("contract");
    let base = base_columns(7, 4, 8);
    deploy(&dir, &base, Euclidean, 4, 2);
    let mut rng = StdRng::seed_from_u64(8);
    ingest_columns(
        &dir,
        &[IngestColumn {
            table_name: "d0".into(),
            column_name: "key".into(),
            vectors: column_floats(&mut rng, 5),
        }],
    )
    .unwrap();
    let lake = DeltaLake::open(&dir).unwrap();
    let q = query_store(9, 4);
    // k = 0: empty and exact, no partition touched.
    let resp = lake.execute(&Query::topk(Tau::Ratio(0.2), 0), &q).unwrap();
    assert!(resp.hits.is_empty() && resp.exact());
    assert_eq!(resp.stats.distance_computations, 0);
    // Metric expectation mismatch is a typed error.
    assert!(lake
        .execute(
            &Query::topk(Tau::Ratio(0.2), 3).expect_metric("manhattan"),
            &q
        )
        .is_err());
    // Matching expectation passes.
    assert!(lake
        .execute(
            &Query::topk(Tau::Ratio(0.2), 3).expect_metric("euclidean"),
            &q
        )
        .is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// The brute-force answers the metric-name table below checks against:
/// threshold ids and the exact top-k `(external id, count)` ranking.
type OracleAnswers = (Vec<u64>, Vec<(u64, u32)>);

fn oracle_answers<M: Metric + Default>(
    columns: &ColumnSet,
    q: &VectorStore,
    tau: Tau,
    t: JoinThreshold,
    k: usize,
) -> OracleAnswers {
    let ext = |c: ColumnId| columns.column(c).external_id;
    let threshold = oracle::threshold_search(columns, &M::default(), q, tau, t, None).unwrap();
    let topk = oracle::topk(columns, &M::default(), q, tau, k, None).unwrap();
    (
        threshold.iter().map(|h| ext(h.column)).collect(),
        topk.iter()
            .map(|h| (ext(h.column), h.match_count))
            .collect(),
    )
}

/// A metric name becomes a metric type in one place, so every deployment
/// backend that reads its metric from a manifest agrees on the whole
/// table: the four known names answer the oracle through
/// `PartitionedLake`, `DeltaLake`, `Snapshot`, a shard split and a
/// compaction; an unknown name is refused by all of them — build
/// included — with one and the same typed error.
#[test]
fn every_backend_resolves_a_metric_name_the_same_way() {
    type Oracle = fn(&ColumnSet, &VectorStore, Tau, JoinThreshold, usize) -> OracleAnswers;
    let table: [(&str, Option<Oracle>); 5] = [
        ("euclidean", Some(oracle_answers::<Euclidean>)),
        ("manhattan", Some(oracle_answers::<Manhattan>)),
        ("chebyshev", Some(oracle_answers::<Chebyshev>)),
        ("angular", Some(oracle_answers::<Angular>)),
        ("cosine", None),
    ];
    let base = base_columns(21, 6, 10);
    // Query records copied out of three base columns (4, 3 and 2 of
    // them), so every metric has exact matches to rank.
    let mut q = VectorStore::new(DIM);
    for (column, n) in [(0u32, 4usize), (2, 3), (4, 2)] {
        for v in base.column(ColumnId(column)).vector_range().take(n) {
            q.push(base.store().get_raw(v as usize)).unwrap();
        }
    }
    let (tau, t, k) = (Tau::Ratio(0.3), JoinThreshold::Count(2), 100);
    let config = PartitionConfig {
        k: 2,
        ..Default::default()
    };
    let check = |backend: &dyn Queryable, expected: &OracleAnswers, what: &str| {
        let resp = backend.execute(&Query::threshold(tau, t), &q).unwrap();
        let ids: Vec<u64> = resp.hits.iter().map(|h| h.external_id).collect();
        assert_eq!(ids, expected.0, "{what}: threshold vs oracle");
        let resp = backend.execute(&Query::topk(tau, k), &q).unwrap();
        let ranked: Vec<(u64, u32)> = resp
            .hits
            .iter()
            .map(|h| (h.external_id, h.match_count))
            .collect();
        assert_eq!(ranked, expected.1, "{what}: top-k vs oracle");
    };
    for (name, oracle_of) in table {
        let dir = tempdir(&format!("names_{name}"));
        let out = tempdir(&format!("names_{name}_shards"));
        let built = PartitionedLake::build_named(&base, name, &config, &index_options(), &dir);
        let write_manifest = || {
            let manifest = LakeManifest {
                metric: name.to_string(),
                next_external_id: 6,
                ..LakeManifest::new("hash", DIM)
            };
            manifest.write(&dir).unwrap();
        };
        let Some(oracle_of) = oracle_of else {
            // The unknown name: a directory whose manifest spells it (the
            // partitions themselves are a Euclidean build).
            let mut refusals = vec![refusal(built)];
            PartitionedLake::build(&base, Euclidean, &config, &index_options(), &dir).unwrap();
            write_manifest();
            let lake = PartitionedLake::open(&dir).unwrap();
            refusals.push(refusal(lake.execute(&Query::threshold(tau, t), &q)));
            refusals.push(refusal(DeltaLake::open(&dir)));
            refusals.push(refusal(Snapshot::load(&dir, 1)));
            refusals.push(refusal(compact_lake(&dir, None, ExecPolicy::Sequential)));
            refusals.push(refusal(split_lake(&dir, 2, &out)));
            for r in &refusals {
                assert_eq!(r, &format!("unsupported metric '{name}'"));
            }
            continue;
        };
        let lake = built.unwrap();
        write_manifest();
        let expected = oracle_of(&base, &q, tau, t, k);
        assert!(!expected.0.is_empty() && expected.1.len() > 2, "{name}");
        check(&lake, &expected, &format!("{name}: PartitionedLake"));
        check(
            &DeltaLake::open(&dir).unwrap(),
            &expected,
            &format!("{name}: DeltaLake"),
        );
        check(
            &Snapshot::load(&dir, 1).unwrap(),
            &expected,
            &format!("{name}: Snapshot"),
        );
        // A split is exact in union: merge the shards' answers under the
        // unified ranking and the oracle's answer comes back.
        split_lake(&dir, 2, &out).unwrap();
        let mut merged = Vec::new();
        for shard in 0..2 {
            let shard_lake = PartitionedLake::open(&out.join(shard_dir_name(shard))).unwrap();
            merged.extend(shard_lake.execute(&Query::topk(tau, k), &q).unwrap().hits);
        }
        let merged: Vec<(u64, u32)> = rank_topk_hits(merged, k)
            .iter()
            .map(|h| (h.external_id, h.match_count))
            .collect();
        assert_eq!(merged, expected.1, "{name}: split shards vs oracle");
        // Compaction folds one ingested column in under the same metric.
        let mut rng = StdRng::seed_from_u64(23);
        let extra = column_floats(&mut rng, 7);
        let mut after = base.clone();
        after
            .add_column("d0", "key", 6, extra.chunks_exact(DIM))
            .unwrap();
        ingest_columns(
            &dir,
            &[IngestColumn {
                table_name: "d0".into(),
                column_name: "key".into(),
                vectors: extra,
            }],
        )
        .unwrap();
        compact_lake(&dir, None, ExecPolicy::Sequential).unwrap();
        check(
            &PartitionedLake::open(&dir).unwrap(),
            &oracle_of(&after, &q, tau, t, k),
            &format!("{name}: compacted"),
        );
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&out).ok();
    }
}

/// The message of the typed `InvalidParameter` refusal `result` must be.
fn refusal<T>(result: pexeso_core::error::Result<T>) -> String {
    match result {
        Err(PexesoError::InvalidParameter(msg)) => msg,
        Err(other) => panic!("expected an InvalidParameter refusal, got {other:?}"),
        Ok(_) => panic!("expected a refusal, got an answer"),
    }
}

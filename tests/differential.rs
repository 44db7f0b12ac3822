//! Differential suite: every search mode against the brute-force oracle.
//!
//! `pexeso_core::oracle` is an independent O(|Q|·|R|) matcher with no
//! pivots, grids, lemmas, kernels, or early termination. This suite pins
//! the accelerated paths — threshold search, batched search, top-k
//! (unseeded and seeded), and out-of-core search — against it on
//! randomized workloads across metrics, thresholds, k values, and both
//! [`ExecPolicy`] variants. Unlike `tests/exactness.rs` (which pins
//! Parallel ≡ Sequential and index ≡ naive-with-the-same-kernels), the
//! oracle shares *nothing* with the code under test, so a bug in the
//! shared machinery cannot cancel out of the comparison.

use pexeso::core::config::PivotSelection;
use pexeso::core::oracle;
use pexeso::prelude::*;

/// Build a unit-normalised random repository + query from a seed.
fn instance(
    seed: u64,
    n_cols: usize,
    col_len: usize,
    nq: usize,
    dim: usize,
) -> (ColumnSet, VectorStore) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let unit = |rng: &mut StdRng| {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n.max(1e-9));
        v
    };
    let mut columns = ColumnSet::new(dim);
    for c in 0..n_cols {
        let vecs: Vec<Vec<f32>> = (0..col_len).map(|_| unit(&mut rng)).collect();
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns
            .add_column("t", &format!("c{c}"), c as u64, refs)
            .unwrap();
    }
    let mut query = VectorStore::new(dim);
    for _ in 0..nq {
        let v = unit(&mut rng);
        query.push(&v).unwrap();
    }
    (columns, query)
}

fn build<M: Metric>(columns: ColumnSet, metric: M, pivots: usize, levels: usize) -> PexesoIndex<M> {
    PexesoIndex::build(
        columns,
        metric,
        IndexOptions {
            num_pivots: pivots,
            levels: Some(levels),
            pivot_selection: PivotSelection::Pca,
            seed: 7,
            ..Default::default()
        },
    )
    .unwrap()
}

fn pairs(hits: &[SearchHit]) -> Vec<(u32, u32)> {
    hits.iter().map(|h| (h.column.0, h.match_count)).collect()
}

/// Unified-API hits, compared on (external id, count). Every in-memory
/// fixture here assigns external ids in insertion order, so the unified
/// external-id ranking coincides with the oracle's column-id ranking.
fn gpairs(hits: &[GlobalHit]) -> Vec<(u32, u32)> {
    hits.iter()
        .map(|h| (h.external_id as u32, h.match_count))
        .collect()
}

const POLICIES: [ExecPolicy; 2] = [ExecPolicy::Sequential, ExecPolicy::Parallel { threads: 4 }];

/// `q` over `index` as a one-unit deployment whose columns flagged in
/// `dead` are dropped — the mask the delta overlay hands a base unit.
fn execute_masked<M: Metric>(
    index: &PexesoIndex<M>,
    q: &Query,
    query: &VectorStore,
    dead: &[bool],
) -> QueryResponse {
    use pexeso::core::outofcore::{execute_partitioned, IndexUnit};
    execute_partitioned(&[1], q, |_, inner, guard| {
        index.answer(inner, query, Some(dead), guard)
    })
    .unwrap()
}

/// Threshold search (and its batched form) equals the oracle: same
/// columns, in ascending id order, for several metrics, τ, T, and both
/// execution policies. Match counts are lower bounds under early
/// termination, so only the id sets are compared here.
fn check_threshold<M: Metric>(metric: M, seed: u64) {
    let (columns, query) = instance(seed, 14, 20, 9, 12);
    let index = build(columns.clone(), metric.clone(), 4, 4);
    for tau in [Tau::Ratio(0.05), Tau::Ratio(0.2), Tau::Ratio(0.5)] {
        for t in [
            JoinThreshold::Count(1),
            JoinThreshold::Ratio(0.4),
            JoinThreshold::Ratio(1.0),
        ] {
            let expected: Vec<u32> =
                oracle::threshold_search(&columns, &metric, &query, tau, t, None)
                    .unwrap()
                    .iter()
                    .map(|h| h.column.0)
                    .collect();
            for policy in POLICIES {
                let q = Query::threshold(tau, t)
                    .with_policy(policy)
                    .expect_metric(metric.name());
                let got: Vec<u32> = index
                    .execute(&q, &query)
                    .unwrap()
                    .hits
                    .iter()
                    .map(|h| h.external_id as u32)
                    .collect();
                assert_eq!(
                    got,
                    expected,
                    "metric={} seed={seed} tau={tau:?} t={t:?} policy={policy:?}",
                    metric.name()
                );
                let batched = index.execute_many(&q, &[&query, &query]).unwrap();
                for r in batched {
                    let ids: Vec<u32> = r.hits.iter().map(|h| h.external_id as u32).collect();
                    assert_eq!(ids, expected, "execute_many diverged (policy={policy:?})");
                }
            }
        }
    }
}

/// Top-k equals the oracle exactly — same columns, same exact counts,
/// same order under the documented tie-break — for several metrics, τ,
/// k, and both execution policies; the batched form must agree too.
fn check_topk<M: Metric>(metric: M, seed: u64) {
    let (columns, query) = instance(seed, 14, 20, 9, 12);
    let n_cols = columns.n_columns();
    let index = build(columns.clone(), metric.clone(), 4, 4);
    for tau in [Tau::Ratio(0.1), Tau::Ratio(0.3), Tau::Ratio(0.6)] {
        for k in [0usize, 1, 3, 7, n_cols, n_cols * 2] {
            let expected = pairs(&oracle::topk(&columns, &metric, &query, tau, k, None).unwrap());
            for policy in POLICIES {
                let q = Query::topk(tau, k).with_policy(policy);
                let got = gpairs(&index.execute(&q, &query).unwrap().hits);
                assert_eq!(
                    got,
                    expected,
                    "top-k vs oracle (metric={} seed={seed} tau={tau:?} k={k} policy={policy:?})",
                    metric.name()
                );
                let batched = index.execute_many(&q, &[&query, &query]).unwrap();
                for r in batched {
                    assert_eq!(
                        gpairs(&r.hits),
                        expected,
                        "batched top-k diverged (policy={policy:?})"
                    );
                }
            }
        }
    }
}

#[test]
fn threshold_search_matches_oracle_euclidean() {
    for seed in [1u64, 2, 3] {
        check_threshold(Euclidean, seed);
    }
}

#[test]
fn threshold_search_matches_oracle_manhattan() {
    check_threshold(Manhattan, 4);
}

#[test]
fn threshold_search_matches_oracle_chebyshev() {
    check_threshold(Chebyshev, 5);
}

#[test]
fn topk_matches_oracle_euclidean() {
    for seed in [1u64, 2, 3] {
        check_topk(Euclidean, seed);
    }
}

#[test]
fn topk_matches_oracle_manhattan() {
    check_topk(Manhattan, 4);
}

#[test]
fn topk_matches_oracle_chebyshev() {
    check_topk(Chebyshev, 5);
}

/// Lemma ablations and quick-browse off must not change the top-k answer.
#[test]
fn topk_matches_oracle_under_ablations() {
    let (columns, query) = instance(6, 12, 18, 8, 10);
    let index = build(columns.clone(), Euclidean, 3, 4);
    let tau = Tau::Ratio(0.25);
    let expected = pairs(&oracle::topk(&columns, &Euclidean, &query, tau, 5, None).unwrap());
    for flags in [
        LemmaFlags::all(),
        LemmaFlags::without_lemma1(),
        LemmaFlags::without_lemma2(),
        LemmaFlags::without_lemma34(),
        LemmaFlags::without_lemma56(),
    ] {
        for quick_browse in [true, false] {
            let q = Query::topk(tau, 5)
                .with_flags(flags)
                .quick_browse(quick_browse);
            let got = gpairs(&index.execute(&q, &query).unwrap().hits);
            assert_eq!(got, expected, "flags={flags:?} quick_browse={quick_browse}");
        }
    }
}

/// Duplicate columns produce identical scores; the tie-break (ascending
/// column id) must order them deterministically in every mode.
#[test]
fn duplicate_columns_tie_break_deterministically() {
    let (mut columns, query) = instance(7, 6, 15, 8, 10);
    // Clone column 2's vectors twice: three columns with identical scores.
    let dup: Vec<Vec<f32>> = columns
        .column(ColumnId(2))
        .vector_range()
        .map(|v| columns.store().get_raw(v as usize).to_vec())
        .collect();
    for (name, ext) in [("dup_a", 6u64), ("dup_b", 7)] {
        let refs: Vec<&[f32]> = dup.iter().map(|v| v.as_slice()).collect();
        columns.add_column("t", name, ext, refs).unwrap();
    }
    let index = build(columns.clone(), Euclidean, 3, 4);
    let tau = Tau::Ratio(0.4);
    let expected =
        pairs(&oracle::topk(&columns, &Euclidean, &query, tau, columns.n_columns(), None).unwrap());
    // The three duplicates must appear with equal counts, ids ascending.
    let c2 = expected.iter().position(|&(c, _)| c == 2).unwrap();
    let c6 = expected.iter().position(|&(c, _)| c == 6).unwrap();
    let c7 = expected.iter().position(|&(c, _)| c == 7).unwrap();
    assert_eq!(expected[c2].1, expected[c6].1);
    assert_eq!(expected[c6].1, expected[c7].1);
    assert!(c2 < c6 && c6 < c7, "tie-break must order by ascending id");
    for policy in POLICIES {
        let q = Query::topk(tau, columns.n_columns()).with_policy(policy);
        let got = gpairs(&index.execute(&q, &query).unwrap().hits);
        assert_eq!(got, expected, "policy={policy:?}");
    }
}

/// Deleted columns disappear from top-k exactly like an oracle over the
/// masked repository.
#[test]
fn topk_respects_deletions() {
    let (columns, query) = instance(8, 10, 15, 8, 10);
    let index = build(columns.clone(), Euclidean, 3, 4);
    let tau = Tau::Ratio(0.3);
    let full = index.execute(&Query::topk(tau, 5), &query).unwrap();
    assert!(!full.hits.is_empty(), "need a hit to delete");
    let victim = ColumnId(full.hits[0].external_id as u32);
    let mut deleted = vec![false; columns.n_columns()];
    deleted[victim.0 as usize] = true;
    let expected =
        pairs(&oracle::topk(&columns, &Euclidean, &query, tau, 5, Some(&deleted)).unwrap());
    for policy in POLICIES {
        let q = Query::topk(tau, 5).with_policy(policy);
        let got = gpairs(&execute_masked(&index, &q, &query, &deleted).hits);
        assert_eq!(got, expected, "{policy:?}");
    }
}

/// Out-of-core threshold and top-k search equal the oracle on external
/// ids, for both execution policies.
#[test]
fn out_of_core_matches_oracle() {
    use pexeso::core::partition::PartitionMethod;
    let (columns, query) = instance(9, 16, 18, 8, 10);
    let dir = std::env::temp_dir().join(format!("pexeso_diff_ooc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let lake = PartitionedLake::build(
        &columns,
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
        &dir,
    )
    .unwrap();
    assert!(
        lake.num_partitions() > 1,
        "want a real multi-partition merge"
    );
    let tau = Tau::Ratio(0.25);

    // Threshold form: ascending external id.
    let t = JoinThreshold::Ratio(0.3);
    let expected_ids: Vec<u64> =
        oracle::threshold_search(&columns, &Euclidean, &query, tau, t, None)
            .unwrap()
            .iter()
            .map(|h| h.column.0 as u64)
            .collect();
    // Top-k form: count descending, external id ascending. External ids
    // equal the original column ids here, so the oracle ranking carries
    // over unchanged.
    let expected_topk: Vec<(u64, u32)> = oracle::topk(&columns, &Euclidean, &query, tau, 6, None)
        .unwrap()
        .iter()
        .map(|h| (h.column.0 as u64, h.match_count))
        .collect();
    for policy in POLICIES {
        let resp = lake
            .execute(&Query::threshold(tau, t).with_policy(policy), &query)
            .unwrap();
        let got: Vec<u64> = resp.hits.iter().map(|h| h.external_id).collect();
        assert_eq!(
            got, expected_ids,
            "out-of-core threshold (policy={policy:?})"
        );

        let top = lake
            .execute(&Query::topk(tau, 6).with_policy(policy), &query)
            .unwrap();
        let got: Vec<(u64, u32)> = top
            .hits
            .iter()
            .map(|h| (h.external_id, h.match_count))
            .collect();
        assert_eq!(got, expected_topk, "out-of-core top-k (policy={policy:?})");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Adversarial ordering: a column whose first few reachable query
/// vectors are *near misses* but which matches many later query vectors
/// must still win — no prefix of the query may decide a column's fate.
/// Seventeen decoy columns match only the first two query vectors.
#[test]
fn weak_probe_high_count_column_is_not_pruned() {
    let dim = 4;
    // Points on a unit circle: chord distance between v(a) and v(b) is
    // 2·sin(|a−b|/2) ≈ |a−b| for small angles.
    let v = |theta: f32| vec![theta.cos(), theta.sin(), 0.0, 0.0];
    let mut query = VectorStore::new(dim);
    for i in 0..12 {
        query.push(&v(0.5 * i as f32)).unwrap();
    }
    let mut columns = ColumnSet::new(dim);
    // Decoys 0..=16: exact copies of q0 and q1 only (count 2).
    for c in 0..17u64 {
        let vecs = [v(0.0), v(0.5)];
        let refs: Vec<&[f32]> = vecs.iter().map(|x| x.as_slice()).collect();
        columns
            .add_column("t", &format!("decoy{c}"), c, refs)
            .unwrap();
    }
    // Strong column 17: near misses for q0/q1 (chord ≈ 0.15 > τ = 0.1,
    // close enough to stay blocked as candidates) plus exact matches for
    // q2..=q11 (count 10).
    let mut strong = vec![v(0.15), v(0.65)];
    for i in 2..12 {
        strong.push(v(0.5 * i as f32));
    }
    let refs: Vec<&[f32]> = strong.iter().map(|x| x.as_slice()).collect();
    columns.add_column("t", "strong", 17, refs).unwrap();

    let index = build(columns.clone(), Euclidean, 3, 2);
    let tau = Tau::Absolute(0.1);
    for k in [1usize, 3, 18] {
        let expected = pairs(&oracle::topk(&columns, &Euclidean, &query, tau, k, None).unwrap());
        assert_eq!(expected[0], (17, 10), "test instance lost its shape");
        for policy in POLICIES {
            let q = Query::topk(tau, k).with_policy(policy);
            let got = gpairs(&index.execute(&q, &query).unwrap().hits);
            assert_eq!(got, expected, "k={k} policy={policy:?}");
        }
    }
}

/// The seed `PexesoIndex` hands its top-k scan, recomputed from the public
/// pieces: map and block the query, bound the columns from the matching
/// cells, take the k-th best bound.
fn topk_seed_of<M: Metric>(
    index: &PexesoIndex<M>,
    query: &VectorStore,
    tau: Tau,
    k: usize,
    deleted: &[bool],
    quick: bool,
) -> Option<(u32, u32)> {
    use pexeso::core::block::{block, quick_browse};
    use pexeso::core::cost::{column_match_bounds, topk_seed};
    use pexeso::core::grid::HierarchicalGrid;
    use pexeso::core::mapping::MappedVectors;
    let tau = tau.resolve(index.metric(), query.dim()).unwrap();
    let params = index.grid_params().clone();
    let mapped = MappedVectors::build(query, index.pivots(), index.metric(), None).unwrap();
    let hgq = HierarchicalGrid::build(params.clone(), &mapped).unwrap();
    let hgrv = HierarchicalGrid::build_keys_only(params, index.rv_mapped()).unwrap();
    let inv = index.inverted_index();
    let mut stats = SearchStats::new();
    let mut seeded = Default::default();
    let handled = quick.then(|| quick_browse(&hgq, inv, &mut seeded, &mut stats));
    let flags = LemmaFlags::all();
    let blocked = block(
        &hgq,
        &hgrv,
        &mapped,
        tau,
        flags,
        handled.as_ref(),
        seeded,
        &mut stats,
    );
    let bounds = column_match_bounds(
        &blocked,
        inv,
        deleted.len(),
        query.len(),
        Some(deleted),
        ExecPolicy::Sequential,
    );
    topk_seed(&bounds, k)
}

/// A duplicate-heavy lake: every column is a draw from one small pool of
/// vectors, copied exactly or jittered a little, so the pivots sit on pool
/// vectors, the query — the whole pool, plus a few far-jittered vectors
/// that mostly miss — sits on the pivots, and Lemma 5/6 hand most columns
/// definite matches: the top-k scan runs seeded. Fuller columns come first
/// and external ids run against insertion order, so the in-index tie-break
/// keeps the wrong end of every tie. Checked against the oracle for k = 1,
/// a k that cuts through a tie, every column and more, with and without
/// tombstones, under every kind of policy; a budgeted run trips at the same
/// place with the same partial ranking for every policy.
fn check_seeded_topk<M: Metric>(metric: M, seed: u64) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let (dim, n_pool, n_cols) = (10usize, 12usize, 24usize);
    let mut rng = StdRng::seed_from_u64(seed);
    let normalised = |mut v: Vec<f32>| {
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n.max(1e-9));
        v
    };
    let unit =
        |rng: &mut StdRng| normalised((0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect());
    let near = |rng: &mut StdRng, v: &[f32], eps: f32| {
        let jitter = unit(rng);
        normalised(v.iter().zip(&jitter).map(|(x, j)| x + eps * j).collect())
    };
    let pool: Vec<Vec<f32>> = (0..n_pool).map(|_| unit(&mut rng)).collect();
    let mut columns = ColumnSet::new(dim);
    for c in 0..n_cols {
        // Column c keeps each pool vector with a probability that falls
        // from 0.95 to nothing over the lake: counts spread and tie, and
        // the last columns hold little but their one sure vector.
        let keep = 0.95 * (1.0 - c as f64 / (n_cols - 1) as f64);
        let mut vecs = vec![pool[c % n_pool].clone()];
        for v in &pool {
            if rng.gen_bool(keep) {
                let jittered = rng.gen_bool(0.25);
                vecs.push(if jittered {
                    near(&mut rng, v, 0.05)
                } else {
                    v.clone()
                });
            }
        }
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        let ext = (n_cols - 1 - c) as u64;
        columns
            .add_column("t", &format!("c{c}"), ext, refs)
            .unwrap();
    }
    let mut query = VectorStore::new(dim);
    for v in &pool {
        query.push(v).unwrap();
    }
    for v in pool.iter().take(4) {
        query.push(&near(&mut rng, v, 0.5)).unwrap();
    }
    let index = build(columns.clone(), metric.clone(), 4, 4);
    let tau = Tau::Ratio(0.2);
    let name = metric.name();

    // The oracle ranks by column id; the product by external id.
    let expected = |k: usize, deleted: &[bool]| -> Vec<(u64, u32)> {
        let all = oracle::topk(&columns, &metric, &query, tau, usize::MAX, Some(deleted)).unwrap();
        let mut ranked: Vec<(u64, u32)> = all
            .iter()
            .map(|h| ((n_cols - 1) as u64 - h.column.0 as u64, h.match_count))
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    };
    let got = |resp: &QueryResponse| -> Vec<(u64, u32)> {
        resp.hits
            .iter()
            .map(|h| (h.external_id, h.match_count))
            .collect()
    };

    let policies = [
        ExecPolicy::Sequential,
        ExecPolicy::auto(),
        ExecPolicy::Parallel { threads: 4 },
        ExecPolicy::Fixed { threads: 3 },
    ];
    let mut deleted = vec![false; n_cols];
    for tombstoned in [false, true] {
        if tombstoned {
            // The best column, one from the middle, one from the tail.
            for c in [0usize, n_cols / 2, n_cols - 2] {
                deleted[c] = true;
            }
        }
        // The tombstoned half drops its columns through the engine's mask.
        let run = |q: &Query| {
            if tombstoned {
                execute_masked(&index, q, &query, &deleted)
            } else {
                index.execute(q, &query).unwrap()
            }
        };
        let full = expected(usize::MAX, &deleted);
        let k_tied = (2..full.len())
            .find(|&k| full[k - 1].1 == full[k].1)
            .expect("the lake must tie somewhere");
        // Quick browsing turns the query's own leaf cells into candidate
        // pairs before Lemma 5/6 see them, which leaves little to seed
        // from; with it off the seed is there and high enough to prune.
        let mut pruned = 0;
        for (quick, k) in [true, false]
            .into_iter()
            .flat_map(|quick| [1, k_tied, n_cols, 2 * n_cols].map(|k| (quick, k)))
        {
            if !quick && k <= k_tied {
                assert!(
                    topk_seed_of(&index, &query, tau, k, &deleted, quick).is_some(),
                    "{name}: top-{k} must run seeded (tombstoned={tombstoned} quick={quick})"
                );
            }
            let want = expected(k, &deleted);
            let mut stats: Option<SearchStats> = None;
            for policy in policies {
                let q = Query::topk(tau, k).with_policy(policy).quick_browse(quick);
                let resp = run(&q);
                assert!(resp.exact());
                assert_eq!(
                    got(&resp),
                    want,
                    "{name} k={k} tombstoned={tombstoned} quick={quick} {policy:?}"
                );
                let mut counters = resp.stats.clone();
                counters.mapping_time = Default::default();
                counters.block_time = Default::default();
                counters.verify_time = Default::default();
                counters.total_time = Default::default();
                let first = stats.get_or_insert_with(|| counters.clone());
                assert_eq!(*first, counters, "{name} k={k} counters under {policy:?}");
            }
            pruned += stats.unwrap().lemma7_pruned;
        }
        assert!(pruned > 0, "{name}: no seed ever pruned a column");

        let mut partial: Option<(Vec<(u64, u32)>, QueryOutcome)> = None;
        for policy in policies {
            let q = Query::topk(tau, k_tied)
                .with_policy(policy)
                .with_max_distance_computations(1);
            let resp = run(&q);
            assert!(!resp.exact(), "{name}: a one-distance budget must trip");
            let answer = (got(&resp), resp.outcome);
            let first = partial.get_or_insert_with(|| answer.clone());
            assert_eq!(*first, answer, "{name} budgeted under {policy:?}");
        }
    }
}

#[test]
fn seeded_topk_matches_oracle_on_a_duplicate_heavy_lake() {
    check_seeded_topk(Euclidean, 31);
    check_seeded_topk(Manhattan, 32);
    check_seeded_topk(Chebyshev, 33);
    check_seeded_topk(Angular, 34);
}

/// Out-of-core boundary ties: the in-partition tie-break runs on
/// internal (insertion-order) ids while the global merge ranks by
/// external id. With identical columns whose external ids run *opposite*
/// to insertion order, a naive per-partition top-k would keep the wrong
/// end of every tie; the tie-inclusive re-query must surface the column
/// with the smallest external id anyway.
#[test]
fn out_of_core_topk_boundary_ties_respect_external_ids() {
    use pexeso::core::partition::PartitionMethod;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let dim = 6;
    let mut rng = StdRng::seed_from_u64(21);
    let mut unit = || {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n.max(1e-9));
        v
    };
    let vecs: Vec<Vec<f32>> = (0..12).map(|_| unit()).collect();
    let mut columns = ColumnSet::new(dim);
    for i in 0..10u64 {
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        // External ids descend as insertion order ascends.
        columns
            .add_column("t", &format!("c{i}"), 9 - i, refs)
            .unwrap();
    }
    let mut query = VectorStore::new(dim);
    for v in vecs.iter().take(6) {
        query.push(v).unwrap();
    }
    let dir = std::env::temp_dir().join(format!("pexeso_diff_ties_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let lake = PartitionedLake::build(
        &columns,
        Euclidean,
        &PartitionConfig {
            k: 3,
            method: PartitionMethod::Random,
            ..Default::default()
        },
        &IndexOptions {
            num_pivots: 3,
            levels: Some(3),
            seed: 7,
            ..Default::default()
        },
        &dir,
    )
    .unwrap();
    let tau = Tau::Ratio(0.05);
    for policy in POLICIES {
        for k in [1usize, 3] {
            let resp = lake
                .execute(&Query::topk(tau, k).with_policy(policy), &query)
                .unwrap();
            let got: Vec<(u64, u32)> = resp
                .hits
                .iter()
                .map(|h| (h.external_id, h.match_count))
                .collect();
            let expected: Vec<(u64, u32)> = (0..k as u64).map(|e| (e, 6)).collect();
            assert_eq!(got, expected, "k={k} policy={policy:?}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Edge cases: k = 0 (valid, empty), k far beyond the candidate count
/// (everything with a positive count, still ranked), and an empty query
/// column (an error, like every other entry point).
#[test]
fn topk_edge_cases() {
    let (columns, query) = instance(10, 8, 12, 6, 10);
    let index = build(columns.clone(), Euclidean, 3, 4);
    let tau = Tau::Ratio(0.3);

    assert!(index
        .execute(&Query::topk(tau, 0), &query)
        .unwrap()
        .hits
        .is_empty());

    let all = pairs(&oracle::topk(&columns, &Euclidean, &query, tau, usize::MAX, None).unwrap());
    let got = gpairs(
        &index
            .execute(&Query::topk(tau, 10_000), &query)
            .unwrap()
            .hits,
    );
    assert_eq!(got, all, "oversized k must return every positive column");

    let empty = VectorStore::new(10);
    assert!(index.execute(&Query::topk(tau, 3), &empty).is_err());
    assert!(oracle::topk(&columns, &Euclidean, &empty, tau, 3, None).is_err());
}

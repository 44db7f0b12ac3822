//! The central correctness property of the paper: PEXESO is an **exact**
//! algorithm. Across random instances, parameter settings, and ablations,
//! its answer set must equal the naive scan's — and so must every exact
//! baseline (CTREE, EPT, PEXESO-H, partitioned/out-of-core search).

use proptest::prelude::*;

use pexeso::prelude::*;
use pexeso_baselines::covertree::CoverTreeIndex;
use pexeso_baselines::ept::EptIndex;
use pexeso_baselines::pexeso_h::PexesoHIndex;
use pexeso_baselines::VectorJoinSearch;

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

fn expected_ids(
    columns: &ColumnSet,
    query: &VectorStore,
    tau: Tau,
    t: JoinThreshold,
) -> Vec<ColumnId> {
    let (hits, _) = naive_search(columns, &Euclidean, query, tau, t, false).unwrap();
    hits.into_iter().map(|h| h.column).collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// PEXESO ≡ naive scan over random instances and parameters.
    #[test]
    fn pexeso_equals_naive(
        seed in 0u64..10_000,
        tau_pct in 0.02f32..0.3,
        t_ratio in 0.1f64..0.9,
        pivots in 1usize..6,
        levels in 1usize..7,
    ) {
        let (columns, query) = instance(seed, 10, 15, 6, 12);
        let tau = Tau::Ratio(tau_pct);
        let t = JoinThreshold::Ratio(t_ratio);
        let expected = expected_ids(&columns, &query, tau, t);
        let index = PexesoIndex::build(
            columns,
            Euclidean,
            IndexOptions {
                num_pivots: pivots,
                levels: Some(levels),
                pivot_selection: PivotSelection::Pca,
                seed,
                ..Default::default()
            },
        ).unwrap();
        // External ids equal insertion order in these fixtures, so the
        // unified external-id ordering matches the naive column-id order.
        let got: Vec<ColumnId> = index.execute(&Query::threshold(tau, t), &query).unwrap()
            .hits.iter().map(|h| ColumnId(h.external_id as u32)).collect();
        prop_assert_eq!(got, expected);
    }

    /// Every lemma ablation and quick-browse toggle stays exact.
    #[test]
    fn ablations_stay_exact(seed in 0u64..10_000, tau_pct in 0.03f32..0.25) {
        let (columns, query) = instance(seed, 8, 12, 5, 10);
        let tau = Tau::Ratio(tau_pct);
        let t = JoinThreshold::Ratio(0.4);
        let expected = expected_ids(&columns, &query, tau, t);
        let index = PexesoIndex::build(columns, Euclidean, IndexOptions::default()).unwrap();
        for flags in [
            LemmaFlags::all(),
            LemmaFlags::without_lemma1(),
            LemmaFlags::without_lemma2(),
            LemmaFlags::without_lemma34(),
            LemmaFlags::without_lemma56(),
        ] {
            for quick_browse in [true, false] {
                let q = Query::threshold(tau, t).with_flags(flags).quick_browse(quick_browse);
                let got: Vec<ColumnId> = index
                    .execute(&q, &query)
                    .unwrap()
                    .hits.iter().map(|h| ColumnId(h.external_id as u32)).collect();
                prop_assert_eq!(&got, &expected, "flags={:?} qb={}", flags, quick_browse);
            }
        }
    }

    /// Exact baselines agree with the naive scan too.
    #[test]
    fn exact_baselines_agree(seed in 0u64..10_000, tau_pct in 0.03f32..0.25) {
        let (columns, query) = instance(seed, 8, 12, 5, 10);
        let tau = Tau::Ratio(tau_pct);
        let t = JoinThreshold::Ratio(0.5);
        let expected = expected_ids(&columns, &query, tau, t);

        let ctree = CoverTreeIndex::build(&columns, Euclidean).unwrap();
        let got: Vec<ColumnId> = ctree.search(&query, tau, t).unwrap().0.iter().map(|h| h.column).collect();
        prop_assert_eq!(&got, &expected, "CTREE");

        let ept = EptIndex::build(&columns, Euclidean, 3, seed).unwrap();
        let got: Vec<ColumnId> = ept.search(&query, tau, t).unwrap().0.iter().map(|h| h.column).collect();
        prop_assert_eq!(&got, &expected, "EPT");

        let h = PexesoHIndex::build(&columns, Euclidean, IndexOptions::default()).unwrap();
        let got: Vec<ColumnId> = h.search(&query, tau, t).unwrap().0.iter().map(|h| h.column).collect();
        prop_assert_eq!(&got, &expected, "PEXESO-H");
    }

    /// Out-of-core partitioned search (every partitioning method) merges to
    /// the same answer as in-memory search.
    #[test]
    fn partitioned_search_is_exact(seed in 0u64..5_000, k in 2usize..5) {
        let (columns, query) = instance(seed, 12, 10, 5, 10);
        let tau = Tau::Ratio(0.12);
        let t = JoinThreshold::Ratio(0.4);
        let expected: Vec<u64> = expected_ids(&columns, &query, tau, t)
            .into_iter().map(|c| c.0 as u64).collect();
        for method in [PartitionMethod::JsdKmeans, PartitionMethod::AvgKmeans, PartitionMethod::Random] {
            let dir = std::env::temp_dir().join(format!(
                "pexeso_prop_ooc_{}_{:?}_{}_{}", seed, method, k, std::process::id()
            ));
            let lake = PartitionedLake::build(
                &columns,
                Euclidean,
                &PartitionConfig { k, method, ..Default::default() },
                &IndexOptions { num_pivots: 3, levels: Some(3), ..Default::default() },
                &dir,
            ).unwrap();
            let resp = lake.execute(&Query::threshold(tau, t), &query).unwrap();
            let got: Vec<u64> = resp.hits.iter().map(|h| h.external_id).collect();
            std::fs::remove_dir_all(&dir).ok();
            prop_assert_eq!(&got, &expected, "method={:?}", method);
        }
    }

    /// Metric-genericity: exactness holds under Manhattan and Chebyshev too.
    #[test]
    fn exact_under_other_metrics(seed in 0u64..5_000, tau_pct in 0.02f32..0.15) {
        let (columns, query) = instance(seed, 8, 10, 5, 8);
        let t = JoinThreshold::Ratio(0.4);

        let tau = Tau::Ratio(tau_pct);
        let (naive_m, _) = naive_search(&columns, &Manhattan, &query, tau, t, false).unwrap();
        let index = PexesoIndex::build(columns.clone(), Manhattan, IndexOptions::default()).unwrap();
        let got: Vec<ColumnId> = index.execute(&Query::threshold(tau, t).expect_metric("manhattan"), &query)
            .unwrap().hits.iter().map(|h| ColumnId(h.external_id as u32)).collect();
        let expected: Vec<ColumnId> = naive_m.iter().map(|h| h.column).collect();
        prop_assert_eq!(got, expected, "Manhattan");

        let (naive_c, _) = naive_search(&columns, &Chebyshev, &query, tau, t, false).unwrap();
        let index = PexesoIndex::build(columns, Chebyshev, IndexOptions::default()).unwrap();
        let got: Vec<ColumnId> = index.execute(&Query::threshold(tau, t).expect_metric("chebyshev"), &query)
            .unwrap().hits.iter().map(|h| ColumnId(h.external_id as u32)).collect();
        let expected: Vec<ColumnId> = naive_c.iter().map(|h| h.column).collect();
        prop_assert_eq!(got, expected, "Chebyshev");
    }
}

/// Degenerate geometries that random sampling rarely produces.
#[test]
fn exactness_on_adversarial_layouts() {
    let dim = 4;
    // All vectors identical; all on a line; clustered at cell boundaries.
    let layouts: Vec<Vec<Vec<f32>>> = vec![
        vec![vec![0.5, 0.5, 0.5, 0.5]; 12],
        (0..12)
            .map(|i| {
                let x = i as f32 / 11.0;
                let mut v = vec![x, 1.0 - x, 0.0, 0.0];
                let n: f32 = v.iter().map(|a| a * a).sum::<f32>().sqrt();
                v.iter_mut().for_each(|a| *a /= n.max(1e-9));
                v
            })
            .collect(),
        (0..12)
            .map(|i| {
                // Values engineered to sit exactly on power-of-two fractions of
                // the span, stressing the cell-boundary epsilon handling.
                let x = (i % 4) as f32 * 0.25;
                let mut v = vec![x, 0.3, 0.1, 1.0];
                let n: f32 = v.iter().map(|a| a * a).sum::<f32>().sqrt();
                v.iter_mut().for_each(|a| *a /= n.max(1e-9));
                v
            })
            .collect(),
    ];
    for (li, layout) in layouts.into_iter().enumerate() {
        let mut columns = ColumnSet::new(dim);
        for (c, chunk) in layout.chunks(4).enumerate() {
            let refs: Vec<&[f32]> = chunk.iter().map(|v| v.as_slice()).collect();
            columns
                .add_column("t", &format!("c{c}"), c as u64, refs)
                .unwrap();
        }
        let mut query = VectorStore::new(dim);
        for v in layout.iter().take(3) {
            query.push(v).unwrap();
        }
        for tau in [Tau::Ratio(0.001), Tau::Ratio(0.05), Tau::Ratio(0.5)] {
            for t in [JoinThreshold::Count(1), JoinThreshold::Ratio(1.0)] {
                let expected = expected_ids(&columns, &query, tau, t);
                let index = PexesoIndex::build(columns.clone(), Euclidean, IndexOptions::default())
                    .unwrap();
                let got: Vec<ColumnId> = index
                    .execute(&Query::threshold(tau, t), &query)
                    .unwrap()
                    .hits
                    .iter()
                    .map(|h| ColumnId(h.external_id as u32))
                    .collect();
                assert_eq!(got, expected, "layout {li} tau={tau:?} t={t:?}");
            }
        }
    }
}

/// One threshold query under every lemma ablation, every policy and a
/// half-budget cut: hits and counts equal `expected` (the oracle's
/// `(external id, count)` pairs, ascending), counters equal across
/// policies, and the cut trips, only loses hits, and gives the same partial
/// outcome on repeat and for every policy.
fn assert_exact_under_every_ablation_and_policy(
    index: &PexesoIndex<Euclidean>,
    query: &VectorStore,
    tau: Tau,
    t: JoinThreshold,
    expected: &[(u64, u32)],
    what: &str,
) {
    let hits_of = |resp: &QueryResponse| -> Vec<(u64, u32)> {
        let mut hits: Vec<(u64, u32)> = resp
            .hits
            .iter()
            .map(|h| (h.external_id, h.match_count))
            .collect();
        hits.sort_unstable();
        hits
    };
    let counters = |s: &SearchStats| {
        (
            s.distance_computations,
            s.lemma1_filtered,
            s.lemma2_matched,
            s.early_joinable,
            s.lemma7_pruned,
        )
    };
    let policies = [
        ExecPolicy::Sequential,
        ExecPolicy::Parallel { threads: 3 },
        ExecPolicy::Fixed { threads: 3 },
    ];
    for bits in 0u8..16 {
        let flags = LemmaFlags {
            lemma1_vector_filter: bits & 1 != 0,
            lemma2_vector_match: bits & 2 != 0,
            lemma34_cell_filter: bits & 4 != 0,
            lemma56_cell_match: bits & 8 != 0,
        };
        let what = format!("{what} flags={flags:?}");
        let base = Query::threshold(tau, t).with_flags(flags);
        let seq = index.execute(&base, query).unwrap();
        assert_eq!(hits_of(&seq), expected, "{what}");
        // Half the distance work of the full scan: a cut mid-scan.
        let cap = seq.stats.distance_computations / 2;
        let mut cut: Option<QueryResponse> = None;
        for policy in policies {
            let full = index
                .execute(&base.clone().with_policy(policy), query)
                .unwrap();
            assert_eq!(full.hits, seq.hits, "{what} {policy:?}");
            assert_eq!(
                counters(&full.stats),
                counters(&seq.stats),
                "{what} {policy:?}"
            );
            let budgeted = base
                .clone()
                .with_policy(policy)
                .with_max_distance_computations(cap);
            for _repeat in 0..2 {
                let part = index.execute(&budgeted, query).unwrap();
                assert!(
                    matches!(part.outcome, QueryOutcome::Exceeded(_)),
                    "{what} {policy:?}: cap {cap} never tripped"
                );
                assert!(
                    hits_of(&part).iter().all(|h| expected.contains(h)),
                    "{what} {policy:?}: a budgeted cut may only lose hits"
                );
                let first = cut.get_or_insert_with(|| part.clone());
                assert_eq!(part.hits, first.hits, "{what} {policy:?}");
                assert_eq!(part.outcome, first.outcome, "{what} {policy:?}");
                assert_eq!(
                    counters(&part.stats),
                    counters(&first.stats),
                    "{what} {policy:?}"
                );
            }
        }
    }
}

/// The oracle's hits as `(external id, count)`, counting stopped at `T` as
/// the search stops it. Columns are added with their index as external id.
fn oracle_hits(
    columns: &ColumnSet,
    query: &VectorStore,
    tau: Tau,
    t: JoinThreshold,
) -> Vec<(u64, u32)> {
    let (hits, _) = naive_search(columns, &Euclidean, query, tau, t, true).unwrap();
    hits.iter()
        .map(|h| (u64::from(h.column.0), h.match_count))
        .collect()
}

/// Long columns packed into one leaf cell with a high match rate: most
/// rows of a cell belong to a column an earlier row of the same cell has
/// already matched, and the cells differ in size by two orders of
/// magnitude. Every lemma ablation, every policy and a budgeted cut must
/// agree with the naive scan.
#[test]
fn dense_cells_stay_exact_under_every_ablation_and_policy() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let dim = 12;
    let mut rng = StdRng::seed_from_u64(2021);
    let mut near = |centre: &[f32], spread: f32| -> Vec<f32> {
        let mut v: Vec<f32> = centre
            .iter()
            .map(|x| x + spread * rng.gen_range(-1.0f32..1.0))
            .collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n);
        v
    };
    let hub: Vec<f32> = (0..dim).map(|i| if i == 0 { 1.0 } else { 0.0 }).collect();
    let elsewhere: Vec<f32> = (0..dim).map(|i| if i == 5 { 1.0 } else { 0.0 }).collect();
    let mut columns = ColumnSet::new(dim);
    // (rows around the hub, their spread, rows elsewhere)
    let shapes = [
        (220, 0.004, 0),
        (240, 0.012, 0),
        (200, 0.03, 20),
        (12, 0.004, 230),
        (3, 0.012, 0),
        (0, 0.0, 4),
    ];
    for (c, &(n_hub, spread, n_else)) in shapes.iter().enumerate() {
        let vecs: Vec<Vec<f32>> = (0..n_hub + n_else)
            .map(|i| {
                if i < n_hub {
                    near(&hub, spread)
                } else {
                    near(&elsewhere, 0.01)
                }
            })
            .collect();
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns
            .add_column("t", &format!("c{c}"), c as u64, refs)
            .unwrap();
    }
    let mut query = VectorStore::new(dim);
    for i in 0..10 {
        let v = if i < 8 {
            near(&hub, 0.012)
        } else {
            near(&elsewhere, 0.3)
        };
        query.push(&v).unwrap();
    }
    let tau = Tau::Absolute(0.03);
    let t = JoinThreshold::Ratio(0.5);
    let expected = oracle_hits(&columns, &query, tau, t);
    assert!(
        !expected.is_empty() && expected.len() < shapes.len(),
        "the instance must separate joinable from non-joinable columns: {expected:?}"
    );
    let index = PexesoIndex::build(
        columns,
        Euclidean,
        IndexOptions {
            num_pivots: 3,
            levels: Some(4),
            ..Default::default()
        },
    )
    .unwrap();
    assert_exact_under_every_ablation_and_policy(&index, &query, tau, t, &expected, "dense");
}

/// A clustered lake where nine columns in ten share no value with the
/// query and are pruned together at step `|Q| − T + 1`, and the few that
/// survive sit unevenly in the id space: with three shards, one keeps
/// enough live columns to go on walking cells by row while the others (and
/// the unsharded scan) list theirs. The scan schedules query vectors by
/// candidate-row cost, so every permutation of the query column, every
/// lemma ablation and every policy must give the oracle's hits and counts,
/// policy-independent counters, and one deterministic budgeted cut.
#[test]
fn scheduled_scan_is_exact_for_every_query_order_and_policy() {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    let dim = 12;
    let mut rng = StdRng::seed_from_u64(722);
    let mut near = |axis: usize, spread: f32| -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim)
            .map(|i| f32::from(i == axis) + spread * rng.gen_range(-1.0f32..1.0))
            .collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n);
        v
    };
    // Query vectors around four centres, unevenly, so that their candidate
    // cells — and costs — differ.
    let n_q = 12usize;
    let q_vecs: Vec<Vec<f32>> = (0..n_q)
        .map(|i| near([0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 3, 3][i], 0.03))
        .collect();
    let tau = Tau::Absolute(0.03);
    let t = JoinThreshold::Ratio(0.5);
    // How many of the query's values a column repeats (within a hair);
    // everything else in it lies around the same centres, out of τ's reach.
    let n_cols = 60usize;
    let shared = |c: usize| -> usize {
        match c {
            1 | 4 | 7 | 11 | 16 => 9, // joinable, all in the first shard
            2 | 9 | 14 => 4,          // linger past the die-off, then pruned
            33 => 8,
            52 => 3,
            _ => 0,
        }
    };
    let mut columns = ColumnSet::new(dim);
    for c in 0..n_cols {
        let mut vecs: Vec<Vec<f32>> = (0..shared(c))
            .map(|i| {
                let source = &q_vecs[(i * 5 + c) % n_q];
                let mut v: Vec<f32> = source.clone();
                v[5] += 0.002;
                v
            })
            .collect();
        let filler = 24 + c % 7;
        vecs.extend((0..filler).map(|i| near(i % 4, 0.08)));
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns
            .add_column("t", &format!("c{c}"), c as u64, refs)
            .unwrap();
    }
    let store_of = |order: &[usize]| {
        let mut query = VectorStore::new(dim);
        for &i in order {
            query.push(&q_vecs[i]).unwrap();
        }
        query
    };
    let identity: Vec<usize> = (0..n_q).collect();
    let expected = oracle_hits(&columns, &store_of(&identity), tau, t);
    assert!(
        expected.len() >= 3 && expected.len() * 10 <= n_cols,
        "a few hits in a lake of misses: {expected:?}"
    );
    let index = PexesoIndex::build(
        columns,
        Euclidean,
        IndexOptions {
            num_pivots: 3,
            levels: Some(4),
            ..Default::default()
        },
    )
    .unwrap();
    let mut orders = vec![identity.clone(), identity.iter().rev().copied().collect()];
    for _ in 0..3 {
        let mut order = identity.clone();
        order.shuffle(&mut rng);
        orders.push(order);
    }
    for order in &orders {
        let what = format!("order={order:?}");
        assert_exact_under_every_ablation_and_policy(
            &index,
            &store_of(order),
            tau,
            t,
            &expected,
            &what,
        );
    }
}

// ---------------------------------------------------------------------------
// Differential tests: ExecPolicy::Parallel and the batched early-exit
// distance kernels must be byte-identical to the sequential scalar path.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Parallel build + parallel search produce exactly the sequential
    /// hits, match counts, and verification counters.
    #[test]
    fn parallel_policy_is_byte_identical(
        seed in 0u64..10_000,
        tau_pct in 0.03f32..0.3,
        t_ratio in 0.1f64..0.9,
        threads in 2usize..9,
    ) {
        let (columns, query) = instance(seed, 12, 14, 7, 12);
        let tau = Tau::Ratio(tau_pct);
        let t = JoinThreshold::Ratio(t_ratio);

        let seq_index = PexesoIndex::build(
            columns.clone(),
            Euclidean,
            IndexOptions { exec: ExecPolicy::Sequential, ..Default::default() },
        ).unwrap();
        let par_index = PexesoIndex::build(
            columns,
            Euclidean,
            IndexOptions { exec: ExecPolicy::Parallel { threads }, ..Default::default() },
        ).unwrap();
        // The parallel build must assemble the exact same structures.
        prop_assert_eq!(seq_index.pivots(), par_index.pivots());
        prop_assert_eq!(seq_index.rv_mapped().raw_data(), par_index.rv_mapped().raw_data());

        let seq = seq_index.execute(&Query::threshold(tau, t), &query).unwrap();
        // The adaptive planner may clamp `Parallel` to the inline path
        // (small inputs, few cores); `Fixed` bypasses the clamp and forces
        // real fan-out. Both must be byte-identical to sequential — the
        // planner's choice can never change an answer or a counter.
        for policy in [
            ExecPolicy::Parallel { threads },
            ExecPolicy::Fixed { threads },
        ] {
            let par = par_index.execute(
                &Query::threshold(tau, t).with_policy(policy),
                &query,
            ).unwrap();
            prop_assert_eq!(&seq.hits, &par.hits, "policy={:?}", policy);
            // Counter-level equality pins the shard merge, not just the answer.
            prop_assert_eq!(seq.stats.distance_computations, par.stats.distance_computations);
            prop_assert_eq!(seq.stats.lemma1_filtered, par.stats.lemma1_filtered);
            prop_assert_eq!(seq.stats.lemma2_matched, par.stats.lemma2_matched);
            prop_assert_eq!(seq.stats.candidate_pairs, par.stats.candidate_pairs);
            prop_assert_eq!(seq.stats.matching_pairs, par.stats.matching_pairs);
            prop_assert_eq!(seq.stats.early_joinable, par.stats.early_joinable);
            prop_assert_eq!(seq.stats.lemma7_pruned, par.stats.lemma7_pruned);
        }
    }

    /// `dist_le` and `dist_batch` agree exactly with scalar `dist` for all
    /// built-in metrics, including at the threshold boundary.
    #[test]
    fn kernels_agree_with_scalar_dist(seed in 0u64..10_000, dim in 1usize..80) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let rows = 8;
        let flat: Vec<f32> = (0..rows * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();

        fn check<M: Metric>(m: M, a: &[f32], flat: &[f32], dim: usize, rows: usize) -> Result<()> {
            let mut out = vec![0.0f32; rows];
            m.dist_batch(a, flat, &mut out);
            for (i, row) in flat.chunks_exact(dim).enumerate() {
                let d = m.dist(a, row);
                assert_eq!(out[i], d, "{} dist_batch row {i}", m.name());
                for tau in [d, d * 0.999, d * 1.001, 0.0, 0.5] {
                    assert_eq!(
                        m.dist_le(a, row, tau),
                        d <= tau,
                        "{} dist_le d={d} tau={tau}",
                        m.name()
                    );
                }
            }
            Ok(())
        }
        check(Euclidean, &a, &flat, dim, rows).unwrap();
        check(Manhattan, &a, &flat, dim, rows).unwrap();
        check(Chebyshev, &a, &flat, dim, rows).unwrap();
        check(Angular, &a, &flat, dim, rows).unwrap();
    }

    /// Batched multi-query search equals one-at-a-time search, under both
    /// outer policies.
    #[test]
    fn search_many_equals_individual_searches(seed in 0u64..5_000, nq in 2usize..5) {
        let (columns, _) = instance(seed, 10, 12, 5, 10);
        let queries: Vec<VectorStore> = (0..nq)
            .map(|i| instance(seed * 31 + i as u64 + 1, 1, 1, 6, 10).1)
            .collect();
        let tau = Tau::Ratio(0.15);
        let t = JoinThreshold::Ratio(0.4);
        let index = PexesoIndex::build(columns, Euclidean, IndexOptions::default()).unwrap();
        let base = Query::threshold(tau, t);
        let expected: Vec<Vec<GlobalHit>> = queries
            .iter()
            .map(|q| index.execute(&base, q).unwrap().hits)
            .collect();
        let stores: Vec<&VectorStore> = queries.iter().collect();
        for policy in [
            ExecPolicy::Sequential,
            ExecPolicy::Parallel { threads: 4 },
            ExecPolicy::Fixed { threads: 4 },
        ] {
            let got: Vec<Vec<GlobalHit>> = index
                .execute_many(&base.clone().with_policy(policy), &stores)
                .unwrap()
                .into_iter()
                .map(|r| r.hits)
                .collect();
            prop_assert_eq!(&got, &expected, "policy={:?}", policy);
        }
    }

    /// Out-of-core search under a parallel policy merges to the sequential
    /// answer.
    #[test]
    fn partitioned_parallel_policy_is_exact(seed in 0u64..3_000, threads in 2usize..6) {
        let (columns, query) = instance(seed, 12, 10, 5, 10);
        let tau = Tau::Ratio(0.12);
        let t = JoinThreshold::Ratio(0.4);
        let dir = std::env::temp_dir().join(format!(
            "pexeso_prop_ooc_par_{}_{}_{}", seed, threads, std::process::id()
        ));
        let lake = PartitionedLake::build(
            &columns,
            Euclidean,
            &PartitionConfig { k: 3, ..Default::default() },
            &IndexOptions { num_pivots: 3, levels: Some(3), ..Default::default() },
            &dir,
        ).unwrap();
        let seq = lake.execute(&Query::threshold(tau, t), &query).unwrap();
        let par = lake.execute(
            &Query::threshold(tau, t).with_policy(ExecPolicy::Parallel { threads }),
            &query,
        ).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(seq.hits, par.hits);
    }
}

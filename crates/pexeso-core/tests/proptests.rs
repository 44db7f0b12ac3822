//! Property tests for the core structures: lemma soundness, grid
//! containment, divergence properties, persistence round-trips,
//! log-bucketed histogram guarantees.

use proptest::prelude::*;

use pexeso_core::config::MAX_LEVELS;
use pexeso_core::grid::{CellKey, GridParams};
use pexeso_core::hist::{
    bucket_index, bucket_upper_bound, bucket_width, AtomicHistogram, NUM_BUCKETS,
};
use pexeso_core::lemmas;
use pexeso_core::mapping::MappedVectors;
use pexeso_core::metric::{Euclidean, Metric};
use pexeso_core::pdf::{jensen_shannon, jsd_from_logs, jsd_paper, Pdf};
use pexeso_core::vector::VectorStore;

fn unit_vec(dim: usize, seed: u64) -> Vec<f32> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// Lemma 1 never prunes a true match; Lemma 2 never admits a false one.
    #[test]
    fn lemma_1_2_soundness(seed_q in 0u64..10_000, seed_x in 0u64..10_000, tau in 0.01f32..1.5) {
        let dim = 10;
        let q = unit_vec(dim, seed_q);
        let x = unit_vec(dim, seed_x);
        let pivots: Vec<Vec<f32>> = (0..3).map(|i| unit_vec(dim, 999 + i)).collect();
        let qm: Vec<f32> = pivots.iter().map(|p| Euclidean.dist(&q, p)).collect();
        let xm: Vec<f32> = pivots.iter().map(|p| Euclidean.dist(&x, p)).collect();
        let d = Euclidean.dist(&q, &x);
        if d <= tau {
            prop_assert!(!lemmas::lemma1_filter(&qm, &xm, tau), "pruned a match d={}", d);
        }
        if lemmas::lemma2_match(&qm, &xm, tau) {
            prop_assert!(d <= tau + 1e-4, "matched a non-match d={}", d);
        }
    }

    /// A mapped vector is always contained in the bounds of its leaf cell
    /// and of every ancestor cell.
    #[test]
    fn grid_containment(seed in 0u64..10_000, levels in 1usize..8) {
        let dim = 8;
        let v = unit_vec(dim, seed);
        let pivots: Vec<Vec<f32>> = (0..3).map(|i| unit_vec(dim, 31 + i)).collect();
        let mapped: Vec<f32> = pivots.iter().map(|p| Euclidean.dist(&v, p)).collect();
        let params = GridParams::new(3, levels, 2.0 + 1e-4).unwrap();
        let mut key = params.leaf_key(&mapped);
        for level in (1..=levels).rev() {
            let b = params.bounds(key, level);
            for (i, &mc) in mapped.iter().enumerate().take(3) {
                prop_assert!(
                    b.lower[i] <= mc + 1e-4 && mc <= b.upper[i] + 1e-4,
                    "level {} dim {}: {} not in [{}, {}]",
                    level, i, mapped[i], b.lower[i], b.upper[i]
                );
            }
            key = key.parent();
        }
    }

    /// `leaf_key` equals the `floor`-then-`clamp` formula it replaced, for
    /// every `f32` bit pattern (NaN, ±0.0, negatives, infinities, values at
    /// or past the span) and for values near the span's cell edges, at
    /// every level 1..=MAX_LEVELS.
    #[test]
    fn leaf_key_equals_floor_then_clamp(
        bits in proptest::collection::vec(0u32..u32::MAX, 4),
        near in proptest::collection::vec(-0.5f32..2.5, 4),
        levels in 1usize..=MAX_LEVELS,
        span in 0.5f32..4.0,
    ) {
        let params = GridParams::new(4, levels, span).unwrap();
        let floor_then_clamp = |coords: &[f32]| -> CellKey {
            let cells = (1u32 << levels) as f32;
            let idx: Vec<u8> = coords
                .iter()
                .map(|&c| (c / span * cells).floor().clamp(0.0, cells - 1.0) as u8)
                .collect();
            CellKey::pack(&idx)
        };
        let special = [f32::NAN, -0.0, 0.0, -1.0, span, span * 2.0, f32::INFINITY, f32::NEG_INFINITY];
        let edge = span / (1u32 << levels) as f32;
        let coords: Vec<Vec<f32>> = vec![
            bits.iter().map(|&b| f32::from_bits(b)).collect(),
            near.iter().map(|&c| c * span).collect(),
            // Multiples of the leaf width and their neighbours.
            (0..4).map(|i| edge * (bits[i] % 300) as f32).collect(),
            (0..4).map(|i| (edge * (bits[i] % 300) as f32).next_down()).collect(),
            (0..4).map(|i| special[bits[i] as usize % special.len()]).collect(),
        ];
        for c in &coords {
            prop_assert_eq!(params.leaf_key(c), floor_then_clamp(c), "{:?}", c);
        }
    }

    /// Cell-key pack/unpack/parent arithmetic is consistent.
    #[test]
    fn cell_key_arithmetic(indices in proptest::collection::vec(0u8..=255, 1..16)) {
        let key = CellKey::pack(&indices);
        prop_assert_eq!(key.unpack(indices.len()), indices.clone());
        let parent = key.parent().unpack(indices.len());
        for (p, i) in parent.iter().zip(indices.iter()) {
            prop_assert_eq!(*p, i >> 1);
        }
    }

    /// The paper's JSD is symmetric and non-negative; the true
    /// Jensen–Shannon divergence is additionally bounded by ln 2.
    #[test]
    fn divergence_properties(
        a in proptest::collection::vec(0.01f64..1.0, 8),
        b in proptest::collection::vec(0.01f64..1.0, 8),
    ) {
        let norm = |v: &[f64]| {
            let s: f64 = v.iter().sum();
            v.iter().map(|x| x / s).collect::<Vec<f64>>()
        };
        let a = norm(&a);
        let b = norm(&b);
        let j = jsd_paper(&a, &b);
        prop_assert!(j >= -1e-12);
        prop_assert!((j - jsd_paper(&b, &a)).abs() < 1e-9, "symmetry");
        prop_assert!(jsd_paper(&a, &a).abs() < 1e-12);
        let js = jensen_shannon(&a, &b);
        prop_assert!((-1e-12..=std::f64::consts::LN_2 + 1e-9).contains(&js));
    }

    /// The log form the partitioner evaluates, `½·Σ(a − b)(ln a − ln b)`,
    /// is the paper's JSD to 1e-12 relative on smoothed histograms, is
    /// symmetric, and is 0 on itself. The 1e-14 absolute slack covers
    /// near-identical histograms: there `ln a − ln b` cancels, and rounding
    /// in each logarithm (≤ |ln p|·2⁻⁵³ with |ln p| < 14 at ε = 1e-6) is a
    /// larger share of a divergence near 1e-6.
    #[test]
    fn log_form_jsd_equals_the_reference(
        bins in 2usize..=64,
        xs in proptest::collection::vec(-1.0f32..1.0, 1..64),
        ys in proptest::collection::vec(-1.0f32..1.0, 1..64),
    ) {
        let a = Pdf::from_values(xs, -1.0, 1.0, bins).smoothed(1e-6);
        let b = Pdf::from_values(ys, -1.0, 1.0, bins).smoothed(1e-6);
        let ln = |p: &[f64]| p.iter().map(|x| x.ln()).collect::<Vec<f64>>();
        let (ln_a, ln_b) = (ln(&a), ln(&b));
        let reference = jsd_paper(&a, &b);
        let log_form = jsd_from_logs(&a, &ln_a, &b, &ln_b);
        prop_assert!(
            (log_form - reference).abs() <= 1e-12 * reference.abs() + 1e-14,
            "log form {} vs reference {}", log_form, reference
        );
        prop_assert_eq!(log_form, jsd_from_logs(&b, &ln_b, &a, &ln_a));
        prop_assert_eq!(jsd_from_logs(&a, &ln_a, &a, &ln_a), 0.0);
    }

    /// Histogram mass queries upper-bound the true fraction of values in a
    /// range (bins overlapping the range count fully).
    #[test]
    fn histogram_mass_is_upper_bound(
        values in proptest::collection::vec(0.0f32..1.0, 1..200),
        a in 0.0f32..1.0,
        width in 0.0f32..0.5,
    ) {
        let h = Pdf::from_values(values.iter().copied(), 0.0, 1.0, 16);
        let b = (a + width).min(1.0);
        let actual = values.iter().filter(|&&v| v >= a && v <= b).count() as f64
            / values.len() as f64;
        prop_assert!(h.mass_in(a, b) + 1e-9 >= actual);
    }

    /// Persist round-trip: a freshly built index and its reloaded twin
    /// return identical results (spot-checked with one query).
    #[test]
    fn persist_roundtrip(seed in 0u64..300) {
        use pexeso_core::prelude::*;
        use pexeso_core::persist::{load_index, save_index};
        let dim = 8;
        let mut columns = ColumnSet::new(dim);
        for c in 0..5 {
            let vecs: Vec<Vec<f32>> = (0..8).map(|i| unit_vec(dim, seed * 100 + c * 10 + i)).collect();
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns.add_column("t", &format!("c{c}"), c, refs).unwrap();
        }
        let mut query = VectorStore::new(dim);
        for i in 0..4 {
            query.push(&unit_vec(dim, seed * 7 + i)).unwrap();
        }
        let index = PexesoIndex::build(columns, Euclidean, IndexOptions::default()).unwrap();
        let path = std::env::temp_dir().join(format!("pexeso_prop_persist_{seed}_{}.pex", std::process::id()));
        save_index(&index, &path).unwrap();
        let loaded = load_index(&path, Euclidean).unwrap();
        std::fs::remove_file(&path).ok();
        let tau = Tau::Ratio(0.2);
        let t = JoinThreshold::Ratio(0.5);
        let q = Query::threshold(tau, t);
        let a = index.execute(&q, &query).unwrap();
        let b = loaded.execute(&q, &query).unwrap();
        prop_assert_eq!(a.hits, b.hits);
    }

    /// Top-k invariants, with the brute-force oracle supplying exact
    /// per-column scores:
    ///
    /// * the result is sorted by count descending, column id ascending;
    /// * at most `k` hits, all with positive *exact* counts;
    /// * the k-th (worst returned) entry outranks every excluded column;
    /// * growing k only appends: `topk(k)` is a prefix of `topk(k + 1)`.
    #[test]
    fn topk_invariants(seed in 0u64..400, k in 0usize..14, tau_r in 0.05f32..0.6) {
        use pexeso_core::prelude::*;
        use pexeso_core::oracle;
        let dim = 8;
        let mut columns = ColumnSet::new(dim);
        for c in 0..9 {
            let vecs: Vec<Vec<f32>> = (0..10).map(|i| unit_vec(dim, seed * 131 + c * 17 + i)).collect();
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns.add_column("t", &format!("c{c}"), c, refs).unwrap();
        }
        let mut query = VectorStore::new(dim);
        for i in 0..6 {
            query.push(&unit_vec(dim, seed * 13 + 1000 + i)).unwrap();
        }
        let index = PexesoIndex::build(
            columns.clone(),
            Euclidean,
            IndexOptions { num_pivots: 3, levels: Some(3), ..Default::default() },
        ).unwrap();
        let tau = Tau::Ratio(tau_r);
        let exact = oracle::match_counts(&columns, &Euclidean, &query, tau, None).unwrap();
        // External ids equal insertion order here, so the unified
        // external-id tie-break matches the oracle's column-id one.
        let res = index.execute(&Query::topk(tau, k), &query).unwrap();

        prop_assert!(res.hits.len() <= k);
        for w in res.hits.windows(2) {
            prop_assert!(
                w[0].match_count > w[1].match_count
                    || (w[0].match_count == w[1].match_count
                        && w[0].external_id < w[1].external_id),
                "not in rank order: {:?}", res.hits
            );
        }
        for h in &res.hits {
            prop_assert!(h.match_count > 0);
            prop_assert_eq!(h.match_count, exact[h.external_id as usize], "count not exact");
        }
        let included: Vec<u32> = res.hits.iter().map(|h| h.external_id as u32).collect();
        if res.hits.len() == k {
            if let Some(last) = res.hits.last() {
                for (c, &cnt) in exact.iter().enumerate() {
                    if cnt > 0 && !included.contains(&(c as u32)) {
                        prop_assert!(
                            last.match_count > cnt
                                || (last.match_count == cnt && (last.external_id as u32) < c as u32),
                            "excluded column {c} (count {cnt}) outranks the k-th hit {last:?}"
                        );
                    }
                }
            }
        } else {
            // Fewer than k hits: every positive column must be included.
            let positive = exact.iter().filter(|&&c| c > 0).count();
            prop_assert_eq!(res.hits.len(), positive);
        }
        let bigger = index.execute(&Query::topk(tau, k + 1), &query).unwrap();
        prop_assert_eq!(
            &res.hits[..],
            &bigger.hits[..res.hits.len().min(bigger.hits.len())],
            "topk({}) is not a prefix of topk({})", k, k + 1
        );
    }

    /// Threshold monotonicity: raising T (or shrinking τ) can only shrink
    /// the answer set, and every T-answer is a subset of the T = 1 answer.
    #[test]
    fn threshold_search_monotone_in_t_and_tau(seed in 0u64..400, t_lo in 0.1f64..0.5, dt in 0.0f64..0.5) {
        use pexeso_core::prelude::*;
        let dim = 8;
        let mut columns = ColumnSet::new(dim);
        for c in 0..8 {
            let vecs: Vec<Vec<f32>> = (0..10).map(|i| unit_vec(dim, seed * 97 + c * 29 + i)).collect();
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns.add_column("t", &format!("c{c}"), c, refs).unwrap();
        }
        let mut query = VectorStore::new(dim);
        for i in 0..6 {
            query.push(&unit_vec(dim, seed * 11 + 500 + i)).unwrap();
        }
        let index = PexesoIndex::build(
            columns,
            Euclidean,
            IndexOptions { num_pivots: 3, levels: Some(3), ..Default::default() },
        ).unwrap();
        let tau = Tau::Ratio(0.3);
        let t_hi = (t_lo + dt).min(1.0);
        let ids = |r: &QueryResponse| r.hits.iter().map(|h| h.external_id).collect::<Vec<u64>>();
        let lo = ids(&index.execute(&Query::threshold(tau, JoinThreshold::Ratio(t_lo)), &query).unwrap());
        let hi = ids(&index.execute(&Query::threshold(tau, JoinThreshold::Ratio(t_hi)), &query).unwrap());
        prop_assert!(hi.iter().all(|c| lo.contains(c)), "T raised must not grow the answer set");
        let tight = ids(&index.execute(&Query::threshold(Tau::Ratio(0.1), JoinThreshold::Ratio(t_lo)), &query).unwrap());
        prop_assert!(tight.iter().all(|c| lo.contains(c)), "τ↓ grew the answer set");
    }

    /// Mapping then measuring max_coord never exceeds the metric bound for
    /// unit vectors.
    #[test]
    fn mapping_respects_span(seed in 0u64..2000) {
        let dim = 12;
        let mut store = VectorStore::new(dim);
        for i in 0..20 {
            store.push(&unit_vec(dim, seed * 31 + i)).unwrap();
        }
        let pivots: Vec<Vec<f32>> = (0..4).map(|i| unit_vec(dim, seed * 57 + i)).collect();
        let mapped = MappedVectors::build(&store, &pivots, &Euclidean, None).unwrap();
        prop_assert!(mapped.max_coord() <= Euclidean.max_dist_unit(dim) + 1e-4);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    /// A log-bucketed quantile estimate is conservative (at or above the
    /// exact order statistic) and never off by more than the width of the
    /// bucket the exact value lands in.
    #[test]
    fn hist_quantile_within_one_bucket_of_exact(
        values in proptest::collection::vec(0u64..5_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let h = AtomicHistogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let mut values = values;
        values.sort_unstable();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1];
        let est = snap.quantile(q);
        prop_assert!(est >= exact, "estimate {est} below exact {exact}");
        let i = bucket_index(exact);
        prop_assert!(
            est - exact <= bucket_width(i),
            "estimate {est} more than one bucket ({}) above exact {exact}",
            bucket_width(i)
        );
    }

    /// Merging snapshots is associative and order-independent: however
    /// three shards fold, every bucket, the count, and the sum agree.
    #[test]
    fn hist_merge_is_associative(
        a in proptest::collection::vec(0u64..1_000_000, 0..100),
        b in proptest::collection::vec(0u64..1_000_000, 0..100),
        c in proptest::collection::vec(0u64..1_000_000, 0..100),
    ) {
        let snap = |vals: &[u64]| {
            let h = AtomicHistogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let (sa, sb, sc) = (snap(&a), snap(&b), snap(&c));
        // (a ⊕ b) ⊕ c
        let mut left = sa.clone();
        left.merge(&sb);
        left.merge(&sc);
        // a ⊕ (b ⊕ c)
        let mut right = sb.clone();
        right.merge(&sc);
        let mut outer = sa.clone();
        outer.merge(&right);
        prop_assert_eq!(&left, &outer);
        // c ⊕ b ⊕ a — commutes too.
        let mut rev = sc;
        rev.merge(&sb);
        rev.merge(&sa);
        prop_assert_eq!(&left, &rev);
        prop_assert_eq!(left.count, (a.len() + b.len() + c.len()) as u64);
    }

    /// Values beyond the top bucket's range saturate into it instead of
    /// panicking or wrapping, and the quantile then reports the top
    /// bucket's bound.
    #[test]
    fn hist_saturates_at_top_bucket(v in 0u64..=u64::MAX) {
        let top = bucket_upper_bound(NUM_BUCKETS - 1);
        let h = AtomicHistogram::new();
        h.record(v);
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, 1);
        prop_assert_eq!(snap.buckets.iter().sum::<u64>(), 1);
        prop_assert!(bucket_index(v) < NUM_BUCKETS);
        if v >= top {
            prop_assert_eq!(bucket_index(v), NUM_BUCKETS - 1, "must clamp to the last bucket");
            prop_assert_eq!(snap.quantile(1.0), top);
        } else {
            prop_assert!(snap.quantile(1.0) >= v);
        }
    }
}

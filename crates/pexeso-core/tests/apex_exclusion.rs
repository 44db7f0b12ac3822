//! The apex-box exclusion is exact: a candidate cell the n-simplex bound
//! drops holds no vector within τ of the query vector, on random Euclidean
//! lakes built to stress it — rows on the pivots' span (where the last
//! apex coordinate is a square root near zero), nearly collinear pivots,
//! duplicate vectors, and τ equal to the distance of one query vector to
//! one row — and every answer equals the brute-force oracle. Metrics
//! without the projection get no boxes and exclude nothing.

use proptest::prelude::*;

use pexeso_core::mapping::MappedVectors;
use pexeso_core::metric::{Angular, Chebyshev, Manhattan};
use pexeso_core::oracle;
use pexeso_core::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 8;

fn unit(rng: &mut StdRng) -> Vec<f32> {
    let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

/// How the lake's vectors are drawn.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Unit vectors in general position.
    Spread,
    /// Points of one 2-d plane: with three pivots drawn from them, every
    /// row lies on the pivots' span.
    Plane,
    /// Points of a thin strip around a line: the pivots are nearly
    /// collinear.
    Strip,
}

/// A lake of `n_cols` columns, a query column and a τ that is the exact
/// distance of one query vector to one row. Some rows repeat others, in
/// the same column and across columns; some query vectors lie a small
/// step from a row (on the plane or strip when the lake is one).
fn lake(seed: u64, shape: Shape, n_cols: usize) -> (ColumnSet, VectorStore, f32) {
    let mut rng = StdRng::seed_from_u64(seed);
    let origin: Vec<f32> = unit(&mut rng).iter().map(|x| x * 0.5).collect();
    let (e1, e2) = (unit(&mut rng), unit(&mut rng));
    let along = |v: &[f32], dir: &[f32], t: f32| -> Vec<f32> {
        v.iter().zip(dir).map(|(x, d)| x + t * d).collect()
    };
    let width = match shape {
        Shape::Strip => 0.02,
        _ => 0.4,
    };
    let draw = |rng: &mut StdRng| -> Vec<f32> {
        match shape {
            Shape::Spread => unit(rng),
            Shape::Plane | Shape::Strip => {
                // Two such points are under 1.7 apart: every query vector
                // maps inside the index's pivot-space span.
                let v = along(&origin, &e1, rng.gen_range(-0.4f32..0.4));
                along(&v, &e2, rng.gen_range(-width..width))
            }
        }
    };
    let mut columns = ColumnSet::new(DIM);
    let mut rows: Vec<Vec<f32>> = Vec::new();
    for c in 0..n_cols {
        let len = rng.gen_range(1usize..8);
        let vecs: Vec<Vec<f32>> = (0..len)
            .map(|_| {
                if !rows.is_empty() && rng.gen_range(0u32..5) == 0 {
                    rows[rng.gen_range(0..rows.len())].clone()
                } else {
                    draw(&mut rng)
                }
            })
            .collect();
        rows.extend(vecs.iter().cloned());
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns
            .add_column("t", &format!("c{c}"), c as u64, refs)
            .unwrap();
    }
    // The first query vector lies a step of 1e-5 to 1e-2 from a row, and
    // τ is its exact distance to that row: on the plane, where both apexes'
    // last coordinates are square roots of rounding noise, a bound that
    // does not widen for that noise excludes the row's cell.
    let mut query = VectorStore::new(DIM);
    let mut tau = 0.0;
    for i in 0..rng.gen_range(2usize..8) {
        if i > 0 && rng.gen_range(0u32..2) == 0 {
            query.push(&draw(&mut rng)).unwrap();
            continue;
        }
        let row = &rows[rng.gen_range(0..rows.len())];
        let dir = match shape {
            Shape::Spread => unit(&mut rng),
            _ => e1.clone(),
        };
        let step = 10f32.powf(rng.gen_range(-5.0f32..-2.0));
        let v = along(row, &dir, step);
        if i == 0 {
            tau = Euclidean.dist(&v, row);
        }
        query.push(&v).unwrap();
    }
    (columns, query, tau)
}

/// For every query vector and every cell of the index, not only the
/// candidates blocking hands the scan: a cell the apex bound excludes
/// holds no row within `tau`. Returns how many pairs it excluded.
fn excluded_pairs_hold_no_match(
    index: &PexesoIndex<Euclidean>,
    query: &VectorStore,
    tau: f32,
) -> u64 {
    let inv = index.inverted_index();
    let Some(boxes) = inv.apex() else {
        return 0;
    };
    let mapped = MappedVectors::build(query, index.pivots(), &Euclidean, None).unwrap();
    let store = index.columns().store();
    let rows = inv.rows();
    let mut excluded = 0;
    for (qi, q) in query.iter().enumerate() {
        let apex = boxes.query(mapped.get(qi));
        for (&key, postings) in inv.iter_cells() {
            let cell = inv.cell_of(key).unwrap();
            if !boxes.excludes(cell, &apex, tau) {
                continue;
            }
            excluded += 1;
            for r in postings.rows() {
                let x = store.get_raw(rows.vid[r] as usize);
                assert!(
                    !Euclidean.dist_le(q, x, tau),
                    "cell {key:?} excluded for query vector {qi}, but holds vector {} at {} <= {tau}",
                    rows.vid[r],
                    Euclidean.dist(q, x)
                );
            }
        }
    }
    excluded
}

fn counts_of(hits: &[GlobalHit]) -> Vec<(u64, u32)> {
    hits.iter()
        .map(|h| (h.external_id, h.match_count))
        .collect()
}

/// The index answers a threshold and a top-k query like the oracle.
fn answers_equal_the_oracle<M: Metric>(
    index: &PexesoIndex<M>,
    query: &VectorStore,
    tau: f32,
) -> SearchStats {
    let columns = index.columns();
    let n_cols = columns.n_columns();
    let tau = Tau::Absolute(tau);
    let expected = oracle::topk(columns, index.metric(), query, tau, n_cols, None).unwrap();
    let got = index.execute(&Query::topk(tau, n_cols), query).unwrap();
    let expected: Vec<(u64, u32)> = expected
        .iter()
        .map(|h| (h.column.0 as u64, h.match_count))
        .collect();
    assert_eq!(counts_of(&got.hits), expected, "top-k");
    let mut stats = got.stats;
    for t in 1..=query.len() {
        let t = JoinThreshold::Count(t);
        let expected =
            oracle::threshold_search(columns, index.metric(), query, tau, t, None).unwrap();
        let resp = index.execute(&Query::threshold(tau, t), query).unwrap();
        let got: Vec<u64> = resp.hits.iter().map(|h| h.external_id).collect();
        let expected: Vec<u64> = expected.iter().map(|h| h.column.0 as u64).collect();
        assert_eq!(got, expected, "threshold {t:?}");
        stats.merge(&resp.stats);
    }
    stats
}

fn options(pivots: usize, levels: usize, selection: PivotSelection, seed: u64) -> IndexOptions {
    IndexOptions {
        num_pivots: pivots,
        levels: Some(levels),
        pivot_selection: selection,
        seed,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    #[test]
    fn apex_exclusion_is_exact(
        seed in 0u64..1_000_000,
        shape in 0u8..3,
        n_cols in 3usize..10,
        pivots in 2usize..5,
        levels in 1usize..6,
        selection in 0u8..3,
    ) {
        let shape = [Shape::Spread, Shape::Plane, Shape::Strip][shape as usize];
        // Three pivots on a plane span it; four would be dependent.
        let pivots = match shape {
            Shape::Spread => pivots,
            _ => pivots.min(3),
        };
        let selection = [PivotSelection::Pca, PivotSelection::Random, PivotSelection::FarthestFirst]
            [selection as usize];
        let (columns, query, tau) = lake(seed, shape, n_cols);
        let index = PexesoIndex::build(columns, Euclidean, options(pivots, levels, selection, seed))
            .unwrap();
        excluded_pairs_hold_no_match(&index, &query, tau);
        let stats = answers_equal_the_oracle(&index, &query, tau);
        if index.inverted_index().apex().is_none() {
            prop_assert_eq!(stats.apex_excluded, 0);
        }
    }
}

/// The bound does prune: on lakes in general position it drops candidate
/// pairs, and on a plane with three pivots, where every row's last apex
/// coordinate is a square root near zero, it still finds cells to drop.
#[test]
fn apex_exclusion_drops_candidate_pairs() {
    for (shape, pivots) in [(Shape::Spread, 4), (Shape::Plane, 3)] {
        let (mut excluded, mut dropped) = (0, 0);
        for seed in 0..8u64 {
            let (columns, query, _) = lake(seed, shape, 40);
            let index = PexesoIndex::build(
                columns,
                Euclidean,
                options(pivots, 4, PivotSelection::Pca, seed),
            )
            .unwrap();
            for tau in [0.05f32, 0.2] {
                excluded += excluded_pairs_hold_no_match(&index, &query, tau);
                dropped += answers_equal_the_oracle(&index, &query, tau).apex_excluded;
            }
        }
        assert!(
            excluded > 0 && dropped > 0,
            "{shape:?}: {excluded} {dropped}"
        );
    }
}

/// Only a Euclidean index keeps apex boxes; the others exclude nothing and
/// still answer like the oracle.
#[test]
fn metrics_without_the_projection_exclude_nothing() {
    fn check<M: Metric>(metric: M) {
        for seed in 0..4u64 {
            let (columns, query, _) = lake(seed, Shape::Spread, 12);
            let index = PexesoIndex::build(
                columns,
                metric.clone(),
                options(3, 3, PivotSelection::Pca, seed),
            )
            .unwrap();
            assert!(index.inverted_index().apex().is_none(), "{}", metric.name());
            let tau = 0.3 * metric.max_dist_unit(DIM);
            let stats = answers_equal_the_oracle(&index, &query, tau);
            assert_eq!(stats.apex_excluded, 0, "{}", metric.name());
        }
    }
    check(Manhattan);
    check(Chebyshev);
    check(Angular);
}

//! The n-simplex bounds are exact. A candidate cell the apex-box bound
//! drops holds no vector within τ of the query vector, a row the row
//! bound rejects is not within τ, and a row the reflected bound accepts
//! is — on random Euclidean lakes built to stress them: rows on the
//! pivots' span (where the last apex coordinate is a square root near
//! zero), nearly collinear pivots, duplicate vectors, query vectors
//! 1e-5…1e-2 from a row with τ their exact distance, and pivot
//! coordinates off by as much as the bounds allow for — and every answer
//! equals the brute-force oracle. Metrics without the projection get no
//! apexes: their rows keep pivot coordinates, and nothing is excluded.

use proptest::prelude::*;

use pexeso_core::grid::GridParams;
use pexeso_core::inspect::PivotSpread;
use pexeso_core::invindex::{InvertedIndex, SimplexBase};
use pexeso_core::kernel::{self, LiveColumns, SimplexLanes};
use pexeso_core::lemmas::simplex_match;
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
    // Row `r`'s vector is held at `r`.
    let store = index.columns().store();
    let mut excluded = 0;
    for (qi, q) in query.iter().enumerate() {
        let apex = boxes.query(mapped.get(qi));
        for cell in 0..inv.num_cells() as u32 {
            if !boxes.excludes(cell, &apex, tau) {
                continue;
            }
            excluded += 1;
            for r in inv.cell(cell) {
                let x = store.get_raw(r);
                assert!(
                    !Euclidean.dist_le(q, x, tau),
                    "cell {cell} excluded for query vector {qi}, but holds row {r} at {} <= {tau}",
                    Euclidean.dist(q, x)
                );
            }
        }
    }
    excluded
}

/// Up to this much off the exact distance: how far the index lets a
/// stored pivot coordinate stray (Lemma 1's `EPS`, 1e-5), less the `f32`
/// rounding of the sum.
const COORD_NOISE: f32 = 0.9e-5;

/// `v`'s pivot coordinates as an index may hold them: each exact (`f64`)
/// distance moved by up to [`COORD_NOISE`].
fn rough_map(v: &[f32], pivots: &[Vec<f32>], rng: &mut StdRng) -> Vec<f32> {
    pivots
        .iter()
        .map(|p| {
            let exact: f64 = v
                .iter()
                .zip(p)
                .map(|(&a, &b)| (a as f64 - b as f64).powi(2))
                .sum::<f64>()
                .sqrt();
            (exact as f32 + rng.gen_range(-COORD_NOISE..COORD_NOISE)).max(0.0)
        })
        .collect()
}

/// The row bounds against the exact test, over every row of every cell
/// (not only the candidates blocking hands the scan), for every query
/// vector at the lake's τ and at the exact distance to its nearest row.
/// The index is laid out from pivot coordinates off by up to
/// [`COORD_NOISE`], the query vectors' too. Rows are rejected through the
/// stage-1 kernel ([`kernel::simplex_rows`], every column live), and each
/// row's `f32` test ([`SimplexLanes::rejects`], the kernel's lanes) keeps
/// the row at the tightest reach the exact bound allows, its own `f64`
/// squared gap. Returns how many rows the lower bound rejected and the
/// upper bound accepted.
fn row_bounds_hold(
    index: &PexesoIndex<Euclidean>,
    query: &VectorStore,
    tau: f32,
    seed: u64,
) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let columns = index.columns().id_ordered();
    let store = columns.store();
    let pivots = index.pivots();
    let rough: Vec<f32> = store
        .iter()
        .flat_map(|v| rough_map(v, pivots, &mut rng))
        .collect();
    let rough = MappedVectors::from_raw(pivots.len(), rough).unwrap();
    let Some(base) = SimplexBase::of(pivots, &Euclidean) else {
        return (0, 0);
    };
    let params = GridParams {
        span: index.grid_params().span + 1e-3,
        ..index.grid_params().clone()
    };
    let vec_col = columns.vector_to_column();
    let (inv, vids) = InvertedIndex::build(&params, &rough, &vec_col, Some(base)).unwrap();
    let boxes = inv.apex().expect("a base gives apexes");
    let rows = inv.rows();
    let n = pivots.len();
    let state = vec![0u32; columns.n_columns()];
    let live = LiveColumns {
        c_lo: 0,
        state: &state,
        gen: 1,
    };
    let mut buf = vec![0u32; vids.len()];
    let (mut rejected, mut accepted) = (0, 0);
    for q in query.iter() {
        let apex = boxes.query(&rough_map(q, pivots, &mut rng));
        let nearest = store
            .iter()
            .map(|x| Euclidean.dist(q, x))
            .fold(f32::INFINITY, f32::min);
        for tau in [tau, nearest] {
            for cell in 0..inv.num_cells() as u32 {
                let (beyond, within) = boxes.row_reach(cell, tau);
                let window = inv.cell(cell);
                let lanes = SimplexLanes::new(&apex, n, beyond);
                let coords = &rows.coords.raw_data()[window.start * n..window.end * n];
                let (kept, far) = kernel::simplex_rows(
                    coords,
                    &rows.col[window.clone()],
                    window.start as u32,
                    live,
                    &lanes,
                    &mut buf,
                );
                assert_eq!(kept as u64 + far, window.len() as u64);
                let mut survivors = buf[..kept].iter().map(|&r| r as usize).peekable();
                for r in window {
                    let x = store.get_raw(vids[r] as usize);
                    let coords = rows.coords.get(r);
                    let matches = Euclidean.dist_le(q, x, tau);
                    assert!(
                        !lanes.at(apex.gap2(coords)).rejects(coords),
                        "row {r} rejected at its exact squared gap {}",
                        apex.gap2(coords)
                    );
                    if survivors.next_if_eq(&r).is_none() {
                        rejected += 1;
                        assert!(
                            !matches,
                            "row {r} (vector {}) rejected at tau {tau}, but lies at {}",
                            vids[r],
                            Euclidean.dist(q, x)
                        );
                    }
                    if simplex_match(&apex, coords, within) {
                        accepted += 1;
                        assert!(
                            matches,
                            "row {r} (vector {}) accepted at tau {tau}, but lies at {}",
                            vids[r],
                            Euclidean.dist(q, x)
                        );
                    }
                }
                assert!(survivors.next().is_none(), "survivors in row order");
            }
        }
    }
    (rejected, accepted)
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

    #[test]
    fn row_bounds_are_exact(
        seed in 0u64..1_000_000,
        shape in 0u8..3,
        n_cols in 3usize..10,
        pivots in 2usize..5,
        selection in 0u8..3,
    ) {
        let shape = [Shape::Spread, Shape::Plane, Shape::Strip][shape as usize];
        let pivots = match shape {
            Shape::Spread => pivots,
            _ => pivots.min(3),
        };
        let selection = [PivotSelection::Pca, PivotSelection::Random, PivotSelection::FarthestFirst]
            [selection as usize];
        let (columns, query, tau) = lake(seed, shape, n_cols);
        let index = PexesoIndex::build(columns, Euclidean, options(pivots, 3, selection, seed))
            .unwrap();
        row_bounds_hold(&index, &query, tau, seed);
    }
}

/// The row bounds do decide rows, on every shape of lake: some rows are
/// rejected, and some accepted without a distance computation.
#[test]
fn row_bounds_reject_and_accept_rows() {
    for (shape, pivots) in [(Shape::Spread, 4), (Shape::Plane, 3), (Shape::Strip, 3)] {
        let (mut rejected, mut accepted) = (0, 0);
        for seed in 0..8u64 {
            let (columns, query, _) = lake(seed, shape, 30);
            let index = PexesoIndex::build(
                columns,
                Euclidean,
                options(pivots, 3, PivotSelection::Pca, seed),
            )
            .unwrap();
            for tau in [0.05f32, 0.3, 1.2] {
                let (r, a) = row_bounds_hold(&index, &query, tau, seed);
                (rejected, accepted) = (rejected + r, accepted + a);
            }
        }
        assert!(
            rejected > 0 && accepted > 0,
            "{shape:?}: {rejected} {accepted}"
        );
    }
}

/// What the apex rows leave unchanged: a Euclidean index's rows hold
/// apexes and a Manhattan index's its pivot coordinates, `rv_mapped()` is
/// a fresh mapping in row order for both, and the pivot spread
/// `inspect()` reports is that of a fresh mapping.
#[test]
fn apex_rows_leave_the_pivot_surfaces_unchanged() {
    fn check<M: Metric>(metric: M, apexes: bool) {
        let (columns, _, _) = lake(5, Shape::Spread, 20);
        let index = PexesoIndex::build(
            columns,
            metric.clone(),
            options(3, 3, PivotSelection::Pca, 5),
        )
        .unwrap();
        // The index holds its vectors in row order.
        let by_row =
            MappedVectors::build(index.columns().store(), index.pivots(), &metric, None).unwrap();
        let inv = index.inverted_index();
        assert_eq!(inv.apex().is_some(), apexes, "{}", metric.name());
        let rows = inv.rows();
        for r in 0..by_row.len() {
            assert_eq!(index.rv_mapped().get(r), by_row.get(r));
            assert_eq!(rows.coords.get(r) == by_row.get(r), !apexes);
        }
        assert_eq!(index.rv_mapped().len(), by_row.len());
        assert_eq!(
            index.inspect().pivot_spread,
            PivotSpread::of(by_row.iter(), by_row.num_pivots())
        );
    }
    check(Euclidean, true);
    check(Manhattan, false);
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

//! Quick profile of the verify hot path, two runs of 10k×64-d vectors in
//! 100 columns. On a uniform lake in exact-count mode (`T > |Q|`, what an
//! unseeded top-k runs), the flat two-stage scan with all lemmas on. Then
//! a terminable scan (`T = 60 %`) of a clustered lake whose query
//! vectors differ widely in candidate rows and whose columns nearly all die
//! at step `|Q| − T + 1` — the case the cheapest-first schedule and the
//! by-live-column cell enumeration exist for. Each run prints ms per run,
//! the distance computations and a wall-clock per distance computation, so
//! kernel work can be separated from loop bookkeeping when tuning, and the
//! candidate ⟨query vector, cell⟩ pairs the apex bound excluded before the
//! scan (`apex_excluded_pairs`). The second also prints what the schedule
//! saves before any distance is computed: the candidate rows under the
//! first `|Q| − T + 1` query vectors in input order and in schedule order,
//! read off the blocked output before the apex bound drops any cell.
//!
//! Run with: `cargo run --release -p pexeso-bench --example verify_profile`

use pexeso::prelude::*;
use pexeso_core::block::{block, quick_browse, BlockOutput};
use pexeso_core::grid::{GridParams, HierarchicalGrid};
use pexeso_core::invindex::{InvertedIndex, SimplexBase};
use pexeso_core::mapping::MappedVectors;
use pexeso_core::pivot::select_pivots;
use pexeso_core::util::FastMap;
use pexeso_core::verify::{verify_with, VerifyContext};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

const DIM: usize = 64;
const N_VECTORS: usize = 10_000;
const N_COLS: usize = 100;
const N_QUERY: usize = 64;
const TAU: f32 = 0.12;
/// Clusters of the clustered lake; their centres sit 0.4 rad apart on a
/// great circle, so the pivot mapping keeps them in different cells.
const N_CLUSTERS: usize = 6;

fn normalised(mut v: Vec<f32>) -> Vec<f32> {
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

fn unit(rng: &mut StdRng) -> Vec<f32> {
    normalised((0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
}

/// A vector around cluster `k`'s centre, far enough from its neighbours
/// (≈ 0.2) that only a copy matches at τ = 0.12. Its angle on the circle
/// varies by up to ±0.1 rad, which the pivots (in the circle's plane)
/// see, so the row bound has rows of a candidate cell to reject.
fn clustered(rng: &mut StdRng, k: usize) -> Vec<f32> {
    let angle = 0.4 * k as f32 + rng.gen_range(-0.1f32..0.1);
    let mut v = vec![0.0f32; DIM];
    (v[0], v[1]) = (angle.cos(), angle.sin());
    v.iter_mut()
        .for_each(|x| *x += 0.03 * rng.gen_range(-1.0f32..1.0));
    normalised(v)
}

/// A lake and a query, mapped, gridded, indexed and blocked.
struct Prepared {
    columns: ColumnSet,
    query: VectorStore,
    rv_mapped: MappedVectors,
    q_mapped: MappedVectors,
    vec_col: Vec<u32>,
    inv: InvertedIndex,
    blocked: BlockOutput,
}

fn prepare(lake: Vec<Vec<Vec<f32>>>, query_vecs: Vec<Vec<f32>>) -> Prepared {
    let mut columns = ColumnSet::new(DIM);
    for (c, vecs) in lake.iter().enumerate() {
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns
            .add_column("t", &format!("c{c}"), c as u64, refs)
            .unwrap();
    }
    let mut query = VectorStore::new(DIM);
    for v in &query_vecs {
        query.push(v).unwrap();
    }
    let metric = Euclidean;
    let pivots = select_pivots(
        columns.store(),
        &metric,
        3,
        pexeso_core::config::PivotSelection::Pca,
        42,
    )
    .unwrap();
    let rv_mapped = MappedVectors::build(columns.store(), &pivots, &metric, None).unwrap();
    let q_mapped = MappedVectors::build(&query, &pivots, &metric, None).unwrap();
    let params = GridParams::new(3, 4, 2.0 + 1e-4).unwrap();
    let hgrv = HierarchicalGrid::build_keys_only(params.clone(), &rv_mapped).unwrap();
    let hgq = HierarchicalGrid::build(params.clone(), &q_mapped).unwrap();
    let vec_col = columns.vector_to_column();
    let base = SimplexBase::of(&pivots, &metric);
    let (inv, order) = InvertedIndex::build(&params, &rv_mapped, &vec_col, base).unwrap();
    // The scan reads row `r`'s vector at `r`.
    let columns = columns.in_order(order).unwrap();
    let mut stats = SearchStats::new();
    let mut seeded = FastMap::default();
    let handled = quick_browse(&hgq, &inv, &mut seeded, &mut stats);
    // The cell-level lemmas stay on in every run, so runs over one lake
    // scan the same blocked pairs.
    let blocked = block(
        &hgq,
        &hgrv,
        &q_mapped,
        TAU,
        LemmaFlags::all(),
        Some(&handled),
        seeded,
        &mut stats,
    );
    Prepared {
        columns,
        query,
        rv_mapped,
        q_mapped,
        vec_col,
        inv,
        blocked,
    }
}

/// Time one configuration of the scan and print its section.
fn profile(label: &str, p: &Prepared, t_abs: usize, flags: LemmaFlags) -> SearchStats {
    let ctx = VerifyContext {
        columns: &p.columns,
        vec_col: &p.vec_col,
        rv_mapped: &p.rv_mapped,
        inv: &p.inv,
        metric: &Euclidean,
        query: &p.query,
        query_mapped: &p.q_mapped,
        tau: TAU,
        t_abs,
        flags,
        deleted: None,
    };
    // Warm up, then time.
    for _ in 0..3 {
        let mut s = SearchStats::new();
        verify_with(&ctx, &p.blocked, &mut s, ExecPolicy::Sequential);
    }
    let reps = 20;
    let started = Instant::now();
    let mut last = SearchStats::new();
    for _ in 0..reps {
        let mut s = SearchStats::new();
        verify_with(&ctx, &p.blocked, &mut s, ExecPolicy::Sequential);
        last = s;
    }
    let per_rep = started.elapsed() / reps;
    println!("{label}:");
    println!("  ms per run: {:.3}", per_rep.as_secs_f64() * 1e3);
    println!("  lemma1_filtered: {}", last.lemma1_filtered);
    println!("  distance_computations: {}", last.distance_computations);
    println!("  apex_excluded_pairs: {}", last.apex_excluded);
    println!(
        "  ns per distance computation (incl. loop): {:.2}",
        per_rep.as_nanos() as f64 / last.distance_computations as f64
    );
    last
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let per_col = N_VECTORS / N_COLS;

    let lake = (0..N_COLS)
        .map(|_| (0..per_col).map(|_| unit(&mut rng)).collect())
        .collect();
    let query = (0..N_QUERY).map(|_| unit(&mut rng)).collect();
    let uniform = prepare(lake, query);
    let n_cand: usize = uniform
        .blocked
        .candidates
        .iter()
        .map(|(_, c)| c.len())
        .sum();
    println!("candidate cells (all q): {n_cand}");
    profile(
        "all lemmas (flat scan)",
        &uniform,
        N_QUERY + 1,
        LemmaFlags::all(),
    );

    // Clustered lake: cluster k holds a share of every column that grows
    // with k², so a query vector's candidate rows depend on its cluster.
    // Every tenth column also repeats most of the query and is joinable;
    // the others match nothing and die together.
    let query: Vec<Vec<f32>> = (0..N_QUERY)
        .map(|i| clustered(&mut rng, i % N_CLUSTERS))
        .collect();
    let total_weight: usize = (1..=N_CLUSTERS).map(|k| k * k).sum();
    let lake = (0..N_COLS)
        .map(|c| {
            let copies = if c % 10 == 3 { N_QUERY * 3 / 4 } else { 0 };
            let mut vecs: Vec<Vec<f32>> = query[..copies].to_vec();
            for k in 0..N_CLUSTERS {
                let share = (per_col - copies) * (k + 1) * (k + 1) / total_weight;
                vecs.extend((0..share).map(|_| clustered(&mut rng, k)));
            }
            vecs
        })
        .collect();
    let clustered_lake = prepare(lake, query);
    let t_abs = (N_QUERY * 6).div_ceil(10);
    let stats = profile(
        "terminable, clustered (schedule)",
        &clustered_lake,
        t_abs,
        LemmaFlags::all(),
    );
    println!(
        "  columns pruned / joinable: {} / {}",
        stats.lemma7_pruned, stats.early_joinable
    );
    // Candidate rows per query vector, as the schedule costs them.
    let mut cost = vec![0usize; N_QUERY];
    for (q, cells) in &clustered_lake.blocked.candidates {
        cost[*q as usize] = cells
            .iter()
            .map(|&cell| clustered_lake.inv.cell(cell).len())
            .sum();
    }
    let head = N_QUERY - t_abs + 1;
    let input_order: usize = cost[..head].iter().sum();
    cost.sort_unstable();
    let (cheapest, dearest) = (cost[0].max(1), cost[N_QUERY - 1]);
    println!("  candidate rows per query vector: {cheapest}..{dearest}");
    assert!(
        dearest >= 4 * cheapest,
        "the clustered lake must spread per-vector costs at least 4x"
    );
    println!("  head ({head} vectors) rows, input order: {input_order}");
    println!(
        "  head ({head} vectors) rows, schedule order: {}",
        cost[..head].iter().sum::<usize>()
    );
}

//! Quick profile of the verify hot path on a 10k×64-d uniform workload,
//! once per candidate-scan branch: all lemmas on (the flat two-stage scan
//! the daemon serves), then both vector-level lemmas off (the
//! `dist_le_first` gather). Prints ms per run, the distance computations
//! and a wall-clock per distance computation for each, so kernel work can
//! be separated from loop bookkeeping when tuning.
//!
//! Run with: `cargo run --release -p pexeso-bench --example verify_profile`

use pexeso::prelude::*;
use pexeso_core::block::{block, quick_browse};
use pexeso_core::grid::{GridParams, HierarchicalGrid};
use pexeso_core::invindex::InvertedIndex;
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

fn unit(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut columns = ColumnSet::new(DIM);
    let per_col = N_VECTORS / N_COLS;
    for c in 0..N_COLS {
        let vecs: Vec<Vec<f32>> = (0..per_col).map(|_| unit(&mut rng, DIM)).collect();
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns
            .add_column("t", &format!("c{c}"), c as u64, refs)
            .unwrap();
    }
    let mut query = VectorStore::new(DIM);
    for _ in 0..N_QUERY {
        query.push(&unit(&mut rng, DIM)).unwrap();
    }
    let tau = 0.12f32;
    let t_abs = query.len() + 1;
    // The cell-level lemmas stay on in both runs, so both scan the same
    // blocked pairs.
    let gather_flags = LemmaFlags {
        lemma1_vector_filter: false,
        lemma2_vector_match: false,
        ..LemmaFlags::all()
    };
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
    let inv = InvertedIndex::build(&params, &rv_mapped, &vec_col).unwrap();
    let mut stats = SearchStats::new();
    let mut seeded = FastMap::default();
    let handled = quick_browse(&hgq, &inv, &mut seeded, &mut stats);
    let blocked = block(
        &hgq,
        &hgrv,
        &q_mapped,
        tau,
        LemmaFlags::all(),
        Some(&handled),
        seeded,
        &mut stats,
    );
    let n_cand: usize = blocked.candidates.iter().map(|(_, c)| c.len()).sum();
    println!("candidate cells (all q): {n_cand}");
    for (label, flags) in [
        ("all lemmas (flat scan)", LemmaFlags::all()),
        ("vector lemmas off (gather)", gather_flags),
    ] {
        let ctx = VerifyContext {
            columns: &columns,
            vec_col: &vec_col,
            rv_mapped: &rv_mapped,
            inv: &inv,
            metric: &metric,
            query: &query,
            query_mapped: &q_mapped,
            tau,
            t_abs,
            flags,
            deleted: None,
        };
        // Warm up, then time.
        for _ in 0..3 {
            let mut s = SearchStats::new();
            verify_with(&ctx, &blocked, &mut s, ExecPolicy::Sequential);
        }
        let reps = 20;
        let started = Instant::now();
        let mut last = SearchStats::new();
        for _ in 0..reps {
            let mut s = SearchStats::new();
            verify_with(&ctx, &blocked, &mut s, ExecPolicy::Sequential);
            last = s;
        }
        let per_rep = started.elapsed() / reps;
        println!("{label}:");
        println!("  ms per run: {:.3}", per_rep.as_secs_f64() * 1e3);
        println!("  distance_computations: {}", last.distance_computations);
        println!(
            "  ns per distance computation (incl. loop): {:.2}",
            per_rep.as_nanos() as f64 / last.distance_computations as f64
        );
    }
}

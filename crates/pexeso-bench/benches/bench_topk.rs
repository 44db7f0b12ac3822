//! Top-k search benchmarks: the best-first, adaptively-tightened
//! [`TopkStrategy::BestFirst`] against the "threshold search with an
//! unreachable T, then sort" baseline ([`TopkStrategy::Exhaustive`]) on a
//! 10k×64-d repository — once skewed (a tenth of the columns share the
//! query's region, the data-lake shape top-k is for) and once uniform
//! (the worst case for bound-based pruning).
//!
//! Record a snapshot with:
//! `BENCH_JSON=BENCH_topk.json cargo bench -p pexeso-bench --bench bench_topk`

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pexeso::prelude::*;
use pexeso_core::config::PivotSelection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 64;
const N_COLS: usize = 100;
const PER_COL: usize = 100; // 10k vectors total
const N_QUERY: usize = 64;
const K: usize = 10;
const TAU: Tau = Tau::Ratio(0.06); // the paper's default regime

fn unit(rng: &mut StdRng) -> Vec<f32> {
    let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

/// A unit vector inside a small cap around `center`.
fn near(rng: &mut StdRng, center: &[f32], spread: f32) -> Vec<f32> {
    let mut v: Vec<f32> = center
        .iter()
        .map(|&c| c + rng.gen_range(-spread..spread))
        .collect();
    let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    v.iter_mut().for_each(|x| *x /= n.max(1e-9));
    v
}

/// `skew = true`: 10 of the 100 columns (and the query) are drawn from
/// one tight cluster and join fully, while the other 90 are *near
/// misses* from a wider cap around the same centre — they share the
/// query's candidate cells (so every cheap bound saturates) but almost
/// never match, the shape where adaptive tightening pays: the probe
/// ranks the tight columns first and the near-misses abort against the
/// k-th-best threshold. `skew = false`: everything uniform, no column
/// matches anything — the degenerate worst case where best-first
/// degenerates to the exhaustive scan plus its (bounded) bookkeeping.
fn workload(skew: bool) -> (ColumnSet, VectorStore) {
    let mut rng = StdRng::seed_from_u64(42);
    let center = unit(&mut rng);
    let mut columns = ColumnSet::new(DIM);
    for c in 0..N_COLS {
        let vecs: Vec<Vec<f32>> = (0..PER_COL)
            .map(|_| {
                if !skew {
                    unit(&mut rng)
                } else if c % 10 == 0 {
                    near(&mut rng, &center, 0.01)
                } else {
                    near(&mut rng, &center, 0.04)
                }
            })
            .collect();
        let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        columns
            .add_column("t", &format!("c{c}"), c as u64, refs)
            .unwrap();
    }
    let mut query = VectorStore::new(DIM);
    for _ in 0..N_QUERY {
        let v = if skew {
            near(&mut rng, &center, 0.01)
        } else {
            unit(&mut rng)
        };
        query.push(&v).unwrap();
    }
    (columns, query)
}

fn build(columns: ColumnSet) -> PexesoIndex<Euclidean> {
    PexesoIndex::build(
        columns,
        Euclidean,
        IndexOptions {
            num_pivots: 5,
            levels: Some(4),
            pivot_selection: PivotSelection::Pca,
            seed: 42,
            ..Default::default()
        },
    )
    .unwrap()
}

fn bench_pair(c: &mut Criterion, label: &str, index: &PexesoIndex<Euclidean>, query: &VectorStore) {
    let best_q = Query::topk(TAU, K);
    let exhaustive_q = Query::topk(TAU, K).with_options(SearchOptions {
        topk_strategy: TopkStrategy::Exhaustive,
        ..Default::default()
    });
    // Sanity: both strategies must return identical hits before we time them.
    let best = index.execute(&best_q, query).unwrap();
    let exhaustive = index.execute(&exhaustive_q, query).unwrap();
    assert_eq!(best.hits, exhaustive.hits, "strategies diverged on {label}");

    c.bench_function(&format!("topk{K}_best_first_{label}_10k_x64d"), |b| {
        b.iter(|| index.execute(&best_q, black_box(query)).unwrap())
    });
    c.bench_function(&format!("topk{K}_threshold_sort_{label}_10k_x64d"), |b| {
        b.iter(|| index.execute(&exhaustive_q, black_box(query)).unwrap())
    });
    c.bench_function(&format!("topk{K}_best_first_par8_{label}_10k_x64d"), |b| {
        let par_q = Query::topk(TAU, K).with_exec(ExecPolicy::Parallel { threads: 8 });
        b.iter(|| index.execute(&par_q, black_box(query)).unwrap())
    });
}

fn bench_topk(c: &mut Criterion) {
    let (columns, query) = workload(true);
    let index = build(columns);
    bench_pair(c, "skew", &index, &query);

    let (columns, query) = workload(false);
    let index = build(columns);
    bench_pair(c, "uniform", &index, &query);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_topk
}
criterion_main!(benches);

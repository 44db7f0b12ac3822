//! Unified-API timing: the `Query`/`Queryable` path on the standard
//! 10k×64-d workload — `Query` clone-free dispatch, per-hit global
//! identity resolution, and (for top-k) the tie-inclusive boundary check.
//!
//! Record a snapshot with:
//! `BENCH_JSON=BENCH_query_api.json cargo bench -p pexeso-bench --bench bench_query_api`

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pexeso::prelude::*;
use pexeso_core::config::PivotSelection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DIM: usize = 64;
const N_COLS: usize = 100;
const PER_COL: usize = 100; // 10k vectors total
const N_QUERY: usize = 64;
const TAU: Tau = Tau::Ratio(0.06);
const T: JoinThreshold = JoinThreshold::Ratio(0.5);
const K: usize = 10;

/// The skewed lake of `bench_topk`: a tenth of the columns join, the rest
/// are near misses — representative of both ranking modes' hot paths.
fn workload() -> (ColumnSet, VectorStore) {
    let mut rng = StdRng::seed_from_u64(42);
    let unit = |rng: &mut StdRng| {
        let mut v: Vec<f32> = (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n.max(1e-9));
        v
    };
    let center = unit(&mut rng);
    let near = |rng: &mut StdRng, spread: f32| {
        let mut v: Vec<f32> = center
            .iter()
            .map(|&c| c + rng.gen_range(-spread..spread))
            .collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n.max(1e-9));
        v
    };
    let mut columns = ColumnSet::new(DIM);
    for c in 0..N_COLS {
        let vecs: Vec<Vec<f32>> = (0..PER_COL)
            .map(|_| {
                if c % 10 == 0 {
                    near(&mut rng, 0.02)
                } else {
                    near(&mut rng, 0.4)
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
        query.push(&near(&mut rng, 0.02)).unwrap();
    }
    (columns, query)
}

fn bench_query_api(c: &mut Criterion) {
    let (columns, query) = workload();
    let index = PexesoIndex::build(
        columns,
        Euclidean,
        IndexOptions {
            num_pivots: 5,
            levels: Some(4),
            pivot_selection: PivotSelection::Pca,
            seed: 7,
            ..Default::default()
        },
    )
    .unwrap();

    let threshold_q = Query::threshold(TAU, T);
    let topk_q = Query::topk(TAU, K);

    assert!(index.execute(&threshold_q, &query).unwrap().exact());

    c.bench_function("threshold_unified_query_10k_x64d", |b| {
        b.iter(|| {
            index
                .execute(&threshold_q, black_box(&query))
                .unwrap()
                .hits
                .len()
        })
    });
    c.bench_function("topk_unified_query_10k_x64d", |b| {
        b.iter(|| {
            index
                .execute(&topk_q, black_box(&query))
                .unwrap()
                .hits
                .len()
        })
    });
    // Building the Query itself is not free-floating overhead either:
    // time the fully cold path (builder + execute) against the reused one.
    c.bench_function("threshold_unified_cold_query_build_10k_x64d", |b| {
        b.iter(|| {
            let q = Query::threshold(TAU, T);
            index.execute(&q, black_box(&query)).unwrap().hits.len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_query_api
}
criterion_main!(benches);

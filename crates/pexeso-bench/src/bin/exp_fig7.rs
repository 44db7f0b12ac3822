//! Fig. 7 — (a) PCA-based vs random pivot selection (selection CPU time
//! and resulting search time as the vector count grows) and (b) data
//! partitioning strategies (JSD vs average-k-means vs random; out-of-core
//! search time vs partition count).
//!
//! Regenerate: `cargo run --release -p pexeso-bench --bin exp_fig7`

use std::time::Instant;

use pexeso::prelude::*;
use pexeso_bench::fmt::{secs, TablePrinter};
use pexeso_bench::sequential_query;
use pexeso_bench::workloads::Workload;
use pexeso_core::partition::{PartitionConfig, PartitionMethod};
use pexeso_core::pivot::select_pivots;

fn fig7a(w: &Workload, n_queries: usize) {
    println!("(a) pivot selection: PCA-based vs random (|P|=5)");
    let mut table = TablePrinter::new(&[
        "vectors",
        "PCA select (s)",
        "rand select (s)",
        "PCA search (s)",
        "rand search (s)",
    ]);
    let all = &w.embedded.columns;
    let queries: Vec<_> = (0..n_queries).map(|i| w.query(i).1).collect();
    for pct in [0.25f64, 0.5, 0.75, 1.0] {
        let sub = subsample_columns(all, pct, 7);
        let mut row = vec![sub.n_vectors().to_string()];
        let mut search_times = Vec::new();
        for method in [PivotSelection::Pca, PivotSelection::Random] {
            let start = Instant::now();
            let _pivots = select_pivots(sub.store(), &Euclidean, 5, method, 42).expect("pivots");
            row.push(secs(start.elapsed()));

            let opts = IndexOptions {
                num_pivots: 5,
                levels: Some(4),
                pivot_selection: method,
                seed: 42,
                ..Default::default()
            };
            let index = PexesoIndex::build(sub.clone(), Euclidean, opts).expect("build");
            let start = Instant::now();
            for q in &queries {
                let _ = index.execute(
                    &sequential_query(Tau::Ratio(0.06), JoinThreshold::Ratio(0.6)),
                    q.store(),
                );
            }
            search_times.push(secs(start.elapsed() / n_queries as u32));
        }
        row.extend(search_times);
        table.row(row);
    }
    table.print();
    println!();
}

/// Copy a fraction of the columns into a fresh repository.
fn subsample_columns(columns: &ColumnSet, pct: f64, seed: u64) -> ColumnSet {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = columns.n_columns();
    let keep = ((n as f64 * pct).round() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    idx.truncate(keep);
    idx.sort_unstable();
    let mut out = ColumnSet::new(columns.dim());
    for &ci in &idx {
        let meta = &columns.columns()[ci];
        let vectors = meta
            .vector_range()
            .map(|v| columns.store().get_raw(v as usize));
        out.add_column(
            &meta.table_name,
            &meta.column_name,
            meta.external_id,
            vectors,
        )
        .expect("copy");
    }
    out
}

fn fig7b(w: &Workload, n_queries: usize) {
    println!("(b) data partitioning: JSD vs average k-means vs random (out-of-core search time)");
    let queries: Vec<_> = (0..n_queries).map(|i| w.query(i).1).collect();
    let mut table = TablePrinter::new(&["partitions", "JSD (s)", "Avg k-means (s)", "Random (s)"]);
    for k in [2usize, 4, 6, 8] {
        let mut row = vec![k.to_string()];
        for method in [
            PartitionMethod::JsdKmeans,
            PartitionMethod::AvgKmeans,
            PartitionMethod::Random,
        ] {
            let dir = std::env::temp_dir()
                .join(format!("pexeso_f7b_{method:?}_{k}_{}", std::process::id()));
            let lake = PartitionedLake::build(
                &w.embedded.columns,
                Euclidean,
                &PartitionConfig {
                    k,
                    method,
                    ..Default::default()
                },
                &w.index_options(),
                &dir,
            )
            .expect("partition build");
            let start = Instant::now();
            for q in &queries {
                let _ = lake.execute(
                    &sequential_query(Tau::Ratio(0.06), JoinThreshold::Ratio(0.6)),
                    q.store(),
                );
            }
            row.push(secs(start.elapsed() / n_queries as u32));
            std::fs::remove_dir_all(&dir).ok();
        }
        table.row(row);
    }
    table.print();
}

fn main() {
    let scale = pexeso_bench::scale();
    let n_queries = pexeso_bench::n_queries_efficiency().min(10);
    println!("Fig. 7: pivot selection and data partitioning (scale={scale})\n");
    let w = Workload::lwdc(scale, 17);
    fig7a(&w, n_queries);
    fig7b(&w, n_queries.min(5));
}

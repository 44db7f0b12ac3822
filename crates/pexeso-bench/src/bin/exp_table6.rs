//! Table VI — parameter tuning: index / blocking / search time across
//! (|P|, m), plus the cost-model justification (optimal m by analysis).
//!
//! Regenerate: `cargo run --release -p pexeso-bench --bin exp_table6`

use std::time::{Duration, Instant};

use pexeso::prelude::*;
use pexeso_bench::fmt::{secs, TablePrinter};
use pexeso_bench::sequential_query;
use pexeso_bench::workloads::Workload;
use pexeso_core::cost::analyze_levels;
use pexeso_core::mapping::MappedVectors;
use pexeso_core::pivot::select_pivots;

fn run_dataset(w: &Workload, n_queries: usize) {
    println!(
        "== {} ({} columns, {} vectors) ==",
        w.name,
        w.embedded.columns.n_columns(),
        w.embedded.columns.n_vectors()
    );
    let queries: Vec<_> = (0..n_queries).map(|i| w.query(i).1).collect();
    let tau = Tau::Ratio(0.06);
    let t = JoinThreshold::Ratio(0.6);

    let mut table = TablePrinter::new(&["|P|", "m", "index (s)", "block (s)", "block+verify (s)"]);
    let mut best: Option<(usize, usize, Duration)> = None;
    for num_pivots in [1usize, 3, 5, 7, 9] {
        for m in [2usize, 4, 6, 8] {
            let opts = IndexOptions {
                num_pivots,
                levels: Some(m),
                pivot_selection: PivotSelection::Pca,
                seed: 42,
                ..Default::default()
            };
            let start = Instant::now();
            let index =
                PexesoIndex::build(w.embedded.columns.clone(), Euclidean, opts).expect("build");
            let index_time = start.elapsed();

            let mut block_total = Duration::ZERO;
            let mut search_total = Duration::ZERO;
            for q in &queries {
                let r = index
                    .execute(&sequential_query(tau, t), q.store())
                    .expect("search");
                block_total += r.stats.block_time;
                search_total += r.stats.block_time + r.stats.verify_time;
            }
            let block_avg = block_total / n_queries as u32;
            let search_avg = search_total / n_queries as u32;
            if best.as_ref().is_none_or(|(_, _, b)| search_avg < *b) {
                best = Some((num_pivots, m, search_avg));
            }
            table.row(vec![
                num_pivots.to_string(),
                m.to_string(),
                secs(index_time),
                secs(block_avg),
                secs(search_avg),
            ]);
        }
    }
    table.print();
    let (bp, bm, bt) = best.expect("non-empty grid");
    println!("empirically optimal: |P|={bp}, m={bm} ({} s)\n", secs(bt));

    // Cost-model choice of m (Section III-E justification).
    let pivots = select_pivots(
        w.embedded.columns.store(),
        &Euclidean,
        bp,
        PivotSelection::Pca,
        42,
    )
    .expect("pivots");
    let mapped =
        MappedVectors::build(w.embedded.columns.store(), &pivots, &Euclidean, None).expect("map");
    let span = 2.0f32.max(mapped.max_coord()) + 1e-4;
    let choice = analyze_levels(&mapped, span, 42).expect("cost analysis");
    println!(
        "cost model at |P|={bp}: fractional m = {:.2}, chosen m = {} (empirical optimum m = {bm})\n",
        choice.fractional_m, choice.chosen_m
    );
}

fn main() {
    let scale = pexeso_bench::scale();
    let n_queries = pexeso_bench::n_queries_efficiency();
    println!("Table VI: parameter tuning in PEXESO (scale={scale}, {n_queries} queries, tau=6%, T=60%)\n");
    run_dataset(&Workload::open(scale * 0.5, 11), n_queries);
    run_dataset(&Workload::swdc(scale, 13), n_queries);
}

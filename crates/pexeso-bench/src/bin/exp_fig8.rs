//! Fig. 8 — PEXESO vs the approximate PQ-75 / PQ-85 search time, varying
//! τ (at T=60 %) and T (at τ=6 %) on the SWDC-like dataset.
//!
//! Regenerate: `cargo run --release -p pexeso-bench --bin exp_fig8`

use std::time::Instant;

use pexeso::prelude::*;
use pexeso_baselines::pq::{PqConfig, PqIndex};
use pexeso_baselines::VectorJoinSearch;
use pexeso_bench::fmt::{secs, TablePrinter};
use pexeso_bench::sequential_query;
use pexeso_bench::workloads::Workload;

fn main() {
    let scale = pexeso_bench::scale();
    let n_queries = pexeso_bench::n_queries_efficiency();
    println!(
        "Fig. 8: comparison to approximate PQ (scale={scale}, {n_queries} queries, SWDC-like)\n"
    );

    let w = Workload::swdc(scale, 13);
    let queries: Vec<_> = (0..n_queries).map(|i| w.query(i).1).collect();

    let pex = PexesoIndex::build(w.embedded.columns.clone(), Euclidean, w.index_options())
        .expect("pexeso");
    let pq_cfg = PqConfig {
        num_subspaces: (w.dim / 8).max(2),
        num_centroids: 32,
        ..Default::default()
    };
    let mut pq75 = PqIndex::build(&w.embedded.columns, pq_cfg.clone()).expect("pq75");
    let mut pq85 = PqIndex::build(&w.embedded.columns, pq_cfg).expect("pq85");
    let tau_default = 0.06f32 * 2.0;
    pq75.calibrate_recall(tau_default, 0.75, 16);
    pq85.calibrate_recall(tau_default, 0.85, 16);

    let avg = |f: &dyn Fn(&pexeso::pipeline::EmbeddedQuery, Tau, JoinThreshold),
               tau: f32,
               t: f64|
     -> String {
        let start = Instant::now();
        for q in &queries {
            f(q, Tau::Ratio(tau), JoinThreshold::Ratio(t));
        }
        secs(start.elapsed() / queries.len() as u32)
    };

    println!("(a) varying tau (T = 60%)");
    let mut table = TablePrinter::new(&["tau", "PQ-85", "PQ-75", "PEXESO"]);
    for tau in [0.02f32, 0.04, 0.06, 0.08] {
        table.row(vec![
            format!("{:.0}%", tau * 100.0),
            avg(
                &|q, tau, t| {
                    let _ = pq85.search(q.store(), tau, t);
                },
                tau,
                0.6,
            ),
            avg(
                &|q, tau, t| {
                    let _ = pq75.search(q.store(), tau, t);
                },
                tau,
                0.6,
            ),
            avg(
                &|q, tau, t| {
                    let _ = pex.execute(&sequential_query(tau, t), q.store());
                },
                tau,
                0.6,
            ),
        ]);
    }
    table.print();

    println!("\n(b) varying T (tau = 6%)");
    let mut table = TablePrinter::new(&["T", "PQ-85", "PQ-75", "PEXESO"]);
    for t in [0.2f64, 0.4, 0.6, 0.8] {
        table.row(vec![
            format!("{:.0}%", t * 100.0),
            avg(
                &|q, tau, tt| {
                    let _ = pq85.search(q.store(), tau, tt);
                },
                0.06,
                t,
            ),
            avg(
                &|q, tau, tt| {
                    let _ = pq75.search(q.store(), tau, tt);
                },
                0.06,
                t,
            ),
            avg(
                &|q, tau, tt| {
                    let _ = pex.execute(&sequential_query(tau, tt), q.store());
                },
                0.06,
                t,
            ),
        ]);
    }
    table.print();
}

//! Table VII — efficiency evaluation over the (T, τ) grid: CTREE, EPT,
//! PEXESO-H, PEXESO; OPEN/SWDC in memory, LWDC out-of-core (disk-resident
//! JSD partitions; load time included). Methods that exceed the per-cell
//! time budget are reported as `>budget`, mirroring the paper's `> 7200`.
//!
//! Regenerate: `cargo run --release -p pexeso-bench --bin exp_table7`

use std::time::{Duration, Instant};

use pexeso::prelude::*;
use pexeso_baselines::covertree::CoverTreeIndex;
use pexeso_baselines::ept::EptIndex;
use pexeso_baselines::pexeso_h::PexesoHIndex;
use pexeso_baselines::VectorJoinSearch;
use pexeso_bench::fmt::{secs, TablePrinter};
use pexeso_bench::sequential_query;
use pexeso_bench::workloads::Workload;
use pexeso_core::partition::{PartitionConfig, PartitionMethod};

const T_GRID: [f64; 4] = [0.2, 0.4, 0.6, 0.8];
const TAU_GRID: [f32; 4] = [0.02, 0.04, 0.06, 0.08];

/// Per-(method, grid-cell) wall-clock budget; beyond it we print `>budget`.
fn budget() -> Duration {
    Duration::from_secs_f64(60.0 * pexeso_bench::scale().max(0.2))
}

fn fmt_cell(d: Option<Duration>) -> String {
    match d {
        Some(d) => secs(d),
        None => format!(">{}", secs(budget())),
    }
}

fn run_in_memory(w: &Workload, n_queries: usize) {
    println!(
        "== {} (in-memory; {} columns, {} vectors; avg over {n_queries} queries) ==",
        w.name,
        w.embedded.columns.n_columns(),
        w.embedded.columns.n_vectors()
    );
    let queries: Vec<_> = (0..n_queries).map(|i| w.query(i).1).collect();

    let ctree = CoverTreeIndex::build(&w.embedded.columns, Euclidean).expect("ctree");
    let ept = EptIndex::build(&w.embedded.columns, Euclidean, 5, 42).expect("ept");
    let h = PexesoHIndex::build(&w.embedded.columns, Euclidean, w.index_options()).expect("h");
    let pex = PexesoIndex::build(w.embedded.columns.clone(), Euclidean, w.index_options())
        .expect("pexeso");

    let mut table = TablePrinter::new(&["T", "tau", "CTREE", "EPT", "PEXESO-H", "PEXESO"]);
    for t in T_GRID {
        for tau in TAU_GRID {
            let time_method = |f: &dyn Fn(&pexeso::pipeline::EmbeddedQuery, Tau, JoinThreshold)| -> Option<Duration> {
                let deadline = budget();
                let mut total = Duration::ZERO;
                for q in &queries {
                    let s = Instant::now();
                    f(q, Tau::Ratio(tau), JoinThreshold::Ratio(t));
                    total += s.elapsed();
                    if total > deadline {
                        return None;
                    }
                }
                Some(total / queries.len() as u32)
            };

            let c = time_method(&|q, tau, t| {
                let _ = ctree.search(q.store(), tau, t);
            });
            let e = time_method(&|q, tau, t| {
                let _ = ept.search(q.store(), tau, t);
            });
            let hh = time_method(&|q, tau, t| {
                let _ = h.search(q.store(), tau, t);
            });
            let p = time_method(&|q, tau, t| {
                let _ = pex.execute(&sequential_query(tau, t), q.store());
            });
            table.row(vec![
                format!("{:.0}%", t * 100.0),
                format!("{:.0}%", tau * 100.0),
                fmt_cell(c),
                fmt_cell(e),
                fmt_cell(hh),
                fmt_cell(p),
            ]);
        }
    }
    table.print();
    println!();
}

fn run_out_of_core(w: &Workload, n_queries: usize, k: usize) {
    println!(
        "== {} (out-of-core; {} columns, {} vectors, {k} JSD partitions on disk) ==",
        w.name,
        w.embedded.columns.n_columns(),
        w.embedded.columns.n_vectors()
    );
    println!(
        "   note: PEXESO streams partitions from disk per query (load time included); \
         CTREE/EPT/PEXESO-H run fully in memory, so their numbers exclude any I/O."
    );
    let dir = std::env::temp_dir().join(format!("pexeso_t7_lwdc_{}", std::process::id()));
    let lake = PartitionedLake::build(
        &w.embedded.columns,
        Euclidean,
        &PartitionConfig {
            k,
            method: PartitionMethod::JsdKmeans,
            ..Default::default()
        },
        &w.index_options(),
        &dir,
    )
    .expect("partitioned build");
    // CTREE / EPT / PEXESO-H run in memory on the full column set (the
    // paper's LWDC runs of the non-blocking methods all exceeded its 2 h
    // budget; ours report real numbers whenever they fit the scaled
    // budget, and `>budget` otherwise).
    let ctree = CoverTreeIndex::build(&w.embedded.columns, Euclidean).expect("ctree");
    let ept = EptIndex::build(&w.embedded.columns, Euclidean, 5, 42).expect("ept");
    let h = PexesoHIndex::build(&w.embedded.columns, Euclidean, w.index_options()).expect("h");
    let queries: Vec<_> = (0..n_queries).map(|i| w.query(i).1).collect();

    let mut table = TablePrinter::new(&["T", "tau", "CTREE", "EPT", "PEXESO-H", "PEXESO"]);
    for t in T_GRID {
        for tau in TAU_GRID {
            let deadline = budget();
            let time_method = |f: &dyn Fn(&pexeso::pipeline::EmbeddedQuery, Tau, JoinThreshold)| -> Option<Duration> {
                let mut total = Duration::ZERO;
                for q in &queries {
                    let s = Instant::now();
                    f(q, Tau::Ratio(tau), JoinThreshold::Ratio(t));
                    total += s.elapsed();
                    if total > deadline {
                        return None;
                    }
                }
                Some(total / queries.len() as u32)
            };
            let c = time_method(&|q, tau, t| {
                let _ = ctree.search(q.store(), tau, t);
            });
            let e = time_method(&|q, tau, t| {
                let _ = ept.search(q.store(), tau, t);
            });
            let hh = time_method(&|q, tau, t| {
                let _ = h.search(q.store(), tau, t);
            });
            let p = time_method(&|q, tau, t| {
                let _ = lake.execute(&sequential_query(tau, t), q.store());
            });
            table.row(vec![
                format!("{:.0}%", t * 100.0),
                format!("{:.0}%", tau * 100.0),
                fmt_cell(c),
                fmt_cell(e),
                fmt_cell(hh),
                fmt_cell(p),
            ]);
        }
    }
    table.print();
    std::fs::remove_dir_all(&dir).ok();
    println!();
}

fn main() {
    let scale = pexeso_bench::scale();
    let n_queries = pexeso_bench::n_queries_efficiency().min(10);
    println!("Table VII: efficiency evaluation (scale={scale})\n");
    run_in_memory(&Workload::open(scale * 0.5, 11), n_queries);
    run_in_memory(&Workload::swdc(scale, 13), n_queries);
    run_out_of_core(&Workload::lwdc(scale, 17), n_queries.min(5), 6);
}

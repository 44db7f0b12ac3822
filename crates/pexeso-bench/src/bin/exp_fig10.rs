//! Fig. 10 — scalability of PEXESO and PEXESO-H on the LWDC-like dataset:
//! (a/b) varying the fraction of columns, (c/d) varying the fraction of
//! vectors per column, (e) varying the embedding dimensionality. Reports
//! search time and index size.
//!
//! Regenerate: `cargo run --release -p pexeso-bench --bin exp_fig10`

use std::time::Instant;

use pexeso::pipeline::embed_synthetic_lake;
use pexeso::prelude::*;
use pexeso_baselines::pexeso_h::PexesoHIndex;
use pexeso_baselines::VectorJoinSearch;
use pexeso_bench::fmt::{secs, TablePrinter};
use pexeso_bench::sequential_query;
use pexeso_bench::workloads::Workload;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn avg_search(
    columns: &ColumnSet,
    opts: &IndexOptions,
    queries: &[pexeso::pipeline::EmbeddedQuery],
) -> (String, String, String, String) {
    let pex = PexesoIndex::build(columns.clone(), Euclidean, opts.clone()).expect("pexeso");
    let h = PexesoHIndex::build(columns, Euclidean, opts.clone()).expect("h");
    let tau = Tau::Ratio(0.06);
    let t = JoinThreshold::Ratio(0.6);

    let start = Instant::now();
    for q in queries {
        let _ = pex.execute(&sequential_query(tau, t), q.store());
    }
    let pex_time = start.elapsed() / queries.len() as u32;
    let start = Instant::now();
    for q in queries {
        let _ = h.search(q.store(), tau, t);
    }
    let h_time = start.elapsed() / queries.len() as u32;
    (
        secs(h_time),
        secs(pex_time),
        format!("{:.2}", h.index_bytes() as f64 / 1e6),
        format!("{:.2}", pex.index_bytes() as f64 / 1e6),
    )
}

/// Keep a fraction of the columns.
fn sample_columns(columns: &ColumnSet, pct: f64, seed: u64) -> ColumnSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = columns.n_columns();
    let keep = ((n as f64 * pct).round() as usize).clamp(1, n);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    idx.truncate(keep);
    idx.sort_unstable();
    let mut out = ColumnSet::new(columns.dim());
    for &ci in &idx {
        let meta = &columns.columns()[ci];
        out.add_column(
            &meta.table_name,
            &meta.column_name,
            meta.external_id,
            meta.vector_range()
                .map(|v| columns.store().get_raw(v as usize)),
        )
        .expect("copy");
    }
    out
}

/// Keep a fraction of each column's vectors (the paper samples rows per
/// column, not from the pooled vector set).
fn sample_vectors(columns: &ColumnSet, pct: f64, seed: u64) -> ColumnSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = ColumnSet::new(columns.dim());
    for meta in columns.columns() {
        let ids: Vec<u32> = meta.vector_range().collect();
        let keep = ((ids.len() as f64 * pct).round() as usize).clamp(1, ids.len());
        let mut chosen = ids.clone();
        chosen.shuffle(&mut rng);
        chosen.truncate(keep);
        chosen.sort_unstable();
        out.add_column(
            &meta.table_name,
            &meta.column_name,
            meta.external_id,
            chosen.iter().map(|&v| columns.store().get_raw(v as usize)),
        )
        .expect("copy");
    }
    out
}

fn main() {
    let scale = pexeso_bench::scale();
    let n_queries = pexeso_bench::n_queries_efficiency().min(8);
    println!(
        "Fig. 10: scalability on LWDC-like (scale={scale}, {n_queries} queries, tau=6%, T=60%)\n"
    );

    let w = Workload::lwdc(scale, 17);
    let queries: Vec<_> = (0..n_queries).map(|i| w.query(i).1).collect();
    let opts = w.index_options();

    println!("(a/b) varying % of columns");
    let mut table = TablePrinter::new(&[
        "% cols",
        "PEXESO-H time",
        "PEXESO time",
        "PEXESO-H MB",
        "PEXESO MB",
    ]);
    for pct in [0.2f64, 0.4, 0.6, 0.8, 1.0] {
        let sub = sample_columns(&w.embedded.columns, pct, 3);
        let (ht, pt, hs, ps) = avg_search(&sub, &opts, &queries);
        table.row(vec![format!("{:.0}%", pct * 100.0), ht, pt, hs, ps]);
    }
    table.print();

    println!("\n(c/d) varying % of vectors per column");
    let mut table = TablePrinter::new(&[
        "% vecs",
        "PEXESO-H time",
        "PEXESO time",
        "PEXESO-H MB",
        "PEXESO MB",
    ]);
    for pct in [0.2f64, 0.4, 0.6, 0.8, 1.0] {
        let sub = sample_vectors(&w.embedded.columns, pct, 4);
        let (ht, pt, hs, ps) = avg_search(&sub, &opts, &queries);
        table.row(vec![format!("{:.0}%", pct * 100.0), ht, pt, hs, ps]);
    }
    table.print();

    println!("\n(e) varying dimensionality (fresh embeddings per dim)");
    let mut table = TablePrinter::new(&[
        "dim",
        "PEXESO-H time",
        "PEXESO time",
        "PEXESO-H MB",
        "PEXESO MB",
    ]);
    for dim in [48usize, 96, 144] {
        let embedder = pexeso_embed::SemanticEmbedder::new(dim, w.lake.lexicon.clone());
        let mut embedded = embed_synthetic_lake(&embedder, &w.lake).expect("embed");
        embedded.columns.store_mut().normalize_all();
        let dim_queries: Vec<_> = (0..n_queries)
            .map(|i| {
                let (gen, _) = w.query(i);
                pexeso::pipeline::embed_query(&embedder, gen.key_values())
            })
            .collect();
        let (ht, pt, hs, ps) = avg_search(&embedded.columns, &opts, &dim_queries);
        table.row(vec![dim.to_string(), ht, pt, hs, ps]);
    }
    table.print();
}

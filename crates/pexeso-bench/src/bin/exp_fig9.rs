//! Fig. 9 — ablation study: drop Lemma 1 / Lemma 2 / Lemmas 3&4 /
//! Lemmas 5&6 and measure search time on OPEN-like, SWDC-like, and
//! LWDC-like datasets. Results must stay identical (exactness); only the
//! time changes.
//!
//! Regenerate: `cargo run --release -p pexeso-bench --bin exp_fig9`

use std::time::Instant;

use pexeso::prelude::*;
use pexeso_bench::fmt::{secs, TablePrinter};
use pexeso_bench::sequential_query;
use pexeso_bench::workloads::Workload;

fn run(w: &Workload, n_queries: usize) -> Vec<String> {
    let queries: Vec<_> = (0..n_queries).map(|i| w.query(i).1).collect();
    let index = PexesoIndex::build(w.embedded.columns.clone(), Euclidean, w.index_options())
        .expect("build");
    let tau = Tau::Ratio(0.06);
    let t = JoinThreshold::Ratio(0.6);

    let variants = [
        ("No-Lem1", LemmaFlags::without_lemma1()),
        ("No-Lem2", LemmaFlags::without_lemma2()),
        ("No-Lem3&4", LemmaFlags::without_lemma34()),
        ("No-Lem5&6", LemmaFlags::without_lemma56()),
        ("ALL (PEXESO)", LemmaFlags::all()),
    ];
    let mut cells = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    for (_, flags) in variants {
        let opts = SearchOptions {
            flags,
            quick_browse: true,
        };
        let start = Instant::now();
        let mut last_result = Vec::new();
        for q in &queries {
            let r = index
                .execute(&sequential_query(tau, t).with_options(opts), q.store())
                .expect("search");
            last_result = r.hits.iter().map(|h| h.external_id).collect();
        }
        cells.push(secs(start.elapsed() / n_queries as u32));
        // Exactness: every ablation returns identical results.
        match &reference {
            None => reference = Some(last_result),
            Some(r) => assert_eq!(r, &last_result, "ablation changed results!"),
        }
    }
    cells
}

fn main() {
    let scale = pexeso_bench::scale();
    let n_queries = pexeso_bench::n_queries_efficiency().min(10);
    println!("Fig. 9: ablation study (scale={scale}, {n_queries} queries, tau=6%, T=60%)\n");

    let open = run(&Workload::open(scale * 0.5, 11), n_queries);
    let swdc = run(&Workload::swdc(scale, 13), n_queries);
    let lwdc = run(&Workload::lwdc(scale, 17), n_queries.min(5));

    let mut table = TablePrinter::new(&["Variant", "OPEN (s)", "SWDC (s)", "LWDC (s)"]);
    for (i, name) in [
        "No-Lem1",
        "No-Lem2",
        "No-Lem3&4",
        "No-Lem5&6",
        "ALL (PEXESO)",
    ]
    .iter()
    .enumerate()
    {
        table.row(vec![
            name.to_string(),
            open[i].clone(),
            swdc[i].clone(),
            lwdc[i].clone(),
        ]);
    }
    table.print();
}

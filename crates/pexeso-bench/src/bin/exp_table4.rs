//! Table IV — precision & recall of joinable table search.
//!
//! Competitors: equi-join, Jaccard-join, edit-join, fuzzy-join,
//! TF-IDF-join, PEXESO, and "our join with PQ-85" (PEXESO's workflow with
//! approximate product-quantization matching). Per the paper, each
//! competitor's thresholds are tuned for its best F1; ground truth comes
//! from the generator's entity overlap instead of human labelling.
//!
//! Regenerate: `cargo run --release -p pexeso-bench --bin exp_table4`

use std::collections::HashSet;

use pexeso::prelude::*;
use pexeso_baselines::pq::{PqConfig, PqIndex};
use pexeso_baselines::stringjoin::{
    string_join_search, EditMatcher, EquiJoinIndex, FuzzyMatcher, JaccardMatcher, StringColumns,
    StringMatcher, TfIdfJoin,
};
use pexeso_baselines::VectorJoinSearch;
use pexeso_bench::eval::PrAccumulator;
use pexeso_bench::fmt::{ratio, TablePrinter};
use pexeso_bench::sequential_query;
use pexeso_bench::workloads::Workload;
use pexeso_core::column::ColumnId;

/// Joinability threshold shared by all methods (ratio of |Q|).
const T_RATIO: f64 = 0.5;

struct Queries {
    gens: Vec<GenTable>,
    embedded: Vec<pexeso::pipeline::EmbeddedQuery>,
    truths: Vec<HashSet<usize>>,
}

fn make_queries(w: &Workload, n: usize, rows: usize) -> Queries {
    let mut gens = Vec::new();
    let mut embedded = Vec::new();
    let mut truths = Vec::new();
    // Skip queries whose ground truth is empty: they would score every
    // method as vacuously perfect and wash out the comparison.
    let mut i = 0usize;
    while gens.len() < n && i < n * 20 {
        let (gen, emb) = w.query_sized(i, rows);
        i += 1;
        let truth = w.lake.ground_truth(&gen, T_RATIO);
        if truth.is_empty() {
            continue;
        }
        truths.push(truth);
        gens.push(gen);
        embedded.push(emb);
    }
    Queries {
        gens,
        embedded,
        truths,
    }
}

/// Score a string matcher at one threshold setting across all queries.
fn score_matcher(
    matcher: &dyn StringMatcher,
    repo: &StringColumns,
    queries: &Queries,
) -> PrAccumulator {
    let mut acc = PrAccumulator::default();
    for (gen, truth) in queries.gens.iter().zip(&queries.truths) {
        let (hits, _) = string_join_search(matcher, gen.key_values(), repo, T_RATIO);
        let retrieved: HashSet<usize> = hits.iter().map(|h| h.column).collect();
        acc.push(&retrieved, truth);
    }
    acc
}

/// Best-F1 accumulator across candidate settings.
fn best<I: IntoIterator<Item = PrAccumulator>>(cands: I) -> PrAccumulator {
    cands
        .into_iter()
        .max_by(|a, b| a.mean_f1().total_cmp(&b.mean_f1()))
        .expect("non-empty candidates")
}

fn hits_to_tables(
    w: &Workload,
    index: &PexesoIndex<Euclidean>,
    hit_cols: &[ColumnId],
) -> HashSet<usize> {
    hit_cols
        .iter()
        .map(|&c| {
            let ext = index.columns().column(c).external_id as usize;
            w.embedded.provenance[ext].table_idx
        })
        .collect()
}

fn run_dataset(w: &Workload, n_queries: usize, query_rows: usize) -> Vec<(String, f64, f64)> {
    let queries = make_queries(w, n_queries, query_rows);
    let repo = w.string_columns();
    let mut rows: Vec<(String, f64, f64)> = Vec::new();

    // equi-join (indexed).
    {
        let idx = EquiJoinIndex::build(&repo);
        let mut acc = PrAccumulator::default();
        for (gen, truth) in queries.gens.iter().zip(&queries.truths) {
            let (hits, _) = idx.search(gen.key_values(), T_RATIO);
            let retrieved: HashSet<usize> = hits.iter().map(|h| h.column).collect();
            acc.push(&retrieved, truth);
        }
        rows.push(("equi-join".into(), acc.mean_precision(), acc.mean_recall()));
    }

    // Jaccard-join, tuned.
    {
        let acc = best(
            [0.5, 0.7, 0.9]
                .iter()
                .map(|&t| score_matcher(&JaccardMatcher { threshold: t }, &repo, &queries)),
        );
        rows.push((
            "Jaccard-join".into(),
            acc.mean_precision(),
            acc.mean_recall(),
        ));
    }

    // edit-join, tuned.
    {
        let acc = best(
            [0.7, 0.8, 0.9]
                .iter()
                .map(|&t| score_matcher(&EditMatcher { threshold: t }, &repo, &queries)),
        );
        rows.push(("edit-join".into(), acc.mean_precision(), acc.mean_recall()));
    }

    // fuzzy-join, tuned.
    {
        let acc = best([(0.75, 0.6), (0.8, 0.8), (0.7, 0.9)].iter().map(|&(d, f)| {
            score_matcher(
                &FuzzyMatcher {
                    token_sim: d,
                    fraction: f,
                },
                &repo,
                &queries,
            )
        }));
        rows.push(("fuzzy-join".into(), acc.mean_precision(), acc.mean_recall()));
    }

    // TF-IDF-join, tuned.
    {
        let acc = best([0.5, 0.7, 0.9].iter().map(|&t| {
            let j = TfIdfJoin::build(&repo, t);
            let mut acc = PrAccumulator::default();
            for (gen, truth) in queries.gens.iter().zip(&queries.truths) {
                let (hits, _) = j.search(gen.key_values(), T_RATIO);
                let retrieved: HashSet<usize> = hits.iter().map(|h| h.column).collect();
                acc.push(&retrieved, truth);
            }
            acc
        }));
        rows.push((
            "TF-IDF-join".into(),
            acc.mean_precision(),
            acc.mean_recall(),
        ));
    }

    // PEXESO, τ tuned over the paper's 2–8 % range.
    let index = PexesoIndex::build(
        w.embedded.columns.clone(),
        Euclidean,
        IndexOptions::default(),
    )
    .expect("index build");
    let best_tau;
    {
        let mut cands = Vec::new();
        for tau_pct in [0.02f32, 0.04, 0.06, 0.08] {
            let mut acc = PrAccumulator::default();
            for (emb, truth) in queries.embedded.iter().zip(&queries.truths) {
                let result = index
                    .execute(
                        &sequential_query(Tau::Ratio(tau_pct), JoinThreshold::Ratio(T_RATIO)),
                        emb.store(),
                    )
                    .expect("search");
                // External ids equal insertion order in the workload.
                let cols: Vec<ColumnId> = result
                    .hits
                    .iter()
                    .map(|h| ColumnId(h.external_id as u32))
                    .collect();
                acc.push(&hits_to_tables(w, &index, &cols), truth);
            }
            cands.push((tau_pct, acc));
        }
        let (tau, acc) = cands
            .into_iter()
            .max_by(|a, b| a.1.mean_f1().total_cmp(&b.1.mean_f1()))
            .expect("non-empty");
        best_tau = tau;
        rows.push(("PEXESO".into(), acc.mean_precision(), acc.mean_recall()));
    }

    // "our join with PQ-85": approximate matching in the same workflow.
    {
        let pq_cfg = PqConfig {
            num_subspaces: (w.dim / 8).max(2),
            num_centroids: 32,
            ..Default::default()
        };
        let mut pq = PqIndex::build(&w.embedded.columns, pq_cfg).expect("pq build");
        let tau_abs = best_tau * 2.0;
        pq.calibrate_recall(tau_abs, 0.85, 16);
        let mut acc = PrAccumulator::default();
        for (emb, truth) in queries.embedded.iter().zip(&queries.truths) {
            let (hits, _) = pq
                .search(
                    emb.store(),
                    Tau::Ratio(best_tau),
                    JoinThreshold::Ratio(T_RATIO),
                )
                .expect("pq search");
            let retrieved: HashSet<usize> = hits
                .iter()
                .map(|h| {
                    let ext = w.embedded.columns.column(h.column).external_id as usize;
                    w.embedded.provenance[ext].table_idx
                })
                .collect();
            acc.push(&retrieved, truth);
        }
        rows.push((
            "our join with PQ-85".into(),
            acc.mean_precision(),
            acc.mean_recall(),
        ));
    }

    rows
}

fn main() {
    let scale = pexeso_bench::scale();
    let n_queries = pexeso_bench::n_queries_effectiveness();
    println!("Table IV: precision & recall of joinable table search");
    println!("(scale={scale}, {n_queries} queries per dataset, T={T_RATIO})\n");

    let open = Workload::open(scale * 0.5, 11);
    let swdc = Workload::swdc(scale, 13);
    println!(
        "OPEN-like: {} tables, {} key cells | SWDC-like: {} tables, {} key cells\n",
        open.lake.tables.len(),
        open.total_cells(),
        swdc.lake.tables.len(),
        swdc.total_cells()
    );

    let open_rows = run_dataset(&open, n_queries, 80);
    let swdc_rows = run_dataset(&swdc, n_queries, open.query_rows().min(20));

    let mut table = TablePrinter::new(&["Method", "OPEN P", "OPEN R", "SWDC P", "SWDC R"]);
    for (o, s) in open_rows.iter().zip(swdc_rows.iter()) {
        assert_eq!(o.0, s.0);
        table.row(vec![
            o.0.clone(),
            ratio(o.1),
            ratio(o.2),
            ratio(s.1),
            ratio(s.2),
        ]);
    }
    table.print();
}

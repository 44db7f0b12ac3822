//! Table V — performance gain in ML tasks.
//!
//! Three data-enrichment tasks mirror the paper's company classification,
//! Amazon-toy classification, and video-game-sale regression: a query
//! table's label depends on latent entity attributes that live in lake
//! tables and are reachable only through (possibly semantic) joins. For
//! each competitor we discover joinable tables, left-join them, run RFE,
//! train a random forest with 4-fold CV, and report micro-F1 / MSE plus the
//! fraction of lake records matched.
//!
//! Regenerate: `cargo run --release -p pexeso-bench --bin exp_table5`

use pexeso::pipeline::{dedupe_mapping, embed_query, join_mapping};
use pexeso::prelude::*;
use pexeso_baselines::stringjoin::{
    string_join_search, EditMatcher, EquiMatcher, FuzzyMatcher, JaccardMatcher, StringColumns,
    StringMatcher, TfIdfJoin,
};
use pexeso_bench::fmt::TablePrinter;
use pexeso_bench::sequential_query;
use pexeso_bench::workloads::Workload;
use pexeso_core::column::ColumnId;
use pexeso_lake::JoinMapping;
use pexeso_ml::augment::AugmentConfig;
use pexeso_ml::tasks::{evaluate_with_mapping, make_task, MlTask, TaskKind, TaskSpec};

const T_RATIO: f64 = 0.5;

/// Record-level mapping for a string matcher: restricted to the tables the
/// matcher itself identified as joinable (the paper joins only discovered
/// tables).
fn string_mapping(
    matcher: &dyn StringMatcher,
    repo: &StringColumns,
    task: &MlTask,
    lake: &SyntheticLake,
) -> JoinMapping {
    let query_values = task.query.key_values();
    let (hits, _) = string_join_search(matcher, query_values, repo, T_RATIO);
    let mut mapping = JoinMapping::new(query_values.len());
    for hit in hits {
        let table = &lake.tables[hit.column];
        for (qi, q) in query_values.iter().enumerate() {
            for (ri, s) in table.key_values().iter().enumerate() {
                if matcher.matches(q, s) {
                    mapping.matches[qi].push((hit.column, ri));
                }
            }
        }
    }
    mapping
}

fn tfidf_mapping(join: &TfIdfJoin, task: &MlTask, lake: &SyntheticLake) -> JoinMapping {
    let query_values = task.query.key_values();
    let (hits, _) = join.search(query_values, T_RATIO);
    let mut mapping = JoinMapping::new(query_values.len());
    for hit in hits {
        let table = &lake.tables[hit.column];
        for (qi, q) in query_values.iter().enumerate() {
            let qv = join.vectorize(q);
            for (ri, s) in table.key_values().iter().enumerate() {
                let sv = join.vectorize(s);
                // Re-use the join's cosine threshold through its public
                // search semantics: a pair matches when either direction's
                // single-record search would match.
                let cos = {
                    let (mut i, mut j, mut acc) = (0usize, 0usize, 0.0f64);
                    while i < qv.len() && j < sv.len() {
                        match qv[i].0.cmp(&sv[j].0) {
                            std::cmp::Ordering::Less => i += 1,
                            std::cmp::Ordering::Greater => j += 1,
                            std::cmp::Ordering::Equal => {
                                acc += (qv[i].1 * sv[j].1) as f64;
                                i += 1;
                                j += 1;
                            }
                        }
                    }
                    acc
                };
                if cos >= join.threshold {
                    mapping.matches[qi].push((hit.column, ri));
                }
            }
        }
    }
    mapping
}

fn pexeso_mapping(
    w: &Workload,
    index: &PexesoIndex<Euclidean>,
    task: &MlTask,
    tau: Tau,
) -> JoinMapping {
    let query = embed_query(&w.embedder, task.query.key_values());
    let result = index
        .execute(
            &sequential_query(tau, JoinThreshold::Ratio(T_RATIO)),
            query.store(),
        )
        .expect("search");
    // External ids equal insertion order in the embedded workload.
    let cols: Vec<ColumnId> = result
        .hits
        .iter()
        .map(|h| ColumnId(h.external_id as u32))
        .collect();
    let mut mapping = join_mapping(index, &w.embedded, &query, &cols, tau).expect("mapping");
    dedupe_mapping(&mut mapping);
    mapping
}

fn main() {
    let scale = pexeso_bench::scale();
    println!("Table V: performance in ML tasks (scale={scale})\n");

    let w = Workload::swdc(scale, 21);
    let repo = w.string_columns();
    let index = PexesoIndex::build(w.embedded.columns.clone(), Euclidean, w.index_options())
        .expect("index");
    let total_cells = w.total_cells();
    let n_rows = ((200.0 * scale) as usize).clamp(60, 1000);

    let tasks = [
        (
            "(a) company classification (micro-F1, higher better)",
            TaskKind::Classification,
            0usize,
        ),
        (
            "(b) product classification (micro-F1, higher better)",
            TaskKind::Classification,
            1usize,
        ),
        (
            "(c) sales regression (MSE, lower better)",
            TaskKind::Regression,
            2usize,
        ),
    ];

    for (title, kind, domain) in tasks {
        let domain = domain % w.lake.config.num_domains;
        let task = make_task(
            &w.lake,
            TaskSpec {
                name: title.to_string(),
                kind,
                domain,
                n_rows,
                seed: 31 + domain as u64,
            },
        );
        let aug_cfg = AugmentConfig {
            min_coverage: (n_rows / 10).max(5),
            ..Default::default()
        };

        let mut methods: Vec<(String, JoinMapping)> =
            vec![("no-join".into(), JoinMapping::new(n_rows))];
        methods.push((
            "equi-join".into(),
            string_mapping(&EquiMatcher, &repo, &task, &w.lake),
        ));
        methods.push((
            "Jaccard-join".into(),
            string_mapping(&JaccardMatcher { threshold: 0.7 }, &repo, &task, &w.lake),
        ));
        methods.push((
            "fuzzy-join".into(),
            string_mapping(
                &FuzzyMatcher {
                    token_sim: 0.75,
                    fraction: 0.8,
                },
                &repo,
                &task,
                &w.lake,
            ),
        ));
        methods.push((
            "edit-join".into(),
            string_mapping(&EditMatcher { threshold: 0.8 }, &repo, &task, &w.lake),
        ));
        let tfidf = TfIdfJoin::build(&repo, 0.7);
        methods.push(("TF-IDF-join".into(), tfidf_mapping(&tfidf, &task, &w.lake)));
        methods.push((
            "PEXESO".into(),
            pexeso_mapping(&w, &index, &task, Tau::Ratio(0.06)),
        ));

        println!("{title}");
        let metric_name = match kind {
            TaskKind::Classification => "Micro-F1",
            TaskKind::Regression => "MSE",
        };
        let mut table = TablePrinter::new(&["Method", "# Match", metric_name]);
        for (name, mapping) in methods {
            let (outcome, _nfeat) = evaluate_with_mapping(&task, &w.lake, &mapping, &aug_cfg);
            let match_pct = 100.0 * mapping.total_pairs() as f64 / total_cells as f64;
            let match_str = if name == "no-join" {
                "-".to_string()
            } else {
                format!("{match_pct:.2}%")
            };
            table.row(vec![
                name,
                match_str,
                format!("{:.3} ± {:.3}", outcome.metric_mean, outcome.metric_std),
            ]);
        }
        table.print();
        println!();
    }
}

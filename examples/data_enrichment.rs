//! Data enrichment for machine learning (the paper's Table V workflow):
//! discover joinable tables in a synthetic lake, left-join them onto a
//! query table, and measure how much the added features improve a random
//! forest, compared to no-join and equi-join.
//!
//! ```bash
//! cargo run --release --example data_enrichment
//! ```

use pexeso::pipeline::{dedupe_mapping, embed_query, embed_synthetic_lake, join_mapping};
use pexeso::prelude::*;
use pexeso_baselines::stringjoin::{EquiJoinIndex, StringColumns};
use pexeso_lake::JoinMapping;
use pexeso_ml::augment::AugmentConfig;
use pexeso_ml::tasks::{evaluate_with_mapping, make_task, TaskKind, TaskSpec};

fn main() -> Result<()> {
    // A WDC-like lake with planted latent signal.
    let lake = SyntheticLake::generate(GeneratorConfig::wdc_like(0.05, 7));
    let embedder = SemanticEmbedder::new(48, lake.lexicon.clone());
    let mut embedded = embed_synthetic_lake(&embedder, &lake)?;
    embedded.columns.store_mut().normalize_all();
    let index = PexesoIndex::build(embedded.columns.clone(), Euclidean, IndexOptions::default())?;
    println!(
        "lake: {} tables, {} key cells | index: {:.1} MB built in {:?}\n",
        lake.tables.len(),
        lake.total_key_cells(),
        index.index_bytes() as f64 / 1e6,
        index.build_time()
    );

    // A classification task whose signal lives in the lake.
    let task = make_task(
        &lake,
        TaskSpec {
            name: "category prediction".into(),
            kind: TaskKind::Classification,
            domain: 0,
            n_rows: 100,
            seed: 3,
        },
    );
    let aug = AugmentConfig {
        min_coverage: 10,
        ..Default::default()
    };

    // no-join baseline.
    let empty = JoinMapping::new(100);
    let (no_join, _) = evaluate_with_mapping(&task, &lake, &empty, &aug);
    println!(
        "no-join      micro-F1 = {:.3} ± {:.3}",
        no_join.metric_mean, no_join.metric_std
    );

    // equi-join enrichment.
    let mut repo = StringColumns::default();
    for t in &lake.tables {
        repo.add(t.table.name(), t.key_values().to_vec());
    }
    let equi = EquiJoinIndex::build(&repo);
    let (equi_hits, _) = equi.search(task.query.key_values(), 0.5);
    let mut equi_mapping = JoinMapping::new(100);
    for hit in &equi_hits {
        let table = &lake.tables[hit.column];
        for (qi, q) in task.query.key_values().iter().enumerate() {
            for (ri, s) in table.key_values().iter().enumerate() {
                if q.trim() == s.trim() {
                    equi_mapping.matches[qi].push((hit.column, ri));
                }
            }
        }
    }
    let (equi_out, _) = evaluate_with_mapping(&task, &lake, &equi_mapping, &aug);
    println!(
        "equi-join    micro-F1 = {:.3} ± {:.3}   ({} tables joined, {:.0}% rows matched)",
        equi_out.metric_mean,
        equi_out.metric_std,
        equi_hits.len(),
        equi_mapping.row_match_rate() * 100.0
    );

    // PEXESO enrichment.
    let tau = Tau::Ratio(0.06);
    let query = embed_query(&embedder, task.query.key_values());
    let result = index.execute(
        &Query::threshold(tau, JoinThreshold::Ratio(0.5)),
        query.store(),
    )?;
    let cols: Vec<ColumnId> = result
        .hits
        .iter()
        .map(|h| ColumnId(h.external_id as u32))
        .collect();
    let mut mapping = join_mapping(&index, &embedded, &query, &cols, tau)?;
    dedupe_mapping(&mut mapping);
    let (pexeso_out, n_features) = evaluate_with_mapping(&task, &lake, &mapping, &aug);
    println!(
        "PEXESO       micro-F1 = {:.3} ± {:.3}   ({} tables joined, {:.0}% rows matched, {} features added)",
        pexeso_out.metric_mean,
        pexeso_out.metric_std,
        cols.len(),
        mapping.row_match_rate() * 100.0,
        n_features
    );
    Ok(())
}

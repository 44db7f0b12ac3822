//! End-to-end integration: synthetic lake → embedding → index → search →
//! ground-truth evaluation → join mapping → ML augmentation. Exercises the
//! full Fig.-1 workflow across all five crates.

use std::collections::HashSet;

use pexeso::pipeline::{
    dedupe_mapping, embed_query, embed_synthetic_lake, embed_tables, join_mapping,
};
use pexeso::prelude::*;
use pexeso_baselines::stringjoin::{EquiJoinIndex, StringColumns};
use pexeso_lake::generator::GeneratorConfig;
use pexeso_lake::keycol::KeyColumnConfig;
use pexeso_lake::JoinMapping;
use pexeso_ml::augment::AugmentConfig;
use pexeso_ml::tasks::{evaluate_with_mapping, make_task, TaskKind, TaskSpec};

fn wdc_workload(
    seed: u64,
) -> (
    SyntheticLake,
    SemanticEmbedder,
    pexeso::pipeline::EmbeddedLake,
) {
    let mut cfg = GeneratorConfig::wdc_like(0.05, seed);
    cfg.num_tables = 60;
    let lake = SyntheticLake::generate(cfg);
    let embedder = SemanticEmbedder::new(48, lake.lexicon.clone());
    let mut embedded = embed_synthetic_lake(&embedder, &lake).unwrap();
    embedded.columns.store_mut().normalize_all();
    (lake, embedder, embedded)
}

#[test]
fn discovery_recall_beats_equi_join_on_noisy_lake() {
    let (lake, embedder, embedded) = wdc_workload(5);
    let index =
        PexesoIndex::build(embedded.columns.clone(), Euclidean, IndexOptions::default()).unwrap();

    let t_ratio = 0.5;
    let mut pexeso_recalls = Vec::new();
    let mut equi_recalls = Vec::new();
    let equi_repo = {
        let mut repo = StringColumns::default();
        for t in &lake.tables {
            repo.add(t.table.name(), t.key_values().to_vec());
        }
        EquiJoinIndex::build(&repo)
    };

    let mut evaluated = 0;
    for i in 0..30 {
        let q = lake.make_query(i % lake.config.num_domains, 15, 1000 + i as u64);
        let truth = lake.ground_truth(&q, t_ratio);
        if truth.is_empty() {
            continue;
        }
        evaluated += 1;
        // PEXESO.
        let emb = embed_query(&embedder, q.key_values());
        let result = index
            .execute(
                &Query::threshold(Tau::Ratio(0.06), JoinThreshold::Ratio(t_ratio)),
                emb.store(),
            )
            .unwrap();
        let retrieved: HashSet<usize> = result
            .hits
            .iter()
            .map(|h| embedded.provenance[h.external_id as usize].table_idx)
            .collect();
        let inter = retrieved.intersection(&truth).count();
        pexeso_recalls.push(inter as f64 / truth.len() as f64);
        // Precision should be near-perfect: cross-entity matches are rare.
        if !retrieved.is_empty() {
            let p = inter as f64 / retrieved.len() as f64;
            assert!(p >= 0.6, "query {i}: precision {p} too low");
        }
        // equi-join.
        let (equi_hits, _) = equi_repo.search(q.key_values(), t_ratio);
        let equi_retrieved: HashSet<usize> = equi_hits.iter().map(|h| h.column).collect();
        equi_recalls.push(equi_retrieved.intersection(&truth).count() as f64 / truth.len() as f64);
    }
    assert!(evaluated >= 5, "need non-trivial queries, got {evaluated}");
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (pr, er) = (mean(&pexeso_recalls), mean(&equi_recalls));
    assert!(
        pr > er + 0.1,
        "semantic search should out-recall equi-join: PEXESO {pr} vs equi {er}"
    );
    assert!(pr > 0.7, "PEXESO recall too low: {pr}");
}

#[test]
fn full_enrichment_pipeline_improves_model() {
    let (lake, embedder, embedded) = wdc_workload(6);
    let index =
        PexesoIndex::build(embedded.columns.clone(), Euclidean, IndexOptions::default()).unwrap();

    let task = make_task(
        &lake,
        TaskSpec {
            name: "clf".into(),
            kind: TaskKind::Classification,
            domain: 0,
            n_rows: 80,
            seed: 9,
        },
    );
    let tau = Tau::Ratio(0.06);
    let query = embed_query(&embedder, task.query.key_values());
    let result = index
        .execute(
            &Query::threshold(tau, JoinThreshold::Ratio(0.5)),
            query.store(),
        )
        .unwrap();
    // External ids equal insertion order in the embedded lake.
    let cols: Vec<ColumnId> = result
        .hits
        .iter()
        .map(|h| ColumnId(h.external_id as u32))
        .collect();
    assert!(!cols.is_empty(), "discovery must find joinable tables");

    let mut mapping = join_mapping(&index, &embedded, &query, &cols, tau).unwrap();
    dedupe_mapping(&mut mapping);
    assert!(
        mapping.row_match_rate() > 0.5,
        "most query rows should be matched"
    );

    let aug_cfg = AugmentConfig {
        min_coverage: 8,
        ..Default::default()
    };
    let empty = JoinMapping::new(80);
    let (no_join, _) = evaluate_with_mapping(&task, &lake, &empty, &aug_cfg);
    let (with_join, n_features) = evaluate_with_mapping(&task, &lake, &mapping, &aug_cfg);
    assert!(n_features > 0, "augmentation must add features");
    assert!(
        with_join.metric_mean > no_join.metric_mean,
        "join features should help: {} vs {}",
        with_join.metric_mean,
        no_join.metric_mean
    );
}

#[test]
fn csv_ingestion_to_search_roundtrip() {
    // Write three CSV tables to disk, ingest via the real CSV + key-column
    // path, search with a query column, check the expected table wins.
    let dir = std::env::temp_dir().join(format!("pexeso_e2e_csv_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let games = "Name,Year\nSuper Mario World,1990\nZelda Ocarina,1998\nMetroid Prime,2002\nHalo Infinite,2021\nDoom Eternal,2020\n";
    let cities = "City,Population\nOslo,700000\nBergen,290000\nTrondheim,210000\nStavanger,140000\nDrammen,100000\n";
    let sales = "title,units\nsuper mario world,20000\nzelda ocarina,15000\nmetroid prime,9000\nhalo infinite,12000\ndoom eternal,11000\n";
    for (name, text) in [("games", games), ("cities", cities), ("sales", sales)] {
        std::fs::write(dir.join(format!("{name}.csv")), text).unwrap();
    }

    let mut tables = Vec::new();
    for name in ["games", "cities", "sales"] {
        tables.push(pexeso_lake::csv::read_table_file(&dir.join(format!("{name}.csv"))).unwrap());
    }
    let embedder = HashEmbedder::new(64);
    let mut lake = embed_tables(
        &embedder,
        &tables,
        &KeyColumnConfig {
            min_rows: 3,
            ..Default::default()
        },
    )
    .unwrap();
    lake.columns.store_mut().normalize_all();
    assert_eq!(
        lake.columns.n_columns(),
        3,
        "all three tables have key columns"
    );

    let index =
        PexesoIndex::build(lake.columns.clone(), Euclidean, IndexOptions::default()).unwrap();
    let query_vals: Vec<String> = ["Super Mario World", "Zelda Ocarina", "Metroid Prime"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let query = embed_query(&embedder, &query_vals);
    let result = index
        .execute(
            &Query::threshold(Tau::Ratio(0.06), JoinThreshold::Ratio(0.9)),
            query.store(),
        )
        .unwrap();
    let hit_tables: Vec<usize> = result
        .hits
        .iter()
        .map(|h| lake.provenance[h.external_id as usize].table_idx)
        .collect();
    // Both the games table and the lower-cased sales table join; cities not.
    assert!(hit_tables.contains(&0), "games should join: {hit_tables:?}");
    assert!(
        hit_tables.contains(&2),
        "sales (case-noisy) should join: {hit_tables:?}"
    );
    assert!(
        !hit_tables.contains(&1),
        "cities must not join: {hit_tables:?}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn persisted_partitions_survive_reopen_and_match_in_memory() {
    let (_lake, embedder, embedded) = wdc_workload(7);
    let dir = std::env::temp_dir().join(format!("pexeso_e2e_ooc_{}", std::process::id()));

    let built = PartitionedLake::build(
        &embedded.columns,
        Euclidean,
        &PartitionConfig {
            k: 4,
            method: PartitionMethod::JsdKmeans,
            ..Default::default()
        },
        &IndexOptions::default(),
        &dir,
    )
    .unwrap();
    assert!(built.num_partitions() >= 2);

    let index =
        PexesoIndex::build(embedded.columns.clone(), Euclidean, IndexOptions::default()).unwrap();
    let q_values: Vec<String> = embedded
        .provenance
        .iter()
        .take(1)
        .flat_map(|_| {
            // Use a handful of repository strings as the query.
            Vec::new()
        })
        .collect();
    let _ = q_values;
    let query = {
        let mut store = VectorStore::new(embedded.columns.dim());
        for i in 0..10 {
            store.push(embedded.columns.store().get_raw(i * 3)).unwrap();
        }
        store
    };
    let tau = Tau::Ratio(0.06);
    let t = JoinThreshold::Ratio(0.3);
    let in_mem: Vec<u64> = index
        .execute(&Query::threshold(tau, t), &query)
        .unwrap()
        .hits
        .iter()
        .map(|h| h.external_id)
        .collect();

    let reopened = PartitionedLake::open(&dir).unwrap();
    let resp = reopened.execute(&Query::threshold(tau, t), &query).unwrap();
    let got: Vec<u64> = resp.hits.iter().map(|h| h.external_id).collect();
    assert_eq!(got, in_mem);
    assert!(resp.stats.total_time.as_nanos() > 0);
    let _ = embedder;

    std::fs::remove_dir_all(&dir).ok();
}

//! The paper's motivating example (Table I): joining a population table's
//! "Race" column with a median-household-income table whose categories use
//! different terminology. Equi-join finds only the exact matches; PEXESO's
//! semantic similarity join recovers all four.
//!
//! ```bash
//! cargo run --release --example census_join
//! ```

use pexeso::pipeline::{dedupe_mapping, embed_query, join_mapping, EmbeddedLakeBuilder};
use pexeso::prelude::*;
use pexeso_baselines::stringjoin::{string_join_search, EquiMatcher, StringColumns};

fn main() -> Result<()> {
    // Table Ia: Population (the query table).
    let race = vec![
        "White".to_string(),
        "Black".to_string(),
        "American Indian/Alaska Native".to_string(),
        "Hawaiian/Guamanian/Samoan".to_string(),
    ];
    // Table Ib: Median household income (in the data lake).
    let income_col1 = vec![
        "White".to_string(),
        "Black".to_string(),
        "Mainland Indigenous".to_string(),
        "Pacific Islander".to_string(),
    ];
    let income_col2 = ["65,902", "41,511", "44,772", "61,911"];

    // The semantic knowledge a pre-trained embedding model would supply.
    let mut lexicon = Lexicon::new();
    lexicon.add_synonym_set(["American Indian/Alaska Native", "Mainland Indigenous"]);
    lexicon.add_synonym_set(["Hawaiian/Guamanian/Samoan", "Pacific Islander"]);
    let embedder = SemanticEmbedder::new(96, lexicon);

    // --- equi-join baseline -------------------------------------------
    let mut repo = StringColumns::default();
    repo.add("income.Col 1", income_col1.clone());
    let (equi_hits, _) = string_join_search(&EquiMatcher, &race, &repo, 0.9);
    println!("equi-join: {} joinable tables at T=90%", equi_hits.len());
    let (equi_hits_loose, _) = string_join_search(&EquiMatcher, &race, &repo, 0.5);
    println!(
        "equi-join at T=50%: {} joinable (only 'White'/'Black' match exactly)\n",
        equi_hits_loose.len()
    );

    // --- PEXESO --------------------------------------------------------
    let lake = EmbeddedLakeBuilder::new(&embedder)
        .add_column("income", "Col 1", &income_col1)
        .build()?;
    let index = PexesoIndex::build(lake.columns.clone(), Euclidean, IndexOptions::default())?;
    let query = embed_query(&embedder, &race);
    let tau = Tau::Ratio(0.06);
    let result = index.execute(
        &Query::threshold(tau, JoinThreshold::Ratio(0.9)),
        query.store(),
    )?;
    println!("PEXESO: {} joinable tables at T=90%", result.hits.len());

    // Present the record-level mapping, as the framework does for users
    // (external ids equal insertion order in the embedded lake).
    let cols: Vec<ColumnId> = result
        .hits
        .iter()
        .map(|h| ColumnId(h.external_id as u32))
        .collect();
    let mut mapping = join_mapping(&index, &lake, &query, &cols, tau)?;
    dedupe_mapping(&mut mapping);
    println!("\njoined result (Race -> income category -> Median income):");
    for (qi, matches) in mapping.matches.iter().enumerate() {
        for &(_, row) in matches {
            println!(
                "  {:<33} -> {:<20} -> ${}",
                race[qi], income_col1[row], income_col2[row]
            );
        }
        if matches.is_empty() {
            println!("  {:<33} -> (no match)", race[qi]);
        }
    }
    Ok(())
}

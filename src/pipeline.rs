//! The end-to-end pipeline: tables → embedded columns → PEXESO index →
//! join mappings.
//!
//! Mirrors the framework picture of the paper's Fig. 1: the offline
//! component extracts key columns, embeds their string values, and indexes
//! the vectors; the online component embeds the query column, searches, and
//! presents each joinable table together with the record-level mapping.
//!
//! Offline embedding is one loop over the tables ([`embed_tables`],
//! [`embed_synthetic_lake`] and [`ingest_tables`] all run it): contiguous
//! runs of tables are shared out over the cores, each run embeds every
//! distinct cell value once (a lake repeats its values: a generated WDC
//! lake has about seven key cells per distinct value), and the columns
//! are assembled in table order — so the vectors, names, external ids and
//! provenance do not depend on how many cores did the work. The embedder
//! is a pure function of the value, so a remembered vector is the bits a
//! fresh embedding would give. [`embed_query`] embeds one column on the
//! caller's thread.

use std::collections::HashMap;
use std::path::Path;

use pexeso_core::column::{ColumnId, ColumnSet};
use pexeso_core::config::{ExecPolicy, IndexOptions, Tau};
use pexeso_core::error::{PexesoError, Result};
use pexeso_core::exec;
use pexeso_core::metric::{Euclidean, Metric};
use pexeso_core::outofcore::{LakeManifest, PartitionedLake};
use pexeso_core::partition::{PartitionConfig, PartitionMethod};
use pexeso_core::query::{Query, QueryResponse, Queryable};
use pexeso_core::search::PexesoIndex;
use pexeso_core::vector::VectorStore;
use pexeso_delta::{ingest_columns, IngestColumn, IngestReport};
use pexeso_embed::Embedder;
use pexeso_lake::generator::SyntheticLake;
use pexeso_lake::keycol::{detect_key_column, KeyColumnConfig};
use pexeso_lake::table::Table;
use pexeso_lake::JoinMapping;

/// Where an embedded repository column came from, and which table row each
/// of its vectors represents (empty cells are skipped during embedding, so
/// vector offsets need not equal row numbers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnProvenance {
    /// Index of the source table in the caller's table list.
    pub table_idx: usize,
    /// Index of the key column inside that table.
    pub key_col: usize,
    /// `rows[i]` = table row of the column's `i`-th vector.
    pub rows: Vec<u32>,
}

/// An embedded repository: the vector columns plus provenance. The
/// `external_id` of each [`ColumnSet`] column indexes into `provenance`.
#[derive(Debug, Clone)]
pub struct EmbeddedLake {
    pub columns: ColumnSet,
    pub provenance: Vec<ColumnProvenance>,
}

/// An embedded query column with its row alignment.
#[derive(Debug, Clone)]
pub struct EmbeddedQuery {
    store: VectorStore,
    /// `rows[i]` = query row of vector `i`.
    rows: Vec<u32>,
    n_rows: usize,
}

impl EmbeddedQuery {
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    pub fn n_rows(&self) -> usize {
        self.n_rows
    }
}

/// Embed one cell into `out`; false when the cell carries no signal — it
/// is blank, or it embeds to the zero vector (no usable tokens) — and is
/// skipped.
fn embed_cell(embedder: &dyn Embedder, value: &str, out: &mut [f32]) -> bool {
    if value.trim().is_empty() {
        return false;
    }
    embedder.embed_into(value, out);
    out.iter().any(|&x| x != 0.0)
}

/// Embed the non-empty values of a column; returns the vectors (flat,
/// `dim` floats each) and the row of each.
fn embed_values(embedder: &dyn Embedder, values: &[String]) -> (Vec<f32>, Vec<u32>) {
    let dim = embedder.dim();
    let mut vectors = Vec::with_capacity(values.len() * dim);
    let mut rows = Vec::with_capacity(values.len());
    for (ri, v) in values.iter().enumerate() {
        let start = vectors.len();
        vectors.resize(start + dim, 0.0);
        if embed_cell(embedder, v, &mut vectors[start..]) {
            rows.push(ri as u32);
        } else {
            vectors.truncate(start);
        }
    }
    (vectors, rows)
}

/// [`embed_values`] with a memory: each distinct value is embedded once,
/// and a repeat copies the remembered vector (or is skipped again).
struct ValueMemo<'a> {
    embedder: &'a dyn Embedder,
    /// Value → index of its vector in `vectors`, `None` for a skipped cell.
    slots: HashMap<&'a str, Option<usize>>,
    vectors: Vec<f32>,
}

impl<'a> ValueMemo<'a> {
    fn new(embedder: &'a dyn Embedder) -> Self {
        Self {
            embedder,
            slots: HashMap::new(),
            vectors: Vec::new(),
        }
    }

    fn embed_values(&mut self, values: &'a [String]) -> (Vec<f32>, Vec<u32>) {
        let dim = self.embedder.dim();
        let mut vectors = Vec::with_capacity(values.len() * dim);
        let mut rows = Vec::with_capacity(values.len());
        for (ri, v) in values.iter().enumerate() {
            let slot = *self.slots.entry(v.as_str()).or_insert_with(|| {
                let start = self.vectors.len();
                self.vectors.resize(start + dim, 0.0);
                if embed_cell(self.embedder, v, &mut self.vectors[start..]) {
                    Some(start)
                } else {
                    self.vectors.truncate(start);
                    None
                }
            });
            if let Some(start) = slot {
                vectors.extend_from_slice(&self.vectors[start..start + dim]);
                rows.push(ri as u32);
            }
        }
        (vectors, rows)
    }
}

/// Tables per shard below which a second thread does not pay for itself:
/// a generated key column (~19 values) embeds in about 90 µs while its
/// values are new to the shard (about 30 µs on average over a whole
/// generated lake, where most values repeat), and a spawn wants a
/// millisecond or more of work behind it.
const MIN_TABLES_PER_SHARD: usize = 16;

/// The offline embedding loop: embed the key column `key_column` names
/// for each table (`None` skips the table) over contiguous runs of tables
/// under `policy`, each run with its own [`ValueMemo`], then assemble the
/// columns in table order — external ids dense in that order, tables
/// whose key column embeds to nothing skipped — so the result is the
/// sequential fold of [`embed_values`] whatever the policy.
fn embed_key_columns<T: Sync>(
    embedder: &dyn Embedder,
    tables: &[T],
    key_column: impl Fn(&T) -> Option<(&Table, usize)> + Sync,
    policy: ExecPolicy,
    none_embedded: &'static str,
) -> Result<EmbeddedLake> {
    let shards = exec::map_ranges_min(policy, tables.len(), MIN_TABLES_PER_SHARD, |range| {
        let mut memo = ValueMemo::new(embedder);
        range
            .filter_map(|table_idx| {
                let (table, key_col) = key_column(&tables[table_idx])?;
                let (vectors, rows) = memo.embed_values(table.column(key_col));
                Some((table_idx, table, key_col, vectors, rows))
            })
            .collect::<Vec<_>>()
    });
    let mut columns = ColumnSet::new(embedder.dim());
    let mut provenance = Vec::new();
    for (table_idx, table, key_col, vectors, rows) in shards.into_iter().flatten() {
        if rows.is_empty() {
            continue;
        }
        let external_id = provenance.len() as u64;
        columns.add_column(
            table.name(),
            &table.headers()[key_col],
            external_id,
            vectors.chunks_exact(embedder.dim()),
        )?;
        provenance.push(ColumnProvenance {
            table_idx,
            key_col,
            rows,
        });
    }
    if columns.n_columns() == 0 {
        return Err(PexesoError::EmptyInput(none_embedded));
    }
    Ok(EmbeddedLake {
        columns,
        provenance,
    })
}

/// Incremental builder for an [`EmbeddedLake`].
pub struct EmbeddedLakeBuilder<'a> {
    embedder: &'a dyn Embedder,
    columns: ColumnSet,
    provenance: Vec<ColumnProvenance>,
}

impl<'a> EmbeddedLakeBuilder<'a> {
    pub fn new(embedder: &'a dyn Embedder) -> Self {
        Self {
            embedder,
            columns: ColumnSet::new(embedder.dim()),
            provenance: Vec::new(),
        }
    }

    /// Add one key column's values as a repository column. Table index is
    /// assigned in insertion order.
    pub fn add_column(mut self, table_name: &str, column_name: &str, values: &[String]) -> Self {
        let (vectors, rows) = embed_values(self.embedder, values);
        if rows.is_empty() {
            return self; // nothing embeddable; skip the column entirely
        }
        let table_idx = self.provenance.len();
        let external_id = self.provenance.len() as u64;
        self.columns
            .add_column(
                table_name,
                column_name,
                external_id,
                vectors.chunks_exact(self.embedder.dim()),
            )
            .expect("embedder produces fixed-dim vectors");
        self.provenance.push(ColumnProvenance {
            table_idx,
            key_col: 0,
            rows,
        });
        self
    }

    pub fn build(self) -> Result<EmbeddedLake> {
        if self.columns.n_columns() == 0 {
            return Err(PexesoError::EmptyInput("no embeddable columns"));
        }
        Ok(EmbeddedLake {
            columns: self.columns,
            provenance: self.provenance,
        })
    }
}

/// Offline ingestion of arbitrary tables: detect each table's key column
/// (SATO stand-in) and embed it. Tables without a usable key column are
/// skipped, like the paper drops tables lacking key information. Tables
/// are embedded in parallel and assembled in table order.
pub fn embed_tables(
    embedder: &dyn Embedder,
    tables: &[Table],
    key_cfg: &KeyColumnConfig,
) -> Result<EmbeddedLake> {
    embed_key_columns(
        embedder,
        tables,
        |table| detect_key_column(table, key_cfg).map(|key_col| (table, key_col)),
        ExecPolicy::auto(),
        "no table with a detectable key column",
    )
}

/// Offline ingestion of a generated lake, using the planted key columns
/// (what the WDC corpus's key annotations provide in the paper). Tables
/// are embedded in parallel and assembled in table order.
pub fn embed_synthetic_lake(embedder: &dyn Embedder, lake: &SyntheticLake) -> Result<EmbeddedLake> {
    embed_key_columns(
        embedder,
        &lake.tables,
        |gt| Some((&gt.table, gt.key_col)),
        ExecPolicy::auto(),
        "generated lake had no embeddable tables",
    )
}

/// Online: embed a query column's values (empty cells skipped but row
/// alignment retained for join mappings), on the caller's thread.
pub fn embed_query(embedder: &dyn Embedder, values: &[String]) -> EmbeddedQuery {
    let (vectors, rows) = embed_values(embedder, values);
    let store = VectorStore::from_raw(embedder.dim(), vectors)
        .expect("embedder produces fixed-dim vectors");
    EmbeddedQuery {
        store,
        rows,
        n_rows: values.len(),
    }
}

/// A persisted deployment plus build statistics, as returned by
/// [`build_lake_index`].
#[derive(Debug)]
pub struct DeployedLake {
    pub lake: PartitionedLake,
    pub manifest: LakeManifest,
    /// Key columns embedded into the deployment.
    pub n_columns: usize,
    /// Total vectors across those columns.
    pub n_vectors: usize,
}

/// Offline deployment build shared by the CLI, the serving daemon's
/// operators, and the tests: detect each table's key column, embed it,
/// JSD-partition the columns, persist one PEXESO index per partition
/// under `out_dir`, and write the versioned manifest (`index_version`
/// continues from any manifest already present, so re-indexing the same
/// directory produces a build a resident server can distinguish from the
/// previous one when it hot-swaps).
pub fn build_lake_index(
    tables: &[Table],
    embedder: &dyn Embedder,
    embedder_name: &str,
    key_cfg: &KeyColumnConfig,
    out_dir: &Path,
    partitions: usize,
    policy: ExecPolicy,
) -> Result<DeployedLake> {
    let mut embedded = embed_tables(embedder, tables, key_cfg)?;
    embedded.columns.store_mut().normalize_all();
    let n_columns = embedded.columns.n_columns();
    let n_vectors = embedded.columns.n_vectors();
    std::fs::create_dir_all(out_dir)?;
    let lake = PartitionedLake::build(
        &embedded.columns,
        Euclidean,
        &PartitionConfig {
            k: partitions,
            method: PartitionMethod::JsdKmeans,
            ..Default::default()
        },
        &IndexOptions {
            exec: policy,
            ..Default::default()
        },
        out_dir,
    )?;
    lake.sync_files("index.sync")?;
    let mut manifest = LakeManifest::next_build(out_dir, embedder_name, embedder.dim())?;
    // Record the id-allocation high-water mark so incremental ingest can
    // assign fresh external ids without scanning the partitions. (The
    // version bump also makes any delta log of the previous build stale:
    // a full re-index subsumes it.)
    manifest.next_external_id = n_columns as u64;
    manifest.write(out_dir)?;
    Ok(DeployedLake {
        lake,
        manifest,
        n_columns,
        n_vectors,
    })
}

/// Incremental ingest: detect and embed each table's key column exactly
/// like [`build_lake_index`] does (same embedder, same per-vector
/// normalization — the WAL stores the same `f32` bits a rebuild would
/// index), then append the columns to the deployment's delta log with
/// fresh external ids. Seconds instead of the minutes a full re-embed +
/// re-partition costs; queries pick the columns up through
/// [`pexeso_delta::DeltaLake::open`] or a serving daemon's delta-apply.
pub fn ingest_tables(
    index_dir: &Path,
    tables: &[Table],
    embedder: &dyn Embedder,
    key_cfg: &KeyColumnConfig,
) -> Result<IngestReport> {
    let manifest = LakeManifest::read(index_dir)?;
    if embedder.dim() != manifest.dim {
        return Err(PexesoError::InvalidParameter(format!(
            "embedder dimensionality {} does not match the deployment's {}",
            embedder.dim(),
            manifest.dim
        )));
    }
    let lake = embed_tables(embedder, tables, key_cfg)?;
    ingest_columns(index_dir, &normalized_ingest_columns(lake))
}

/// An embedded lake's columns as the delta log takes them: each vector
/// normalised like the offline build normalises it.
fn normalized_ingest_columns(mut lake: EmbeddedLake) -> Vec<IngestColumn> {
    lake.columns.store_mut().normalize_all();
    let dim = lake.columns.dim();
    let data = lake.columns.store().raw_data();
    lake.columns
        .columns()
        .iter()
        .map(|meta| IngestColumn {
            table_name: meta.table_name.clone(),
            column_name: meta.column_name.clone(),
            vectors: data[meta.start as usize * dim..(meta.start + meta.len) as usize * dim]
                .to_vec(),
        })
        .collect()
}

/// The multi-user entry point, written once against the unified
/// executor trait: embed many string query columns and answer them, one
/// at a time, with one [`Query`] against *any* backend — an in-memory
/// index, a disk-backed or resident partitioned lake, or a remote
/// `pexeso serve` daemon. `responses[i]` pairs with `query_columns[i]`
/// and is exactly what `backend.execute(query, …)` returns for that
/// column. Query columns with no embeddable value yield the same
/// `EmptyInput` error a direct execution would (failing the call).
pub fn run_queries(
    backend: &dyn Queryable,
    embedder: &dyn Embedder,
    query_columns: &[Vec<String>],
    query: &Query,
) -> Result<Vec<(EmbeddedQuery, QueryResponse)>> {
    let embedded: Vec<EmbeddedQuery> = query_columns
        .iter()
        .map(|values| embed_query(embedder, values))
        .collect();
    let stores: Vec<&VectorStore> = embedded.iter().map(|q| &q.store).collect();
    let results = backend.execute_many(query, &stores)?;
    Ok(embedded.into_iter().zip(results).collect())
}

/// Resolve search hits into the record-level [`JoinMapping`] the paper
/// presents with each result (and which the ML augmentation consumes).
pub fn join_mapping<M: Metric>(
    index: &PexesoIndex<M>,
    lake: &EmbeddedLake,
    query: &EmbeddedQuery,
    hit_columns: &[ColumnId],
    tau: Tau,
) -> Result<JoinMapping> {
    let mut mapping = JoinMapping::new(query.n_rows);
    let per_column = index.match_pairs_many(query.store(), None, hit_columns, tau)?;
    for (&col, pairs) in hit_columns.iter().zip(per_column) {
        let meta = index.columns().column(col);
        let prov = &lake.provenance[meta.external_id as usize];
        for (q_vec, vid) in pairs {
            let q_row = query.rows[q_vec as usize] as usize;
            let offset = (vid.0 - meta.start) as usize;
            let t_row = prov.rows[offset] as usize;
            mapping.matches[q_row].push((prov.table_idx, t_row));
        }
    }
    Ok(mapping)
}

/// Convenience: dedupe + sort each row's matches (multiple vectors of the
/// same record can match).
pub fn dedupe_mapping(mapping: &mut JoinMapping) {
    for m in &mut mapping.matches {
        m.sort_unstable();
        m.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pexeso_core::config::{IndexOptions, JoinThreshold};
    use pexeso_core::metric::Euclidean;
    use pexeso_embed::{HashEmbedder, Lexicon, SemanticEmbedder};

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn builder_skips_empty_and_zero_cells() {
        let e = HashEmbedder::new(32);
        let lake = EmbeddedLakeBuilder::new(&e)
            .add_column("t", "c", &strings(&["alpha", "", "  ", "beta", "---"]))
            .build()
            .unwrap();
        assert_eq!(lake.columns.n_columns(), 1);
        assert_eq!(lake.columns.n_vectors(), 2);
        assert_eq!(lake.provenance[0].rows, vec![0, 3]);
    }

    #[test]
    fn all_empty_column_is_skipped_entirely() {
        let e = HashEmbedder::new(32);
        let result = EmbeddedLakeBuilder::new(&e)
            .add_column("t", "c", &strings(&["", "  "]))
            .build();
        assert!(result.is_err());
    }

    #[test]
    fn query_embedding_keeps_row_alignment() {
        let e = HashEmbedder::new(32);
        let q = embed_query(&e, &strings(&["", "value", "", "other"]));
        assert_eq!(q.store().len(), 2);
        assert_eq!(q.rows(), &[1, 3]);
        assert_eq!(q.n_rows(), 4);
    }

    #[test]
    fn end_to_end_semantic_join_and_mapping() {
        let mut lexicon = Lexicon::new();
        lexicon.add_synonym_set(["Hawaiian/Guamanian/Samoan", "Pacific Islander"]);
        let e = SemanticEmbedder::new(64, lexicon);

        let lake = EmbeddedLakeBuilder::new(&e)
            .add_column(
                "income",
                "Col 1",
                &strings(&["White", "Black", "Pacific Islander"]),
            )
            .add_column(
                "unrelated",
                "c",
                &strings(&["Alpha Beta", "Gamma Delta", "Epsilon"]),
            )
            .build()
            .unwrap();
        let index =
            PexesoIndex::build(lake.columns.clone(), Euclidean, IndexOptions::default()).unwrap();

        let query = embed_query(
            &e,
            &strings(&["White", "Black", "Hawaiian/Guamanian/Samoan"]),
        );
        let tau = Tau::Ratio(0.06); // the paper's default: 6 % of max distance
        let result = index
            .execute(
                &Query::threshold(tau, JoinThreshold::Ratio(0.9)),
                query.store(),
            )
            .unwrap();
        assert_eq!(result.hits.len(), 1, "only the income column joins fully");

        // External ids equal insertion order in the builder, so they map
        // straight back to internal column ids here.
        let hit_cols: Vec<ColumnId> = result
            .hits
            .iter()
            .map(|h| ColumnId(h.external_id as u32))
            .collect();
        let mut mapping = join_mapping(&index, &lake, &query, &hit_cols, tau).unwrap();
        dedupe_mapping(&mut mapping);
        // Every query row maps to its semantic counterpart in table 0.
        assert_eq!(mapping.matches[0], vec![(0, 0)]);
        assert_eq!(mapping.matches[1], vec![(0, 1)]);
        assert_eq!(mapping.matches[2], vec![(0, 2)]);
    }

    #[test]
    fn run_queries_matches_individual_searches() {
        let mut lexicon = Lexicon::new();
        lexicon.add_synonym_set(["Hawaiian/Guamanian/Samoan", "Pacific Islander"]);
        let e = SemanticEmbedder::new(64, lexicon);
        let lake = EmbeddedLakeBuilder::new(&e)
            .add_column(
                "income",
                "Col 1",
                &strings(&["White", "Black", "Pacific Islander"]),
            )
            .add_column(
                "unrelated",
                "c",
                &strings(&["Alpha Beta", "Gamma Delta", "Epsilon"]),
            )
            .build()
            .unwrap();
        let index =
            PexesoIndex::build(lake.columns.clone(), Euclidean, IndexOptions::default()).unwrap();
        let tau = Tau::Ratio(0.06);
        let t = JoinThreshold::Ratio(0.9);
        let query_columns = vec![
            strings(&["White", "Black", "Hawaiian/Guamanian/Samoan"]),
            strings(&["Alpha Beta", "Epsilon", "Gamma Delta"]),
        ];
        for policy in [
            pexeso_core::config::ExecPolicy::Sequential,
            pexeso_core::config::ExecPolicy::Parallel { threads: 4 },
        ] {
            let query = Query::threshold(tau, t).with_policy(policy);
            let answered = run_queries(&index, &e, &query_columns, &query).unwrap();
            assert_eq!(answered.len(), 2);
            for (values, (embedded, result)) in query_columns.iter().zip(&answered) {
                let solo = index
                    .execute(&Query::threshold(tau, t), embedded.store())
                    .unwrap();
                assert_eq!(result.hits, solo.hits, "policy={policy:?}");
                assert_eq!(embedded.n_rows(), values.len());
                assert_eq!(result.hits.len(), 1, "each query joins exactly one column");
            }
        }
    }

    /// Three ten-row tables with a detectable key column each.
    fn index_tables() -> Vec<Table> {
        (0..3)
            .map(|t| {
                Table::from_rows(
                    format!("tab{t}"),
                    vec!["Name", "Year"],
                    (0..10)
                        .map(|i| vec![format!("Item {t} Number {i}"), format!("{}", 2000 + i)])
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn build_and_open_lake_index_roundtrip() {
        // Crosses `index.sync`, which the next test arms.
        let _guard = pexeso_core::fault::test_lock();
        let e = HashEmbedder::new(32);
        let tables = index_tables();
        let dir = std::env::temp_dir().join(format!("pexeso_pipeline_idx_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();

        let deployed = build_lake_index(
            &tables,
            &e,
            "hash",
            &KeyColumnConfig::default(),
            &dir,
            2,
            ExecPolicy::Sequential,
        )
        .unwrap();
        assert_eq!(deployed.manifest.index_version, 1);
        assert_eq!(deployed.manifest.dim, 32);
        assert_eq!(deployed.n_columns, 3);
        assert_eq!(deployed.n_vectors, 30);

        let opened = PartitionedLake::open(&dir).unwrap();
        assert_eq!(opened.num_partitions(), deployed.lake.num_partitions());
        assert_eq!(LakeManifest::read(&dir).unwrap(), deployed.manifest);

        // Re-indexing the same directory bumps the manifest version.
        let again = build_lake_index(
            &tables,
            &e,
            "hash",
            &KeyColumnConfig::default(),
            &dir,
            2,
            ExecPolicy::Sequential,
        )
        .unwrap();
        assert_eq!(again.manifest.index_version, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// No manifest is published over partition files whose sync failed:
    /// the manifest would name bytes a power loss can take away.
    #[test]
    fn no_manifest_over_unsynced_partitions() {
        use pexeso_core::fault::{self, FaultAction, FaultRule};
        let _guard = fault::test_lock();
        let dir = std::env::temp_dir().join(format!("pexeso_pipeline_sync_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        fault::arm("index.sync", FaultRule::nth(0, FaultAction::Error));
        let result = build_lake_index(
            &index_tables(),
            &HashEmbedder::new(32),
            "hash",
            &KeyColumnConfig::default(),
            &dir,
            2,
            ExecPolicy::Sequential,
        );
        fault::disarm_all();
        assert!(result.is_err());
        assert!(!LakeManifest::path(&dir).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Key values for the loop tests: lexicon surfaces, misspellings (the
    /// fuzzy path), token-level hits and unknown strings.
    const KEY_VALUES: [&str; 12] = [
        "Pacific Islander",
        "Pacific Islandr",
        "Mainland Indigenous",
        "Nintendo Switch",
        "Population",
        "Populaton",
        "Sony PlayStation",
        "12 Main St",
        "Hawaiian/Guamanian/Samoan",
        "Mainland Indigenus",
        "Łódź Café",
        "Atlantic Salmon Run",
    ];

    fn loop_embedder() -> SemanticEmbedder {
        let mut lexicon = Lexicon::new();
        lexicon.add_synonym_set(["Hawaiian/Guamanian/Samoan", "Pacific Islander"]);
        lexicon.add_synonym_set(["Mainland Indigenous"]);
        lexicon.add_synonym_set(["nintendo"]);
        lexicon.add_synonym_set(["population"]);
        SemanticEmbedder::new(32, lexicon)
    }

    /// Enough tables for three shards, among them tables with no key
    /// column (too few rows) and tables whose key column embeds to
    /// nothing (emoji only), both of which the loop skips. Key values
    /// repeat within and across tables, and every fourth key cell is
    /// blank, whitespace or `---` (which embeds to zero), so its row is
    /// skipped.
    fn loop_tables() -> Vec<Table> {
        (0..40)
            .map(|t| {
                let rows: Vec<Vec<String>> = match t % 5 {
                    3 => (0..8)
                        .map(|i| vec!["🦀".repeat(i + 1), format!("{i}")])
                        .collect(),
                    4 => (0..3)
                        .map(|i| vec![format!("Short {t} {i}"), format!("{i}")])
                        .collect(),
                    _ => (0..8 + t % 7)
                        .map(|i| {
                            let key = if i % 4 == 3 {
                                ["", "  ", "---"][(t + i) % 3].to_string()
                            } else {
                                KEY_VALUES[(t + i) % KEY_VALUES.len()].to_string()
                            };
                            vec![key, format!("{}", 1990 + i)]
                        })
                        .collect(),
                };
                Table::from_rows(format!("t{t}"), vec!["Name", "Year"], rows)
            })
            .collect()
    }

    /// `embed_tables`' loop under an explicit policy.
    fn embed_tables_under(
        e: &dyn Embedder,
        tables: &[Table],
        cfg: &KeyColumnConfig,
        policy: ExecPolicy,
    ) -> EmbeddedLake {
        embed_key_columns(
            e,
            tables,
            |table| detect_key_column(table, cfg).map(|key_col| (table, key_col)),
            policy,
            "none",
        )
        .unwrap()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn parallel_embed_tables_equals_the_sequential_fold() {
        let e = loop_embedder();
        let tables = loop_tables();
        let cfg = KeyColumnConfig::default();
        let seq = embed_tables_under(&e, &tables, &cfg, ExecPolicy::Sequential);
        let public = embed_tables(&e, &tables, &cfg).unwrap();
        for par in [
            embed_tables_under(&e, &tables, &cfg, ExecPolicy::Fixed { threads: 3 }),
            public,
        ] {
            assert_eq!(par.columns, seq.columns);
            assert_eq!(
                bits(par.columns.store().raw_data()),
                bits(seq.columns.store().raw_data())
            );
            assert_eq!(par.provenance, seq.provenance);
        }
        // The fixture skips both kinds of table, and what survives has
        // dense external ids in table order.
        let kept: Vec<usize> = seq.provenance.iter().map(|p| p.table_idx).collect();
        let no_key = (0..tables.len())
            .filter(|&t| detect_key_column(&tables[t], &cfg).is_none())
            .count();
        let embeds_to_nothing = (0..tables.len())
            .filter(|&t| detect_key_column(&tables[t], &cfg).is_some() && !kept.contains(&t))
            .count();
        assert_eq!((no_key, embeds_to_nothing), (8, 8));
        assert!(kept.windows(2).all(|w| w[0] < w[1]));
        for (i, (meta, prov)) in seq
            .columns
            .columns()
            .iter()
            .zip(&seq.provenance)
            .enumerate()
        {
            assert_eq!(meta.external_id, i as u64);
            assert_eq!(meta.table_name, tables[prov.table_idx].name());
            assert_eq!(meta.column_name, "Name");
            assert_eq!(meta.len as usize, prov.rows.len());
        }
    }

    /// The loop without its memo: [`embed_values`] per table, the
    /// columns assembled in table order.
    fn fold_of_embed_values(
        e: &dyn Embedder,
        tables: &[Table],
        cfg: &KeyColumnConfig,
    ) -> EmbeddedLake {
        let mut columns = ColumnSet::new(e.dim());
        let mut provenance = Vec::new();
        for (table_idx, table) in tables.iter().enumerate() {
            let Some(key_col) = detect_key_column(table, cfg) else {
                continue;
            };
            let (vectors, rows) = embed_values(e, table.column(key_col));
            if rows.is_empty() {
                continue;
            }
            columns
                .add_column(
                    table.name(),
                    &table.headers()[key_col],
                    provenance.len() as u64,
                    vectors.chunks_exact(e.dim()),
                )
                .unwrap();
            provenance.push(ColumnProvenance {
                table_idx,
                key_col,
                rows,
            });
        }
        EmbeddedLake {
            columns,
            provenance,
        }
    }

    #[test]
    fn memoised_loop_equals_a_fold_of_embed_values() {
        let e = loop_embedder();
        let tables = loop_tables();
        let cfg = KeyColumnConfig::default();
        let want = fold_of_embed_values(&e, &tables, &cfg);
        for policy in [ExecPolicy::Sequential, ExecPolicy::Fixed { threads: 3 }] {
            let got = embed_tables_under(&e, &tables, &cfg, policy);
            assert_eq!(got.columns, want.columns, "{policy:?}");
            assert_eq!(
                bits(got.columns.store().raw_data()),
                bits(want.columns.store().raw_data()),
                "{policy:?}"
            );
            assert_eq!(got.provenance, want.provenance, "{policy:?}");
            let ids: Vec<u64> = got
                .columns
                .columns()
                .iter()
                .map(|m| m.external_id)
                .collect();
            assert_eq!(ids, (0..want.provenance.len() as u64).collect::<Vec<_>>());
        }
        // The fixture repeats values and skips blank, whitespace and
        // zero-embedding cells inside kept columns.
        let key_cells: Vec<&str> = want
            .provenance
            .iter()
            .flat_map(|p| tables[p.table_idx].column(p.key_col))
            .map(String::as_str)
            .collect();
        let distinct: std::collections::HashSet<&str> = key_cells.iter().copied().collect();
        assert!(key_cells.len() > 10 * distinct.len());
        for skipped in ["", "  ", "---"] {
            assert!(key_cells.contains(&skipped), "{skipped:?}");
        }
        let kept_rows: usize = want.provenance.iter().map(|p| p.rows.len()).sum();
        assert_eq!(kept_rows, want.columns.n_vectors());
        assert!(kept_rows < key_cells.len());
    }

    #[test]
    fn parallel_ingest_columns_equal_the_sequential_fold() {
        let e = loop_embedder();
        let tables = loop_tables();
        let cfg = KeyColumnConfig::default();
        let seq = normalized_ingest_columns(embed_tables_under(
            &e,
            &tables,
            &cfg,
            ExecPolicy::Sequential,
        ));
        let par = normalized_ingest_columns(embed_tables_under(
            &e,
            &tables,
            &cfg,
            ExecPolicy::Fixed { threads: 3 },
        ));
        assert_eq!(seq.len(), 24);
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(
                (&p.table_name, &p.column_name),
                (&s.table_name, &s.column_name)
            );
            assert_eq!(bits(&p.vectors), bits(&s.vectors));
            // Normalised one vector at a time, like the offline build.
            for v in s.vectors.chunks_exact(32) {
                let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
                assert!((norm - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn embed_tables_detects_keys() {
        use pexeso_lake::table::Table;
        let e = HashEmbedder::new(32);
        let t = Table::from_rows(
            "games",
            vec!["Name", "Year"],
            (0..8)
                .map(|i| vec![format!("Game Number {i}"), format!("{}", 1990 + i)])
                .collect(),
        );
        let lake = embed_tables(&e, &[t], &KeyColumnConfig::default()).unwrap();
        assert_eq!(lake.columns.n_columns(), 1);
        assert_eq!(lake.provenance[0].key_col, 0);
        assert_eq!(lake.columns.n_vectors(), 8);
    }
}

//! Workload construction shared by all experiments.
//!
//! Three dataset profiles mirror Table III of the paper at laptop scale:
//!
//! | profile | paper      | shape                         | embedding dim |
//! |---------|------------|-------------------------------|---------------|
//! | `open`  | OPEN       | few tables, long columns      | 96 (fastText 300 stand-in) |
//! | `swdc`  | SWDC       | many tables, short columns    | 48 (GloVe 50 stand-in)     |
//! | `lwdc`  | LWDC       | like swdc, several× larger, disk-resident | 48 |

use pexeso::pipeline::{embed_query, embed_synthetic_lake, EmbeddedLake, EmbeddedQuery};
use pexeso_embed::SemanticEmbedder;
use pexeso_lake::generator::{GenTable, GeneratorConfig, SyntheticLake};

/// A fully prepared workload: generated lake, its embedder (which owns the
/// lexicon), and the embedded repository.
pub struct Workload {
    pub name: &'static str,
    pub lake: SyntheticLake,
    pub embedder: SemanticEmbedder,
    pub embedded: EmbeddedLake,
    pub dim: usize,
}

impl Workload {
    fn prepare(name: &'static str, config: GeneratorConfig, dim: usize) -> Self {
        let lake = SyntheticLake::generate(config);
        let embedder = SemanticEmbedder::new(dim, lake.lexicon.clone());
        let mut embedded = embed_synthetic_lake(&embedder, &lake).expect("non-empty lake");
        embedded.columns.store_mut().normalize_all();
        Self {
            name,
            lake,
            embedder,
            embedded,
            dim,
        }
    }

    /// OPEN-like profile.
    pub fn open(scale: f64, seed: u64) -> Self {
        Self::prepare("OPEN", GeneratorConfig::open_like(scale, seed), 96)
    }

    /// SWDC-like profile.
    pub fn swdc(scale: f64, seed: u64) -> Self {
        Self::prepare("SWDC", GeneratorConfig::wdc_like(scale * 0.5, seed), 48)
    }

    /// LWDC-like profile (larger; callers partition it to disk).
    pub fn lwdc(scale: f64, seed: u64) -> Self {
        Self::prepare("LWDC", GeneratorConfig::wdc_like(scale * 2.0, seed), 48)
    }

    /// Query rows appropriate for this profile's column lengths.
    pub fn query_rows(&self) -> usize {
        let (lo, hi) = self.lake.config.rows_per_table;
        ((lo + hi) / 2).max(5)
    }

    /// Generate the i-th query table (deterministic) over a rotating
    /// domain, embed it, and return both forms.
    pub fn query(&self, i: usize) -> (GenTable, EmbeddedQuery) {
        self.query_sized(i, self.query_rows())
    }

    /// Like [`Workload::query`] with an explicit query-column size.
    pub fn query_sized(&self, i: usize, rows: usize) -> (GenTable, EmbeddedQuery) {
        let domain = i % self.lake.config.num_domains;
        let gen = self.lake.make_query(domain, rows, q_seed(i));
        let embedded = embed_query(&self.embedder, gen.key_values());
        (gen, embedded)
    }

    /// Paper-tuned index parameters (Table VI found |P|=5, m=6 optimal for
    /// OPEN and |P|=3, m=4 for SWDC/LWDC).
    pub fn index_options(&self) -> pexeso_core::IndexOptions {
        let (p, m) = if self.name == "OPEN" { (5, 6) } else { (3, 4) };
        pexeso_core::IndexOptions {
            num_pivots: p,
            levels: Some(m),
            pivot_selection: pexeso_core::PivotSelection::Pca,
            seed: 42,
            ..Default::default()
        }
    }

    /// Rendered key-column strings per lake table (for string baselines).
    pub fn string_columns(&self) -> pexeso_baselines::stringjoin::StringColumns {
        let mut repo = pexeso_baselines::stringjoin::StringColumns::default();
        for t in &self.lake.tables {
            repo.add(t.table.name(), t.key_values().to_vec());
        }
        repo
    }

    /// Total key cells (the |RV| analogue before embedding).
    pub fn total_cells(&self) -> usize {
        self.lake.total_key_cells()
    }
}

fn q_seed(i: usize) -> u64 {
    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1)
}

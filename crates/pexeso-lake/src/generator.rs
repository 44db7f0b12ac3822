//! Synthetic data-lake generator with exact ground truth.
//!
//! Replaces the paper's corpora + human labelling. Each generated lake is
//! built over a **vocabulary of entities** partitioned into domains. An
//! entity owns several surface forms (synonyms) — all registered in a shared
//! [`Lexicon`] — plus latent attributes used by the ML-task experiments.
//! Every rendered cell records which entity produced it, so the true
//! joinability between any two columns is computable exactly:
//!
//! ```text
//! jn_true(Q, S) = |{ rows of Q whose entity also occurs in S }| / |Q|
//! ```
//!
//! Profiles mirror the shapes of the paper's datasets (Table III): OPEN has
//! few, long columns; WDC has very many, short columns.

use std::collections::HashSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use pexeso_embed::Lexicon;

use crate::noise::NoiseModel;
use crate::table::Table;

/// Index of an entity in the [`Vocabulary`].
pub(crate) type EntityIdx = usize;

/// One real-world thing that can appear in key columns under several names.
#[derive(Debug, Clone)]
pub struct Entity {
    /// Surface forms; index 0 is canonical.
    pub surfaces: Vec<String>,
    /// Domain this entity belongs to (tables draw keys from one domain).
    pub domain: usize,
    /// Latent class label, the signal behind classification tasks.
    pub latent_class: u32,
    /// Latent numeric value, the signal behind regression tasks.
    pub latent_value: f32,
}

/// The generated entity vocabulary.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    pub entities: Vec<Entity>,
    /// Entity indices grouped by domain.
    pub by_domain: Vec<Vec<EntityIdx>>,
}

/// A generated lake table together with its ground-truth annotations.
#[derive(Debug, Clone)]
pub struct GenTable {
    pub table: Table,
    /// Index of the key column within `table`.
    pub key_col: usize,
    /// Per-row entity behind the key cell.
    pub entities: Vec<EntityIdx>,
    /// Domain the keys were drawn from.
    pub domain: usize,
}

impl GenTable {
    /// The key column's rendered string values.
    pub fn key_values(&self) -> &[String] {
        self.table.column(self.key_col)
    }
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    pub seed: u64,
    /// Number of entity domains (tables join only within a domain).
    pub num_domains: usize,
    pub entities_per_domain: usize,
    /// Inclusive range of synonym surface forms per entity.
    pub synonyms_per_entity: (usize, usize),
    pub num_tables: usize,
    /// Inclusive range of rows per lake table.
    pub rows_per_table: (usize, usize),
    /// Probability a cell renders a non-canonical surface form.
    pub synonym_rate: f64,
    /// Character/abbreviation/case noise applied to rendered cells.
    pub noise: NoiseModel,
    /// Numeric attribute columns per lake table (carry ML signal).
    pub numeric_attrs: usize,
    /// Number of latent classes for classification tasks.
    pub num_classes: u32,
    /// Probability an entity's canonical name is a near-variant of another
    /// entity's name in the same domain. Confusables are what give string
    /// similarity joins (and occasionally the fuzzy lexicon) their false
    /// positives — the source of sub-1.0 precision in Table IV.
    pub confusable_rate: f64,
    /// Probability a canonical surface carries a dictionary suffix word
    /// ("Street", "Corporation", …) that the abbreviation noise channel can
    /// shorten and the expander can restore.
    pub suffix_rate: f64,
}

impl GeneratorConfig {
    /// OPEN-like profile (Table III): few tables, long columns
    /// (avg ≈ 800 rows in the paper). `scale` multiplies the table count.
    ///
    /// Entity pools are sized so that a table covers 20–80 % of its domain:
    /// that spreads query↔table entity overlap across the mid-range, which
    /// is what makes the joinability threshold discriminate between
    /// methods (a bimodal overlap distribution would let every method
    /// score perfectly).
    pub fn open_like(scale: f64, seed: u64) -> Self {
        Self {
            seed,
            num_domains: (8.0 * scale).ceil().max(2.0) as usize,
            entities_per_domain: 600,
            synonyms_per_entity: (2, 4),
            num_tables: (150.0 * scale).ceil().max(6.0) as usize,
            rows_per_table: (100, 500),
            synonym_rate: 0.1,
            noise: NoiseModel {
                misspell_rate: 0.03,
                abbrev_rate: 0.03,
                case_rate: 0.03,
            },
            numeric_attrs: 2,
            num_classes: 13,
            confusable_rate: 0.1,
            suffix_rate: 0.25,
        }
    }

    /// WDC-like profile (Table III): many tables, short columns
    /// (avg ≈ 17 rows in the paper).
    pub fn wdc_like(scale: f64, seed: u64) -> Self {
        Self {
            seed,
            num_domains: (30.0 * scale).ceil().max(2.0) as usize,
            entities_per_domain: 30,
            synonyms_per_entity: (2, 4),
            num_tables: (1200.0 * scale).ceil().max(10.0) as usize,
            rows_per_table: (8, 30),
            synonym_rate: 0.1,
            noise: NoiseModel {
                misspell_rate: 0.03,
                abbrev_rate: 0.03,
                case_rate: 0.03,
            },
            numeric_attrs: 2,
            num_classes: 39,
            confusable_rate: 0.1,
            suffix_rate: 0.25,
        }
    }

    /// A tiny profile for unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            num_domains: 2,
            entities_per_domain: 30,
            synonyms_per_entity: (1, 2),
            num_tables: 8,
            rows_per_table: (10, 20),
            synonym_rate: 0.3,
            noise: NoiseModel::default(),
            numeric_attrs: 1,
            num_classes: 3,
            confusable_rate: 0.05,
            suffix_rate: 0.2,
        }
    }
}

/// A fully generated lake: vocabulary, lexicon, and annotated tables.
#[derive(Debug, Clone)]
pub struct SyntheticLake {
    pub config: GeneratorConfig,
    pub vocab: Vocabulary,
    pub lexicon: Lexicon,
    pub tables: Vec<GenTable>,
}

/// Syllable-based pronounceable word generator; produces distinct-looking
/// vocabulary without any external word list.
fn random_word(rng: &mut StdRng) -> String {
    const ONSETS: &[&str] = &[
        "b", "br", "c", "ch", "d", "dr", "f", "fl", "g", "gr", "h", "j", "k", "kl", "l", "m", "n",
        "p", "pr", "qu", "r", "s", "sh", "st", "t", "tr", "v", "w", "z",
    ];
    const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ea", "io", "ou"];
    const CODAS: &[&str] = &["", "n", "r", "s", "l", "m", "rd", "nt", "x", "ck"];
    let syllables = rng.gen_range(2..=4);
    let mut w = String::new();
    for _ in 0..syllables {
        w.push_str(ONSETS[rng.gen_range(0..ONSETS.len())]);
        w.push_str(VOWELS[rng.gen_range(0..VOWELS.len())]);
        if rng.gen_bool(0.4) {
            w.push_str(CODAS[rng.gen_range(0..CODAS.len())]);
        }
    }
    w
}

/// Dictionary long-forms the abbreviation noise channel knows how to
/// shorten (and the expander how to restore).
const SUFFIX_WORDS: &[&str] = &[
    "Street",
    "Avenue",
    "Road",
    "Corporation",
    "Incorporated",
    "Company",
    "Limited",
    "International",
];

fn title_case(w: &str) -> String {
    let mut cs = w.chars();
    match cs.next() {
        Some(f) => f.to_uppercase().collect::<String>() + cs.as_str(),
        None => String::new(),
    }
}

/// Title-cased multi-word surface form, optionally with a dictionary
/// suffix.
fn random_surface(rng: &mut StdRng, suffix_rate: f64) -> String {
    let words = rng.gen_range(1..=3);
    let mut surface = (0..words)
        .map(|_| title_case(&random_word(rng)))
        .collect::<Vec<_>>()
        .join(" ");
    if rng.gen_bool(suffix_rate) {
        surface.push(' ');
        surface.push_str(SUFFIX_WORDS[rng.gen_range(0..SUFFIX_WORDS.len())]);
    }
    surface
}

/// A near-variant of `base`: either one character edit in a word or one
/// word swapped for a fresh one. The result is confusable with `base` for
/// string-similarity predicates while denoting a different entity.
fn confusable_variant(rng: &mut StdRng, base: &str) -> String {
    let mut words: Vec<String> = base.split(' ').map(str::to_string).collect();
    let i = rng.gen_range(0..words.len());
    if rng.gen_bool(0.5) && words[i].chars().count() >= 4 {
        words[i] = title_case(&crate::noise::misspell(rng, &words[i].to_lowercase()));
    } else {
        words[i] = title_case(&random_word(rng));
    }
    words.join(" ")
}

impl SyntheticLake {
    /// Generate a lake from the configuration. Deterministic in
    /// `config.seed`.
    pub fn generate(config: GeneratorConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let vocab = Self::generate_vocabulary(&config, &mut rng);
        let mut lexicon = Lexicon::new();
        for e in &vocab.entities {
            lexicon.add_synonym_set(e.surfaces.iter().map(|s| s.as_str()));
        }
        let mut lake = Self {
            config,
            vocab,
            lexicon,
            tables: Vec::new(),
        };
        for t in 0..lake.config.num_tables {
            let gt = lake.generate_table(&mut rng, &format!("lake_table_{t:05}"));
            lake.tables.push(gt);
        }
        lake
    }

    fn generate_vocabulary(config: &GeneratorConfig, rng: &mut StdRng) -> Vocabulary {
        let mut taken: HashSet<String> = HashSet::new();
        let mut vocab = Vocabulary::default();
        for domain in 0..config.num_domains {
            let mut members: Vec<EntityIdx> = Vec::with_capacity(config.entities_per_domain);
            for e in 0..config.entities_per_domain {
                let n_forms =
                    rng.gen_range(config.synonyms_per_entity.0..=config.synonyms_per_entity.1);
                let mut surfaces = Vec::with_capacity(n_forms);
                // Confusable channel: derive the canonical from a previous
                // same-domain entity's canonical (Table IV's precision
                // pressure).
                if e > 0 && rng.gen_bool(config.confusable_rate) {
                    let prev = &vocab.entities[*members.last().expect("e > 0")];
                    for _ in 0..8 {
                        let s = confusable_variant(rng, &prev.surfaces[0]);
                        if taken.insert(s.to_lowercase()) {
                            surfaces.push(s);
                            break;
                        }
                    }
                }
                while surfaces.len() < n_forms {
                    let s = random_surface(rng, config.suffix_rate);
                    let key = s.to_lowercase();
                    if taken.insert(key) {
                        surfaces.push(s);
                    }
                }
                let latent_class = rng.gen_range(0..config.num_classes);
                // Latent value correlates with the class so both task kinds
                // share one planted signal.
                let latent_value = latent_class as f32 + rng.gen_range(-0.25f32..0.25f32);
                members.push(vocab.entities.len());
                vocab.entities.push(Entity {
                    surfaces,
                    domain,
                    latent_class,
                    latent_value,
                });
            }
            vocab.by_domain.push(members);
        }
        vocab
    }

    /// Render one key cell for `entity`, applying synonym choice + noise.
    fn render_key(&self, rng: &mut StdRng, entity: EntityIdx) -> String {
        let e = &self.vocab.entities[entity];
        let surface = if e.surfaces.len() > 1 && rng.gen_bool(self.config.synonym_rate) {
            &e.surfaces[rng.gen_range(1..e.surfaces.len())]
        } else {
            &e.surfaces[0]
        };
        self.config.noise.apply(rng, surface)
    }

    fn generate_table(&self, rng: &mut StdRng, name: &str) -> GenTable {
        let config = &self.config;
        let domain = rng.gen_range(0..config.num_domains);
        let rows = rng.gen_range(config.rows_per_table.0..=config.rows_per_table.1);
        let members = &self.vocab.by_domain[domain];

        // Sample entities mostly without replacement (keys are mostly
        // distinct) but allow duplicates once the domain is exhausted.
        let mut pool: Vec<EntityIdx> = members.clone();
        let mut entities = Vec::with_capacity(rows);
        for _ in 0..rows {
            if pool.is_empty() {
                entities.push(members[rng.gen_range(0..members.len())]);
            } else {
                let i = rng.gen_range(0..pool.len());
                entities.push(pool.swap_remove(i));
            }
        }

        let mut headers = vec!["name".to_string()];
        for a in 0..config.numeric_attrs {
            headers.push(format!("attr_{a}"));
        }
        headers.push("category".to_string());
        let mut table = Table::new(name, headers);

        // Table-specific affine transform of the latent value, so columns
        // from different tables are correlated but not identical features.
        let w: f32 = rng.gen_range(0.5..2.0);
        let b: f32 = rng.gen_range(-1.0..1.0);

        for &eidx in &entities {
            let e = &self.vocab.entities[eidx];
            let mut row = vec![self.render_key(rng, eidx)];
            for a in 0..config.numeric_attrs {
                let jitter: f32 = rng.gen_range(-0.2..0.2);
                let v = e.latent_value * w + b + jitter + a as f32 * 0.1;
                row.push(format!("{v:.3}"));
            }
            // Categorical attribute: the latent class with 10% label noise.
            let cls = if rng.gen_bool(0.1) {
                rng.gen_range(0..config.num_classes)
            } else {
                e.latent_class
            };
            row.push(format!("class_{cls}"));
            table.push_row(row);
        }
        GenTable {
            table,
            key_col: 0,
            entities,
            domain,
        }
    }

    /// Generate a query table: `rows` keys drawn from `domain`, rendered
    /// with this lake's noise channels. Deterministic in `seed`.
    pub fn make_query(&self, domain: usize, rows: usize, seed: u64) -> GenTable {
        assert!(domain < self.config.num_domains, "domain out of range");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        let members = &self.vocab.by_domain[domain];
        let mut pool: Vec<EntityIdx> = members.clone();
        let mut entities = Vec::with_capacity(rows);
        for _ in 0..rows {
            if pool.is_empty() {
                entities.push(members[rng.gen_range(0..members.len())]);
            } else {
                let i = rng.gen_range(0..pool.len());
                entities.push(pool.swap_remove(i));
            }
        }
        let mut table = Table::new("query", vec!["name"]);
        for &eidx in &entities {
            table.push_row(vec![self.render_key(&mut rng, eidx)]);
        }
        GenTable {
            table,
            key_col: 0,
            entities,
            domain,
        }
    }

    /// Exact ground-truth joinability of `target`'s key column to `query`'s:
    /// fraction of query rows whose entity occurs in the target.
    pub fn true_joinability(query: &GenTable, target: &GenTable) -> f64 {
        if query.entities.is_empty() {
            return 0.0;
        }
        let target_set: HashSet<EntityIdx> = target.entities.iter().copied().collect();
        let hit = query
            .entities
            .iter()
            .filter(|e| target_set.contains(e))
            .count();
        hit as f64 / query.entities.len() as f64
    }

    /// Indices of lake tables truly joinable to `query` at threshold `t`.
    pub fn ground_truth(&self, query: &GenTable, t: f64) -> HashSet<usize> {
        self.tables
            .iter()
            .enumerate()
            .filter(|(_, gt)| Self::true_joinability(query, gt) >= t)
            .map(|(i, _)| i)
            .collect()
    }

    /// Total number of key-column cells across the lake.
    pub fn total_key_cells(&self) -> usize {
        self.tables.iter().map(|t| t.entities.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = SyntheticLake::generate(GeneratorConfig::tiny(7));
        let b = SyntheticLake::generate(GeneratorConfig::tiny(7));
        assert_eq!(a.tables.len(), b.tables.len());
        for (x, y) in a.tables.iter().zip(b.tables.iter()) {
            assert_eq!(x.table, y.table);
            assert_eq!(x.entities, y.entities);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticLake::generate(GeneratorConfig::tiny(1));
        let b = SyntheticLake::generate(GeneratorConfig::tiny(2));
        assert_ne!(a.tables[0].table, b.tables[0].table);
    }

    #[test]
    fn sizes_match_config() {
        let cfg = GeneratorConfig::tiny(3);
        let lake = SyntheticLake::generate(cfg.clone());
        assert_eq!(lake.tables.len(), cfg.num_tables);
        assert_eq!(lake.vocab.by_domain.len(), cfg.num_domains);
        assert_eq!(
            lake.vocab.entities.len(),
            cfg.num_domains * cfg.entities_per_domain
        );
        for t in &lake.tables {
            let rows = t.table.n_rows();
            assert!(rows >= cfg.rows_per_table.0 && rows <= cfg.rows_per_table.1);
            assert_eq!(t.entities.len(), rows);
        }
    }

    #[test]
    fn lexicon_knows_every_canonical_surface() {
        let lake = SyntheticLake::generate(GeneratorConfig::tiny(4));
        for e in &lake.vocab.entities {
            assert!(
                lake.lexicon.lookup(&e.surfaces[0]).is_some(),
                "missing {:?}",
                e.surfaces[0]
            );
        }
    }

    #[test]
    fn synonyms_share_concepts() {
        let lake = SyntheticLake::generate(GeneratorConfig::tiny(5));
        for e in &lake.vocab.entities {
            if e.surfaces.len() > 1 {
                let c0 = lake.lexicon.lookup(&e.surfaces[0]);
                let c1 = lake.lexicon.lookup(&e.surfaces[1]);
                assert_eq!(c0, c1);
                assert!(c0.is_some());
            }
        }
    }

    #[test]
    fn query_same_domain_is_joinable_other_domain_is_not() {
        let mut cfg = GeneratorConfig::tiny(6);
        cfg.entities_per_domain = 20;
        cfg.rows_per_table = (15, 20);
        let lake = SyntheticLake::generate(cfg);
        let q = lake.make_query(0, 15, 99);
        let same: Vec<f64> = lake
            .tables
            .iter()
            .filter(|t| t.domain == 0)
            .map(|t| SyntheticLake::true_joinability(&q, t))
            .collect();
        let other: Vec<f64> = lake
            .tables
            .iter()
            .filter(|t| t.domain != 0)
            .map(|t| SyntheticLake::true_joinability(&q, t))
            .collect();
        assert!(
            same.iter().any(|&j| j > 0.3),
            "same-domain tables should overlap: {same:?}"
        );
        assert!(
            other.iter().all(|&j| j == 0.0),
            "cross-domain tables must not overlap"
        );
    }

    #[test]
    fn ground_truth_threshold_monotone() {
        let lake = SyntheticLake::generate(GeneratorConfig::tiny(8));
        let q = lake.make_query(0, 12, 1);
        let loose = lake.ground_truth(&q, 0.1);
        let tight = lake.ground_truth(&q, 0.8);
        assert!(tight.is_subset(&loose));
    }

    #[test]
    fn key_column_detected_on_generated_tables() {
        use crate::keycol::{detect_key_column, KeyColumnConfig};
        let lake = SyntheticLake::generate(GeneratorConfig::tiny(9));
        let mut detected = 0;
        for t in &lake.tables {
            if detect_key_column(&t.table, &KeyColumnConfig::default()) == Some(t.key_col) {
                detected += 1;
            }
        }
        // The planted key column should almost always be recovered.
        assert!(
            detected * 10 >= lake.tables.len() * 8,
            "{detected}/{}",
            lake.tables.len()
        );
    }

    #[test]
    fn profiles_have_expected_shapes() {
        let open = GeneratorConfig::open_like(0.2, 1);
        let wdc = GeneratorConfig::wdc_like(0.2, 1);
        assert!(open.rows_per_table.0 > wdc.rows_per_table.1);
        assert!(wdc.num_tables > open.num_tables);
    }

    #[test]
    fn query_is_deterministic_in_seed() {
        let lake = SyntheticLake::generate(GeneratorConfig::tiny(10));
        let a = lake.make_query(1, 10, 42);
        let b = lake.make_query(1, 10, 42);
        assert_eq!(a.table, b.table);
    }
}

//! # pexeso — joinable table discovery in data lakes
//!
//! A full Rust reproduction of **PEXESO** (Dong, Takeoka, Xiao, Oyamada:
//! *"Efficient Joinable Table Discovery in Data Lakes: A High-Dimensional
//! Similarity-Based Approach"*, ICDE 2021): find, for a query column, every
//! column in a data lake that joins with it under a *semantic* similarity
//! predicate — string values are embedded as high-dimensional vectors and
//! two records match when their distance is within τ.
//!
//! This facade crate re-exports the product crates and adds the
//! [`pipeline`] that wires them together:
//!
//! * [`embed`] *(pexeso-embed)* — deterministic character-level +
//!   semantic-lexicon embeddings (the offline substitute for
//!   fastText/GloVe);
//! * [`lake`] *(pexeso-lake)* — CSV ingestion, tables, key-column
//!   detection, join mappings, and a ground-truth synthetic lake
//!   generator;
//! * [`core`] *(pexeso-core)* — the PEXESO index: pivot-based filtering,
//!   hierarchical grids, inverted-index verification, cost model, JSD
//!   partitioning, out-of-core search;
//! * [`serve`] *(pexeso-serve)* — a resident TCP query-serving daemon
//!   over a persisted [`pexeso_core::outofcore::PartitionedLake`]:
//!   result caching, atomic hot index swap, explicit backpressure.
//!
//! The delta log (`pexeso-delta`) and the shard router (`pexeso-router`)
//! are used by name. The paper's competitor baselines (`pexeso-baselines`)
//! and ML enrichment (`pexeso-ml`) are experiments: they are not part of
//! this crate's build, and `crates/pexeso-bench` runs them.
//!
//! Every backend answers one request type —
//! [`pexeso_core::query::Query`] — through the object-safe
//! [`pexeso_core::query::Queryable`] trait, with byte-identical rankings
//! across in-memory, out-of-core, resident, and remote execution, an
//! explicit exactness outcome, and optional per-query budgets. Every
//! stage also accepts a [`pexeso_core::config::ExecPolicy`]
//! (`Sequential`, or `Parallel { threads }` — machine-sized by default
//! for a query, sequential by default for a build) and produces
//! identical results either way; [`pipeline::run_queries`] answers many
//! query columns, one at a time, over any `&dyn Queryable`.
//!
//! ## Quickstart
//!
//! ```
//! use pexeso::prelude::*;
//!
//! // A lexicon supplies the semantic knowledge a pre-trained embedding
//! // model would carry.
//! let mut lexicon = Lexicon::new();
//! lexicon.add_synonym_set(["American Indian/Alaska Native", "Mainland Indigenous"]);
//! let embedder = SemanticEmbedder::new(64, lexicon);
//!
//! // Index one lake column.
//! let lake_values = vec!["White".to_string(), "Mainland Indigenous".to_string()];
//! let lake = pexeso::pipeline::EmbeddedLakeBuilder::new(&embedder)
//!     .add_column("income", "Col 1", &lake_values)
//!     .build()
//!     .unwrap();
//! let index = PexesoIndex::build(lake.columns, Euclidean, IndexOptions::default()).unwrap();
//!
//! // Search with a query column: one request type for every backend.
//! let query_values = vec!["white".to_string(), "American Indian/Alaska Native".to_string()];
//! let query = pexeso::pipeline::embed_query(&embedder, &query_values);
//! let q = Query::threshold(Tau::Ratio(0.06), JoinThreshold::Ratio(0.9));
//! let result = index.execute(&q, query.store()).unwrap();
//! assert!(result.exact());
//! assert_eq!(result.hits.len(), 1); // semantically joinable
//! ```

pub use pexeso_core as core;
pub use pexeso_embed as embed;
pub use pexeso_lake as lake;
pub use pexeso_serve as serve;

pub mod pipeline;

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::pipeline::{embed_query, EmbeddedLake, EmbeddedLakeBuilder, EmbeddedQuery};
    pub use pexeso_core::prelude::*;
    pub use pexeso_embed::{Embedder, HashEmbedder, Lexicon, SemanticEmbedder};
    pub use pexeso_lake::{GenTable, GeneratorConfig, SyntheticLake, Table};
}

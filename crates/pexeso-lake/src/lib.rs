//! # pexeso-lake — data-lake substrate for PEXESO
//!
//! The paper evaluates on the Canadian Open Data corpus (OPEN) and the WDC
//! Web Table Corpus (SWDC/LWDC), neither of which is redistributable here.
//! This crate supplies everything the framework needs from a data lake:
//!
//! * a from-scratch [`csv`] reader/writer (RFC-4180-ish) for real ingestion,
//! * a column-major [`table::Table`] model with [`types`] inference and a
//!   [`keycol`] key-column detector (stand-in for the SATO model the paper
//!   uses to pick join-key candidates),
//! * controlled [`noise`] channels (misspellings, abbreviations, case),
//! * a [`generator`] that synthesises entire lakes with **exact ground-truth
//!   joinability labels**, replacing the paper's human labelling step, and
//! * the record-level [`JoinMapping`] a search result resolves to.
//!
//! The generator registers every entity's synonym set in a
//! [`pexeso_embed::Lexicon`], which plays the role of the semantic knowledge
//! a pre-trained embedding model would contribute.

pub mod csv;
pub mod generator;
mod join;
pub mod keycol;
pub mod noise;
pub mod table;
pub mod types;

pub use generator::{GenTable, GeneratorConfig, SyntheticLake};
pub use join::JoinMapping;
pub use table::Table;
pub use types::ColumnType;

//! # pexeso-bench — the experiment harness
//!
//! One binary per table/figure of the paper (`src/bin/exp_*.rs`) plus the
//! `verify_profile` example (`examples/`). Timed benchmarks live in the
//! separate `bench/` package at the repository root. This library holds
//! the shared pieces: dataset profiles shaped like the paper's OPEN /
//! SWDC / LWDC corpora, embedding + indexing plumbing, precision/recall
//! scoring, and aligned table printing.
//!
//! Scale control: every harness reads `PEXESO_SCALE` (default `1.0`) and
//! multiplies workload sizes, so `PEXESO_SCALE=0.2 cargo run --release
//! --bin exp_table7` gives a quick pass and larger values approach the
//! paper's sizes as far as one machine allows.

pub mod eval;
pub mod fmt;
pub mod workloads;

use pexeso_core::config::{ExecPolicy, JoinThreshold, Tau};
use pexeso_core::query::Query;

/// The threshold query every `exp_*` binary runs: single-threaded, which
/// is what the paper's experiments time — its tables and figures report
/// one core's search time, so the reproduction must not pick up the
/// machine-sized default a [`Query`] otherwise carries.
pub fn sequential_query(tau: Tau, t: JoinThreshold) -> Query {
    Query::threshold(tau, t).with_policy(ExecPolicy::Sequential)
}

/// Read the global scale multiplier from the environment.
pub fn scale() -> f64 {
    std::env::var("PEXESO_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(1.0)
}

/// Number of query tables used by the effectiveness experiments.
pub fn n_queries_effectiveness() -> usize {
    ((10.0 * scale()).round() as usize).max(3)
}

/// Number of queries averaged in the efficiency experiments (the paper
/// averages 100–1000; scaled down by default).
pub fn n_queries_efficiency() -> usize {
    ((20.0 * scale()).round() as usize).max(5)
}

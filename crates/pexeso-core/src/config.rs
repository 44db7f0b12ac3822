//! Threshold and parameter configuration.
//!
//! Section V of the paper recommends ratio-form thresholds so users can
//! specify them independent of data type, embedding, and query size:
//! τ as a fraction of the maximum distance between unit vectors, and T as a
//! fraction of the query column size. Both absolute and ratio forms are
//! supported here.

use crate::error::{PexesoError, Result};
use crate::metric::Metric;

/// Distance threshold τ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tau {
    /// Absolute distance.
    Absolute(f32),
    /// Fraction (in `[0, 1]`) of the metric's maximum unit-vector distance;
    /// the paper's experiments use 2 % – 8 %.
    Ratio(f32),
}

impl Tau {
    /// Resolve to an absolute distance for the given metric/dimensionality.
    pub fn resolve<M: Metric>(self, metric: &M, dim: usize) -> Result<f32> {
        let v = match self {
            Tau::Absolute(v) => v,
            Tau::Ratio(r) => {
                if !(0.0..=1.0).contains(&r) {
                    return Err(PexesoError::InvalidParameter(format!(
                        "tau ratio {r} outside [0, 1]"
                    )));
                }
                r * metric.max_dist_unit(dim)
            }
        };
        if !(v.is_finite() && v >= 0.0) {
            return Err(PexesoError::InvalidParameter(format!(
                "tau {v} must be finite and >= 0"
            )));
        }
        Ok(v)
    }
}

/// Joinability threshold T.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum JoinThreshold {
    /// Absolute number of matching query records.
    Count(usize),
    /// Fraction (in `(0, 1]`) of the query column size; the paper's
    /// experiments use 20 % – 80 %.
    Ratio(f64),
}

impl JoinThreshold {
    /// Resolve to an absolute count for a query of `query_len` records.
    /// Ratios round up (a strict fraction must be reached) and are clamped
    /// to at least 1 so "joinable" always requires at least one match.
    /// The product is binary — `0.55 × 100` is `55.000000000000007` — so it
    /// is nudged down by far less than any real fraction before the `ceil`;
    /// 55 % of 100 records is 55, not 56.
    pub fn resolve(self, query_len: usize) -> Result<usize> {
        match self {
            JoinThreshold::Count(c) => Ok(c.max(1)),
            JoinThreshold::Ratio(r) => {
                if !(r > 0.0 && r <= 1.0) {
                    return Err(PexesoError::InvalidParameter(format!(
                        "joinability ratio {r} outside (0, 1]"
                    )));
                }
                Ok(((r * query_len as f64 - 1e-9).ceil() as usize).max(1))
            }
        }
    }
}

/// Which lemma groups are active — the knobs behind the paper's Fig. 9
/// ablation. Everything on by default; disabling any group must never
/// change results, only speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LemmaFlags {
    /// Lemma 1: vector-level pivot filtering during verification.
    pub lemma1_vector_filter: bool,
    /// Lemma 2: vector-level pivot matching during verification.
    pub lemma2_vector_match: bool,
    /// Lemma 3: vector-cell filtering during blocking. The name keeps the
    /// paper's pairing with the cell-cell Lemma 4, which blocking does
    /// not test: it decides nothing Lemma 3 does not ([`crate::block`]).
    pub lemma34_cell_filter: bool,
    /// Lemma 5: vector-cell matching during blocking (Lemma 6, the
    /// cell-cell form, likewise implied).
    pub lemma56_cell_match: bool,
}

impl Default for LemmaFlags {
    fn default() -> Self {
        Self {
            lemma1_vector_filter: true,
            lemma2_vector_match: true,
            lemma34_cell_filter: true,
            lemma56_cell_match: true,
        }
    }
}

impl LemmaFlags {
    pub fn all() -> Self {
        Self::default()
    }

    pub fn without_lemma1() -> Self {
        Self {
            lemma1_vector_filter: false,
            ..Self::default()
        }
    }

    pub fn without_lemma2() -> Self {
        Self {
            lemma2_vector_match: false,
            ..Self::default()
        }
    }

    pub fn without_lemma34() -> Self {
        Self {
            lemma34_cell_filter: false,
            ..Self::default()
        }
    }

    pub fn without_lemma56() -> Self {
        Self {
            lemma56_cell_match: false,
            ..Self::default()
        }
    }
}

/// How much parallelism the index build and search pipeline may use.
///
/// Every parallel code path in this crate is *deterministic*: work is
/// sharded so each unit's result is independent of the number of threads,
/// and shards are merged in a fixed order. Consequently every policy
/// produces byte-identical outputs (enforced by the differential tests in
/// `tests/exactness.rs`), and the policy is purely a throughput knob.
///
/// [`ExecPolicy::Parallel`] is *adaptive*: the execution layer
/// ([`crate::exec`]) treats the thread count as a ceiling and falls back
/// to fewer threads — or a plain sequential run — whenever the machine has
/// fewer cores or the per-shard work would sit below the thread-spawn
/// break-even, so asking for more threads can never make a query slower.
/// [`ExecPolicy::Fixed`] bypasses that clamp and shards exactly as asked;
/// it exists so differential tests and calibration runs can force the
/// sharded code paths to execute even on machines where the adaptive
/// policy would (correctly) stay sequential.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// Single-threaded. The default of [`IndexOptions::exec`] (builds);
    /// a [`crate::query::Query`] defaults to [`ExecPolicy::auto`].
    #[default]
    Sequential,
    /// Shard work across *up to* `threads` OS threads
    /// (`std::thread::scope`), adaptively clamped to the machine's cores
    /// and the per-shard spawn break-even. `threads == 0` resolves to the
    /// machine's available parallelism.
    Parallel { threads: usize },
    /// Shard work across *exactly* `threads` OS threads, bypassing the
    /// adaptive clamp. For differential tests and calibration; prefer
    /// [`ExecPolicy::Parallel`] in production.
    Fixed { threads: usize },
}

impl ExecPolicy {
    /// Parallel with as many threads as the machine offers — the machine
    /// that executes, which for a served query is the daemon's. What a
    /// [`crate::query::Query`] carries unless told otherwise.
    pub fn auto() -> Self {
        ExecPolicy::Parallel { threads: 0 }
    }

    /// Parse the CLI/protocol spelling of a policy: `seq`, `par`
    /// (machine-sized), `par:N` for an explicit adaptive ceiling, or
    /// `fixed:N` for an exact unclamped thread count.
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "seq" | "sequential" => Ok(ExecPolicy::Sequential),
            "par" | "parallel" => Ok(ExecPolicy::auto()),
            _ => {
                if let Some(n) = s.strip_prefix("par:") {
                    let threads: usize = n.parse().map_err(|_| {
                        PexesoError::InvalidParameter(format!("bad thread count in policy '{s}'"))
                    })?;
                    if threads == 0 {
                        return Err(PexesoError::InvalidParameter(
                            "par:0 is ambiguous; use 'par' for machine-sized".into(),
                        ));
                    }
                    Ok(ExecPolicy::Parallel { threads })
                } else if let Some(n) = s.strip_prefix("fixed:") {
                    let threads: usize = n.parse().map_err(|_| {
                        PexesoError::InvalidParameter(format!("bad thread count in policy '{s}'"))
                    })?;
                    if threads == 0 {
                        return Err(PexesoError::InvalidParameter(
                            "fixed:0 makes no sense; use 'seq' for single-threaded".into(),
                        ));
                    }
                    Ok(ExecPolicy::Fixed { threads })
                } else {
                    Err(PexesoError::InvalidParameter(format!(
                        "unknown policy '{s}' (expected seq, par, par:N, or fixed:N)"
                    )))
                }
            }
        }
    }

    /// Share this policy between a loop over `items` independent work
    /// items and the body that loop runs, as `(loop, inside)`: a loop with
    /// at least two items takes the threads and its bodies run
    /// sequentially; a loop of zero or one item runs sequentially and
    /// passes the policy inward unchanged. Threads therefore go to the
    /// outermost loop that can use them, and fan-out never nests. The
    /// partition loop of a deployment — the one place that runs a query
    /// inside a loop — shares threads through this rule.
    pub fn split(self, items: usize) -> (Self, Self) {
        if items >= 2 {
            (self, ExecPolicy::Sequential)
        } else {
            (ExecPolicy::Sequential, self)
        }
    }

    /// The number of worker threads this policy *requests* (≥ 1), before
    /// the adaptive clamp in [`crate::exec`] is applied.
    pub fn effective_threads(self) -> usize {
        match self {
            ExecPolicy::Sequential => 1,
            // Resolved once per process: the query default lands here on
            // every execution, and asking the OS reads cgroup files.
            ExecPolicy::Parallel { threads: 0 } => crate::exec::hardware_threads(),
            ExecPolicy::Parallel { threads } => threads,
            ExecPolicy::Fixed { threads } => threads.max(1),
        }
    }
}

/// How pivots are chosen (Section III-D; Fig. 7a compares PCA vs random).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PivotSelection {
    /// PCA-based outlier selection (the paper's choice, Mao et al. style).
    Pca,
    /// Uniform random data points (the Fig. 7a baseline).
    Random,
    /// Farthest-first traversal (classic maximally-separated heuristic).
    FarthestFirst,
}

/// Index construction options.
#[derive(Debug, Clone)]
pub struct IndexOptions {
    /// |P|: number of pivots (paper tunes 1–9, defaults 3–5).
    pub num_pivots: usize,
    /// m: grid levels. `None` lets the cost model choose (Section III-E).
    pub levels: Option<usize>,
    pub pivot_selection: PivotSelection,
    /// Seed for any randomised step (sampling, random pivots).
    pub seed: u64,
    /// Parallelism of the offline build (pivot mapping, grid + inverted
    /// index construction). Results are identical either way.
    pub exec: ExecPolicy,
}

impl Default for IndexOptions {
    fn default() -> Self {
        Self {
            num_pivots: 5,
            levels: Some(4),
            pivot_selection: PivotSelection::Pca,
            seed: 42,
            exec: ExecPolicy::Sequential,
        }
    }
}

/// Hard cap on |P| imposed by the packed cell-key representation.
pub const MAX_PIVOTS: usize = 16;
/// Hard cap on m imposed by the packed cell-key representation.
pub const MAX_LEVELS: usize = 8;

impl IndexOptions {
    /// Validate against the representation limits.
    pub fn validate(&self) -> Result<()> {
        if self.num_pivots == 0 || self.num_pivots > MAX_PIVOTS {
            return Err(PexesoError::InvalidParameter(format!(
                "num_pivots {} outside 1..={MAX_PIVOTS}",
                self.num_pivots
            )));
        }
        if let Some(m) = self.levels {
            if m == 0 || m > MAX_LEVELS {
                return Err(PexesoError::InvalidParameter(format!(
                    "levels {m} outside 1..={MAX_LEVELS}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Euclidean;

    #[test]
    fn tau_ratio_resolves_against_max_distance() {
        let t = Tau::Ratio(0.06).resolve(&Euclidean, 300).unwrap();
        assert!((t - 0.12).abs() < 1e-6);
        assert_eq!(Tau::Absolute(0.5).resolve(&Euclidean, 300).unwrap(), 0.5);
    }

    #[test]
    fn tau_rejects_bad_values() {
        assert!(Tau::Ratio(1.5).resolve(&Euclidean, 10).is_err());
        assert!(Tau::Absolute(-1.0).resolve(&Euclidean, 10).is_err());
        assert!(Tau::Absolute(f32::NAN).resolve(&Euclidean, 10).is_err());
    }

    #[test]
    fn join_threshold_resolution() {
        assert_eq!(JoinThreshold::Ratio(0.6).resolve(10).unwrap(), 6);
        assert_eq!(JoinThreshold::Ratio(0.55).resolve(10).unwrap(), 6); // ceil
        assert_eq!(JoinThreshold::Count(3).resolve(10).unwrap(), 3);
        assert_eq!(JoinThreshold::Count(0).resolve(10).unwrap(), 1); // clamped
        assert_eq!(JoinThreshold::Ratio(0.01).resolve(10).unwrap(), 1);
        // Products that land a hair above an integer in binary.
        assert_eq!(JoinThreshold::Ratio(0.55).resolve(100).unwrap(), 55);
        assert_eq!(JoinThreshold::Ratio(0.56).resolve(25).unwrap(), 14);
        assert_eq!(JoinThreshold::Ratio(0.28).resolve(25).unwrap(), 7);
        assert_eq!(JoinThreshold::Ratio(0.6).resolve(19).unwrap(), 12);
        assert_eq!(JoinThreshold::Ratio(1.0).resolve(19).unwrap(), 19);
    }

    #[test]
    fn join_threshold_rejects_bad_ratio() {
        assert!(JoinThreshold::Ratio(0.0).resolve(10).is_err());
        assert!(JoinThreshold::Ratio(1.1).resolve(10).is_err());
    }

    #[test]
    fn lemma_flag_presets() {
        assert!(LemmaFlags::all().lemma1_vector_filter);
        assert!(!LemmaFlags::without_lemma1().lemma1_vector_filter);
        assert!(!LemmaFlags::without_lemma34().lemma34_cell_filter);
        assert!(LemmaFlags::without_lemma34().lemma56_cell_match);
    }

    #[test]
    fn exec_policy_resolves_threads() {
        assert_eq!(ExecPolicy::Sequential.effective_threads(), 1);
        assert_eq!(ExecPolicy::Parallel { threads: 3 }.effective_threads(), 3);
        assert_eq!(ExecPolicy::Fixed { threads: 5 }.effective_threads(), 5);
        assert_eq!(ExecPolicy::Fixed { threads: 0 }.effective_threads(), 1);
        assert!(ExecPolicy::auto().effective_threads() >= 1);
        assert_eq!(ExecPolicy::default(), ExecPolicy::Sequential);
    }

    #[test]
    fn split_gives_the_threads_to_exactly_one_side() {
        let seq = ExecPolicy::Sequential;
        for policy in [
            seq,
            ExecPolicy::Parallel { threads: 0 },
            ExecPolicy::Parallel { threads: 4 },
            ExecPolicy::Fixed { threads: 3 },
        ] {
            for items in [0usize, 1, 2, 9] {
                let (on_loop, inside) = policy.split(items);
                assert!(on_loop == seq || inside == seq, "{policy:?} × {items}");
                let expected = if items >= 2 {
                    (policy, seq)
                } else {
                    (seq, policy)
                };
                assert_eq!((on_loop, inside), expected, "{policy:?} × {items}");
            }
        }
    }

    #[test]
    fn exec_policy_parses_cli_spellings() {
        assert_eq!(ExecPolicy::parse("seq").unwrap(), ExecPolicy::Sequential);
        assert_eq!(
            ExecPolicy::parse("sequential").unwrap(),
            ExecPolicy::Sequential
        );
        assert_eq!(ExecPolicy::parse("par").unwrap(), ExecPolicy::auto());
        assert_eq!(
            ExecPolicy::parse("par:8").unwrap(),
            ExecPolicy::Parallel { threads: 8 }
        );
        assert_eq!(
            ExecPolicy::parse("fixed:4").unwrap(),
            ExecPolicy::Fixed { threads: 4 }
        );
        assert!(ExecPolicy::parse("par:0").is_err());
        assert!(ExecPolicy::parse("par:x").is_err());
        assert!(ExecPolicy::parse("fixed:0").is_err());
        assert!(ExecPolicy::parse("fixed:x").is_err());
        assert!(ExecPolicy::parse("turbo").is_err());
    }

    #[test]
    fn index_options_validation() {
        let mut o = IndexOptions::default();
        assert!(o.validate().is_ok());
        o.num_pivots = 0;
        assert!(o.validate().is_err());
        o.num_pivots = MAX_PIVOTS + 1;
        assert!(o.validate().is_err());
        o.num_pivots = 3;
        o.levels = Some(MAX_LEVELS + 1);
        assert!(o.validate().is_err());
        o.levels = None;
        assert!(o.validate().is_ok());
    }
}

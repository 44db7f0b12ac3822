//! EXPLAIN: the query's pruning funnel, reported.
//!
//! PEXESO's contribution is a cascade of pruning stages — grid blocking
//! (Lemmas 3–6), inverted-index verification (Lemmas 1/2), and
//! column-level early termination (Lemma 7, under `T` or under a top-k
//! seed). The trace plane ([`crate::trace`]) reports how *long* each
//! phase took; this module reports *why* the work was what it was: how
//! many candidates each stage admitted and which lemma killed how many.
//!
//! An [`ExplainReport`] is a pure function of the query's final
//! [`SearchStats`] (plus the seed count of each unit's top-k scan), so
//! the explain-off path costs nothing and explain-on provably cannot
//! change results: the differential suite in `tests/explain.rs` pins
//! hits and stats byte-identical either way.
//!
//! ## Funnel semantics
//!
//! Stages count in their own unit — `pairs` (⟨query vector, cell⟩
//! blocking decisions), `rows` (candidate target vectors examined
//! during verification), `columns` (final answer granularity). Within
//! every stage the arithmetic is exact **by construction**:
//! `input = output + Σ pruned`, where each pruned entry equals the
//! corresponding [`SearchStats`] counter verbatim — that equality is
//! the cross-check the funnel-consistency tests enforce. Counts do not
//! carry *across* units (one candidate pair expands into many candidate
//! rows), which is why each stage names its unit.

use crate::query::{Query, QueryMode, QueryOutcome};
use crate::stats::SearchStats;

/// One stage of the candidate funnel. `input = output + Σ pruned`
/// always holds (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunnelStage {
    /// Stage name (`block`, `verify`, `columns`).
    pub name: String,
    /// Counting unit (`pairs`, `rows`, `columns`).
    pub unit: String,
    /// Items entering the stage.
    pub input: u64,
    /// `(reason, count)` per pruning rule that fired; each count equals
    /// the matching [`SearchStats`] counter.
    pub pruned: Vec<(String, u64)>,
    /// Items the stage forwarded (or, for the last stage, returned).
    pub output: u64,
}

impl FunnelStage {
    fn derive(name: &str, unit: &str, output: u64, pruned: Vec<(String, u64)>) -> Self {
        let input = output + pruned.iter().map(|(_, n)| *n).sum::<u64>();
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            input,
            pruned,
            output,
        }
    }

    /// The last stage: the `hits` columns answered plus the columns
    /// Lemma 7 pruned. A router re-derives it for its merged answer.
    pub fn columns(hits: u64, stats: &SearchStats) -> Self {
        let pruned = vec![("lemma7".to_string(), stats.lemma7_pruned)];
        Self::derive("columns", "columns", hits, pruned)
    }

    /// Whether this stage's arithmetic balances.
    pub fn consistent(&self) -> bool {
        self.input == self.output + self.pruned.iter().map(|(_, n)| *n).sum::<u64>()
    }
}

/// The full explain answer for one query: the candidate funnel and the
/// scalar decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplainReport {
    /// `threshold` or `topk`.
    pub mode: String,
    /// The candidate funnel, outermost stage first.
    pub stages: Vec<FunnelStage>,
    /// Human-readable scalar decisions (quick-browse, budget outcome,
    /// definite-match counts, the candidate pairs the apex bound
    /// excluded, the top-k seed, …).
    pub decisions: Vec<String>,
}

impl ExplainReport {
    /// Build the report from a query's final stats and, for top-k, the
    /// seed count each unit's scan started from (`None` = unseeded), in
    /// unit order. Pure: calling this (or not) can never change hits or
    /// stats, which is exactly what the explain differential tests pin.
    pub fn from_stats(
        query: &Query,
        stats: &SearchStats,
        hits: u64,
        outcome: QueryOutcome,
        topk_seeds: &[Option<u32>],
    ) -> Self {
        let (mode, is_topk) = match query.mode {
            QueryMode::Threshold(_) => ("threshold", false),
            QueryMode::Topk(_) => ("topk", true),
        };
        let stages = vec![
            FunnelStage::derive(
                "block",
                "pairs",
                stats.candidate_pairs + stats.matching_pairs,
                vec![("lemma3/4".to_string(), stats.cell_pairs_filtered)],
            ),
            FunnelStage::derive(
                "verify",
                "rows",
                stats.lemma2_matched + stats.distance_computations,
                vec![("lemma1".to_string(), stats.lemma1_filtered)],
            ),
            FunnelStage::columns(hits, stats),
        ];

        let mut decisions = Vec::new();
        decisions.push(format!(
            "quick_browse={} seeded_pairs={}",
            if query.options.quick_browse {
                "on"
            } else {
                "off"
            },
            stats.quick_browse_pairs
        ));
        decisions.push(format!(
            "lemma5/6_cell_matches={} lemma2_definite_rows={}",
            stats.cell_pairs_matched, stats.lemma2_matched
        ));
        decisions.push(format!("apex_excluded_pairs={}", stats.apex_excluded));
        decisions.push(format!(
            "distance_computations={} mapping_distances={}",
            stats.distance_computations, stats.mapping_distances
        ));
        if is_topk {
            let seeds: Vec<String> = topk_seeds
                .iter()
                .map(|seed| seed.map_or("none".to_string(), |count| count.to_string()))
                .collect();
            decisions.push(format!("topk_seed={}", seeds.join(",")));
        } else {
            decisions.push(format!("early_joinable_columns={}", stats.early_joinable));
        }
        decisions.push(match outcome {
            QueryOutcome::Exact => "outcome=exact".to_string(),
            QueryOutcome::Exceeded(e) => format!("outcome=exceeded({e})"),
        });

        Self {
            mode: mode.to_string(),
            stages,
            decisions,
        }
    }

    /// Merge another report into this one, stage-wise by name (the
    /// router folds shard reports this way). Prune reasons merge by
    /// name too; unmatched stages/reasons are appended.
    pub fn merge(&mut self, other: &ExplainReport) {
        for stage in &other.stages {
            if let Some(mine) = self.stages.iter_mut().find(|s| s.name == stage.name) {
                mine.input += stage.input;
                mine.output += stage.output;
                for (reason, n) in &stage.pruned {
                    if let Some((_, mine_n)) = mine.pruned.iter_mut().find(|(r, _)| r == reason) {
                        *mine_n += n;
                    } else {
                        mine.pruned.push((reason.clone(), *n));
                    }
                }
            } else {
                self.stages.push(stage.clone());
            }
        }
        for d in &other.decisions {
            if !self.decisions.contains(d) {
                self.decisions.push(d.clone());
            }
        }
    }

    /// Whether every stage's arithmetic balances.
    pub fn consistent(&self) -> bool {
        self.stages.iter().all(FunnelStage::consistent)
    }

    /// Render the report as an indented text funnel (what
    /// `pexeso query --explain` prints).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN ({})", self.mode);
        let _ = writeln!(out, "  funnel:");
        for s in &self.stages {
            let mut line = format!("    {:<8} [{}] in={}", s.name, s.unit, s.input);
            for (reason, n) in &s.pruned {
                let _ = write!(line, "  {reason}=-{n}");
            }
            let _ = writeln!(out, "{line}  out={}", s.output);
        }
        let _ = writeln!(out, "  decisions:");
        for d in &self.decisions {
            let _ = writeln!(out, "    {d}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{JoinThreshold, Tau};

    fn stats() -> SearchStats {
        SearchStats {
            distance_computations: 40,
            lemma1_filtered: 10,
            lemma2_matched: 5,
            cell_pairs_filtered: 7,
            cell_pairs_matched: 3,
            candidate_pairs: 20,
            matching_pairs: 4,
            quick_browse_pairs: 2,
            early_joinable: 1,
            lemma7_pruned: 6,
            ..Default::default()
        }
    }

    #[test]
    fn threshold_funnel_balances_and_mirrors_stats() {
        let q = Query::threshold(Tau::Ratio(0.05), JoinThreshold::Ratio(0.5));
        let r = ExplainReport::from_stats(&q, &stats(), 11, QueryOutcome::Exact, &[None]);
        assert!(r.consistent());
        assert_eq!(r.mode, "threshold");
        let block = &r.stages[0];
        assert_eq!(block.output, 24); // candidate + matching pairs
        assert_eq!(block.pruned, vec![("lemma3/4".to_string(), 7)]);
        assert_eq!(block.input, 31);
        let verify = &r.stages[1];
        assert_eq!(verify.output, 45); // lemma2 + distance rows
        assert_eq!(verify.pruned, vec![("lemma1".to_string(), 10)]);
        let cols = &r.stages[2];
        assert_eq!(cols.output, 11);
        assert_eq!(cols.pruned, vec![("lemma7".to_string(), 6)]);
        assert!(r.decisions.iter().any(|d| d.contains("outcome=exact")));
        assert!(!r.decisions.iter().any(|d| d.contains("topk_seed")));
    }

    #[test]
    fn topk_funnel_prunes_by_lemma7_and_prints_the_seeds() {
        let q = Query::topk(Tau::Ratio(0.05), 3);
        let seeds = [Some(4), None];
        let r = ExplainReport::from_stats(&q, &stats(), 3, QueryOutcome::Exact, &seeds);
        assert!(r.consistent());
        assert_eq!(r.stages[2].pruned, vec![("lemma7".to_string(), 6)]);
        let rendered = r.render();
        assert!(rendered.contains("EXPLAIN (topk)"));
        assert!(rendered.contains("lemma7=-6"));
        assert!(rendered.contains("topk_seed=4,none"));
    }

    #[test]
    fn merge_is_stagewise() {
        let q = Query::topk(Tau::Ratio(0.05), 3);
        let mut a = ExplainReport::from_stats(&q, &stats(), 3, QueryOutcome::Exact, &[Some(2)]);
        let b = ExplainReport::from_stats(&q, &stats(), 2, QueryOutcome::Exact, &[None]);
        let single_input = a.stages[0].input;
        a.merge(&b);
        assert!(a.consistent());
        assert_eq!(a.stages[0].input, 2 * single_input);
        assert_eq!(a.stages[2].output, 5);
        assert_eq!(a.stages[2].pruned, vec![("lemma7".to_string(), 12)]);
        let seeds = |d: &&String| d.starts_with("topk_seed=");
        assert_eq!(a.decisions.iter().filter(seeds).count(), 2);
    }
}

//! EXPLAIN: the query's pruning funnel, reported.
//!
//! PEXESO's contribution is a cascade of pruning stages — grid blocking
//! (Lemmas 3–6), inverted-index verification (Lemmas 1/2), and
//! column-level early termination (Lemma 7, under `T` or under a top-k
//! seed). The trace plane ([`crate::trace`]) reports how *long* each
//! phase took; this module reports *why* the work was what it was: how
//! many candidates each stage admitted and which lemma killed how many.
//!
//! An [`ExplainReport`] is its inputs: the query's mode and quick-browse
//! flag, the [`FunnelCounters`] of the work (the [`SearchStats`]
//! counters without their timings, plus each unit's top-k seed), the
//! answer's hit count and its outcome. Its stages, decisions and
//! [`ExplainReport::render`] are computed from those, so the explain-off
//! path costs nothing and explain-on provably cannot change results: the
//! differential suite in `tests/explain.rs` pins hits and stats
//! byte-identical either way. Answers merge by adding their counters
//! ([`FunnelCounters::merge`]); the report is built once, where the
//! answer is final — the wire carries the counters, and a daemon's
//! client or a router builds the report from the hits and outcome it
//! ends up with.
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

/// Declares [`FunnelCounters`] with one `u64` per listed [`SearchStats`]
/// counter (same name), and the conversions, which follow the list's
/// order — the order the wire carries them in.
macro_rules! funnel_counters {
    ($($count:ident),+ $(,)?) => {
        /// The work an [`ExplainReport`] describes: the [`SearchStats`]
        /// counters it prints, without the timings, so two reports of the
        /// same work compare equal, plus the seed each unit's top-k scan
        /// started from.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct FunnelCounters {
            $(pub $count: u64,)+
            /// The seed count each unit's top-k scan started from (`None`
            /// = unseeded), in unit order.
            pub topk_seeds: Vec<Option<u32>>,
        }

        impl FunnelCounters {
            /// How many counters [`FunnelCounters::counts`] lists.
            pub const COUNTS: usize = [$(stringify!($count)),+].len();

            /// The counters of `stats`, and the units' top-k seeds.
            pub fn of(stats: &SearchStats, topk_seeds: Vec<Option<u32>>) -> Self {
                Self { $($count: stats.$count,)+ topk_seeds }
            }

            /// The counters, in order.
            pub fn counts(&self) -> [u64; Self::COUNTS] {
                [$(self.$count),+]
            }

            /// The inverse of [`FunnelCounters::counts`].
            pub fn from_counts(counts: [u64; Self::COUNTS], topk_seeds: Vec<Option<u32>>) -> Self {
                let [$($count),+] = counts;
                Self { $($count,)+ topk_seeds }
            }

            /// Copy the counters into `stats` (its timings untouched): a
            /// remote answer's stats carry every counter the reply
            /// carries.
            pub fn fill(&self, stats: &mut SearchStats) {
                $(stats.$count = self.$count;)+
            }

            /// Add another answer's work: counters add up, seeds
            /// concatenate in merge order.
            pub fn merge(&mut self, other: FunnelCounters) {
                $(self.$count += other.$count;)+
                self.topk_seeds.extend(other.topk_seeds);
            }
        }
    };
}

funnel_counters! {
    candidate_pairs, matching_pairs, cell_pairs_filtered, cell_pairs_matched,
    quick_browse_pairs, apex_excluded, lemma1_filtered, lemma2_matched,
    distance_computations, mapping_distances, early_joinable, lemma7_pruned,
}

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
    fn derive(name: &str, unit: &str, output: u64, reason: &str, pruned: u64) -> Self {
        Self {
            name: name.to_string(),
            unit: unit.to_string(),
            input: output + pruned,
            pruned: vec![(reason.to_string(), pruned)],
            output,
        }
    }

    /// Whether this stage's arithmetic balances.
    pub fn consistent(&self) -> bool {
        self.input == self.output + self.pruned.iter().map(|(_, n)| *n).sum::<u64>()
    }
}

/// The explain answer for one query: the inputs the candidate funnel and
/// the scalar decisions are computed from (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainReport {
    /// Whether the query ranked the top-k (else it ran to a threshold).
    pub topk: bool,
    /// Whether the query asked for quick browsing.
    pub quick_browse: bool,
    /// The work the answer cost.
    pub counters: FunnelCounters,
    /// Columns in the answer.
    pub hits: u64,
    /// The answer's outcome.
    pub outcome: QueryOutcome,
}

impl ExplainReport {
    /// The report on an answer of `hits` columns with `outcome` to
    /// `query`, whose work `counters` holds. Pure: building it (or not)
    /// can never change hits or stats, which is exactly what the explain
    /// differential tests pin.
    pub fn new(query: &Query, counters: FunnelCounters, hits: u64, outcome: QueryOutcome) -> Self {
        Self {
            topk: matches!(query.mode, QueryMode::Topk(_)),
            quick_browse: query.options.quick_browse,
            counters,
            hits,
            outcome,
        }
    }

    /// `threshold` or `topk`.
    pub fn mode(&self) -> &'static str {
        if self.topk {
            "topk"
        } else {
            "threshold"
        }
    }

    /// The candidate funnel, outermost stage first: `block`, `verify`,
    /// `columns`.
    pub fn stages(&self) -> Vec<FunnelStage> {
        let c = &self.counters;
        vec![
            FunnelStage::derive(
                "block",
                "pairs",
                c.candidate_pairs + c.matching_pairs,
                "lemma3/4",
                c.cell_pairs_filtered,
            ),
            FunnelStage::derive(
                "verify",
                "rows",
                c.lemma2_matched + c.distance_computations,
                "lemma1",
                c.lemma1_filtered,
            ),
            FunnelStage::derive("columns", "columns", self.hits, "lemma7", c.lemma7_pruned),
        ]
    }

    /// Human-readable scalar decisions (quick-browse, definite-match
    /// counts, the candidate pairs the apex bound excluded, the distance
    /// counts, the top-k seed or the early-joinable columns, the outcome),
    /// one line each.
    pub fn decisions(&self) -> Vec<String> {
        let c = &self.counters;
        let quick_browse = if self.quick_browse { "on" } else { "off" };
        let mut decisions = vec![
            format!(
                "quick_browse={quick_browse} seeded_pairs={}",
                c.quick_browse_pairs
            ),
            format!(
                "lemma5/6_cell_matches={} lemma2_definite_rows={}",
                c.cell_pairs_matched, c.lemma2_matched
            ),
            format!("apex_excluded_pairs={}", c.apex_excluded),
            format!(
                "distance_computations={} mapping_distances={}",
                c.distance_computations, c.mapping_distances
            ),
        ];
        if self.topk {
            let seeds: Vec<String> = c
                .topk_seeds
                .iter()
                .map(|seed| seed.map_or("none".to_string(), |count| count.to_string()))
                .collect();
            decisions.push(format!("topk_seed={}", seeds.join(",")));
        } else {
            decisions.push(format!("early_joinable_columns={}", c.early_joinable));
        }
        decisions.push(match self.outcome {
            QueryOutcome::Exact => "outcome=exact".to_string(),
            QueryOutcome::Exceeded(e) => format!("outcome=exceeded({e})"),
        });
        decisions
    }

    /// Whether every stage's arithmetic balances.
    pub fn consistent(&self) -> bool {
        self.stages().iter().all(FunnelStage::consistent)
    }

    /// Render the report as an indented text funnel (what
    /// `pexeso query --explain` prints).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "EXPLAIN ({})", self.mode());
        let _ = writeln!(out, "  funnel:");
        for s in self.stages() {
            let mut line = format!("    {:<8} [{}] in={}", s.name, s.unit, s.input);
            for (reason, n) in &s.pruned {
                let _ = write!(line, "  {reason}=-{n}");
            }
            let _ = writeln!(out, "{line}  out={}", s.output);
        }
        let _ = writeln!(out, "  decisions:");
        for d in self.decisions() {
            let _ = writeln!(out, "    {d}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{JoinThreshold, Tau};
    use crate::query::Exceeded;

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

    fn report(
        query: &Query,
        hits: u64,
        outcome: QueryOutcome,
        seeds: &[Option<u32>],
    ) -> ExplainReport {
        ExplainReport::new(
            query,
            FunnelCounters::of(&stats(), seeds.to_vec()),
            hits,
            outcome,
        )
    }

    #[test]
    fn threshold_funnel_balances_and_mirrors_stats() {
        let q = Query::threshold(Tau::Ratio(0.05), JoinThreshold::Ratio(0.5));
        let r = report(&q, 11, QueryOutcome::Exact, &[None]);
        assert!(r.consistent());
        assert_eq!(r.mode(), "threshold");
        let stages = r.stages();
        let block = &stages[0];
        assert_eq!(block.output, 24); // candidate + matching pairs
        assert_eq!(block.pruned, vec![("lemma3/4".to_string(), 7)]);
        assert_eq!(block.input, 31);
        let verify = &stages[1];
        assert_eq!(verify.output, 45); // lemma2 + distance rows
        assert_eq!(verify.pruned, vec![("lemma1".to_string(), 10)]);
        let cols = &stages[2];
        assert_eq!(cols.output, 11);
        assert_eq!(cols.pruned, vec![("lemma7".to_string(), 6)]);
        let decisions = r.decisions();
        assert!(decisions.iter().any(|d| d.contains("outcome=exact")));
        assert!(!decisions.iter().any(|d| d.contains("topk_seed")));
    }

    #[test]
    fn topk_funnel_prunes_by_lemma7_and_prints_the_seeds() {
        let q = Query::topk(Tau::Ratio(0.05), 3);
        let r = report(&q, 3, QueryOutcome::Exact, &[Some(4), None]);
        assert!(r.consistent());
        assert_eq!(r.stages()[2].pruned, vec![("lemma7".to_string(), 6)]);
        let rendered = r.render();
        assert!(rendered.contains("EXPLAIN (topk)"));
        assert!(rendered.contains("lemma7=-6"));
        assert!(rendered.contains("topk_seed=4,none"));
    }

    /// The rendered funnel, byte for byte.
    #[test]
    fn render_is_pinned() {
        let q = Query::topk(Tau::Ratio(0.05), 3);
        let r = report(
            &q,
            3,
            QueryOutcome::Exceeded(Exceeded::DistanceComputations),
            &[Some(4), None],
        );
        let want = format!(
            "EXPLAIN (topk)
  funnel:
    block    [pairs] in=31  lemma3/4=-7  out=24
    verify   [rows] in=55  lemma1=-10  out=45
    columns  [columns] in=9  lemma7=-6  out=3
  decisions:
    quick_browse=on seeded_pairs=2
    lemma5/6_cell_matches=3 lemma2_definite_rows=5
    apex_excluded_pairs=0
    distance_computations=40 mapping_distances=0
    topk_seed=4,none
    outcome=exceeded({})
",
            Exceeded::DistanceComputations
        );
        assert_eq!(r.render(), want);
    }

    /// Merged counters report the sum: counts add up, seeds concatenate
    /// in merge order, and the report is built once on the merged answer.
    #[test]
    fn merged_counters_add_up() {
        let q = Query::topk(Tau::Ratio(0.05), 3);
        let mut counters = FunnelCounters::of(&stats(), vec![Some(2)]);
        counters.merge(FunnelCounters::of(&stats(), vec![None]));
        let mut doubled = stats();
        doubled.merge(&stats());
        assert_eq!(counters, FunnelCounters::of(&doubled, vec![Some(2), None]));
        let r = ExplainReport::new(&q, counters, 5, QueryOutcome::Exact);
        assert!(r.consistent());
        let single = report(&q, 3, QueryOutcome::Exact, &[None]);
        assert_eq!(r.stages()[0].input, 2 * single.stages()[0].input);
        assert_eq!(r.stages()[2].output, 5);
        assert_eq!(r.stages()[2].pruned, vec![("lemma7".to_string(), 12)]);
        let decisions = r.decisions();
        assert_eq!(decisions.len(), single.decisions().len());
        assert!(decisions.contains(&"topk_seed=2,none".to_string()));
        assert!(decisions.contains(&"distance_computations=80 mapping_distances=0".to_string()));
        assert!(decisions.contains(&"quick_browse=on seeded_pairs=4".to_string()));
    }
}

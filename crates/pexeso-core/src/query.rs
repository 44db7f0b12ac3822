//! The unified query API: one request type, one executor trait.
//!
//! PEXESO defines a single logical operation — find the columns whose
//! τ-match count clears a threshold `T` or ranks in the top `k` — but a
//! growing system exposes it through many backends: an in-memory
//! [`PexesoIndex`](crate::search::PexesoIndex), an out-of-core
//! [`PartitionedLake`](crate::outofcore::PartitionedLake), its
//! fully-resident twin
//! [`ResidentPartitions`](crate::outofcore::ResidentPartitions), and a
//! remote serving daemon. This module is the one surface they all share:
//!
//! * [`Query`] — a self-contained, backend-agnostic request: mode
//!   (threshold or top-k), τ, per-query [`SearchOptions`], the
//!   [`ExecPolicy`] its executor may spend, an optional metric
//!   expectation, and a per-query [`QueryBudget`];
//! * [`QueryResponse`] — globally-identified hits
//!   ([`crate::outofcore::GlobalHit`]), the familiar
//!   [`SearchStats`], and a typed [`QueryOutcome`] that says whether the
//!   answer is exact or a budget tripped mid-verification;
//! * [`Queryable`] — the object-safe executor trait every backend
//!   implements, so callers can hold a `&dyn Queryable` and stay agnostic
//!   to where the index actually lives.
//!
//! ## The unified result contract
//!
//! Every backend answers the same `Query` with byte-identical rankings:
//!
//! * threshold mode returns every joinable column, ascending by
//!   `external_id`;
//! * top-k mode returns (up to) `k` columns ranked by match count
//!   descending, ties broken by ascending `external_id` (backends whose
//!   internal tie-break differs re-rank tie-inclusively);
//! * `k == 0` returns no hits (and no error); `T` counts are clamped to
//!   at least 1; an invalid τ is a typed error on every backend.
//!
//! ## Budgets
//!
//! A [`QueryBudget`] bounds the *verification* work of one query: a cap on
//! exact distance computations and/or a wall-clock deadline. The limits
//! are checked inside the verification loop (before each scheduled query
//! vector of the scan, threshold or top-k — cheapest candidate cells
//! first, see [`crate::verify`]); when one trips, the query returns the
//! hits found so far with [`QueryOutcome::Exceeded`] instead of silently
//! presenting a partial answer as exact. The distance cap cuts off
//! deterministically: a budgeted scan runs sequentially, so the same
//! budget yields the same partial result every time. Deadlines are inherently wall-clock-bound
//! and therefore best-effort.
//!
//! ```
//! use pexeso_core::prelude::*;
//!
//! let mut repo = ColumnSet::new(4);
//! repo.add_column("t1", "c", 0, vec![&[1.0, 0.0, 0.0, 0.0][..]]).unwrap();
//! repo.add_column("t2", "c", 1, vec![&[0.0, 1.0, 0.0, 0.0][..]]).unwrap();
//! let index = PexesoIndex::build(repo, Euclidean, IndexOptions::default()).unwrap();
//!
//! let mut q = VectorStore::new(4);
//! q.push(&[1.0, 0.0, 0.0, 0.0]).unwrap();
//!
//! // One request type for every ranking mode and backend.
//! let query = Query::threshold(Tau::Ratio(0.05), JoinThreshold::Ratio(0.9))
//!     .expect_metric("euclidean");
//! let backend: &dyn Queryable = &index;
//! let resp = backend.execute(&query, &q).unwrap();
//! assert!(resp.exact());
//! assert_eq!(resp.hits.len(), 1);
//! assert_eq!(resp.hits[0].external_id, 0);
//!
//! // Top-k is the same request with a different mode.
//! let top = backend.execute(&Query::topk(Tau::Ratio(0.05), 1), &q).unwrap();
//! assert_eq!(top.hits[0].table_name, "t1");
//! ```

use std::time::{Duration, Instant};

use crate::config::{ExecPolicy, JoinThreshold, LemmaFlags, Tau};
use crate::error::{PexesoError, Result};
use crate::explain::ExplainReport;
use crate::outofcore::GlobalHit;
use crate::search::SearchOptions;
use crate::stats::SearchStats;
use crate::trace::{QueryTrace, TraceLevel};
use crate::vector::VectorStore;

/// The ranking mode of a [`Query`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryMode {
    /// Every column with at least `T` matching query records.
    Threshold(JoinThreshold),
    /// The `k` columns with the most matching query records.
    Topk(usize),
}

/// A per-query bound on verification work. The default is unlimited.
///
/// `max_distance_computations` caps the exact distance computations spent
/// verifying candidates (the [`SearchStats::distance_computations`]
/// counter); `deadline` bounds wall-clock time from the moment the backend
/// starts executing. Either limit tripping yields
/// [`QueryOutcome::Exceeded`] with the hits found so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryBudget {
    /// Cap on exact distance computations; `None` = unlimited.
    pub max_distance_computations: Option<u64>,
    /// Wall-clock allowance for the whole query; `None` = unlimited.
    pub deadline: Option<Duration>,
}

impl QueryBudget {
    /// Whether any limit is set at all.
    pub fn is_limited(&self) -> bool {
        self.max_distance_computations.is_some() || self.deadline.is_some()
    }
}

/// Which budget limit cut a query short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exceeded {
    /// [`QueryBudget::max_distance_computations`] was reached.
    DistanceComputations,
    /// [`QueryBudget::deadline`] passed.
    Deadline,
}

impl std::fmt::Display for Exceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Exceeded::DistanceComputations => write!(f, "distance-computation budget exceeded"),
            Exceeded::Deadline => write!(f, "deadline exceeded"),
        }
    }
}

/// Whether a [`QueryResponse`] is the exact answer or a budget tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryOutcome {
    /// The hits are exactly the defined answer set/ranking.
    #[default]
    Exact,
    /// A budget limit tripped mid-verification; the hits are a sound but
    /// possibly incomplete subset (threshold mode) or a ranking over the
    /// columns verified so far (top-k mode).
    Exceeded(Exceeded),
}

/// One backend-independent, criteria-carrying joinability query.
///
/// Construct with [`Query::threshold`] or [`Query::topk`], refine with the
/// builder methods, and hand it to any [`Queryable`] backend. See the
/// [module docs](self) for the shared result contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Threshold or top-k ranking.
    pub mode: QueryMode,
    /// Distance threshold τ.
    pub tau: Tau,
    /// Per-query knobs: lemma toggles, quick browsing.
    pub options: SearchOptions,
    /// The threads whoever executes this query may spend. They go to the
    /// partition loop of a deployment with at least two partitions, and
    /// otherwise to mapping, blocking and verification inside the one
    /// search ([`ExecPolicy::split`]). Results are policy-independent.
    ///
    /// The default is [`ExecPolicy::auto`]: as many threads as the host
    /// that *executes* the query has cores — a daemon resolves it, not
    /// the client that sent it — and only where the work pays for them
    /// ([`crate::exec`]); a query that must stay on one thread says
    /// [`ExecPolicy::Sequential`].
    pub policy: ExecPolicy,
    /// Metric the backend is expected to have been built with (e.g.
    /// `"euclidean"`). Backends that know their metric reject a mismatch
    /// instead of silently returning non-exact results; `None` accepts the
    /// backend's own metric.
    pub metric: Option<String>,
    /// Per-query verification budget.
    pub budget: QueryBudget,
    /// Phase-tracing level. [`TraceLevel::Off`] (the default) adds no
    /// work beyond one branch per execution; any other level attaches a
    /// [`QueryTrace`] to the response. Tracing never changes results.
    pub trace: TraceLevel,
    /// Correlation id minted at the outermost hop
    /// ([`crate::log::mint_request_id`]) and propagated unchanged to
    /// every backend/shard, so one id links structured-log lines, SLOW
    /// entries, and merged trace spans across the fleet. `None` (the
    /// default) means the request is uncorrelated; results never depend
    /// on it.
    pub request_id: Option<u64>,
    /// Whether to attach an [`ExplainReport`] (the candidate funnel and
    /// pruning decisions) to the response. Off by default; the report
    /// is a pure function of the final stats, so enabling it never
    /// changes hits or stats (`tests/explain.rs` pins this).
    pub explain: bool,
}

impl Query {
    fn new(mode: QueryMode, tau: Tau) -> Self {
        Self {
            mode,
            tau,
            options: SearchOptions::default(),
            policy: ExecPolicy::auto(),
            metric: None,
            budget: QueryBudget::default(),
            trace: TraceLevel::Off,
            request_id: None,
            explain: false,
        }
    }

    /// A threshold query: every column with ≥ `t` matching query records.
    pub fn threshold(tau: Tau, t: JoinThreshold) -> Self {
        Self::new(QueryMode::Threshold(t), tau)
    }

    /// A top-k query: the `k` columns with the most matching records.
    pub fn topk(tau: Tau, k: usize) -> Self {
        Self::new(QueryMode::Topk(k), tau)
    }

    /// Replace the per-query [`SearchOptions`] wholesale.
    pub fn with_options(mut self, options: SearchOptions) -> Self {
        self.options = options;
        self
    }

    /// Set the lemma toggles (Fig. 9 ablations; results never change).
    pub fn with_flags(mut self, flags: LemmaFlags) -> Self {
        self.options.flags = flags;
        self
    }

    /// Enable/disable the quick-browsing shortcut.
    pub fn quick_browse(mut self, on: bool) -> Self {
        self.options.quick_browse = on;
        self
    }

    /// Set the execution policy (see [`Query::policy`]).
    pub fn with_policy(mut self, policy: ExecPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Expect the backend to have been built with the named metric.
    pub fn expect_metric(mut self, name: &str) -> Self {
        self.metric = Some(name.to_string());
        self
    }

    /// Reject a metric expectation other than the metric `what` (the
    /// backend, named for the message) was built with: its persisted
    /// pivot mappings are only valid under that metric, so answering
    /// anyway would silently break exactness.
    pub fn check_metric(&self, what: &str, built_with: &str) -> Result<()> {
        match self.metric.as_deref() {
            Some(expected) if expected != built_with => Err(PexesoError::InvalidParameter(
                format!("{what} was built with metric '{built_with}'; query expects '{expected}'"),
            )),
            _ => Ok(()),
        }
    }

    /// Replace the verification budget wholesale.
    pub fn with_budget(mut self, budget: QueryBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Cap the exact distance computations spent verifying this query.
    pub fn with_max_distance_computations(mut self, n: u64) -> Self {
        self.budget.max_distance_computations = Some(n);
        self
    }

    /// Bound the wall-clock time of this query (best-effort).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.budget.deadline = Some(deadline);
        self
    }

    /// Request a phase trace at the given level. Results are unchanged;
    /// the response additionally carries a [`QueryTrace`].
    pub fn with_trace(mut self, level: TraceLevel) -> Self {
        self.trace = level;
        self
    }

    /// Tag the query with a fleet-wide correlation id (see
    /// [`Query::request_id`]).
    pub fn with_request_id(mut self, rid: u64) -> Self {
        self.request_id = Some(rid);
        self
    }

    /// Request an [`ExplainReport`] alongside the hits. Results are
    /// unchanged; the response additionally carries the funnel.
    pub fn with_explain(mut self, on: bool) -> Self {
        self.explain = on;
        self
    }
}

/// The unified answer to a [`Query`]: globally-identified hits, the usual
/// per-query instrumentation, and an explicit exactness outcome.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Joinable columns under the unified ranking contract (see the
    /// [module docs](self)).
    pub hits: Vec<GlobalHit>,
    pub stats: SearchStats,
    pub outcome: QueryOutcome,
    /// Phase trace, present iff the query asked for one
    /// ([`Query::with_trace`] with a level other than
    /// [`TraceLevel::Off`]).
    pub trace: Option<QueryTrace>,
    /// Candidate-funnel report, present iff the query asked for one
    /// ([`Query::with_explain`]).
    pub explain: Option<ExplainReport>,
}

impl QueryResponse {
    /// Whether the hits are the exact, complete answer.
    pub fn exact(&self) -> bool {
        self.outcome == QueryOutcome::Exact
    }
}

/// An executor of [`Query`]s. Object-safe: backends are usable as
/// `&dyn Queryable`, so drivers, servers, and tests can be written once
/// against the trait.
///
/// Implementations answer the same query with byte-identical rankings
/// (the differential test `tests/query_api.rs` pins in-memory, disk,
/// resident, and remote backends against each other).
pub trait Queryable {
    /// Answer one query column.
    fn execute(&self, query: &Query, vectors: &VectorStore) -> Result<QueryResponse>;

    /// Answer many query columns against the same backend, one
    /// [`Queryable::execute`] per column: `responses[i]` is exactly what
    /// `execute(query, columns[i])` returns. No backend overrides this
    /// loop — a query runs one column at a time at every layer.
    fn execute_many(&self, query: &Query, columns: &[&VectorStore]) -> Result<Vec<QueryResponse>> {
        columns.iter().map(|c| self.execute(query, c)).collect()
    }
}

/// Live bookkeeping for one query's [`QueryBudget`], shared by every
/// backend: the deadline is armed once when the backend starts executing,
/// and the distance cap is charged against `base + local` so multi-part
/// executions (partitions, tie-inclusive re-queries) accumulate correctly
/// via [`BudgetGuard::advance`].
#[derive(Debug, Clone)]
pub struct BudgetGuard {
    max_distances: Option<u64>,
    deadline: Option<Instant>,
    base_distances: u64,
}

impl BudgetGuard {
    /// Arm a guard for `budget`, or `None` when it is unlimited.
    pub fn start(budget: &QueryBudget) -> Option<Self> {
        if !budget.is_limited() {
            return None;
        }
        Some(Self {
            max_distances: budget.max_distance_computations,
            deadline: budget.deadline.map(|d| Instant::now() + d),
            base_distances: 0,
        })
    }

    /// Charge distance work completed by a finished sub-execution, so the
    /// next sub-execution's local counter continues from here.
    pub fn advance(&mut self, distances: u64) {
        self.base_distances += distances;
    }

    /// Check the limits against a sub-execution's local counters. The
    /// distance cap is checked first: it is deterministic, while the
    /// deadline depends on wall clock.
    pub fn check(&self, local_distances: u64) -> Option<Exceeded> {
        if let Some(max) = self.max_distances {
            if self.base_distances + local_distances >= max {
                return Some(Exceeded::DistanceComputations);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(Exceeded::Deadline);
            }
        }
        None
    }
}

/// Merge a sub-execution's exceeded flag into a query-level outcome: the
/// first limit to trip wins and is sticky. Public (with the ranking
/// helpers below) so out-of-crate backends — e.g. the delta-overlay
/// executor in `pexeso-delta` — compose partition results under exactly
/// the same contract as the built-in ones.
pub fn fold_outcome(outcome: &mut QueryOutcome, exceeded: Option<Exceeded>) {
    if *outcome == QueryOutcome::Exact {
        if let Some(e) = exceeded {
            *outcome = QueryOutcome::Exceeded(e);
        }
    }
}

/// Rank a tie-inclusive `(match_count, hit)` list under the unified
/// contract — count descending, external id ascending — and truncate to
/// `k`. Shared by every top-k backend.
pub fn rank_topk_hits(mut hits: Vec<GlobalHit>, k: usize) -> Vec<GlobalHit> {
    hits.sort_by(|a, b| {
        b.match_count
            .cmp(&a.match_count)
            .then(a.external_id.cmp(&b.external_id))
    });
    hits.truncate(k);
    hits
}

/// Sort threshold hits under the unified contract: external id ascending.
pub fn sort_threshold_hits(hits: &mut [GlobalHit]) {
    hits.sort_by_key(|h| h.external_id);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_carries_every_criterion() {
        let q = Query::topk(Tau::Ratio(0.06), 7)
            .with_flags(LemmaFlags::without_lemma1())
            .quick_browse(false)
            .with_policy(ExecPolicy::Parallel { threads: 3 })
            .expect_metric("manhattan")
            .with_max_distance_computations(1000)
            .with_deadline(Duration::from_millis(50))
            .with_trace(TraceLevel::Phases)
            .with_request_id(0xabcd)
            .with_explain(true);
        assert_eq!(q.mode, QueryMode::Topk(7));
        assert_eq!(q.trace, TraceLevel::Phases);
        assert_eq!(q.request_id, Some(0xabcd));
        assert!(q.explain);
        let default = Query::topk(Tau::Ratio(0.06), 7);
        assert_eq!(default.policy, ExecPolicy::auto());
        assert_eq!(default.trace, TraceLevel::Off);
        assert_eq!(default.request_id, None);
        assert!(!default.explain);
        assert!(!q.options.flags.lemma1_vector_filter);
        assert!(!q.options.quick_browse);
        assert_eq!(q.policy, ExecPolicy::Parallel { threads: 3 });
        assert_eq!(q.metric.as_deref(), Some("manhattan"));
        assert_eq!(q.budget.max_distance_computations, Some(1000));
        assert!(q.budget.deadline.is_some());
        assert!(q.budget.is_limited());
        assert!(!QueryBudget::default().is_limited());
    }

    #[test]
    fn budget_guard_charges_across_sub_executions() {
        let budget = QueryBudget {
            max_distance_computations: Some(10),
            deadline: None,
        };
        let mut guard = BudgetGuard::start(&budget).unwrap();
        assert_eq!(guard.check(5), None);
        assert_eq!(guard.check(10), Some(Exceeded::DistanceComputations));
        guard.advance(6);
        assert_eq!(guard.check(3), None);
        assert_eq!(guard.check(4), Some(Exceeded::DistanceComputations));
        assert!(BudgetGuard::start(&QueryBudget::default()).is_none());
    }

    #[test]
    fn deadline_guard_trips_once_passed() {
        let budget = QueryBudget {
            max_distance_computations: None,
            deadline: Some(Duration::ZERO),
        };
        let guard = BudgetGuard::start(&budget).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(guard.check(0), Some(Exceeded::Deadline));
    }

    #[test]
    fn outcome_folding_is_sticky_first_wins() {
        let mut o = QueryOutcome::Exact;
        fold_outcome(&mut o, None);
        assert_eq!(o, QueryOutcome::Exact);
        fold_outcome(&mut o, Some(Exceeded::Deadline));
        assert_eq!(o, QueryOutcome::Exceeded(Exceeded::Deadline));
        fold_outcome(&mut o, Some(Exceeded::DistanceComputations));
        assert_eq!(o, QueryOutcome::Exceeded(Exceeded::Deadline));
    }

    #[test]
    fn unified_rankings() {
        let hit = |ext: u64, count: u32| GlobalHit {
            external_id: ext,
            table_name: "t".into(),
            column_name: "c".into(),
            match_count: count,
        };
        let ranked = rank_topk_hits(vec![hit(5, 3), hit(2, 9), hit(1, 3), hit(9, 1)], 3);
        let ids: Vec<u64> = ranked.iter().map(|h| h.external_id).collect();
        assert_eq!(ids, vec![2, 1, 5]);
        let mut th = vec![hit(5, 3), hit(2, 9), hit(9, 1)];
        sort_threshold_hits(&mut th);
        let ids: Vec<u64> = th.iter().map(|h| h.external_id).collect();
        assert_eq!(ids, vec![2, 5, 9]);
    }
}

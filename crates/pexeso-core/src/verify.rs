//! Verification: Algorithm 2 over the inverted index.
//!
//! Matching pairs increment the match map directly; candidate pairs scan
//! the rows of their leaf cells, filtering and accepting each row by the
//! row bound (below), and paying an exact distance computation only for
//! the survivors. Two early-termination rules apply per column:
//!
//! * **joinable-skip** — once a column's match count reaches `T`, it is
//!   joinable and never touched again;
//! * **Lemma 7** — once a column has accumulated so many definite
//!   mismatches that even matching every remaining query vector cannot
//!   reach `T` (`|Q| − mismatch < T`), it is pruned.
//!
//! ## The state word
//!
//! The paper realises the per-column ordering with a document-at-a-time
//! cursor merge; the scan gets the identical skip behaviour from one `u32`
//! per column. `state[c]` is `u32::MAX` once the column is dead (joinable,
//! pruned, or dropped by the caller — [`VerifyContext::deleted`], dead
//! from step 0), otherwise the generation (`step + 1`) of the last
//! scheduled query vector that matched it. Generations only grow and never
//! reach `u32::MAX`, so `state[c] >= gen` — one load, one compare — says
//! "dead, or already matched by this query vector": the only two reasons to
//! skip a row. A dropped column therefore costs no distance computation;
//! once every column is dead the scan stops.
//!
//! ## Schedule
//!
//! Lemma 7 prunes a column at its `|Q| − T + 1`th definite mismatch and
//! does not care which query vectors supply them: a column's match count
//! is a sum over query vectors, so the joinable set, and the count of
//! every hit (`T` when the scan can terminate, exact when `T > |Q|`), are
//! the same for every order. What the order decides is the price: on a
//! lake where most columns share no value with the query, nearly all of
//! them die together at step `|Q| − T + 1`, and every step before that
//! walks its candidate cells at full width. So the scan takes the query
//! vectors cheapest first. The schedule is built once per scan, before
//! any shard runs. Blocking names each query vector's cells by ordinal,
//! ascending, which is the order of their rows, so no cell is looked up:
//! a candidate cell whose apex box lies beyond `τ` of the vector's apex is
//! dropped (the n-simplex bound of [`crate::invindex`], Euclidean only;
//! counted in [`SearchStats::apex_excluded`]), and the vector's cost is
//! the number of repository rows in the candidate cells that remain.
//! Costs are of **whole cells, never of a shard's window of them**, so
//! every shard of every [`ExecPolicy`] steps through the same vectors in
//! the same order — the budget cut and every counter stay
//! policy-independent. Steps are sorted by `(cost, id)`; the id breaks
//! ties so that equal costs cannot make the order (and with it the
//! counters) depend on the sort. The live set only shrinks, so the
//! expensive vectors meet the fewest live columns.
//!
//! ## The candidate scan: two stages per cell
//!
//! The inverted index stores its rows cell by cell, each row with its
//! column and coordinates side by side ([`crate::invindex`]), and the
//! index holds the rows' vectors in the same order ([`crate::column`]): a
//! candidate cell is a contiguous run of rows, walked as one flat run, and
//! row `r`'s vector is the `r`-th of [`VerifyContext::columns`]. A cell's
//! rows are also its postings: its columns are the runs of equal column
//! ids over them, ascending.
//!
//! 1. **Filter.** One compaction pass into a buffer of row indexes reused
//!    across cells, by one of two enumerations that keep the same rows in
//!    the same order. *By row*: keep each row whose column's state word
//!    says live and unmatched and, when the filter is on
//!    ([`LemmaFlags::lemma1_vector_filter`]), that the row bound cannot
//!    reject — on apex rows through the stage-1 kernel
//!    ([`kernel::simplex_rows`]: eight rows a step, the bound in `f32`
//!    lanes, survivors packed by a lookup table), otherwise one row at a
//!    time with no data-dependent branch (every row is written, the cursor
//!    advances by `n += keep`). *By live column*: once few columns are
//!    left the shard keeps their slots as an ascending list, and a cell
//!    with many more rows than the list has entries is enumerated by
//!    binary-searching its rows' ascending columns for each listed column
//!    and putting that column's run of rows to the same row bound — the
//!    dead rows are never looked at.
//! 2. **Test.** The row bound's match test (when
//!    [`LemmaFlags::lemma2_vector_match`] is on), then
//!    [`Metric::dist_le`], over the survivors, each survivor's vector read
//!    at its row: a cell's survivors are read in ascending order from one
//!    stretch of the store, each prefetched a dozen survivors ahead. The
//!    state word is re-checked, so once a row matches, the column's
//!    remaining survivors in the cell are skipped — exactly the rows a
//!    per-column first-match `break` would skip.
//!
//! ## The row bound
//!
//! On an index whose rows hold apexes (Euclidean, pivots with a simplex
//! base), a row is rejected when its apex lies beyond `τ` of the query
//! vector's apex interval (the n-simplex lower bound, which implies
//! Lemma 1, evaluated in `f32` lanes widened so that it rejects no row the
//! exact bound [`lemmas::simplex_filter`] keeps: [`SimplexLanes`]) and
//! accepted when its apex, reflected through the pivots' span, lies
//! within `τ` of every point of that interval ([`lemmas::simplex_match`],
//! the upper bound, which implies Lemma 2). Both are widened by the cell's slack — how far a
//! stored apex can lie from the true one — and by `EPS`
//! ([`ApexBoxes::row_reach`], worked out once per cell). Every other index
//! filters and accepts by Lemmas 1 and 2 over pivot coordinates. The
//! rejections are counted in [`SearchStats::lemma1_filtered`] either way.
//!
//! ## Complete Lemma 7
//!
//! Blocking is lossless: every repository vector within `τ` of query
//! vector `q` lies in one of `q`'s matching or candidate cells, and a
//! candidate cell the apex bound drops holds none. So after `q`'s cells
//! are scanned, **every** live column that did not match `q` — visited in
//! a candidate cell or not — has a definite mismatch. Charging all of them
//! lets Lemma 7 fire for columns the query vector never reaches, needs no
//! record of which columns were seen, and ends the scan as soon as no live
//! column remains. A query vector with no candidate cell at all costs
//! nothing and is scheduled first.
//!
//! ## Top-k: the same scan, `t` never, slack from the seed
//!
//! The scan keeps "matches that make a column joinable" (`t`) apart from
//! "mismatches a column can take" (`slack`). A top-k scan runs it with
//! `t` out of reach, so no column stops counting, and a slack of
//! `|Q| − s` where `s` is the seed count of [`crate::cost::topk_seed`] —
//! at least k columns are known to match `s` query vectors, so a column
//! with more than `|Q| − s` definite mismatches cannot rank among the k
//! best and Lemma 7 prunes it like any other hopeless column. Without a
//! seed the slack is unbounded. Every column the scan leaves unpruned has
//! its exact count; ranking them by `(count desc, column id asc)` is the
//! answer.
//!
//! ## Parallel verification
//!
//! All per-column state (match/mismatch counts, state word) is independent
//! across columns: a column's outcome depends only on the schedule, never
//! on other columns. [`verify_with`] therefore shards the
//! column id space into contiguous ranges, runs the identical scan per
//! shard, and concatenates shard results in range order — making
//! [`ExecPolicy::Parallel`] output (and every [`SearchStats`] counter)
//! byte-identical to [`ExecPolicy::Sequential`]. A cell's rows run column
//! by column, ascending, so a shard takes its part of a cell as the one
//! range of rows a binary search over their columns finds; the inner
//! loops carry no range check. Exact distances go through the
//! early-exit [`Metric::dist_le`] kernel, which answers `d ≤ τ` without a
//! `sqrt` and usually without touching every dimension.

use std::ops::Range;

use crate::block::BlockOutput;
use crate::column::{ColumnId, ColumnSet};
use crate::config::{ExecPolicy, LemmaFlags};
use crate::cost::ColumnMatchBounds;
use crate::exec;
use crate::grid::by_pivots;
use crate::invindex::{Apex, ApexBoxes, InvertedIndex, Rows};
use crate::kernel::{self, LiveColumns, SimplexLanes};
use crate::lemmas;
use crate::mapping::MappedVectors;
use crate::metric::Metric;
use crate::query::{BudgetGuard, Exceeded};
use crate::stats::SearchStats;
use crate::vector::VectorStore;

/// Everything verification needs to resolve a candidate pair.
pub struct VerifyContext<'a, M: Metric> {
    /// The repository, its vectors held in `inv`'s row order (as a
    /// [`crate::search::PexesoIndex`] holds them): stage 2 reads row `r`'s
    /// vector at `r`.
    pub columns: &'a ColumnSet,
    /// Not read by the scan, which takes every row's column from the
    /// inverted index's cell-major rows. Kept only because the benchmark
    /// ladder builds a context from outside; it goes with that caller.
    pub vec_col: &'a [u32],
    /// Not read by the scan, which takes every row's pivot coordinates
    /// from the inverted index's cell-major rows. Kept, like `vec_col`,
    /// for the benchmark ladder.
    pub rv_mapped: &'a MappedVectors,
    pub inv: &'a InvertedIndex,
    pub metric: &'a M,
    pub query: &'a VectorStore,
    pub query_mapped: &'a MappedVectors,
    pub tau: f32,
    /// Absolute joinability threshold T. A value larger than the query
    /// size disables both early-termination rules, yielding exact match
    /// counts for every column (used by top-k search).
    pub t_abs: usize,
    pub flags: LemmaFlags,
    /// Columns dead from the first step (the delta overlay's dropped
    /// tables): never verified, never joinable, never ranked.
    pub deleted: Option<&'a [bool]>,
}

/// Result of verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyOutcome {
    /// Columns whose joinability reached T, ascending by id.
    pub joinable: Vec<ColumnId>,
    /// Per-column matched query-vector counts. Lower bounds for columns
    /// that hit an early-termination rule.
    pub match_counts: Vec<u32>,
    /// Per-column definite-mismatch counts accumulated before termination.
    pub mismatch_counts: Vec<u32>,
}

/// Run Algorithm 2, sharding the column space across the policy's threads.
/// The outcome (and every counter in `stats`) is identical for every
/// policy; only wall-clock changes.
pub fn verify_with<M: Metric>(
    ctx: &VerifyContext<'_, M>,
    blocked: &BlockOutput,
    stats: &mut SearchStats,
    policy: ExecPolicy,
) -> VerifyOutcome {
    scan(ctx, blocked, slack(ctx, None), stats, policy, None).0
}

/// Lemma 7's allowance: `|Q| −` the seed count for a seeded top-k (see
/// the module header), else `|Q| − T`. A `T` beyond `|Q|` can never be
/// reached: nothing is pruned and the scan produces exact counts.
pub(crate) fn slack<M: Metric>(ctx: &VerifyContext<'_, M>, seed: Option<(u32, u32)>) -> u32 {
    let n_q = ctx.query.len();
    match seed {
        Some((count, _)) => (n_q as u32).saturating_sub(count),
        None => n_q.checked_sub(ctx.t_abs).map_or(u32::MAX, |s| s as u32),
    }
}

/// The one candidate scan: a column is pruned once it has more than
/// `slack` definite mismatches. An optional per-query budget is checked
/// before each scheduled query vector; a budgeted scan runs sequentially
/// regardless of `policy` so the cutoff point — and therefore the partial
/// outcome — is deterministic (column shards would otherwise each trip the
/// cap at a thread-dependent place). When a limit trips, the outcome
/// reflects the scan up to that query vector and the tripped limit is
/// returned alongside it.
pub(crate) fn scan<M: Metric>(
    ctx: &VerifyContext<'_, M>,
    blocked: &BlockOutput,
    slack: u32,
    stats: &mut SearchStats,
    policy: ExecPolicy,
    budget: Option<&BudgetGuard>,
) -> (VerifyOutcome, Option<Exceeded>) {
    let n_cols = ctx.columns.n_columns();
    let threads = policy.effective_threads();
    assert_eq!(
        blocked.rv_leaves,
        ctx.inv.num_cells(),
        "blocked against another index's HG_RV"
    );
    assert_eq!(
        ctx.columns.n_vectors(),
        ctx.inv.rows().col.len(),
        "one vector per row"
    );
    let schedule = Schedule::build(ctx.inv, blocked, ctx.query_mapped, ctx.tau);
    stats.apex_excluded += schedule.excluded;
    if budget.is_some() || threads <= 1 || n_cols < 2 {
        return verify_range(ctx, &schedule, 0..n_cols, slack, stats, budget);
    }
    let shards = exec::map_ranges_min(policy, n_cols, 2, |cols| {
        let mut shard_stats = SearchStats::new();
        let (outcome, _) = verify_range(ctx, &schedule, cols, slack, &mut shard_stats, None);
        (outcome, shard_stats)
    });
    let mut joinable = Vec::new();
    let mut match_counts = Vec::with_capacity(n_cols);
    let mut mismatch_counts = Vec::with_capacity(n_cols);
    for (outcome, shard_stats) in shards {
        // Ranges are contiguous and ascending, so plain concatenation
        // reproduces the sequential layout.
        joinable.extend(outcome.joinable);
        match_counts.extend(outcome.match_counts);
        mismatch_counts.extend(outcome.mismatch_counts);
        stats.merge(&shard_stats);
    }
    (
        VerifyOutcome {
            joinable,
            match_counts,
            mismatch_counts,
        },
        None,
    )
}

/// One scheduled query vector.
struct Step {
    /// Repository rows in the vector's candidate cells (whole cells).
    cost: u64,
    /// The query vector's id.
    q: u32,
    /// Its matching and candidate cells, as ranges of [`Schedule::cells`],
    /// each ascending.
    matching: Range<usize>,
    candidates: Range<usize>,
}

/// The order one scan takes the query vectors in — cheapest candidate
/// cells first, see the module header — with the candidate cells the apex
/// bound rules out dropped.
/// Shared by all shards of the scan.
struct Schedule {
    steps: Vec<Step>,
    cells: Vec<u32>,
    /// Candidate pairs the apex bound dropped.
    excluded: u64,
}

impl Schedule {
    fn build(
        inv: &InvertedIndex,
        blocked: &BlockOutput,
        query_mapped: &MappedVectors,
        tau: f32,
    ) -> Self {
        let mut cells: Vec<u32> = Vec::new();
        let mut excluded = 0u64;
        // A vector blocking found no cell for keeps its empty step: it
        // still charges every live column a mismatch.
        let mut steps: Vec<Step> = (0..query_mapped.len() as u32)
            .map(|q| Step {
                cost: 0,
                q,
                matching: 0..0,
                candidates: 0..0,
            })
            .collect();
        // Keep the cells `apex` (a query vector's apex with the index's
        // boxes) does not rule out.
        let mut keep = |ordinals: &[u32], apex: Option<(&ApexBoxes, Apex)>| {
            let start = cells.len();
            for &c in ordinals {
                if apex.is_some_and(|(boxes, q)| boxes.excludes(c, &q, tau)) {
                    excluded += 1;
                } else {
                    cells.push(c);
                }
            }
            start..cells.len()
        };
        for (q, ordinals) in &blocked.matching {
            steps[*q as usize].matching = keep(ordinals, None);
        }
        for (q, ordinals) in &blocked.candidates {
            let apex = inv
                .apex()
                .map(|boxes| (boxes, boxes.query(query_mapped.get(*q as usize))));
            steps[*q as usize].candidates = keep(ordinals, apex);
        }
        for step in &mut steps {
            let rows = |&c: &u32| inv.cell(c).len() as u64;
            step.cost = cells[step.candidates.clone()].iter().map(rows).sum();
        }
        steps.sort_unstable_by_key(|step| (step.cost, step.q));
        Self {
            steps,
            cells,
            excluded,
        }
    }
}

/// `state` word of a column the scan is finished with.
const DEAD: u32 = u32::MAX;

/// How much smaller the live side must be before the scan enumerates by
/// live column instead of by row: a shard starts listing its live slots
/// once `live × 8 ≤ width`, and a cell is probed through the list when
/// `listed × 8 ≤ rows` in the shard's window of it. A probe is a binary
/// search over the window's columns against two loads per row, so the list
/// has to be several times shorter than the cell to win. Measured on the
/// benchmark's `wdc_threshold` (`query_p50_ms`, three alternating 25 s runs
/// each, 2 cores): never listing 2.74 ms, ratio 4 2.47, 8 2.44, 16 2.48 —
/// flat from 4 to 16, so the middle one.
const LISTED_RATIO: usize = 8;

/// How many survivors ahead stage 2 prefetches the vector of. Stage 2
/// reads a cell's survivors in row order, but stage 1 leaves gaps between
/// them that the hardware prefetcher does not bridge. Measured with the
/// vectors held in row order (2 vCPUs, avx2): `bench run --workload
/// wdc_threshold --seconds 20 --trace 0`, 4 rotations of the parent and
/// this scan with and without the prefetch, `query_p50_ms` median 1.18
/// with it, 1.37 without (parent 1.49); `verify_profile`'s flat scan, 20
/// interleaved runs, median 2.78 ms at 12 ahead and without, best 1.69
/// (12), 1.77 (4), 1.79 (24) and 1.79 ms (without).
const PREFETCH_AHEAD: usize = 12;

/// Per-column state of one shard's scan, indexed by shard-local slot.
struct ShardColumns {
    /// Column id of slot 0.
    c_lo: u32,
    /// [`DEAD`], or the generation of the last query vector that matched
    /// the column (see the module header).
    state: Vec<u32>,
    match_counts: Vec<u32>,
    mismatch_counts: Vec<u32>,
    /// Shard-local slots in the order they reached `t`.
    joinable: Vec<u32>,
    /// Columns not yet [`DEAD`].
    live: usize,
    /// Once `live × LISTED_RATIO ≤ width`: the slots that were live after
    /// the last [`ShardColumns::charge_mismatches`], ascending. Columns
    /// that became joinable since are still listed, so readers check the
    /// state word all the same.
    listed: Option<Vec<u32>>,
    /// Matches that make a column joinable; `u32::MAX` (never reached, a
    /// column matches at most `|Q|` times) when T exceeds `|Q|`.
    t: u32,
    /// Definite mismatches a column can take before Lemma 7 prunes it:
    /// `|Q| − T` for a threshold, `|Q| −` the seed count for a seeded
    /// top-k, `u32::MAX` when nothing is to be pruned.
    slack: u32,
}

impl ShardColumns {
    /// Query vector `gen − 1` of the schedule matched the live column `c`.
    #[inline(always)]
    fn record_match(&mut self, c: usize, gen: u32, stats: &mut SearchStats) {
        self.state[c] = gen;
        self.match_counts[c] += 1;
        if self.match_counts[c] >= self.t {
            self.state[c] = DEAD;
            self.live -= 1;
            self.joinable.push(c as u32);
            stats.early_joinable += 1;
        }
    }

    /// Complete Lemma 7: every live column that query vector `gen − 1` of
    /// the schedule did not match takes a definite mismatch, and is pruned
    /// once it has more of them than `slack`. Walks the live list when
    /// there is one (dropping what died during the step), else every slot.
    fn charge_mismatches(&mut self, gen: u32, stats: &mut SearchStats) {
        let slack = self.slack;
        let mut pruned = 0usize;
        let mut charge = |state: &mut u32, mismatches: &mut u32| {
            if *state < gen {
                *mismatches += 1;
                if *mismatches > slack {
                    *state = DEAD;
                    pruned += 1;
                }
            }
        };
        if let Some(listed) = &mut self.listed {
            listed.retain(|&c| {
                let c = c as usize;
                charge(&mut self.state[c], &mut self.mismatch_counts[c]);
                self.state[c] != DEAD
            });
        } else {
            for (state, mismatches) in self.state.iter_mut().zip(&mut self.mismatch_counts) {
                charge(state, mismatches);
            }
        }
        self.live -= pruned;
        stats.lemma7_pruned += pruned as u64;
        if self.listed.is_none() && self.live * LISTED_RATIO <= self.state.len() {
            let live_slots =
                (0..self.state.len() as u32).filter(|&c| self.state[c as usize] != DEAD);
            self.listed = Some(live_slots.collect());
        }
    }
}

/// The rows of `cell` whose column (in `cols`, the rows' columns) falls in
/// `lo..hi`: one range, as a cell's columns ascend.
#[inline]
fn id_window(cols: &[u32], cell: Range<usize>, lo: u32, hi: u32) -> Range<usize> {
    let ids = &cols[cell.clone()];
    match (ids.first(), ids.last()) {
        (Some(&first), Some(&last)) if first >= lo && last < hi => cell,
        _ => {
            let a = cell.start + ids.partition_point(|&id| id < lo);
            a..a + cols[a..cell.end].partition_point(|&id| id < hi)
        }
    }
}

/// The bounds one query vector puts on the rows of one cell: on an index
/// whose rows hold apexes, the n-simplex bounds at the cell's
/// [`ApexBoxes::row_reach`] — the filter in `f32` lanes
/// ([`SimplexLanes`]), the match test exact; otherwise Lemmas 1 and 2 over
/// pivot coordinates.
#[derive(Debug, Clone, Copy)]
enum RowBound<'q> {
    Pivot {
        qm: &'q [f32],
        tau: f32,
    },
    Simplex {
        lanes: SimplexLanes,
        q: &'q Apex,
        within2: f64,
    },
}

impl RowBound<'_> {
    /// Stage 1: whether the row with coordinates `x` surely lies beyond τ.
    #[inline(always)]
    fn rejects(&self, x: &[f32]) -> bool {
        match self {
            Self::Pivot { qm, tau } => lemmas::lemma1_filter(qm, x, *tau),
            Self::Simplex { lanes, .. } => lanes.rejects(x),
        }
    }

    /// Stage 2: whether the row with coordinates `x` surely lies within τ.
    #[inline(always)]
    fn accepts(&self, x: &[f32]) -> bool {
        match *self {
            Self::Pivot { qm, tau } => lemmas::lemma2_match(qm, x, tau),
            Self::Simplex { q, within2, .. } => lemmas::simplex_match(q, x, within2),
        }
    }
}

/// Stage 1 by row over the contiguous rows `window` (the shard's window of
/// a cell): every row whose column is live and not yet matched by this
/// query vector and that the row bound (when on) cannot reject, as a row
/// index at the front of `buf`, in row order. One pass, no data-dependent
/// branch — every row is written, the write cursor advances only past rows
/// that stay. Returns how many stayed and how many live rows the bound
/// rejected; `buf` must hold `window.len()` rows.
fn live_rows_scanned(
    window: Range<usize>,
    rows: &Rows<'_>,
    c_lo: u32,
    state: &[u32],
    gen: u32,
    bound: Option<RowBound<'_>>,
    buf: &mut [u32],
) -> (usize, u64) {
    let Some(bound) = bound else {
        let cols = &rows.col[window.clone()];
        let mut kept = 0usize;
        for (r, &col) in window.zip(cols) {
            buf[kept] = r as u32;
            kept += usize::from(state[(col - c_lo) as usize] < gen);
        }
        return (kept, 0);
    };
    by_pivots!(
        rows.coords.num_pivots(),
        bounded_rows(window, rows, (c_lo, state, gen), bound, buf)
    )
}

/// [`live_rows_scanned`] with the row bound on, over rows of `N`
/// coordinates: the n-simplex bound through the stage-1 kernel
/// ([`kernel::simplex_rows`], eight rows a step), Lemma 1 one row at a
/// time with the width known, so that its loop unrolls.
fn bounded_rows<const N: usize>(
    window: Range<usize>,
    rows: &Rows<'_>,
    (c_lo, state, gen): (u32, &[u32], u32),
    bound: RowBound<'_>,
    buf: &mut [u32],
) -> (usize, u64) {
    let cols = &rows.col[window.clone()];
    let coords = &rows.coords.raw_data()[window.start * N..window.end * N];
    if let RowBound::Simplex { lanes, .. } = &bound {
        let live = LiveColumns { c_lo, state, gen };
        return kernel::simplex_rows(coords, cols, window.start as u32, live, lanes, buf);
    }
    let (coords, _) = coords.as_chunks::<N>();
    let (mut kept, mut rejected) = (0usize, 0u64);
    for ((r, &col), x) in window.zip(cols).zip(coords) {
        let live = state[(col - c_lo) as usize] < gen;
        let far = bound.rejects(x);
        buf[kept] = r as u32;
        kept += usize::from(live & !far);
        rejected += u64::from(live & far);
    }
    (kept, rejected)
}

/// Stage 1 by live column: the same rows in the same order, with the same
/// rejection count, as [`live_rows_scanned`] over the rows `window` (the
/// shard's window of a cell), found by probing the window's ascending
/// columns for each slot of `listed` (the shard's ascending live list,
/// which may hold slots that died since) and putting that column's run of
/// rows to the row bound. Each probe resumes behind the previous one.
/// `buf` must hold `window.len()` rows.
fn live_rows_listed(
    window: Range<usize>,
    rows: &Rows<'_>,
    listed: &[u32],
    (c_lo, state, gen): (u32, &[u32], u32),
    bound: Option<RowBound<'_>>,
    buf: &mut [u32],
) -> (usize, u64) {
    let cols = &rows.col[window.clone()];
    debug_assert!(
        cols.windows(2).all(|w| w[0] <= w[1]),
        "a cell's columns ascend"
    );
    let (mut kept, mut rejected, mut from) = (0usize, 0u64, 0usize);
    for &c in listed {
        if state[c as usize] >= gen {
            continue;
        }
        let col = c_lo + c;
        from += cols[from..].partition_point(|&other| other < col);
        while from < cols.len() && cols[from] == col {
            let r = window.start + from;
            let far = bound.is_some_and(|b| b.rejects(rows.coords.get(r)));
            buf[kept] = r as u32;
            kept += usize::from(!far);
            rejected += u64::from(far);
            from += 1;
        }
        if from == cols.len() {
            break;
        }
    }
    (kept, rejected)
}

/// Stage 1 of the candidate scan over the rows `window` (the shard's
/// window of a cell): one compaction pass into `buf` keeping the rows of
/// live columns not yet matched by this query vector that the row bound
/// (when on) cannot reject — by live column when the shard's list is
/// [`LISTED_RATIO`] times shorter than the window, else by row. Returns
/// the surviving row indexes in row order and the number of live rows the
/// bound rejected.
fn filter_cell<'b>(
    window: Range<usize>,
    rows: &Rows<'_>,
    shard: &ShardColumns,
    gen: u32,
    bound: Option<RowBound<'_>>,
    buf: &'b mut Vec<u32>,
) -> (&'b [u32], u64) {
    // Grown to the largest window seen, never shrunk.
    if buf.len() < window.len() {
        buf.resize(window.len(), 0);
    }
    let (kept, rejected) = match &shard.listed {
        Some(listed) if listed.len() * LISTED_RATIO <= window.len() => live_rows_listed(
            window,
            rows,
            listed,
            (shard.c_lo, &shard.state, gen),
            bound,
            buf,
        ),
        _ => live_rows_scanned(window, rows, shard.c_lo, &shard.state, gen, bound, buf),
    };
    (&buf[..kept], rejected)
}

/// The Algorithm 2 scan restricted to columns in `cols`, one step per
/// scheduled query vector. Per-column state never crosses column
/// boundaries and every shard takes the same schedule, so running disjoint
/// ranges (in any interleaving) and concatenating equals one full
/// sequential run. The optional budget is checked once per step — the
/// verify loop's natural checkpoint — and a trip ends the scan there.
fn verify_range<M: Metric>(
    ctx: &VerifyContext<'_, M>,
    schedule: &Schedule,
    cols: Range<usize>,
    slack: u32,
    stats: &mut SearchStats,
    budget: Option<&BudgetGuard>,
) -> (VerifyOutcome, Option<Exceeded>) {
    let (lo, hi) = (cols.start, cols.end);
    let width = hi - lo;
    let n_cols = ctx.columns.n_columns();
    let mut state = vec![0u32; width];
    if let Some(deleted) = ctx.deleted {
        debug_assert_eq!(deleted.len(), n_cols);
        for (s, &d) in state.iter_mut().zip(&deleted[lo..hi]) {
            if d {
                *s = DEAD;
            }
        }
    }
    // The shard's window in column-id space.
    let (c_lo, c_hi) = (lo as u32, hi as u32);
    let mut shard = ShardColumns {
        c_lo,
        live: state.iter().filter(|&&s| s != DEAD).count(),
        listed: None,
        state,
        match_counts: vec![0u32; width],
        mismatch_counts: vec![0u32; width],
        joinable: Vec::new(),
        t: if ctx.t_abs <= ctx.query.len() {
            ctx.t_abs as u32
        } else {
            u32::MAX
        },
        slack,
    };
    let mut exceeded = None;

    let lemma1 = ctx.flags.lemma1_vector_filter;
    let lemma2 = ctx.flags.lemma2_vector_match;
    let store = ctx.columns.store();
    let rows = ctx.inv.rows();
    // Stage-1 buffer of row indexes, reused across cells.
    let mut cell_buf: Vec<u32> = Vec::new();

    debug_assert!(
        schedule.steps.len() < u32::MAX as usize,
        "a generation must stay below DEAD"
    );
    for (step, scheduled) in schedule.steps.iter().enumerate() {
        if shard.live == 0 {
            break;
        }
        if let Some(guard) = budget {
            if let Some(e) = guard.check(stats.distance_computations) {
                exceeded = Some(e);
                break;
            }
        }
        let gen = step as u32 + 1;
        let q = scheduled.q as usize;

        // 1. Matching pairs: every column of the cells matches q (the
        //    state word skips a column's later rows).
        for &cell in &schedule.cells[scheduled.matching.clone()] {
            for &col in &rows.col[id_window(rows.col, ctx.inv.cell(cell), c_lo, c_hi)] {
                let c = col as usize - lo;
                if shard.state[c] < gen {
                    shard.record_match(c, gen, stats);
                }
            }
        }

        // 2. Candidate pairs: verify cell contents.
        let qm = ctx.query_mapped.get(q);
        let qv = ctx.query.get_raw(q);
        let apex = ctx.inv.apex().map(|boxes| {
            let q = boxes.query(qm);
            (boxes, SimplexLanes::new(&q, qm.len(), 0.0), q)
        });
        for &cell in &schedule.cells[scheduled.candidates.clone()] {
            let bound = match &apex {
                Some((boxes, lanes, q)) => {
                    let (reach2, within2) = boxes.row_reach(cell, ctx.tau);
                    let lanes = lanes.at(reach2);
                    RowBound::Simplex { lanes, q, within2 }
                }
                None => RowBound::Pivot { qm, tau: ctx.tau },
            };
            // Stage 1: drop rows of dead or already-matched columns
            // and rows the bound rejects.
            let (survivors, rejected) = filter_cell(
                id_window(rows.col, ctx.inv.cell(cell), c_lo, c_hi),
                &rows,
                &shard,
                gen,
                lemma1.then_some(bound),
                &mut cell_buf,
            );
            stats.lemma1_filtered += rejected;

            // Stage 2: the bound's match test, then the exact test. A
            // column matched by an earlier survivor of this cell is
            // skipped.
            for (i, &r) in survivors.iter().enumerate() {
                // Hide the latency of an upcoming vector behind the tests
                // before it (semantics-free).
                if let Some(&ahead) = survivors.get(i + PREFETCH_AHEAD) {
                    kernel::prefetch(store.get_raw(ahead as usize));
                }
                let r = r as usize;
                let c = (rows.col[r] - c_lo) as usize;
                if shard.state[c] >= gen {
                    continue;
                }
                let is_match = if lemma2 && bound.accepts(rows.coords.get(r)) {
                    stats.lemma2_matched += 1;
                    true
                } else {
                    stats.distance_computations += 1;
                    ctx.metric.dist_le(qv, store.get_raw(r), ctx.tau)
                };
                if is_match {
                    shard.record_match(c, gen, stats);
                }
            }
        }

        // 3. Definite mismatches for q (complete Lemma 7).
        shard.charge_mismatches(gen, stats);
    }

    shard.joinable.sort_unstable();
    (
        VerifyOutcome {
            joinable: shard.joinable.iter().map(|&c| ColumnId(c_lo + c)).collect(),
            match_counts: shard.match_counts,
            mismatch_counts: shard.mismatch_counts,
        },
        exceeded,
    )
}

/// Top-k verification: the scan run to exact counts, ranked.
///
/// `seed` is the sound initial threshold of [`crate::cost::topk_seed`]:
/// the scan prunes a column once it has more than `|Q| −` the seed count
/// definite mismatches (see the module header) and prunes nothing without
/// one. `ctx.t_abs` must exceed `|Q|` so that no column stops counting.
/// `bounds` is not read; the parameter stays for the benchmark ladder's
/// call.
///
/// Returns the k best `(exact match count, column)` entries in rank
/// order (count descending, then column id ascending). The result — and
/// every counter in `stats` — is byte-identical for every policy.
pub fn verify_topk<M: Metric>(
    ctx: &VerifyContext<'_, M>,
    blocked: &BlockOutput,
    _bounds: &ColumnMatchBounds,
    seed: Option<(u32, u32)>,
    k: usize,
    stats: &mut SearchStats,
    policy: ExecPolicy,
) -> Vec<(u32, ColumnId)> {
    debug_assert!(ctx.t_abs > ctx.query.len(), "top-k counts to the end");
    let slack = slack(ctx, seed);
    let (outcome, _) = scan(ctx, blocked, slack, stats, policy, None);
    let mut ranked = ranked(&outcome, slack, k);
    ranked.truncate(k);
    ranked
}

/// The ranking of a top-k scan run under `slack` — every column with a
/// match that the scan did not prune, with its count, best first — cut
/// **tie-inclusively** at the k-th: every column whose count reaches the
/// k-th best stays. After a tripped budget it ranks the counts so far.
pub(crate) fn ranked(outcome: &VerifyOutcome, slack: u32, k: usize) -> Vec<(u32, ColumnId)> {
    // A dead column never matches, so `count > 0` drops it too.
    let mut ranked: Vec<(u32, ColumnId)> = outcome
        .match_counts
        .iter()
        .zip(&outcome.mismatch_counts)
        .enumerate()
        .filter(|&(_, (&count, &mismatches))| count > 0 && mismatches <= slack)
        .map(|(c, (&count, _))| (count, ColumnId(c as u32)))
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    if let Some(&(kth, _)) = k.checked_sub(1).and_then(|i| ranked.get(i)) {
        ranked.truncate(ranked.partition_point(|&(count, _)| count >= kth));
    }
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{block, quick_browse};
    use crate::config::{LemmaFlags, MAX_PIVOTS};
    use crate::grid::{GridParams, HierarchicalGrid};
    use crate::invindex::SimplexBase;
    use crate::metric::Euclidean;
    use crate::util::FastMap;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Reference implementation: exhaustive scan.
    fn naive_joinable(
        query: &VectorStore,
        columns: &ColumnSet,
        tau: f32,
        t_abs: usize,
    ) -> Vec<ColumnId> {
        let mut out = Vec::new();
        for (ci, col) in columns.columns().iter().enumerate() {
            let mut count = 0usize;
            for q in query.iter() {
                let matched = col
                    .vector_range()
                    .any(|v| Euclidean.dist(q, columns.store().get_raw(v as usize)) <= tau);
                if matched {
                    count += 1;
                }
            }
            if count >= t_abs {
                out.push(ColumnId(ci as u32));
            }
        }
        out
    }

    fn random_instance(
        seed: u64,
        n_cols: usize,
        col_len: usize,
        nq: usize,
    ) -> (VectorStore, ColumnSet) {
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = 10;
        let unit = |rng: &mut StdRng| {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= n);
            v
        };
        let mut columns = ColumnSet::new(dim);
        for c in 0..n_cols {
            let vecs: Vec<Vec<f32>> = (0..col_len).map(|_| unit(&mut rng)).collect();
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns
                .add_column("t", &format!("c{c}"), c as u64, refs)
                .unwrap();
        }
        let mut query = VectorStore::new(dim);
        for _ in 0..nq {
            let v = unit(&mut rng);
            query.push(&v).unwrap();
        }
        (query, columns)
    }

    fn run_pexeso_verify(
        query: &VectorStore,
        columns: &ColumnSet,
        tau: f32,
        t_abs: usize,
        flags: LemmaFlags,
        with_quick_browse: bool,
    ) -> (Vec<ColumnId>, SearchStats) {
        let metric = Euclidean;
        let pivots: Vec<Vec<f32>> = (0..3)
            .map(|i| {
                columns
                    .store()
                    .get_raw(i * 5 % columns.n_vectors())
                    .to_vec()
            })
            .collect();
        let rv_mapped = MappedVectors::build(columns.store(), &pivots, &metric, None).unwrap();
        let q_mapped = MappedVectors::build(query, &pivots, &metric, None).unwrap();
        let params = GridParams::new(3, 4, 2.0 + 1e-4).unwrap();
        let hgrv = HierarchicalGrid::build_keys_only(params.clone(), &rv_mapped).unwrap();
        let hgq = HierarchicalGrid::build(params.clone(), &q_mapped).unwrap();
        let vec_col = columns.vector_to_column();
        let (inv, order) = InvertedIndex::build(
            &params,
            &rv_mapped,
            &vec_col,
            SimplexBase::of(&pivots, &metric),
        )
        .unwrap();
        // The scan reads row `r`'s vector at `r`.
        let laid = columns.clone().in_order(order).unwrap();

        let mut stats = SearchStats::new();
        let (handled, seeded) = if with_quick_browse {
            let mut seeded = FastMap::default();
            let handled = quick_browse(&hgq, &inv, &mut seeded, &mut stats);
            (Some(handled), seeded)
        } else {
            (None, FastMap::default())
        };
        let blocked = block(
            &hgq,
            &hgrv,
            &q_mapped,
            tau,
            flags,
            handled.as_ref(),
            seeded,
            &mut stats,
        );
        let ctx = VerifyContext {
            columns: &laid,
            vec_col: &vec_col,
            rv_mapped: &rv_mapped,
            inv: &inv,
            metric: &metric,
            query,
            query_mapped: &q_mapped,
            tau,
            t_abs,
            flags,
            deleted: None,
        };
        let outcome = verify_with(&ctx, &blocked, &mut stats, ExecPolicy::Sequential);
        (outcome.joinable, stats)
    }

    #[test]
    fn agrees_with_naive_scan() {
        for seed in 0..5u64 {
            let (query, columns) = random_instance(seed, 12, 30, 8);
            for tau in [0.2f32, 0.5, 0.9] {
                for t_abs in [1usize, 3, 6] {
                    let expected = naive_joinable(&query, &columns, tau, t_abs);
                    let (got, _) =
                        run_pexeso_verify(&query, &columns, tau, t_abs, LemmaFlags::all(), true);
                    assert_eq!(got, expected, "seed={seed} tau={tau} T={t_abs}");
                }
            }
        }
    }

    /// Column-sharded parallel verification is byte-identical to the
    /// sequential scan: same joinable set, same exact counts, same
    /// early-termination and lemma counters.
    #[test]
    fn parallel_verify_is_byte_identical() {
        let mut excluded = 0;
        for seed in 0..4u64 {
            let (query, columns) = random_instance(seed * 7 + 1, 13, 25, 9);
            let metric = Euclidean;
            let pivots: Vec<Vec<f32>> = (0..3)
                .map(|i| {
                    columns
                        .store()
                        .get_raw(i * 5 % columns.n_vectors())
                        .to_vec()
                })
                .collect();
            let rv_mapped = MappedVectors::build(columns.store(), &pivots, &metric, None).unwrap();
            let q_mapped = MappedVectors::build(&query, &pivots, &metric, None).unwrap();
            let params = GridParams::new(3, 4, 2.0 + 1e-4).unwrap();
            let hgrv = HierarchicalGrid::build_keys_only(params.clone(), &rv_mapped).unwrap();
            let hgq = HierarchicalGrid::build(params.clone(), &q_mapped).unwrap();
            let vec_col = columns.vector_to_column();
            let (inv, order) = InvertedIndex::build(
                &params,
                &rv_mapped,
                &vec_col,
                SimplexBase::of(&pivots, &metric),
            )
            .unwrap();
            let laid = columns.clone().in_order(order).unwrap();
            for tau in [0.1f32, 0.4, 0.8] {
                for t_abs in [1usize, 4, query.len() + 1] {
                    let mut stats = SearchStats::new();
                    let blocked = block(
                        &hgq,
                        &hgrv,
                        &q_mapped,
                        tau,
                        LemmaFlags::all(),
                        None,
                        FastMap::default(),
                        &mut stats,
                    );
                    let ctx = VerifyContext {
                        columns: &laid,
                        vec_col: &vec_col,
                        rv_mapped: &rv_mapped,
                        inv: &inv,
                        metric: &metric,
                        query: &query,
                        query_mapped: &q_mapped,
                        tau,
                        t_abs,
                        flags: LemmaFlags::all(),
                        deleted: None,
                    };
                    let mut seq_stats = SearchStats::new();
                    let seq = verify_with(&ctx, &blocked, &mut seq_stats, ExecPolicy::Sequential);
                    excluded += seq_stats.apex_excluded;
                    // `Fixed` bypasses the adaptive clamp, so real thread
                    // fan-out is exercised even on single-core hosts where
                    // `Parallel` plans down to the inline path.
                    for threads in [2usize, 3, 8, 64] {
                        for policy in [
                            crate::config::ExecPolicy::Parallel { threads },
                            crate::config::ExecPolicy::Fixed { threads },
                        ] {
                            let mut par_stats = SearchStats::new();
                            let par = verify_with(&ctx, &blocked, &mut par_stats, policy);
                            assert_eq!(
                                seq, par,
                                "seed={seed} tau={tau} T={t_abs} threads={threads}"
                            );
                            assert_eq!(
                                seq_stats.distance_computations, par_stats.distance_computations,
                                "distance counter diverged (threads={threads})"
                            );
                            assert_eq!(seq_stats.early_joinable, par_stats.early_joinable);
                            assert_eq!(seq_stats.lemma7_pruned, par_stats.lemma7_pruned);
                            assert_eq!(seq_stats.lemma1_filtered, par_stats.lemma1_filtered);
                            assert_eq!(seq_stats.lemma2_matched, par_stats.lemma2_matched);
                            assert_eq!(seq_stats.apex_excluded, par_stats.apex_excluded);
                            assert_eq!(seq_stats, par_stats);
                        }
                    }
                }
            }
        }
        assert!(
            excluded > 0,
            "the apex bound must drop some candidate pairs"
        );
    }

    #[test]
    fn agrees_under_every_ablation() {
        let (query, columns) = random_instance(77, 10, 25, 6);
        let tau = 0.5;
        let t_abs = 3;
        let expected = naive_joinable(&query, &columns, tau, t_abs);
        for flags in [
            LemmaFlags::all(),
            LemmaFlags::without_lemma1(),
            LemmaFlags::without_lemma2(),
            LemmaFlags::without_lemma34(),
            LemmaFlags::without_lemma56(),
        ] {
            for qb in [true, false] {
                let (got, _) = run_pexeso_verify(&query, &columns, tau, t_abs, flags, qb);
                assert_eq!(got, expected, "flags={flags:?} quick_browse={qb}");
            }
        }
    }

    #[test]
    fn lemma7_prunes_hopeless_columns() {
        let (query, columns) = random_instance(5, 8, 20, 10);
        // Very tight tau and T = |Q|: nearly every column should be pruned
        // long before all 10 query vectors are checked.
        let (_, stats) = run_pexeso_verify(&query, &columns, 0.05, 10, LemmaFlags::all(), true);
        assert!(
            stats.lemma7_pruned > 0,
            "expected lemma-7 prunes: {stats:?}"
        );
    }

    #[test]
    fn early_joinable_triggers_on_loose_thresholds() {
        let (query, columns) = random_instance(6, 8, 20, 10);
        let (joinable, stats) =
            run_pexeso_verify(&query, &columns, 1.5, 1, LemmaFlags::all(), true);
        assert!(!joinable.is_empty());
        assert!(stats.early_joinable as usize >= joinable.len());
    }

    #[test]
    fn lemma1_reduces_distance_computations() {
        let (query, columns) = random_instance(7, 10, 40, 8);
        let (_, with_l1) = run_pexeso_verify(&query, &columns, 0.3, 3, LemmaFlags::all(), true);
        let (_, without_l1) =
            run_pexeso_verify(&query, &columns, 0.3, 3, LemmaFlags::without_lemma1(), true);
        assert!(
            with_l1.distance_computations <= without_l1.distance_computations,
            "lemma1 should not increase distance computations: {} vs {}",
            with_l1.distance_computations,
            without_l1.distance_computations
        );
    }

    /// Full small-pipeline scaffolding for the top-k tests: grids,
    /// inverted index, blocked pairs and a ready [`VerifyContext`] input.
    struct TopkSetup {
        /// In the index's row order.
        columns: ColumnSet,
        query: VectorStore,
        rv_mapped: MappedVectors,
        q_mapped: MappedVectors,
        vec_col: Vec<u32>,
        inv: InvertedIndex,
        blocked: BlockOutput,
        tau: f32,
    }

    impl TopkSetup {
        fn ctx<'a>(
            &'a self,
            t_abs: usize,
            deleted: Option<&'a [bool]>,
        ) -> VerifyContext<'a, Euclidean> {
            VerifyContext {
                columns: &self.columns,
                vec_col: &self.vec_col,
                rv_mapped: &self.rv_mapped,
                inv: &self.inv,
                metric: &Euclidean,
                query: &self.query,
                query_mapped: &self.q_mapped,
                tau: self.tau,
                t_abs,
                flags: LemmaFlags::all(),
                deleted,
            }
        }
    }

    /// Blocked ordinals name the leaves of the grid they were blocked
    /// against: the scan refuses them from a grid with another leaf count
    /// than the index's.
    #[test]
    #[should_panic(expected = "blocked against another index's HG_RV")]
    fn scan_refuses_pairs_blocked_against_another_grid() {
        let mut s = topk_setup(3, 0.3);
        s.blocked.rv_leaves += 1;
        let mut stats = SearchStats::new();
        verify_with(
            &s.ctx(2, None),
            &s.blocked,
            &mut stats,
            ExecPolicy::Sequential,
        );
    }

    fn topk_setup(seed: u64, tau: f32) -> TopkSetup {
        let (query, columns) = random_instance(seed, 14, 22, 9);
        blocked_setup(query, columns, tau)
    }

    /// Map, grid, index and block one instance (pivots: three spread
    /// repository rows).
    fn blocked_setup(query: VectorStore, columns: ColumnSet, tau: f32) -> TopkSetup {
        let metric = Euclidean;
        let pivots: Vec<Vec<f32>> = (0..3)
            .map(|i| {
                columns
                    .store()
                    .get_raw(i * 7 % columns.n_vectors())
                    .to_vec()
            })
            .collect();
        let rv_mapped = MappedVectors::build(columns.store(), &pivots, &metric, None).unwrap();
        let q_mapped = MappedVectors::build(&query, &pivots, &metric, None).unwrap();
        let params = GridParams::new(3, 4, 2.0 + 1e-4).unwrap();
        let hgrv = HierarchicalGrid::build_keys_only(params.clone(), &rv_mapped).unwrap();
        let hgq = HierarchicalGrid::build(params.clone(), &q_mapped).unwrap();
        let vec_col = columns.vector_to_column();
        let (inv, order) = InvertedIndex::build(
            &params,
            &rv_mapped,
            &vec_col,
            SimplexBase::of(&pivots, &metric),
        )
        .unwrap();
        // The scan reads row `r`'s vector at `r`.
        let laid = columns.clone().in_order(order).unwrap();
        let mut stats = SearchStats::new();
        let mut seeded = FastMap::default();
        let handled = quick_browse(&hgq, &inv, &mut seeded, &mut stats);
        let blocked = block(
            &hgq,
            &hgrv,
            &q_mapped,
            tau,
            LemmaFlags::all(),
            Some(&handled),
            seeded,
            &mut stats,
        );
        TopkSetup {
            columns: laid,
            query,
            rv_mapped,
            q_mapped,
            vec_col,
            inv,
            blocked,
            tau,
        }
    }

    fn naive_counts(s: &TopkSetup) -> Vec<u32> {
        let columns = s.columns.id_ordered();
        columns
            .columns()
            .iter()
            .map(|col| {
                s.query
                    .iter()
                    .filter(|q| {
                        col.vector_range().any(|v| {
                            Euclidean.dist(q, columns.store().get_raw(v as usize)) <= s.tau
                        })
                    })
                    .count() as u32
            })
            .collect()
    }

    #[test]
    fn column_lower_bounds_never_exceed_exact_counts() {
        for seed in 0..4u64 {
            for tau in [0.2f32, 0.5, 0.9] {
                let s = topk_setup(seed, tau);
                let exact = naive_counts(&s);
                let bounds = crate::cost::column_match_bounds(
                    &s.blocked,
                    &s.inv,
                    s.columns.n_columns(),
                    s.query.len(),
                    None,
                    crate::config::ExecPolicy::Sequential,
                );
                for (c, &cnt) in exact.iter().enumerate() {
                    assert!(
                        bounds.lower[c] <= cnt,
                        "seed={seed} tau={tau} col={c}: {} <= {cnt} violated",
                        bounds.lower[c]
                    );
                }
                for threads in [2usize, 5, 32] {
                    for policy in [
                        crate::config::ExecPolicy::Parallel { threads },
                        crate::config::ExecPolicy::Fixed { threads },
                    ] {
                        let par = crate::cost::column_match_bounds(
                            &s.blocked,
                            &s.inv,
                            s.columns.n_columns(),
                            s.query.len(),
                            None,
                            policy,
                        );
                        assert_eq!(bounds, par, "seed={seed} tau={tau} threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn verify_topk_equals_naive_ranking_for_every_policy() {
        for seed in 0..4u64 {
            for tau in [0.15f32, 0.4, 0.8] {
                let s = topk_setup(seed * 3 + 1, tau);
                let exact = naive_counts(&s);
                let n_cols = s.columns.n_columns();
                let ctx = VerifyContext {
                    columns: &s.columns,
                    vec_col: &s.vec_col,
                    rv_mapped: &s.rv_mapped,
                    inv: &s.inv,
                    metric: &Euclidean,
                    query: &s.query,
                    query_mapped: &s.q_mapped,
                    tau: s.tau,
                    t_abs: s.query.len() + 1,
                    flags: LemmaFlags::all(),
                    deleted: None,
                };
                let bounds = crate::cost::column_match_bounds(
                    &s.blocked,
                    &s.inv,
                    n_cols,
                    s.query.len(),
                    None,
                    crate::config::ExecPolicy::Sequential,
                );
                for k in [0usize, 1, 2, 5, n_cols, n_cols * 3] {
                    let seed_bar = crate::cost::topk_seed(&bounds, k);
                    let expected: Vec<(u32, ColumnId)> = {
                        let mut ranked: Vec<(u32, ColumnId)> = exact
                            .iter()
                            .enumerate()
                            .filter(|&(_, &cnt)| cnt > 0)
                            .map(|(c, &cnt)| (cnt, ColumnId(c as u32)))
                            .collect();
                        ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
                        ranked.truncate(k);
                        ranked
                    };
                    let mut seq_stats = SearchStats::new();
                    let seq = verify_topk(
                        &ctx,
                        &s.blocked,
                        &bounds,
                        seed_bar,
                        k,
                        &mut seq_stats,
                        crate::config::ExecPolicy::Sequential,
                    );
                    assert_eq!(seq, expected, "seed={seed} tau={tau} k={k}");
                    for threads in [2usize, 4, 16] {
                        for policy in [
                            crate::config::ExecPolicy::Parallel { threads },
                            crate::config::ExecPolicy::Fixed { threads },
                        ] {
                            let mut par_stats = SearchStats::new();
                            let par = verify_topk(
                                &ctx,
                                &s.blocked,
                                &bounds,
                                seed_bar,
                                k,
                                &mut par_stats,
                                policy,
                            );
                            assert_eq!(seq, par, "threads={threads} seed={seed} tau={tau} k={k}");
                            assert_eq!(
                                seq_stats.distance_computations, par_stats.distance_computations,
                                "topk distance counter diverged (threads={threads})"
                            );
                            assert_eq!(seq_stats.lemma7_pruned, par_stats.lemma7_pruned);
                        }
                    }
                }
            }
        }
    }

    /// A seed `(s, _)` gives the scan a slack of `|Q| − s`: exactly the
    /// columns whose exact count is below `s` are pruned, and the rest keep
    /// their exact counts.
    #[test]
    fn a_seed_prunes_exactly_the_columns_counting_below_it() {
        let s = topk_setup(4, 0.8);
        let exact = naive_counts(&s);
        let n_cols = s.columns.n_columns();
        let n_q = s.query.len();
        let ctx = s.ctx(n_q + 1, None);
        let bounds = ColumnMatchBounds {
            lower: vec![0; n_cols],
        };
        let mut distinct_cuts = 0;
        for bar in 1..=n_q as u32 {
            let below = exact.iter().filter(|&&cnt| cnt < bar).count();
            distinct_cuts += usize::from(below > 0 && below < n_cols);
            let mut expected: Vec<(u32, ColumnId)> = exact
                .iter()
                .enumerate()
                .filter(|&(_, &cnt)| cnt >= bar)
                .map(|(c, &cnt)| (cnt, ColumnId(c as u32)))
                .collect();
            expected.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
            for policy in [ExecPolicy::Sequential, ExecPolicy::Fixed { threads: 3 }] {
                let mut stats = SearchStats::new();
                let seed = Some((bar, 0));
                let got = verify_topk(&ctx, &s.blocked, &bounds, seed, n_cols, &mut stats, policy);
                assert_eq!(got, expected, "bar={bar} {policy:?}");
                assert_eq!(stats.lemma7_pruned, below as u64, "bar={bar} {policy:?}");
            }
        }
        assert!(distinct_cuts >= 2, "the fixture needs a spread of counts");
    }

    #[test]
    fn match_counts_exact_without_early_termination() {
        // T = |Q| + 1 is unreachable, so no early termination fires and the
        // match counts must equal the naive per-column counts.
        let (query, columns) = random_instance(8, 6, 15, 5);
        let tau = 0.6;
        let metric = Euclidean;
        let naive_counts: Vec<u32> = columns
            .columns()
            .iter()
            .map(|col| {
                query
                    .iter()
                    .filter(|q| {
                        col.vector_range()
                            .any(|v| metric.dist(q, columns.store().get_raw(v as usize)) <= tau)
                    })
                    .count() as u32
            })
            .collect();
        let pivots: Vec<Vec<f32>> = (0..3)
            .map(|i| columns.store().get_raw(i).to_vec())
            .collect();
        let rv_mapped = MappedVectors::build(columns.store(), &pivots, &metric, None).unwrap();
        let q_mapped = MappedVectors::build(&query, &pivots, &metric, None).unwrap();
        let params = GridParams::new(3, 3, 2.0 + 1e-4).unwrap();
        let hgrv = HierarchicalGrid::build_keys_only(params.clone(), &rv_mapped).unwrap();
        let hgq = HierarchicalGrid::build(params.clone(), &q_mapped).unwrap();
        let vec_col = columns.vector_to_column();
        let (inv, order) = InvertedIndex::build(
            &params,
            &rv_mapped,
            &vec_col,
            SimplexBase::of(&pivots, &metric),
        )
        .unwrap();
        // The scan reads row `r`'s vector at `r`.
        let laid = columns.clone().in_order(order).unwrap();
        let mut stats = SearchStats::new();
        let blocked = block(
            &hgq,
            &hgrv,
            &q_mapped,
            tau,
            LemmaFlags::all(),
            None,
            FastMap::default(),
            &mut stats,
        );
        let ctx = VerifyContext {
            columns: &laid,
            vec_col: &vec_col,
            rv_mapped: &rv_mapped,
            inv: &inv,
            metric: &metric,
            query: &query,
            query_mapped: &q_mapped,
            tau,
            t_abs: query.len() + 1,
            flags: LemmaFlags::all(),
            deleted: None,
        };
        let outcome = verify_with(&ctx, &blocked, &mut stats, ExecPolicy::Sequential);
        assert_eq!(outcome.match_counts, naive_counts);
        assert!(outcome.joinable.is_empty());
    }

    /// Unit vector along axis 0 (`sign` = ±1), tilted a little along axis
    /// `k` so the rows of a column are distinct.
    fn near_axis0(sign: f32, k: usize) -> Vec<f32> {
        let mut v = vec![0.0f32; 10];
        v[0] = sign;
        v[1 + k % 9] = 0.02;
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n);
        v
    }

    /// Complete Lemma 7: a column that lies outside every matching and
    /// candidate cell of the query is charged a mismatch per query vector
    /// all the same (blocking is lossless) and pruned at the `|Q| − T + 1`th,
    /// without a single distance computation.
    #[test]
    fn lemma7_prunes_a_column_no_candidate_cell_reaches() {
        let (n_q, t_abs) = (6usize, 4usize);
        let rows = |sign: f32, n: usize| -> Vec<Vec<f32>> {
            (0..n).map(|k| near_axis0(sign, k)).collect()
        };
        let mut columns = ColumnSet::new(10);
        for (name, vecs) in [("near", rows(1.0, n_q)), ("far", rows(-1.0, 8))] {
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns.add_column("t", name, 0, refs).unwrap();
        }
        let mut query = VectorStore::new(10);
        for v in rows(1.0, n_q) {
            query.push(&v).unwrap();
        }
        let s = blocked_setup(query, columns, 0.2);
        let (near, far) = (0usize, 1usize);
        for (_, cells) in s.blocked.candidates.iter().chain(&s.blocked.matching) {
            for &cell in cells {
                let reached = s.inv.rows().col[s.inv.cell(cell)].contains(&1);
                assert!(!reached, "the far column must be out of the query's reach");
            }
        }

        let mut stats = SearchStats::new();
        let ctx = s.ctx(t_abs, None);
        let outcome = verify_with(&ctx, &s.blocked, &mut stats, ExecPolicy::Sequential);
        assert_eq!(outcome.joinable, vec![ColumnId(near as u32)]);
        assert_eq!(outcome.mismatch_counts[far] as usize, n_q - t_abs + 1);
        assert_eq!(stats.lemma7_pruned, 1);

        // With the near column dropped, nothing is left to test.
        let mut stats = SearchStats::new();
        let ctx = s.ctx(t_abs, Some(&[true, false]));
        let outcome = verify_with(&ctx, &s.blocked, &mut stats, ExecPolicy::Sequential);
        assert!(outcome.joinable.is_empty());
        assert_eq!(outcome.mismatch_counts[far] as usize, n_q - t_abs + 1);
        assert_eq!(stats.lemma7_pruned, 1);
        assert_eq!(stats.distance_computations, 0);
    }

    /// The schedule orders query vectors by candidate-row cost, not by
    /// input position: a query column and its reversal are verified in the
    /// same order of vectors, so outcome and counters are equal. The lake
    /// is random columns the query shares nothing with — they all die at
    /// step `|Q| − T + 1` — plus a copy of the query column, the one hit.
    #[test]
    fn reversing_the_query_changes_neither_outcome_nor_counters() {
        let (n_q, t_abs) = (9usize, 6usize);
        let (query, mut columns) = random_instance(21, 40, 12, n_q);
        let rows: Vec<&[f32]> = (0..n_q).map(|i| query.get_raw(i)).collect();
        columns.add_column("t", "mirror", 40, rows.clone()).unwrap();
        let mirror = ColumnId(40);
        let mut reversed = VectorStore::new(10);
        for v in rows.iter().rev() {
            reversed.push(v).unwrap();
        }
        let n_cols = columns.n_columns();

        let run = |query: VectorStore| {
            let s = blocked_setup(query, columns.clone(), 0.25);
            let schedule = Schedule::build(&s.inv, &s.blocked, &s.q_mapped, s.tau);
            let mut costs: Vec<u64> = schedule.steps.iter().map(|step| step.cost).collect();
            let order: Vec<u32> = schedule.steps.iter().map(|step| step.q).collect();
            assert!(costs.windows(2).all(|w| w[0] <= w[1]), "cheapest first");
            costs.dedup();
            assert_eq!(costs.len(), n_q, "the fixture needs distinct costs");
            let mut stats = SearchStats::new();
            let ctx = s.ctx(t_abs, None);
            let outcome = verify_with(&ctx, &s.blocked, &mut stats, ExecPolicy::Sequential);
            (outcome, stats, order)
        };
        let (forward, forward_stats, forward_order) = run(query.clone());
        let (backward, backward_stats, backward_order) = run(reversed);

        let flipped: Vec<u32> = backward_order.iter().map(|&q| n_q as u32 - 1 - q).collect();
        assert_eq!(forward_order, flipped, "same vectors in the same order");
        assert_ne!(
            forward_order,
            (0..n_q as u32).collect::<Vec<_>>(),
            "the fixture's schedule must differ from input order"
        );
        assert_eq!(forward.joinable, vec![mirror]);
        assert_eq!(forward.match_counts[40] as usize, t_abs);
        let died_together = forward
            .mismatch_counts
            .iter()
            .filter(|&&m| m as usize == n_q - t_abs + 1)
            .count();
        assert!(died_together * 10 >= n_cols * 9, "{died_together}/{n_cols}");
        assert_eq!(forward, backward);
        assert_eq!(forward_stats, backward_stats);
        assert!(forward_stats.distance_computations > 0);
    }

    /// Both enumerations of stage 1 keep the same rows in the same order
    /// and reject the same number by the row bound, for a shard window
    /// that cuts the cell, listed columns absent from the cell, listed
    /// columns that died or matched since the list was made, and every
    /// state in between, with no bound, Lemma 1 over pivot coordinates and
    /// the n-simplex bound over apex rows.
    #[test]
    fn both_stage1_enumerations_agree() {
        // 16 columns of 3 vectors each; the cell holds some rows of some,
        // as rows 0..12 of the index.
        let row_vid: Vec<u32> = vec![6, 8, 9, 15, 16, 17, 24, 28, 29, 36, 38, 47];
        let row_col: Vec<u32> = row_vid.iter().map(|v| v / 3).collect();
        let mut rng = StdRng::seed_from_u64(9);
        let coords: Vec<f32> = (0..row_vid.len() * 2)
            .map(|_| rng.gen_range(0.0f32..1.0))
            .collect();
        let coords = MappedVectors::from_raw(2, coords).unwrap();
        let rows = Rows {
            col: &row_col,
            coords: &coords,
        };
        let gen = 5u32;
        let enumerate =
            |c_lo: u32, c_hi: u32, state: &[u32], listed: &[u32], l1: Option<RowBound<'_>>| {
                let window = id_window(&row_col, 0..row_vid.len(), c_lo, c_hi);
                let mut scanned = vec![0u32; window.len()];
                let (n, scanned_rejected) =
                    live_rows_scanned(window.clone(), &rows, c_lo, state, gen, l1, &mut scanned);
                scanned.truncate(n);
                let mut probed = vec![0u32; window.len()];
                let (n, probed_rejected) =
                    live_rows_listed(window, &rows, listed, (c_lo, state, gen), l1, &mut probed);
                probed.truncate(n);
                let what = format!("window {c_lo}..{c_hi} state {state:?} bound {l1:?}");
                assert_eq!(scanned, probed, "{what}");
                assert_eq!(scanned_rejected, probed_rejected, "{what}");
                (scanned, scanned_rejected)
            };

        // Window 3..10 cuts columns 2, 12 and 15 off the cell. Slots: 0 (col
        // 3) live; 1 (col 4) live, absent; 2 (col 5) matched by this query
        // vector; 3 (col 6) long dead, unlisted; 4 (col 7) live, absent;
        // 5 (col 8) matched by an earlier one; 6 (col 9) dead since listing.
        let state = [0, 0, gen, DEAD, 2, 3, DEAD];
        let (kept, rejected) = enumerate(3, 10, &state, &[0, 1, 2, 4, 5, 6], None);
        assert_eq!(kept, vec![2, 6]);
        assert_eq!(rejected, 0);
        // A query vector either bound puts beyond reach of every row.
        let far = [5.0f32, 5.0];
        let far_apex = Apex {
            lo: [5.0; MAX_PIVOTS],
            hi: [5.5; MAX_PIVOTS],
        };
        for bound in [
            RowBound::Pivot { qm: &far, tau: 0.5 },
            RowBound::Simplex {
                lanes: SimplexLanes::new(&far_apex, 2, 0.25),
                q: &far_apex,
                within2: -1.0,
            },
        ] {
            let (kept, rejected) = enumerate(3, 10, &state, &[0, 1, 2, 4, 5, 6], Some(bound));
            assert!(kept.is_empty());
            assert_eq!(rejected, 2);
        }

        // Every window, with states, lists and query vectors drawn at
        // random: a listed slot may be dead, an unlisted one never live.
        let (mut rejections, mut apex_rejections) = (0, 0);
        for _ in 0..500 {
            let c_lo = rng.gen_range(0u32..16);
            let c_hi = rng.gen_range(c_lo..17);
            let width = (c_hi - c_lo) as usize;
            let mut listed = Vec::new();
            let state: Vec<u32> = (0..width as u32)
                .map(|slot| {
                    let word = [0, 2, gen - 1, gen, DEAD][rng.gen_range(0..5usize)];
                    if word != DEAD || rng.gen_range(0..3u32) == 0 {
                        listed.push(slot);
                    }
                    word
                })
                .collect();
            let qm = [rng.gen_range(0.0f32..1.0), rng.gen_range(0.0f32..1.0)];
            let mut apex = Apex {
                lo: [0.0; MAX_PIVOTS],
                hi: [0.0; MAX_PIVOTS],
            };
            for j in 0..2 {
                apex.lo[j] = rng.gen_range(0.0f64..1.0);
                apex.hi[j] = apex.lo[j] + rng.gen_range(0.0f64..0.05);
            }
            enumerate(c_lo, c_hi, &state, &listed, None);
            let pivot = RowBound::Pivot { qm: &qm, tau: 0.3 };
            rejections += enumerate(c_lo, c_hi, &state, &listed, Some(pivot)).1;
            let simplex = RowBound::Simplex {
                lanes: SimplexLanes::new(&apex, 2, 0.09),
                q: &apex,
                within2: -1.0,
            };
            apex_rejections += enumerate(c_lo, c_hi, &state, &listed, Some(simplex)).1;
        }
        assert!(rejections > 0, "Lemma 1 must reject some rows");
        assert!(
            apex_rejections > 0,
            "the simplex bound must reject some rows"
        );
    }

    /// In exact-count mode (`T > |Q|`) nothing terminates early, so every
    /// query vector ends up as either a match or a definite mismatch of
    /// every live column — including the columns it never reaches.
    #[test]
    fn exact_counts_account_for_every_query_vector() {
        // Short columns and a tight τ leave most columns outside most query
        // vectors' candidate cells; the loose τ reaches them all.
        for (seed, tau) in [(11u64, 0.1f32), (12, 0.3), (13, 0.9)] {
            let (query, columns) = random_instance(seed, 14, 4, 9);
            let s = blocked_setup(query, columns, tau);
            let n_q = s.query.len();
            let deleted: Vec<bool> = (0..s.columns.n_columns()).map(|c| c % 5 == 2).collect();
            for policy in [ExecPolicy::Sequential, ExecPolicy::Fixed { threads: 3 }] {
                let mut stats = SearchStats::new();
                let ctx = s.ctx(n_q + 1, Some(&deleted));
                let outcome = verify_with(&ctx, &s.blocked, &mut stats, policy);
                for (c, &gone) in deleted.iter().enumerate() {
                    let seen = outcome.match_counts[c] + outcome.mismatch_counts[c];
                    let want = if gone { 0 } else { n_q as u32 };
                    assert_eq!(seen, want, "seed={seed} tau={tau} col={c} {policy:?}");
                }
                assert_eq!(stats.lemma7_pruned + stats.early_joinable, 0);
            }
        }
    }
}

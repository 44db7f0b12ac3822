//! Per-query phase tracing.
//!
//! The paper's evaluation is phase-structured — Table VI splits blocking
//! from verification, Fig. 6a counts distance computations per stage —
//! and debugging a p99 regression on a served lake needs the same
//! breakdown *per request*, not as process-wide aggregates. This module
//! is the zero-dependency substrate: a [`QueryTrace`] is a tree of
//! [`TraceSpan`]s (`map → block → verify → merge`, plus per-partition
//! and per-column children) attached to a
//! [`QueryResponse`](crate::query::QueryResponse) when the query asked
//! for it via [`Query::with_trace`](crate::query::Query::with_trace).
//!
//! Tracing is **off by default** and the disabled path is a single
//! branch per execution: backends build the span tree after the fact
//! from the [`SearchStats`](crate::stats::SearchStats) phase timings they
//! already collect, so no timer or allocation is added to an untraced
//! query (the bench ladder's `trace_overhead_pct` row reads what tracing
//! adds: traced over untraced `op` p50). Span offsets are
//! therefore *monotonic phase offsets* — each phase starts where the
//! previous one ended — not independent wall-clock stamps; durations are
//! the measured ones.

use std::fmt::Write as _;
use std::time::Duration;

/// How much of a query's execution to trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceLevel {
    /// No trace; the response carries `trace: None`. The default.
    #[default]
    Off,
    /// The phase spans (`map`, `block`, `verify`, `merge`) with timings
    /// and the headline counters.
    Phases,
    /// Phases plus per-partition / per-column child spans.
    Detail,
}

impl TraceLevel {
    /// Whether any trace should be built at all — the one branch the
    /// disabled path pays.
    pub fn enabled(self) -> bool {
        self != TraceLevel::Off
    }

    /// Stable wire/CLI encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            TraceLevel::Off => 0,
            TraceLevel::Phases => 1,
            TraceLevel::Detail => 2,
        }
    }

    /// Inverse of [`TraceLevel::as_u8`]; `None` for a byte no level
    /// encodes to.
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(TraceLevel::Off),
            1 => Some(TraceLevel::Phases),
            2 => Some(TraceLevel::Detail),
            _ => None,
        }
    }
}

/// One named span in a query's timeline: a start offset, a duration,
/// optional counters, and child spans.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSpan {
    /// Phase or unit name (`map`, `verify`, `partition/3`, `attempt/0`…).
    pub name: String,
    /// Offset from the trace origin, microseconds (monotonic within a
    /// sibling list).
    pub start_us: u64,
    /// Measured duration, microseconds.
    pub duration_us: u64,
    /// Named counters attached to this span (distance computations,
    /// candidate pairs, …).
    pub counters: Vec<(String, u64)>,
    pub children: Vec<TraceSpan>,
}

impl TraceSpan {
    pub fn new(name: impl Into<String>, start_us: u64, duration_us: u64) -> Self {
        Self {
            name: name.into(),
            start_us,
            duration_us,
            counters: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: attach a counter. Zero-valued counters are kept — an
    /// explicit zero (e.g. `lemma7_pruned=0`) is information.
    pub fn counter(mut self, name: impl Into<String>, v: u64) -> Self {
        self.counters.push((name.into(), v));
        self
    }

    /// Builder: attach a child span.
    pub fn child(mut self, c: TraceSpan) -> Self {
        self.children.push(c);
        self
    }

    /// This span's duration as a [`Duration`].
    pub fn duration(&self) -> Duration {
        Duration::from_micros(self.duration_us)
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        let _ = write!(
            out,
            "{indent}{name}  +{start}us  {dur}us",
            name = self.name,
            start = self.start_us,
            dur = self.duration_us
        );
        for (k, v) in &self.counters {
            let _ = write!(out, "  {k}={v}");
        }
        out.push('\n');
        for c in &self.children {
            c.render_into(out, depth + 1);
        }
    }
}

/// The trace of one query: a root span (the whole request) over the
/// phase tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryTrace {
    pub root: TraceSpan,
}

impl QueryTrace {
    pub fn new(root: TraceSpan) -> Self {
        Self { root }
    }

    /// Depth-first search for the first span with `name`.
    pub fn find(&self, name: &str) -> Option<&TraceSpan> {
        fn walk<'a>(s: &'a TraceSpan, name: &str) -> Option<&'a TraceSpan> {
            if s.name == name {
                return Some(s);
            }
            s.children.iter().find_map(|c| walk(c, name))
        }
        walk(&self.root, name)
    }

    /// Sum of the canonical phase spans (`map`, `block`, `verify`,
    /// `merge`) among the root's direct children — the phase total a
    /// caller compares against the measured request latency. Per-unit
    /// detail spans cover the *same* time as the phases, so they are
    /// deliberately excluded: counting both would double-book the clock.
    pub fn phase_sum(&self) -> Duration {
        Duration::from_micros(
            self.root
                .children
                .iter()
                .filter(|c| matches!(c.name.as_str(), "map" | "block" | "verify" | "merge"))
                .map(|c| c.duration_us)
                .sum(),
        )
    }

    /// Total spans in the tree.
    pub fn span_count(&self) -> usize {
        fn count(s: &TraceSpan) -> usize {
            1 + s.children.iter().map(count).sum::<usize>()
        }
        count(&self.root)
    }

    /// The human-readable phase tree `pexeso query --trace` prints.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(256);
        self.root.render_into(&mut out, 0);
        out
    }

    /// Re-root this trace under `parent` (used by clients merging a
    /// server-side trace into their own attempt timeline): every span
    /// offset is shifted by `parent.start_us` so the combined timeline
    /// stays monotonic.
    pub fn nested_under(mut self, shift_us: u64) -> TraceSpan {
        fn shift(s: &mut TraceSpan, by: u64) {
            s.start_us += by;
            for c in &mut s.children {
                shift(c, by);
            }
        }
        shift(&mut self.root, shift_us);
        self.root
    }
}

/// Build the canonical phase tree from the stats one execution produced.
///
/// `total` is the measured end-to-end duration of the request (the root
/// span). The phase children are laid out back-to-back — `map` at 0,
/// `block` after it, `verify` after that, then `merge` — carrying the
/// measured per-phase durations and headline counters from `stats`.
pub fn phase_tree(
    stats: &crate::stats::SearchStats,
    total: Duration,
    merge: Duration,
) -> TraceSpan {
    let map_us = stats.mapping_time.as_micros() as u64;
    let block_us = stats.block_time.as_micros() as u64;
    let verify_us = stats.verify_time.as_micros() as u64;
    let merge_us = merge.as_micros() as u64;
    TraceSpan::new("query", 0, total.as_micros() as u64)
        .child(
            TraceSpan::new("map", 0, map_us).counter("mapping_distances", stats.mapping_distances),
        )
        .child(
            TraceSpan::new("block", map_us, block_us)
                .counter("candidate_pairs", stats.candidate_pairs)
                .counter("matching_pairs", stats.matching_pairs)
                .counter("quick_browse_pairs", stats.quick_browse_pairs),
        )
        .child(
            TraceSpan::new("verify", map_us + block_us, verify_us)
                .counter("distance_computations", stats.distance_computations)
                .counter("early_joinable", stats.early_joinable)
                .counter("lemma7_pruned", stats.lemma7_pruned),
        )
        .child(TraceSpan::new(
            "merge",
            map_us + block_us + verify_us,
            merge_us,
        ))
}

/// A per-unit (partition / delta / column) child span built from that
/// unit's stats, attached under the root at [`TraceLevel::Detail`].
pub fn unit_span(name: impl Into<String>, stats: &crate::stats::SearchStats) -> TraceSpan {
    TraceSpan::new(name, 0, stats.total_time.as_micros() as u64)
        .counter("distance_computations", stats.distance_computations)
        .counter("candidate_pairs", stats.candidate_pairs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SearchStats;

    #[test]
    fn level_encoding_roundtrips() {
        for l in [TraceLevel::Off, TraceLevel::Phases, TraceLevel::Detail] {
            assert_eq!(TraceLevel::from_u8(l.as_u8()), Some(l));
        }
        assert!(!TraceLevel::Off.enabled());
        assert!(TraceLevel::Phases.enabled());
        assert_eq!(TraceLevel::from_u8(3), None);
    }

    #[test]
    fn phase_tree_lays_phases_back_to_back() {
        let stats = SearchStats {
            mapping_time: Duration::from_micros(10),
            block_time: Duration::from_micros(20),
            verify_time: Duration::from_micros(30),
            distance_computations: 7,
            ..Default::default()
        };
        let root = phase_tree(&stats, Duration::from_micros(70), Duration::from_micros(5));
        let trace = QueryTrace::new(root);
        assert_eq!(trace.find("map").unwrap().duration_us, 10);
        assert_eq!(trace.find("block").unwrap().start_us, 10);
        assert_eq!(trace.find("verify").unwrap().start_us, 30);
        assert_eq!(trace.find("merge").unwrap().start_us, 60);
        assert_eq!(trace.phase_sum(), Duration::from_micros(65));
        assert!(trace.phase_sum() <= Duration::from_micros(70));
        let v = trace.find("verify").unwrap();
        assert!(v.counters.contains(&("distance_computations".into(), 7)));
        assert_eq!(trace.span_count(), 5);
    }

    #[test]
    fn render_shows_every_span_and_counter() {
        let trace = QueryTrace::new(
            TraceSpan::new("query", 0, 100)
                .child(TraceSpan::new("map", 0, 40).counter("mapping_distances", 3)),
        );
        let text = trace.render();
        assert!(text.contains("query"));
        assert!(text.contains("  map"));
        assert!(text.contains("mapping_distances=3"));
    }

    #[test]
    fn nesting_shifts_offsets() {
        let trace =
            QueryTrace::new(TraceSpan::new("query", 0, 100).child(TraceSpan::new("map", 10, 40)));
        let nested = trace.nested_under(1000);
        assert_eq!(nested.start_us, 1000);
        assert_eq!(nested.children[0].start_us, 1010);
    }
}

//! Search instrumentation.
//!
//! Figures 6a and 9 of the paper report distance-computation counts and the
//! contribution of each lemma; Table VI splits blocking from verification
//! time. [`SearchStats`] captures all of it in one pass-through struct so
//! experiments don't need a second instrumented code path.
//!
//! Every counter is a property of the query, the index and the order the
//! threshold scan takes the query vectors in — its schedule
//! ([`crate::verify`]), which is itself computed from the query and the
//! index alone. Each parallel stage shards its work so that the per-shard
//! counters sum to the sequential ones, and every shard runs the same
//! schedule, so a [`SearchStats`] is identical for every
//! [`crate::config::ExecPolicy`].

use std::time::Duration;

/// Counters and timings of one joinable-column search.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchStats {
    /// Exact d(·,·) computations during verification (the paper's Fig. 6a
    /// metric).
    pub distance_computations: u64,
    /// Distances computed while pivot-mapping the query column.
    pub mapping_distances: u64,
    /// Target vectors discarded by the row bound during verification: on
    /// a Euclidean index whose rows hold apexes, by the n-simplex lower
    /// bound (which implies Lemma 1), elsewhere by Lemma 1 itself (see
    /// [`crate::verify`]). The threshold scan filters a candidate cell
    /// before it tests any row of it, so this counts every rejected row of
    /// every column that was live (not joinable, pruned, tombstoned or
    /// already matched by the query vector) when the cell was entered —
    /// including rows behind the row that then matches the column in that
    /// cell, which a stop-at-first-match walk would not have looked at.
    /// Rows of dead columns, and of cells the apex bound excluded
    /// ([`SearchStats::apex_excluded`]), are never put to the bound, so the
    /// count follows the schedule:
    /// the sooner the columns die, the fewer rows are left to reject, and a
    /// lower count beside fewer distance computations means less work, not
    /// a weaker filter.
    pub lemma1_filtered: u64,
    /// Target vectors accepted without a distance computation during
    /// verification: by the reflected n-simplex bound where the rows hold
    /// apexes, by Lemma 2 elsewhere.
    pub lemma2_matched: u64,
    /// ⟨query vector, leaf cell⟩ pairs blocking filtered by Lemma 3. Every
    /// pair is tested once ([`crate::block`]), so this, the matching and
    /// the candidate pairs add up to |Q| · leaves per unit.
    pub cell_pairs_filtered: u64,
    /// ⟨query vector, leaf cell⟩ pairs blocking matched by Lemma 5: the
    /// matching pairs, each counted once.
    pub cell_pairs_matched: u64,
    /// ⟨query vector, leaf cell⟩ candidate pairs produced by blocking.
    pub candidate_pairs: u64,
    /// ⟨query vector, leaf cell⟩ matching pairs produced by blocking.
    pub matching_pairs: u64,
    /// Candidate pairs emitted directly by quick browsing.
    pub quick_browse_pairs: u64,
    /// Candidate pairs verification never entered: the cell's apex box
    /// lies beyond τ of the query vector's apex (the n-simplex bound,
    /// [`crate::invindex`]; Euclidean only), so the cell holds no vector
    /// within τ. Counted once per scan, before any shard runs.
    pub apex_excluded: u64,
    /// Columns skipped mid-verification because they reached T.
    pub early_joinable: u64,
    /// Columns pruned mid-verification by Lemma 7 — under `T` in a
    /// threshold search, under the seed count in a top-k search.
    pub lemma7_pruned: u64,
    /// No longer written (always 0): top-k prunes through
    /// [`SearchStats::lemma7_pruned`]. The field stays until the benchmark
    /// ladder stops reading it.
    pub topk_pruned: u64,
    /// No longer written (always 0); see [`SearchStats::topk_pruned`].
    pub topk_aborted: u64,
    /// No longer written (always 0); see [`SearchStats::topk_pruned`].
    pub verify_batches: u64,
    /// Wall-clock time spent pivot-mapping the query column (plus the
    /// span check and the query-grid build that immediately follow it) —
    /// the "mapping" row of the paper's Table VI breakdown.
    pub mapping_time: Duration,
    /// Wall-clock time spent blocking (includes quick browsing) — the
    /// Table VI "blocking" phase.
    pub block_time: Duration,
    /// Wall-clock time spent verifying.
    pub verify_time: Duration,
    /// Total search time (mapping + HG_Q build + block + verify).
    pub total_time: Duration,
}

impl SearchStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge counters from another search (used when searching partitions).
    pub fn merge(&mut self, other: &SearchStats) {
        self.distance_computations += other.distance_computations;
        self.mapping_distances += other.mapping_distances;
        self.lemma1_filtered += other.lemma1_filtered;
        self.lemma2_matched += other.lemma2_matched;
        self.cell_pairs_filtered += other.cell_pairs_filtered;
        self.cell_pairs_matched += other.cell_pairs_matched;
        self.candidate_pairs += other.candidate_pairs;
        self.matching_pairs += other.matching_pairs;
        self.quick_browse_pairs += other.quick_browse_pairs;
        self.apex_excluded += other.apex_excluded;
        self.early_joinable += other.early_joinable;
        self.lemma7_pruned += other.lemma7_pruned;
        self.topk_pruned += other.topk_pruned;
        self.topk_aborted += other.topk_aborted;
        self.verify_batches += other.verify_batches;
        self.mapping_time += other.mapping_time;
        self.block_time += other.block_time;
        self.verify_time += other.verify_time;
        self.total_time += other.total_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = SearchStats {
            distance_computations: 5,
            candidate_pairs: 2,
            ..Default::default()
        };
        let b = SearchStats {
            distance_computations: 7,
            candidate_pairs: 1,
            block_time: Duration::from_millis(3),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.distance_computations, 12);
        assert_eq!(a.candidate_pairs, 3);
        assert_eq!(a.block_time, Duration::from_millis(3));
    }

    #[test]
    fn default_is_zeroed() {
        let s = SearchStats::new();
        assert_eq!(s.distance_computations, 0);
        assert_eq!(s.total_time, Duration::ZERO);
    }
}

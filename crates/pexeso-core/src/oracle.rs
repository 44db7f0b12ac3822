//! Brute-force ground-truth oracle.
//!
//! An O(|Q|·|R|) exact matcher with **none** of the PEXESO machinery: no
//! pivots, no grids, no lemmas, no inverted index, no early termination,
//! and only the scalar [`Metric::dist`] (never the batched
//! [`Metric::dist_le`] kernels). Its only job is to be obviously correct,
//! so the differential suite in `tests/differential.rs` can pin every
//! accelerated search mode — threshold, top-k, batched, out-of-core,
//! sequential and parallel — against an independent answer. Keep it slow
//! and simple; any "optimisation" here erodes its value as an oracle.
//!
//! ## Ranking contract
//!
//! * A query vector `q` matches column `S` iff `∃ x ∈ S : d(q, x) ≤ τ`;
//!   a column's *match count* is the number of matching query vectors.
//! * [`threshold_search`] returns columns with count ≥ T, ascending by
//!   column id, with exact counts.
//! * [`topk`] returns the (up to) `k` columns with positive match count,
//!   ranked by **count descending, then column id ascending** — the
//!   tie-break every top-k entry point in this crate must reproduce.

use crate::column::{ColumnId, ColumnSet};
use crate::config::{JoinThreshold, Tau};
use crate::error::{PexesoError, Result};
use crate::metric::Metric;
use crate::search::SearchHit;
use crate::vector::VectorStore;

/// Exact per-column match counts (`counts[c]` = matching query vectors of
/// column `c`). `deleted` masks dropped columns to zero so callers can
/// mirror an index answering under a dead mask.
pub fn match_counts<M: Metric>(
    columns: &ColumnSet,
    metric: &M,
    query: &VectorStore,
    tau: Tau,
    deleted: Option<&[bool]>,
) -> Result<Vec<u32>> {
    if query.is_empty() {
        return Err(PexesoError::EmptyInput("query column with zero vectors"));
    }
    if query.dim() != columns.dim() {
        return Err(PexesoError::DimensionMismatch {
            expected: columns.dim(),
            got: query.dim(),
        });
    }
    let tau = tau.resolve(metric, columns.dim())?;
    let counts = columns
        .columns()
        .iter()
        .enumerate()
        .map(|(c, col)| {
            if deleted.is_some_and(|d| d[c]) {
                return 0;
            }
            query
                .iter()
                .filter(|q| {
                    col.vector_range()
                        .any(|v| metric.dist(q, columns.store().get_raw(v as usize)) <= tau)
                })
                .count() as u32
        })
        .collect();
    Ok(counts)
}

/// Exact threshold-form search: columns whose match count reaches `t`,
/// ascending by column id, with exact counts.
pub fn threshold_search<M: Metric>(
    columns: &ColumnSet,
    metric: &M,
    query: &VectorStore,
    tau: Tau,
    t: JoinThreshold,
    deleted: Option<&[bool]>,
) -> Result<Vec<SearchHit>> {
    let t_abs = t.resolve(query.len())?;
    let counts = match_counts(columns, metric, query, tau, deleted)?;
    Ok(counts
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count as usize >= t_abs)
        .map(|(c, &count)| SearchHit {
            column: ColumnId(c as u32),
            match_count: count,
        })
        .collect())
}

/// Exact top-k: rank the counts of [`match_counts`] with [`rank_topk`].
pub fn topk<M: Metric>(
    columns: &ColumnSet,
    metric: &M,
    query: &VectorStore,
    tau: Tau,
    k: usize,
    deleted: Option<&[bool]>,
) -> Result<Vec<SearchHit>> {
    let counts = match_counts(columns, metric, query, tau, deleted)?;
    Ok(rank_topk(&counts, k))
}

/// The documented top-k ranking of a count vector: positive counts only,
/// count descending then column id ascending, truncated to `k`.
pub fn rank_topk(counts: &[u32], k: usize) -> Vec<SearchHit> {
    let mut hits: Vec<SearchHit> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .map(|(c, &count)| SearchHit {
            column: ColumnId(c as u32),
            match_count: count,
        })
        .collect();
    hits.sort_by(|a, b| {
        b.match_count
            .cmp(&a.match_count)
            .then(a.column.cmp(&b.column))
    });
    hits.truncate(k);
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Euclidean;

    fn tiny() -> (ColumnSet, VectorStore) {
        // Axis-aligned 2-d vectors make the distances obvious by eye.
        let mut columns = ColumnSet::new(2);
        columns
            .add_column("t", "a", 0, vec![&[1.0, 0.0][..], &[0.0, 1.0]])
            .unwrap();
        columns
            .add_column("t", "b", 1, vec![&[1.0, 0.0][..]])
            .unwrap();
        columns
            .add_column("t", "c", 2, vec![&[-1.0, 0.0][..]])
            .unwrap();
        let mut query = VectorStore::new(2);
        query.push(&[1.0, 0.0]).unwrap();
        query.push(&[0.0, 1.0]).unwrap();
        (columns, query)
    }

    #[test]
    fn counts_by_hand() {
        let (columns, query) = tiny();
        let counts = match_counts(&columns, &Euclidean, &query, Tau::Absolute(0.1), None).unwrap();
        assert_eq!(counts, vec![2, 1, 0]);
    }

    #[test]
    fn deleted_mask_zeroes_counts() {
        let (columns, query) = tiny();
        let deleted = [true, false, false];
        let counts = match_counts(
            &columns,
            &Euclidean,
            &query,
            Tau::Absolute(0.1),
            Some(&deleted),
        )
        .unwrap();
        assert_eq!(counts, vec![0, 1, 0]);
    }

    #[test]
    fn threshold_and_topk_by_hand() {
        let (columns, query) = tiny();
        let tau = Tau::Absolute(0.1);
        let hits = threshold_search(
            &columns,
            &Euclidean,
            &query,
            tau,
            JoinThreshold::Count(1),
            None,
        )
        .unwrap();
        assert_eq!(
            hits.iter().map(|h| h.column.0).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let top = topk(&columns, &Euclidean, &query, tau, 1, None).unwrap();
        assert_eq!(top.len(), 1);
        assert_eq!(top[0].column.0, 0);
        assert_eq!(top[0].match_count, 2);
    }

    #[test]
    fn ties_break_by_ascending_column_id() {
        let hits = rank_topk(&[3, 5, 5, 0, 5], 3);
        let got: Vec<(u32, u32)> = hits.iter().map(|h| (h.column.0, h.match_count)).collect();
        assert_eq!(got, vec![(1, 5), (2, 5), (4, 5)]);
    }

    #[test]
    fn k_zero_and_oversized_k() {
        assert!(rank_topk(&[1, 2], 0).is_empty());
        assert_eq!(rank_topk(&[1, 0, 2], 10).len(), 2);
    }

    #[test]
    fn empty_query_rejected() {
        let (columns, _) = tiny();
        let empty = VectorStore::new(2);
        assert!(match_counts(&columns, &Euclidean, &empty, Tau::Absolute(0.1), None).is_err());
    }
}

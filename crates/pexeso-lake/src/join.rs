//! The record-level join mapping a joinable-table search presents with
//! each result: which lake rows every query row matched.

/// Per-query-row matches into lake tables: `(table index, row index)`.
#[derive(Debug, Clone, Default)]
pub struct JoinMapping {
    pub matches: Vec<Vec<(usize, usize)>>,
}

impl JoinMapping {
    pub fn new(n_query_rows: usize) -> Self {
        Self {
            matches: vec![Vec::new(); n_query_rows],
        }
    }

    /// Fraction of query rows with at least one match.
    pub fn row_match_rate(&self) -> f64 {
        if self.matches.is_empty() {
            return 0.0;
        }
        self.matches.iter().filter(|m| !m.is_empty()).count() as f64 / self.matches.len() as f64
    }

    /// Total matched (query row, lake row) pairs — the paper's "# Match"
    /// when normalised by the lake size.
    pub fn total_pairs(&self) -> usize {
        self.matches.iter().map(|m| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_rate_accounting() {
        let mut m = JoinMapping::new(4);
        m.matches[0].push((0, 0));
        m.matches[0].push((0, 1));
        m.matches[2].push((0, 0));
        assert_eq!(m.row_match_rate(), 0.5);
        assert_eq!(m.total_pairs(), 3);
    }
}

//! The correctness gate: every reply is compared with the brute-force
//! `pexeso_core::oracle`, outside the timed region.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use pexeso_core::column::ColumnSet;
use pexeso_core::config::JoinThreshold;
use pexeso_core::metric::Euclidean;
use pexeso_core::oracle;
use pexeso_core::outofcore::GlobalHit;
use pexeso_core::vector::VectorStore;
use pexeso_delta::IngestColumn;

use crate::inputs::Inputs;
use crate::spec::{Mode, TAU, TOPK_K, T_RATIO};

/// The lake the oracle answers over: the embedded base columns followed
/// by the tables a run ingested, in ingest order. `external_id` equals
/// the column index for both (ingest allocates ids from the base count).
///
/// The oracle's exact per-column match counts are kept per distinct
/// query: the rounds of a run repeat their queries, and the counts answer
/// for every number of visible ingested tables.
pub struct Reference<'a> {
    columns: Cow<'a, ColumnSet>,
    n_base: usize,
    counts: Mutex<HashMap<Vec<u32>, Arc<Vec<u32>>>>,
}

impl<'a> Reference<'a> {
    pub fn new(inputs: &'a Inputs, ingested: &[IngestColumn]) -> Self {
        let n_base = inputs.columns.n_columns();
        let mut columns = Cow::Borrowed(&inputs.columns);
        for (w, col) in ingested.iter().enumerate() {
            let rows = col.vectors.chunks_exact(inputs.profile.dim());
            columns
                .to_mut()
                .add_column(&col.table_name, &col.column_name, (n_base + w) as u64, rows)
                .expect("ingested columns have the lake's dimensionality");
        }
        Self {
            columns,
            n_base,
            counts: Mutex::new(HashMap::new()),
        }
    }

    pub fn n_ingested(&self) -> usize {
        self.columns.n_columns() - self.n_base
    }

    /// What identifies a query to the oracle: its vectors, bit for bit.
    pub fn key(query: &VectorStore) -> Vec<u32> {
        query.raw_data().iter().map(|f| f.to_bits()).collect()
    }

    /// `oracle::match_counts` of `query` over every column, ingested ones
    /// included; computed once per distinct query.
    pub fn match_counts(&self, query: &VectorStore) -> Result<Arc<Vec<u32>>, String> {
        let key = Self::key(query);
        if let Some(known) = self.counts.lock().expect("counts lock").get(&key) {
            return Ok(Arc::clone(known));
        }
        let counts = Arc::new(
            oracle::match_counts(&self.columns, &Euclidean, query, TAU, None)
                .map_err(|e| format!("oracle: {e}"))?,
        );
        self.counts
            .lock()
            .expect("counts lock")
            .insert(key, Arc::clone(&counts));
        Ok(counts)
    }

    /// Check `hits` against the oracle with the first `visible` ingested
    /// tables searchable. Threshold replies must name exactly the oracle's
    /// columns in ascending id order with a count between `T` and the
    /// exact count (the search stops counting at `T`); top-k replies must
    /// equal the oracle's ranking, counts included.
    pub fn check(
        &self,
        mode: Mode,
        query: &VectorStore,
        visible: usize,
        hits: &[GlobalHit],
    ) -> Result<(), String> {
        let counts = self.match_counts(query)?;
        // Hidden tables are the tail of the columns.
        let counts = &counts[..self.n_base + visible.min(self.n_ingested())];
        let got: Vec<(u64, u32)> = hits
            .iter()
            .map(|h| (h.external_id, h.match_count))
            .collect();
        match mode {
            Mode::Threshold => {
                // `oracle::threshold_search` over the visible columns.
                let t_abs = JoinThreshold::Ratio(T_RATIO)
                    .resolve(query.len())
                    .map_err(|e| e.to_string())? as u32;
                let want: Vec<(u64, u32)> = counts
                    .iter()
                    .enumerate()
                    .filter(|&(_, &count)| count >= t_abs)
                    .map(|(c, &count)| (c as u64, count))
                    .collect();
                let want_ids: Vec<u64> = want.iter().map(|w| w.0).collect();
                let got_ids: Vec<u64> = got.iter().map(|g| g.0).collect();
                if want_ids != got_ids {
                    return Err(format!(
                        "threshold hits differ: oracle {want_ids:?}, reply {got_ids:?}"
                    ));
                }
                for (g, w) in got.iter().zip(&want) {
                    if g.1 < t_abs || g.1 > w.1 {
                        return Err(format!(
                            "column {} count {} outside [T={t_abs}, exact={}]",
                            g.0, g.1, w.1
                        ));
                    }
                }
                Ok(())
            }
            Mode::Topk => {
                // `oracle::topk` over the visible columns.
                let want: Vec<(u64, u32)> = oracle::rank_topk(counts, TOPK_K)
                    .iter()
                    .map(|h| (u64::from(h.column.0), h.match_count))
                    .collect();
                if want != got {
                    return Err(format!("top-k differs: oracle {want:?}, reply {got:?}"));
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{workload, QUICK_SCALE};

    fn hits(list: &[(u64, u32)]) -> Vec<GlobalHit> {
        list.iter()
            .map(|&(external_id, match_count)| GlobalHit {
                external_id,
                table_name: String::new(),
                column_name: String::new(),
                match_count,
            })
            .collect()
    }

    /// The kept counts must answer exactly as the oracle's own entry
    /// points do, for every number of visible ingested tables.
    #[test]
    fn kept_counts_answer_like_the_oracle() {
        let spec = workload("wdc_concurrent_rw").unwrap();
        let inputs = Inputs::generate(spec.profile, QUICK_SCALE, 13);
        let ingested: Vec<IngestColumn> = (0..3).map(|w| inputs.ingest_column(w)).collect();
        let reference = Reference::new(&inputs, &ingested);
        let n_base = inputs.columns.n_columns();
        // A query made of an ingested table's own vectors matches it.
        let store = VectorStore::from_raw(spec.profile.dim(), ingested[1].vectors.clone()).unwrap();
        let t = JoinThreshold::Ratio(T_RATIO);
        for visible in 0..=3 {
            let hidden: Vec<bool> = (0..n_base + 3).map(|c| c >= n_base + visible).collect();
            let want_thr = oracle::threshold_search(
                &reference.columns,
                &Euclidean,
                &store,
                TAU,
                t,
                Some(&hidden),
            )
            .unwrap();
            let thr: Vec<(u64, u32)> = want_thr
                .iter()
                .map(|h| (u64::from(h.column.0), h.match_count))
                .collect();
            assert_eq!(
                thr.iter().any(|h| h.0 == n_base as u64 + 1),
                visible >= 2,
                "visible {visible}"
            );
            reference
                .check(Mode::Threshold, &store, visible, &hits(&thr))
                .unwrap();
            let want_top = oracle::topk(
                &reference.columns,
                &Euclidean,
                &store,
                TAU,
                TOPK_K,
                Some(&hidden),
            )
            .unwrap();
            let top: Vec<(u64, u32)> = want_top
                .iter()
                .map(|h| (u64::from(h.column.0), h.match_count))
                .collect();
            reference
                .check(Mode::Topk, &store, visible, &hits(&top))
                .unwrap();
            // A reply that misses a column or invents one is refused.
            if let Some((_, rest)) = thr.split_first() {
                assert!(reference
                    .check(Mode::Threshold, &store, visible, &hits(rest))
                    .is_err());
            }
            let mut extra = top.clone();
            extra.push((u64::MAX, 1));
            assert!(reference
                .check(Mode::Topk, &store, visible, &hits(&extra))
                .is_err());
        }
        assert_eq!(reference.counts.lock().unwrap().len(), 1);
    }
}

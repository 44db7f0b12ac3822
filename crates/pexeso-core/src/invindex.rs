//! Inverted index over leaf cells (Section III-C, Fig. 4).
//!
//! Keys are the non-empty leaf cells of `HG_RV`; each key holds a postings
//! list of the columns with at least one vector in that cell, **sorted by
//! column id** (the document-at-a-time access order), in CSR layout: per
//! cell a sorted column array, per column a slice of its vector ids.

use crate::config::ExecPolicy;
use crate::error::{PexesoError, Result};
use crate::grid::{compute_leaf_keys, CellKey, GridParams};
use crate::mapping::MappedVectors;
use crate::util::FastMap;

/// Postings of one leaf cell in CSR layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellPostings {
    /// Column ids present in the cell, ascending.
    pub cols: Vec<u32>,
    /// `offsets[i]..offsets[i+1]` indexes `vecs` for `cols[i]`;
    /// `offsets.len() == cols.len() + 1`.
    pub offsets: Vec<u32>,
    /// Vector ids, grouped by column, ascending within each group.
    pub vecs: Vec<u32>,
}

impl CellPostings {
    /// Vector ids belonging to the `i`-th column of this cell.
    #[inline]
    pub fn vectors_of(&self, i: usize) -> &[u32] {
        &self.vecs[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The inverted index: leaf cell → column postings.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InvertedIndex {
    cells: FastMap<CellKey, CellPostings>,
}

impl InvertedIndex {
    /// Build from the mapped repository vectors and the flat vector→column
    /// map.
    pub fn build(params: &GridParams, mapped: &MappedVectors, vec_col: &[u32]) -> Result<Self> {
        Self::from_leaf_keys(
            &compute_leaf_keys(params, mapped, ExecPolicy::Sequential),
            vec_col,
        )
    }

    /// Build from the leaf key of every vector, in id order. The CSR
    /// assembly follows id order, so the postings are the same whichever
    /// policy computed the keys.
    pub(crate) fn from_leaf_keys(keys: &[CellKey], vec_col: &[u32]) -> Result<Self> {
        if keys.len() != vec_col.len() {
            return Err(PexesoError::Corrupt(format!(
                "mapped {} vectors but vec_col has {}",
                keys.len(),
                vec_col.len()
            )));
        }
        // Vectors arrive in id order and columns own contiguous id ranges,
        // so per-cell (column, vector) pairs accumulate already sorted.
        let mut raw: FastMap<CellKey, Vec<(u32, u32)>> = FastMap::default();
        for (i, &key) in keys.iter().enumerate() {
            raw.entry(key).or_default().push((vec_col[i], i as u32));
        }
        let mut cells = FastMap::default();
        cells.reserve(raw.len());
        for (key, pairs) in raw {
            debug_assert!(
                pairs.windows(2).all(|w| w[0] <= w[1]),
                "pairs arrive sorted"
            );
            let mut cols: Vec<u32> = Vec::new();
            let mut offsets: Vec<u32> = Vec::new();
            let mut vecs: Vec<u32> = Vec::with_capacity(pairs.len());
            for (col, vec) in pairs {
                if cols.last() != Some(&col) {
                    cols.push(col);
                    offsets.push(vecs.len() as u32);
                }
                vecs.push(vec);
            }
            offsets.push(vecs.len() as u32);
            cells.insert(
                key,
                CellPostings {
                    cols,
                    offsets,
                    vecs,
                },
            );
        }
        Ok(Self { cells })
    }

    /// Append one vector of a **new** column (id ≥ every existing column
    /// id) to a cell's postings. Keeping appends restricted to fresh,
    /// monotonically increasing column ids preserves the sorted-by-column
    /// CSR layout in O(1), which is exactly the paper's O(1) insertion
    /// claim for the inverted index.
    pub fn append_vector(&mut self, key: CellKey, col: u32, vid: u32) -> Result<()> {
        let postings = self.cells.entry(key).or_insert_with(|| CellPostings {
            cols: Vec::new(),
            offsets: vec![0],
            vecs: Vec::new(),
        });
        match postings.cols.last() {
            Some(&last) if last > col => {
                return Err(PexesoError::InvalidParameter(format!(
                    "append_vector requires non-decreasing column ids (last {last}, got {col})"
                )));
            }
            Some(&last) if last == col => {
                postings.vecs.push(vid);
                *postings.offsets.last_mut().expect("offsets non-empty") += 1;
            }
            _ => {
                postings.cols.push(col);
                postings.vecs.push(vid);
                postings.offsets.push(postings.vecs.len() as u32);
            }
        }
        Ok(())
    }

    /// Postings of a leaf cell, if non-empty.
    #[inline]
    pub fn postings(&self, key: CellKey) -> Option<&CellPostings> {
        self.cells.get(&key)
    }

    /// Whether the cell exists (has at least one vector).
    #[inline]
    pub fn contains(&self, key: CellKey) -> bool {
        self.cells.contains_key(&key)
    }

    /// Number of non-empty leaf cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Every non-empty leaf cell with its postings, arbitrary order —
    /// introspection walks this to histogram postings lengths and cell
    /// occupancy without exposing the map itself.
    pub fn iter_cells(&self) -> impl Iterator<Item = (&CellKey, &CellPostings)> {
        self.cells.iter()
    }

    /// Estimated resident size in bytes (Fig. 6b index-size accounting).
    pub fn approx_bytes(&self) -> usize {
        let mut total = 0usize;
        for p in self.cells.values() {
            total += std::mem::size_of::<CellKey>() + std::mem::size_of::<CellPostings>();
            total += p.cols.len() * 4 + p.offsets.len() * 4 + p.vecs.len() * 4;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapped_from(coords: &[&[f32]]) -> MappedVectors {
        let k = coords[0].len();
        let flat: Vec<f32> = coords.iter().flat_map(|c| c.iter().copied()).collect();
        MappedVectors::from_raw(k, flat).unwrap()
    }

    #[test]
    fn build_matches_paper_fig4_shape() {
        // 4 columns of 2 vectors each; 1-d pivot space, span 8, m=3 ->
        // leaf width 1, so a vector at coordinate c lands in cell floor(c).
        let params = GridParams::new(1, 3, 8.0).unwrap();
        let mapped = mapped_from(&[
            &[0.5], // v0, col 0
            &[0.6], // v1, col 0 (same cell as v0)
            &[1.5], // v2, col 1
            &[0.7], // v3, col 1 (cell 0, after col 0's vectors)
            &[6.5], // v4, col 2
            &[6.7], // v5, col 2
            &[1.9], // v6, col 3
            &[7.5], // v7, col 3
        ]);
        let vec_col = vec![0, 0, 1, 1, 2, 2, 3, 3];
        let inv = InvertedIndex::build(&params, &mapped, &vec_col).unwrap();
        assert_eq!(inv.num_cells(), 4);

        let cell0 = params.leaf_key(&[0.5]);
        let p = inv.postings(cell0).unwrap();
        assert_eq!(p.cols, vec![0, 1]);
        assert_eq!(p.vectors_of(0), &[0, 1]);
        assert_eq!(p.vectors_of(1), &[3]);

        let cell1 = params.leaf_key(&[1.5]);
        let p1 = inv.postings(cell1).unwrap();
        assert_eq!(p1.cols, vec![1, 3]);
        assert_eq!(p1.vectors_of(0), &[2]);
        assert_eq!(p1.vectors_of(1), &[6]);
    }

    #[test]
    fn missing_cell_is_none() {
        let params = GridParams::new(1, 2, 4.0).unwrap();
        let mapped = mapped_from(&[&[0.5]]);
        let inv = InvertedIndex::build(&params, &mapped, &[0]).unwrap();
        assert!(inv.postings(params.leaf_key(&[3.5])).is_none());
        assert!(inv.contains(params.leaf_key(&[0.5])));
    }

    #[test]
    fn length_mismatch_rejected() {
        let params = GridParams::new(1, 2, 4.0).unwrap();
        let mapped = mapped_from(&[&[0.5], &[1.5]]);
        assert!(InvertedIndex::build(&params, &mapped, &[0]).is_err());
    }

    #[test]
    fn csr_offsets_are_consistent() {
        let params = GridParams::new(2, 2, 4.0).unwrap();
        let mapped = mapped_from(&[&[0.1, 0.1], &[0.2, 0.2], &[0.3, 0.1], &[3.9, 3.9]]);
        let vec_col = vec![0, 0, 1, 1];
        let inv = InvertedIndex::build(&params, &mapped, &vec_col).unwrap();
        for key in [params.leaf_key(&[0.1, 0.1]), params.leaf_key(&[3.9, 3.9])] {
            let p = inv.postings(key).unwrap();
            assert_eq!(p.offsets.len(), p.cols.len() + 1);
            assert_eq!(*p.offsets.last().unwrap() as usize, p.vecs.len());
            let mut covered = 0;
            for i in 0..p.cols.len() {
                assert!(!p.vectors_of(i).is_empty());
                covered += p.vectors_of(i).len();
            }
            assert_eq!(covered, p.vecs.len());
        }
    }

    #[test]
    fn approx_bytes_positive() {
        let params = GridParams::new(1, 1, 4.0).unwrap();
        let mapped = mapped_from(&[&[0.5]]);
        let inv = InvertedIndex::build(&params, &mapped, &[0]).unwrap();
        assert!(inv.approx_bytes() > 0);
    }
}

//! Columns over the vector arena.
//!
//! The repository `R` is a [`ColumnSet`]: a [`VectorStore`] plus column
//! metadata. Each column owns a **contiguous** range of vector ids,
//! enforced by the builder API, which makes `vector id → column`
//! resolution a flat lookup and gives every vector a stable position in
//! its column (`id − start`, what an index file and a join mapping
//! address it by).
//!
//! Ids are contiguous in the file and in a freshly built set, not in an
//! index's set. A set holds its vectors in **id order** or in an order of
//! its choosing: a [`crate::search::PexesoIndex`] holds them in the
//! inverted index's row order (cell, then column, then id), so that the
//! candidate scan reads a cell's vectors in sequence. Such a set keeps
//! each vector's id ([`ColumnSet::vector_ids`]); a column is then the group
//! of vectors whose ids fall in its range, and [`ColumnSet::store`] is in
//! the set's order. Whatever reads vectors by id takes
//! [`ColumnSet::id_ordered`] or [`ColumnSet::positions`] first.

use std::borrow::Cow;

use crate::codec::MAX_NAME_BYTES;
use crate::error::{PexesoError, Result};
use crate::vector::VectorStore;

/// Handle to a column inside a [`ColumnSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ColumnId(pub u32);

/// Metadata of one repository column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnMeta {
    /// Table the column came from (diagnostics / result presentation).
    pub table_name: String,
    /// Column header.
    pub column_name: String,
    /// Caller-chosen stable identifier, preserved through partitioning and
    /// persistence (e.g. index into the original lake).
    pub external_id: u64,
    /// First vector id of the column's contiguous range.
    pub start: u32,
    /// Number of vectors.
    pub len: u32,
}

impl ColumnMeta {
    /// Vector ids of this column.
    pub fn vector_range(&self) -> std::ops::Range<u32> {
        self.start..self.start + self.len
    }
}

/// The repository of target columns, backing store included.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnSet {
    store: VectorStore,
    columns: Vec<ColumnMeta>,
    /// The id of each vector of `store`, in its order; `None` while that
    /// is id order.
    ids: Option<Vec<u32>>,
}

impl ColumnSet {
    /// Create an empty repository of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        Self {
            store: VectorStore::new(dim),
            columns: Vec::new(),
            ids: None,
        }
    }

    /// Append a column given its vectors. Returns its [`ColumnId`]. A
    /// table or column name over [`MAX_NAME_BYTES`] is refused: the index
    /// file could store it, but no load would read it back.
    pub fn add_column<'a>(
        &mut self,
        table_name: &str,
        column_name: &str,
        external_id: u64,
        vectors: impl IntoIterator<Item = &'a [f32]>,
    ) -> Result<ColumnId> {
        if let Some(name) = [table_name, column_name]
            .into_iter()
            .find(|name| name.len() > MAX_NAME_BYTES as usize)
        {
            return Err(PexesoError::InvalidParameter(format!(
                "name of {} bytes exceeds the {MAX_NAME_BYTES}-byte name limit",
                name.len()
            )));
        }
        let start = self.store.len() as u32;
        let mut len = 0u32;
        for v in vectors {
            self.store.push(v)?;
            len += 1;
        }
        if len == 0 {
            return Err(PexesoError::EmptyInput("column with zero vectors"));
        }
        if let Some(ids) = &mut self.ids {
            ids.extend(start..start + len);
        }
        let id = ColumnId(self.columns.len() as u32);
        self.columns.push(ColumnMeta {
            table_name: table_name.to_string(),
            column_name: column_name.to_string(),
            external_id,
            start,
            len,
        });
        Ok(id)
    }

    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// Total number of vectors across all columns (|RV| in the paper).
    pub fn n_vectors(&self) -> usize {
        self.store.len()
    }

    pub fn column(&self, id: ColumnId) -> &ColumnMeta {
        &self.columns[id.0 as usize]
    }

    pub fn columns(&self) -> &[ColumnMeta] {
        &self.columns
    }

    /// The vectors, in the set's order: by id unless
    /// [`ColumnSet::vector_ids`] says otherwise.
    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// Mutable access to the store, e.g. to normalise after bulk loading.
    pub fn store_mut(&mut self) -> &mut VectorStore {
        &mut self.store
    }

    /// The id of each vector of [`ColumnSet::store`], in its order, or
    /// `None` when that is id order.
    pub fn vector_ids(&self) -> Option<&[u32]> {
        self.ids.as_deref()
    }

    /// Where each vector id is held: entry `id` is its index in
    /// [`ColumnSet::store`]. O(|RV|).
    pub fn positions(&self) -> Vec<u32> {
        let n = self.n_vectors() as u32;
        match &self.ids {
            None => (0..n).collect(),
            Some(ids) => {
                let mut at = vec![0u32; ids.len()];
                for (p, &id) in (0..n).zip(ids) {
                    at[id as usize] = p;
                }
                at
            }
        }
    }

    /// The set in id order: borrowed when it is, else a copy.
    pub fn id_ordered(&self) -> Cow<'_, ColumnSet> {
        match self.ids {
            None => Cow::Borrowed(self),
            Some(_) => Cow::Owned(self.clone().into_id_order()),
        }
    }

    /// The set in id order, reordered in place.
    pub fn into_id_order(mut self) -> Self {
        if self.ids.is_some() {
            self.store.permute(&self.positions());
            self.ids = None;
        }
        self
    }

    /// The set with its vectors held in the order `ids` lists them: entry
    /// `p` is the id of the vector held at `p`. `ids` must name every
    /// vector once.
    pub fn in_order(self, ids: Vec<u32>) -> Result<Self> {
        check_permutation(&ids, self.n_vectors())?;
        let mut by_id = self.into_id_order();
        by_id.store.permute(&ids);
        Ok(Self {
            ids: Some(ids),
            ..by_id
        })
    }

    /// Per vector of [`ColumnSet::store`], in its order, the index of its
    /// column. O(|RV|) time and 4 bytes per vector.
    pub fn vector_to_column(&self) -> Vec<u32> {
        let by_id = column_map(&self.columns, self.n_vectors());
        match &self.ids {
            None => by_id,
            Some(ids) => ids.iter().map(|&id| by_id[id as usize]).collect(),
        }
    }

    /// Reassemble from parts in id order, validating range contiguity and
    /// bounds.
    pub fn from_parts(store: VectorStore, columns: Vec<ColumnMeta>) -> Result<Self> {
        check_ranges(&columns, store.len())?;
        Ok(Self {
            store,
            columns,
            ids: None,
        })
    }

    /// Reassemble from a store held in the order `ids` lists (see
    /// [`ColumnSet::in_order`]), validating like [`ColumnSet::from_parts`].
    pub(crate) fn from_ordered_parts(
        store: VectorStore,
        columns: Vec<ColumnMeta>,
        ids: Vec<u32>,
    ) -> Result<Self> {
        check_ranges(&columns, store.len())?;
        check_permutation(&ids, store.len())?;
        Ok(Self {
            store,
            columns,
            ids: Some(ids),
        })
    }
}

/// Validate that `columns` own contiguous, non-empty id ranges that cover
/// `0..n` exactly.
pub(crate) fn check_ranges(columns: &[ColumnMeta], n: usize) -> Result<()> {
    let mut expected_start = 0u32;
    for c in columns {
        if c.start != expected_start || c.len == 0 {
            return Err(PexesoError::Corrupt(format!(
                "column '{}' has range {}..{} but expected start {}",
                c.column_name,
                c.start,
                c.start + c.len,
                expected_start
            )));
        }
        expected_start = c.start + c.len;
    }
    if expected_start as usize != n {
        return Err(PexesoError::Corrupt(format!(
            "columns cover {expected_start} vectors but store holds {n}"
        )));
    }
    Ok(())
}

/// The column of each of the `n` vector ids `columns` cover (validated by
/// [`check_ranges`]).
pub(crate) fn column_map(columns: &[ColumnMeta], n: usize) -> Vec<u32> {
    let mut map = vec![0u32; n];
    for (ci, col) in columns.iter().enumerate() {
        map[col.vector_range().start as usize..col.vector_range().end as usize].fill(ci as u32);
    }
    map
}

/// Refuse an order that does not name each of `n` ids once.
fn check_permutation(ids: &[u32], n: usize) -> Result<()> {
    let mut seen = vec![false; n];
    let named_once = ids.len() == n
        && ids.iter().all(|&id| {
            seen.get_mut(id as usize)
                .is_some_and(|s| !std::mem::replace(s, true))
        });
    if !named_once {
        return Err(PexesoError::InvalidParameter(format!(
            "an order of {} ids does not name each of {n} vectors once",
            ids.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set_with(dim: usize, cols: &[&[&[f32]]]) -> ColumnSet {
        let mut cs = ColumnSet::new(dim);
        for (i, col) in cols.iter().enumerate() {
            cs.add_column("t", &format!("c{i}"), i as u64, col.iter().copied())
                .unwrap();
        }
        cs
    }

    #[test]
    fn columns_get_contiguous_ranges() {
        let cs = set_with(2, &[&[&[0.0, 0.0], &[1.0, 1.0]], &[&[2.0, 2.0]]]);
        assert_eq!(cs.n_columns(), 2);
        assert_eq!(cs.column(ColumnId(0)).vector_range(), 0..2);
        assert_eq!(cs.column(ColumnId(1)).vector_range(), 2..3);
        assert_eq!(cs.n_vectors(), 3);
    }

    #[test]
    fn empty_column_rejected() {
        let mut cs = ColumnSet::new(2);
        let empty: Vec<&[f32]> = vec![];
        assert!(cs.add_column("t", "c", 0, empty).is_err());
    }

    #[test]
    fn vector_to_column_map() {
        let cs = set_with(1, &[&[&[0.0], &[1.0]], &[&[2.0], &[3.0], &[4.0]]]);
        assert_eq!(cs.vector_to_column(), vec![0, 0, 1, 1, 1]);
    }

    #[test]
    fn parts_roundtrip() {
        let cs = set_with(2, &[&[&[0.0, 1.0]], &[&[2.0, 3.0]]]);
        let (store, cols) = (cs.store.clone(), cs.columns.clone());
        let back = ColumnSet::from_parts(store, cols).unwrap();
        assert_eq!(back, cs);
    }

    #[test]
    fn from_parts_rejects_gaps() {
        let cs = set_with(1, &[&[&[0.0]], &[&[1.0]]]);
        let (store, mut cols) = (cs.store, cs.columns);
        cols[1].start = 5;
        assert!(ColumnSet::from_parts(store, cols).is_err());
    }

    #[test]
    fn from_parts_rejects_uncovered_store() {
        let cs = set_with(1, &[&[&[0.0]], &[&[1.0]]]);
        let (store, mut cols) = (cs.store, cs.columns);
        cols.pop();
        assert!(ColumnSet::from_parts(store, cols).is_err());
    }

    #[test]
    fn dim_mismatch_propagates() {
        let mut cs = ColumnSet::new(3);
        let vecs: Vec<&[f32]> = vec![&[1.0, 2.0]];
        assert!(matches!(
            cs.add_column("t", "c", 0, vecs),
            Err(PexesoError::DimensionMismatch { .. })
        ));
    }
}

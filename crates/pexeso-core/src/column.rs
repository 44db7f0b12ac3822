//! Columns over the vector arena.
//!
//! The repository `R` is a [`ColumnSet`]: a [`VectorStore`] plus column
//! metadata. Each column owns a **contiguous** range of vector ids, enforced
//! by the builder API, which lets the inverted index address vectors with
//! plain `u32` offsets and makes `vector → column` resolution a flat lookup.

use crate::codec::MAX_NAME_BYTES;
use crate::error::{PexesoError, Result};
use crate::vector::{VectorId, VectorStore};

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
}

impl ColumnSet {
    /// Create an empty repository of the given dimensionality.
    pub fn new(dim: usize) -> Self {
        Self {
            store: VectorStore::new(dim),
            columns: Vec::new(),
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

    pub fn store(&self) -> &VectorStore {
        &self.store
    }

    /// Mutable access to the store, e.g. to normalise after bulk loading.
    pub fn store_mut(&mut self) -> &mut VectorStore {
        &mut self.store
    }

    /// Vector of a given id.
    #[inline]
    pub fn vector(&self, id: VectorId) -> &[f32] {
        self.store.get(id)
    }

    /// Build the flat `vector index → column index` map used by
    /// verification. O(|RV|) time and 4 bytes per vector.
    pub fn vector_to_column(&self) -> Vec<u32> {
        let mut map = vec![0u32; self.n_vectors()];
        for (ci, col) in self.columns.iter().enumerate() {
            for v in col.vector_range() {
                map[v as usize] = ci as u32;
            }
        }
        map
    }

    /// Reassemble from parts, validating range contiguity and bounds.
    pub fn from_parts(store: VectorStore, columns: Vec<ColumnMeta>) -> Result<Self> {
        let mut expected_start = 0u32;
        for c in &columns {
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
        if expected_start as usize != store.len() {
            return Err(PexesoError::Corrupt(format!(
                "columns cover {} vectors but store holds {}",
                expected_start,
                store.len()
            )));
        }
        Ok(Self { store, columns })
    }
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

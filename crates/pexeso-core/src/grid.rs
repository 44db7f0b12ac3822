//! Hierarchical grids over the pivot space (Section III-B).
//!
//! The pivot space `[0, span]^|P|` is cut into `2^(|P|·i)` cells at level
//! `i ∈ [1..m]`. Only non-empty cells are materialised. Cell identity is a
//! [`CellKey`]: one 8-bit slot per pivot dimension holding the cell's index
//! along that dimension at the key's level, packed into a `u128` (hence the
//! representation limits `|P| ≤ 16`, `m ≤ 8`). A parent key is obtained by
//! halving every slot, which is a two-instruction lane-wise shift.

use crate::config::{ExecPolicy, MAX_LEVELS, MAX_PIVOTS};
use crate::error::{PexesoError, Result};
use crate::exec;
use crate::mapping::MappedVectors;
use crate::util::FastMap;

/// Identity of a grid cell *at a given level* (the level is tracked by the
/// traversal, not stored in the key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(pub u128);

/// Lane mask clearing the high bit of every 8-bit slot, enabling the
/// lane-wise `idx >> 1` used to derive parent keys.
const LANE_LOW7: u128 = 0x7f7f_7f7f_7f7f_7f7f_7f7f_7f7f_7f7f_7f7f;

impl CellKey {
    /// Pack per-dimension cell indices (each < 256).
    pub fn pack(indices: &[u8]) -> Self {
        debug_assert!(indices.len() <= MAX_PIVOTS);
        let mut k = 0u128;
        for (i, &idx) in indices.iter().enumerate() {
            k |= (idx as u128) << (8 * i);
        }
        CellKey(k)
    }

    /// Unpack the first `n` per-dimension indices.
    pub fn unpack(self, n: usize) -> Vec<u8> {
        (0..n).map(|i| ((self.0 >> (8 * i)) & 0xff) as u8).collect()
    }

    /// Key of the parent cell (every dimension index halves).
    #[inline]
    pub fn parent(self) -> Self {
        CellKey((self.0 >> 1) & LANE_LOW7)
    }
}

/// Geometry of a grid: dimensionality of the pivot space, depth, and span.
#[derive(Debug, Clone, PartialEq)]
pub struct GridParams {
    pub num_pivots: usize,
    /// m: number of levels below the root.
    pub levels: usize,
    /// Upper bound of every pivot-space coordinate (max distance).
    pub span: f32,
}

/// Axis-aligned bounds of a cell in pivot space. Fixed-size arrays keep the
/// hot blocking loop allocation-free.
#[derive(Debug, Clone, Copy)]
pub struct CellBounds {
    pub lower: [f32; MAX_PIVOTS],
    pub upper: [f32; MAX_PIVOTS],
    pub n: usize,
}

impl GridParams {
    pub fn new(num_pivots: usize, levels: usize, span: f32) -> Result<Self> {
        if num_pivots == 0 || num_pivots > MAX_PIVOTS {
            return Err(PexesoError::InvalidParameter(format!(
                "num_pivots {num_pivots} outside 1..={MAX_PIVOTS}"
            )));
        }
        if levels == 0 || levels > MAX_LEVELS {
            return Err(PexesoError::InvalidParameter(format!(
                "levels {levels} outside 1..={MAX_LEVELS}"
            )));
        }
        if !(span.is_finite() && span > 0.0) {
            return Err(PexesoError::InvalidParameter(format!(
                "span {span} must be positive"
            )));
        }
        Ok(Self {
            num_pivots,
            levels,
            span,
        })
    }

    /// Edge length of a cell at `level`.
    #[inline]
    pub fn cell_width(&self, level: usize) -> f32 {
        self.span / (1u32 << level) as f32
    }

    /// Leaf-level key of a mapped vector. Coordinates are clamped into the
    /// span so boundary values (coord == span) land in the last cell.
    ///
    /// The saturating `as u8` truncates toward zero and sends NaN and
    /// everything below 1 to 0, so it equals `floor` then `clamp` for every
    /// input — without `floor`, a libm call on baseline x86-64.
    pub fn leaf_key(&self, mapped: &[f32]) -> CellKey {
        debug_assert_eq!(mapped.len(), self.num_pivots);
        let cells = (1u32 << self.levels) as f32;
        let last = ((1u32 << self.levels) - 1) as u8;
        let mut idx = [0u8; MAX_PIVOTS];
        for (i, &c) in mapped.iter().enumerate() {
            idx[i] = ((c / self.span * cells) as u8).min(last);
        }
        CellKey::pack(&idx[..self.num_pivots])
    }

    /// Bounds of the cell with `key` at `level`.
    pub fn bounds(&self, key: CellKey, level: usize) -> CellBounds {
        let w = self.cell_width(level);
        let mut b = CellBounds {
            lower: [0.0; MAX_PIVOTS],
            upper: [0.0; MAX_PIVOTS],
            n: self.num_pivots,
        };
        for i in 0..self.num_pivots {
            let idx = ((key.0 >> (8 * i)) & 0xff) as f32;
            b.lower[i] = idx * w;
            b.upper[i] = (idx + 1.0) * w;
        }
        b
    }
}

/// Leaf keys for every mapped vector, sharded across the policy's threads.
/// An index computes them once and builds both `HG_RV`
/// ([`HierarchicalGrid::from_leaf_keys`]) and the inverted index from them.
pub(crate) fn compute_leaf_keys(
    params: &GridParams,
    mapped: &MappedVectors,
    policy: ExecPolicy,
) -> Vec<CellKey> {
    let n = mapped.len();
    let mut keys = vec![CellKey(0); n];
    // Key packing costs only a few ns per vector, so a shard needs far
    // more slots than the default cut-off to amortise a thread spawn.
    exec::fill_slots_min(policy, &mut keys, 1, 1 << 17, |range, window| {
        for (slot, i) in range.enumerate() {
            window[slot] = params.leaf_key(mapped.get(i));
        }
    });
    keys
}

/// A sparse hierarchical grid, optionally holding the vector ids of each
/// leaf cell (needed for `HG_Q`; `HG_RV` keeps them in the inverted index).
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalGrid {
    params: GridParams,
    /// Keys of the non-empty level-1 cells, sorted.
    root_children: Vec<CellKey>,
    /// `children[l - 1]` maps a non-empty level-`l` cell to its non-empty
    /// level-`l+1` children (sorted), for `l ∈ [1, m-1]`.
    children: Vec<FastMap<CellKey, Vec<CellKey>>>,
    /// Vector ids per leaf cell (empty vectors when built keys-only).
    leaf_vectors: FastMap<CellKey, Vec<u32>>,
    with_vectors: bool,
}

impl HierarchicalGrid {
    /// Build from mapped vectors, storing per-leaf vector id lists.
    pub fn build(params: GridParams, mapped: &MappedVectors) -> Result<Self> {
        Self::build_inner(params, mapped, true, ExecPolicy::Sequential)
    }

    /// [`HierarchicalGrid::build`] with explicit parallelism (identical
    /// output for every policy).
    pub fn build_with(
        params: GridParams,
        mapped: &MappedVectors,
        policy: ExecPolicy,
    ) -> Result<Self> {
        Self::build_inner(params, mapped, true, policy)
    }

    /// Build from mapped vectors without retaining vector id lists
    /// (structure only, for `HG_RV` whose contents live in the inverted
    /// index).
    pub fn build_keys_only(params: GridParams, mapped: &MappedVectors) -> Result<Self> {
        Self::build_inner(params, mapped, false, ExecPolicy::Sequential)
    }

    fn build_inner(
        params: GridParams,
        mapped: &MappedVectors,
        with_vectors: bool,
        policy: ExecPolicy,
    ) -> Result<Self> {
        if mapped.num_pivots() != params.num_pivots {
            return Err(PexesoError::DimensionMismatch {
                expected: params.num_pivots,
                got: mapped.num_pivots(),
            });
        }
        let keys = compute_leaf_keys(&params, mapped, policy);
        Ok(Self::from_leaf_keys(params, &keys, with_vectors))
    }

    /// Build from the leaf key of every vector, in id order. Keys are
    /// aggregated into the sparse map in id order, as a sequential scan
    /// would, so the grid is the same whichever policy computed them.
    pub(crate) fn from_leaf_keys(params: GridParams, keys: &[CellKey], with_vectors: bool) -> Self {
        let mut leaf_vectors: FastMap<CellKey, Vec<u32>> = FastMap::default();
        for (i, &key) in keys.iter().enumerate() {
            let entry = leaf_vectors.entry(key).or_default();
            if with_vectors {
                entry.push(i as u32);
            }
        }

        // Derive upper levels bottom-up.
        let m = params.levels;
        let mut children: Vec<FastMap<CellKey, Vec<CellKey>>> = (0..m.saturating_sub(1))
            .map(|_| FastMap::default())
            .collect();
        let mut current: Vec<CellKey> = leaf_vectors.keys().copied().collect();
        current.sort_unstable();
        for l in (1..m).rev() {
            // `current` holds the keys at level l+1; group them by parent.
            let mut parents: FastMap<CellKey, Vec<CellKey>> = FastMap::default();
            for &k in &current {
                parents.entry(k.parent()).or_default().push(k);
            }
            for v in parents.values_mut() {
                v.sort_unstable();
            }
            current = parents.keys().copied().collect();
            current.sort_unstable();
            children[l - 1] = parents;
        }
        Self {
            params,
            root_children: current,
            children,
            leaf_vectors,
            with_vectors,
        }
    }

    pub fn params(&self) -> &GridParams {
        &self.params
    }

    /// Non-empty level-1 cells.
    pub fn root_children(&self) -> &[CellKey] {
        &self.root_children
    }

    /// Children of a non-empty cell at `level` (1-based). Empty slice if
    /// `level == m` (leaves have no children).
    pub fn children_of(&self, key: CellKey, level: usize) -> &[CellKey] {
        if level >= self.params.levels {
            return &[];
        }
        self.children[level - 1]
            .get(&key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Vector ids in a leaf cell.
    pub fn leaf_vectors(&self, key: CellKey) -> &[u32] {
        debug_assert!(self.with_vectors, "grid built keys-only");
        self.leaf_vectors
            .get(&key)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// All non-empty leaf keys (sorted copies for deterministic iteration).
    pub fn leaf_keys(&self) -> Vec<CellKey> {
        let mut keys: Vec<CellKey> = self.leaf_vectors.keys().copied().collect();
        keys.sort_unstable();
        keys
    }

    /// Total number of materialised cells over all levels: the level-1
    /// cells plus every child listed at deeper levels (which covers levels
    /// 2..m, leaves included).
    pub fn num_cells(&self) -> usize {
        let mut total = self.root_children.len();
        for level_map in &self.children {
            total += level_map.values().map(|v| v.len()).sum::<usize>();
        }
        total
    }

    /// Leaf keys under the subtree rooted at (`key`, `level`), appended to
    /// `out`.
    pub fn collect_leaves(&self, key: CellKey, level: usize, out: &mut Vec<CellKey>) {
        if level == self.params.levels {
            out.push(key);
            return;
        }
        for &child in self.children_of(key, level) {
            self.collect_leaves(child, level + 1, out);
        }
    }

    /// Vector ids under the subtree rooted at (`key`, `level`), appended to
    /// `out`. Requires a vectors-retaining grid.
    pub fn collect_vectors(&self, key: CellKey, level: usize, out: &mut Vec<u32>) {
        if level == self.params.levels {
            out.extend_from_slice(self.leaf_vectors(key));
            return;
        }
        for &child in self.children_of(key, level) {
            self.collect_vectors(child, level + 1, out);
        }
    }

    /// Estimated resident size in bytes (index-size experiments, Fig. 6b).
    pub fn approx_bytes(&self) -> usize {
        let key_sz = std::mem::size_of::<CellKey>();
        let mut total = self.root_children.len() * key_sz;
        for level in &self.children {
            total += level.len() * (key_sz + std::mem::size_of::<Vec<CellKey>>());
            total += level.values().map(|v| v.len() * key_sz).sum::<usize>();
        }
        total += self.leaf_vectors.len() * (key_sz + std::mem::size_of::<Vec<u32>>());
        total += self
            .leaf_vectors
            .values()
            .map(|v| v.len() * 4)
            .sum::<usize>();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mapped(coords: &[&[f32]]) -> MappedVectors {
        let k = coords[0].len();
        let flat: Vec<f32> = coords.iter().flat_map(|c| c.iter().copied()).collect();
        MappedVectors::from_raw(k, flat).unwrap()
    }

    #[test]
    fn key_pack_unpack_roundtrip() {
        let k = CellKey::pack(&[3, 7, 255, 0]);
        assert_eq!(k.unpack(4), vec![3, 7, 255, 0]);
    }

    #[test]
    fn parent_halves_every_lane() {
        let k = CellKey::pack(&[6, 7, 1, 255]);
        assert_eq!(k.parent().unpack(4), vec![3, 3, 0, 127]);
    }

    #[test]
    fn leaf_key_basic_geometry() {
        // span 4, m=2 -> leaf cells of width 1, indices 0..3.
        let p = GridParams::new(2, 2, 4.0).unwrap();
        assert_eq!(p.leaf_key(&[0.5, 3.5]).unpack(2), vec![0, 3]);
        assert_eq!(p.leaf_key(&[1.0, 1.999]).unpack(2), vec![1, 1]);
        // Boundary coordinate == span clamps into the last cell.
        assert_eq!(p.leaf_key(&[4.0, 0.0]).unpack(2), vec![3, 0]);
    }

    #[test]
    fn bounds_contain_their_vectors() {
        let p = GridParams::new(3, 4, 2.0).unwrap();
        let coords = [0.1f32, 1.7, 0.95];
        let key = p.leaf_key(&coords);
        let b = p.bounds(key, 4);
        for (i, &c) in coords.iter().enumerate() {
            assert!(b.lower[i] <= c + 1e-5 && c <= b.upper[i] + 1e-5);
        }
    }

    #[test]
    fn ancestor_bounds_nest() {
        let p = GridParams::new(2, 3, 8.0).unwrap();
        let leaf = p.leaf_key(&[5.3, 2.2]);
        let lb = p.bounds(leaf, 3);
        let pb = p.bounds(leaf.parent(), 2);
        let gb = p.bounds(leaf.parent().parent(), 1);
        for i in 0..2 {
            assert!(pb.lower[i] <= lb.lower[i] && lb.upper[i] <= pb.upper[i]);
            assert!(gb.lower[i] <= pb.lower[i] && pb.upper[i] <= gb.upper[i]);
        }
    }

    #[test]
    fn grid_matches_paper_example_shape() {
        // Fig. 3: 2-d pivot space, 2 levels; leaf cells 4x4.
        let p = GridParams::new(2, 2, 4.0).unwrap();
        let m = mapped(&[&[0.5, 0.5], &[0.6, 0.4], &[3.5, 3.5], &[2.5, 0.5]]);
        let g = HierarchicalGrid::build(p, &m).unwrap();
        assert_eq!(g.leaf_vectors.len(), 3, "two vectors share a leaf");
        assert_eq!(g.root_children().len(), 3);
        let mut total = 0;
        for &r in g.root_children() {
            for &c in g.children_of(r, 1) {
                total += g.leaf_vectors(c).len();
            }
        }
        assert_eq!(total, 4, "all vectors reachable through the tree");
    }

    #[test]
    fn collect_leaves_and_vectors() {
        let p = GridParams::new(1, 3, 8.0).unwrap();
        let m = mapped(&[&[0.5], &[1.5], &[2.5], &[7.5]]);
        let g = HierarchicalGrid::build(p, &m).unwrap();
        // Root child covering [0,4) should contain 3 leaves / 3 vectors.
        let low_root = g
            .root_children()
            .iter()
            .copied()
            .find(|k| k.unpack(1)[0] == 0)
            .unwrap();
        let mut leaves = Vec::new();
        g.collect_leaves(low_root, 1, &mut leaves);
        assert_eq!(leaves.len(), 3);
        let mut vecs = Vec::new();
        g.collect_vectors(low_root, 1, &mut vecs);
        vecs.sort_unstable();
        assert_eq!(vecs, vec![0, 1, 2]);
    }

    #[test]
    fn keys_only_grid_has_structure_but_no_vectors() {
        let p = GridParams::new(1, 2, 4.0).unwrap();
        let m = mapped(&[&[0.5], &[3.5]]);
        let g = HierarchicalGrid::build_keys_only(p, &m).unwrap();
        assert_eq!(g.leaf_vectors.len(), 2);
        assert_eq!(g.leaf_keys().len(), 2);
    }

    #[test]
    fn single_level_grid() {
        let p = GridParams::new(2, 1, 4.0).unwrap();
        let m = mapped(&[&[0.5, 0.5], &[3.5, 3.5]]);
        let g = HierarchicalGrid::build(p, &m).unwrap();
        assert_eq!(g.root_children().len(), 2);
        for &r in g.root_children() {
            assert!(g.children_of(r, 1).is_empty());
            assert!(!g.leaf_vectors(r).is_empty());
        }
    }

    #[test]
    fn pivot_count_mismatch_rejected() {
        let p = GridParams::new(3, 2, 4.0).unwrap();
        let m = mapped(&[&[0.5, 0.5]]);
        assert!(HierarchicalGrid::build(p, &m).is_err());
    }

    #[test]
    fn params_validation() {
        assert!(GridParams::new(0, 2, 1.0).is_err());
        assert!(GridParams::new(17, 2, 1.0).is_err());
        assert!(GridParams::new(2, 0, 1.0).is_err());
        assert!(GridParams::new(2, 9, 1.0).is_err());
        assert!(GridParams::new(2, 2, 0.0).is_err());
        assert!(GridParams::new(2, 2, f32::NAN).is_err());
    }

    #[test]
    fn negative_coordinates_clamp_to_first_cell() {
        // Mapped coordinates are distances (non-negative), but guard FP
        // noise anyway.
        let p = GridParams::new(1, 2, 4.0).unwrap();
        assert_eq!(p.leaf_key(&[-0.1]).unpack(1), vec![0]);
    }
}

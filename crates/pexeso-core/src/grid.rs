//! Hierarchical grids over the pivot space (Section III-B).
//!
//! The pivot space `[0, span]^|P|` is cut into `2^(|P|·m)` leaf cells, `2^m`
//! per pivot. Only non-empty leaves are materialised, and no level above
//! them is: blocking classifies every ⟨query vector, leaf⟩ pair directly
//! ([`crate::block`]), so the interior cells of the paper's tree would
//! only be walked, never needed.
//!
//! ## Key layout
//!
//! A leaf cell's identity is a [`CellKey`]: the cell's per-pivot indices
//! (`m` bits each) interleaved level by level, level-1 bits first (Morton
//! order). Bit `b` of pivot `i`'s index is key bit `b·|P| + i`, so the
//! key's top |P| bits are every pivot's level-1 bit, the next |P| its
//! level-2 bit, and so on; `|P|·m ≤ 16·8 = 128` bits fit a `u128`. The
//! level-`l` cell holding a leaf is the top `l·|P|` bits of the leaf's key
//! ([`GridParams::ancestor`]), a key of `l` levels in the same layout.
//!
//! A grid is its leaf keys in Morton order, which is what quick browsing's
//! merge walk over two grids needs and the inverted index's cell order: a
//! leaf's ordinal in the array is its cell ordinal (`HG_RV`'s leaves *are*
//! the inverted index's cells, [`crate::invindex`]), and the leaves of one
//! coarse cell, with their rows, lie next to each other. Beside each key
//! the grid keeps the leaf's per-pivot cell indices, |P| bytes, unpacked
//! once when the grid is built or loaded: blocking reads a leaf's bounds
//! from them.

use crate::config::{ExecPolicy, MAX_LEVELS, MAX_PIVOTS};
use crate::error::{PexesoError, Result};
use crate::exec;
use crate::mapping::MappedVectors;

/// `$f::<N>(args…)` for the runtime pivot count `$n`, `N` one of
/// 1..=[`MAX_PIVOTS`]: with `N` known at compile time, the loops over the
/// pivots (a key's indices, a row's coordinates) unroll.
macro_rules! by_pivots {
    ($n:expr, $f:ident($($arg:expr),* $(,)?)) => {
        by_pivots!(@arms $n, $f, ($($arg),*), 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16)
    };
    (@arms $n:expr, $f:ident, $args:tt, $($k:literal)*) => {
        match $n {
            $($k => by_pivots!(@call $f::<$k> $args),)*
            n => unreachable!("{n} pivots: at most MAX_PIVOTS"),
        }
    };
    (@call $f:ident::<$k:literal> ($($arg:expr),*)) => {
        $f::<$k>($($arg),*)
    };
}
pub(crate) use by_pivots;

/// Identity of a grid cell: its per-pivot indices interleaved level by
/// level (see the module header). The number of levels is tracked by the
/// caller, not stored in the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellKey(pub u128);

impl CellKey {
    /// Interleave per-pivot cell indices of `levels` levels (each below
    /// `2^levels`), level-1 bits first: bit `b` of index `i` becomes key
    /// bit `b·n + i`, `n = indices.len()` (1..=[`MAX_PIVOTS`]).
    pub fn pack(indices: &[u8], levels: usize) -> Self {
        debug_assert!(levels <= MAX_LEVELS);
        by_pivots!(indices.len(), interleave(indices, levels))
    }

    /// The `n` per-pivot indices of a key of `levels` levels (the rest 0).
    pub fn unpack(self, n: usize, levels: usize) -> [u8; MAX_PIVOTS] {
        let mut idx = [0u8; MAX_PIVOTS];
        for b in 0..levels {
            for (i, x) in idx[..n].iter_mut().enumerate() {
                *x |= (((self.0 >> (b * n + i)) & 1) as u8) << b;
            }
        }
        idx
    }
}

/// [`CellKey::pack`] of `N` indices: with `N` known at compile time the
/// loop over the pivots unrolls and the key shifts by a constant, which
/// keeps a leaf key as cheap as the byte-per-pivot packing it replaced
/// (on a 2-vCPU x86-64 VM, ≈ 20 ns per key for |P| = 3, m = 4 with the
/// cell-index division, against ≈ 45 ns over a runtime |P|).
fn interleave<const N: usize>(indices: &[u8], levels: usize) -> CellKey {
    let mut k = 0u128;
    for b in (0..levels).rev() {
        let mut group = 0u32;
        for (i, &idx) in indices[..N].iter().enumerate() {
            group |= ((idx as u32 >> b) & 1) << i;
        }
        k = k << N | group as u128;
    }
    CellKey(k)
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
        CellKey::pack(&idx[..self.num_pivots], self.levels)
    }

    /// Key of the level-`level` cell (`1..=m`) that holds leaf `leaf`: the
    /// leaf key's top `level·|P|` bits.
    #[inline]
    pub fn ancestor(&self, leaf: CellKey, level: usize) -> CellKey {
        CellKey(leaf.0 >> ((self.levels - level) * self.num_pivots))
    }

    /// Bounds of the cell with `key` at `level`.
    pub fn bounds(&self, key: CellKey, level: usize) -> CellBounds {
        let idx = key.unpack(self.num_pivots, level);
        let mut b = CellBounds {
            lower: [0.0; MAX_PIVOTS],
            upper: [0.0; MAX_PIVOTS],
            n: self.num_pivots,
        };
        for (i, &x) in idx[..self.num_pivots].iter().enumerate() {
            (b.lower[i], b.upper[i]) = self.axis_bounds(x, level);
        }
        b
    }

    /// The lower and upper edge, on any pivot's axis, of the level-`level`
    /// cells whose index on that axis is `idx`.
    #[inline]
    pub(crate) fn axis_bounds(&self, idx: u8, level: usize) -> (f32, f32) {
        let (w, idx) = (self.cell_width(level), idx as f32);
        (idx * w, (idx + 1.0) * w)
    }
}

/// Leaf keys for every mapped vector, sharded across the policy's threads.
/// An index computes them once and lays out the inverted index, `HG_RV`
/// included, from them.
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

/// The vectors with leaf `keys` (in id order), grouped by leaf: the sorted
/// distinct leaves, where each leaf's ids start (then the id count), and
/// the ids, leaf by leaf and ascending within a leaf.
pub(crate) fn group_by_leaf(keys: &[CellKey]) -> (Vec<CellKey>, Vec<u32>, Vec<u32>) {
    let ids = sorted_ids(keys);
    let (mut leaves, mut offsets) = (Vec::new(), Vec::new());
    for (at, &v) in ids.iter().enumerate() {
        let key = keys[v as usize];
        if leaves.last() != Some(&key) {
            leaves.push(key);
            offsets.push(at as u32);
        }
    }
    offsets.push(ids.len() as u32);
    (leaves, offsets, ids)
}

/// The ids `0..keys.len()` sorted by key, equal keys in id order: an LSD
/// radix sort over the key's bits up to the highest one set, in as few
/// stable counting passes of at most 16 bits as cover them. A key has
/// m·|P| bits (12 on the benchmark's lake), so this is one pass, ≈ 9 ns
/// per vector on 28.5k keys against ≈ 35 ns for a stable comparison sort.
fn sorted_ids(keys: &[CellKey]) -> Vec<u32> {
    let bits = 128 - keys.iter().fold(0u128, |all, k| all | k.0).leading_zeros();
    let mut ids: Vec<u32> = (0..keys.len() as u32).collect();
    if bits == 0 {
        return ids;
    }
    let passes = bits.div_ceil(16);
    let width = bits.div_ceil(passes);
    let mut sorted = vec![0u32; keys.len()];
    let mut next = vec![0usize; 1 << width];
    for pass in 0..passes {
        let digit = |v: u32| (keys[v as usize].0 >> (pass * width)) as usize & ((1 << width) - 1);
        next.fill(0);
        for &v in &ids {
            next[digit(v)] += 1;
        }
        let mut start = 0;
        for slot in &mut next {
            (*slot, start) = (start, start + *slot);
        }
        for &v in &ids {
            let d = digit(v);
            sorted[next[d]] = v;
            next[d] += 1;
        }
        std::mem::swap(&mut ids, &mut sorted);
    }
    ids
}

/// A sparse grid: its non-empty leaves, sorted (see the module header),
/// and each leaf's per-pivot cell indices. `HG_Q` also holds the vector
/// ids of each leaf; `HG_RV` keeps them in the inverted index.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchicalGrid {
    params: GridParams,
    /// Non-empty leaf keys, ascending; a leaf's position is its ordinal.
    leaves: Vec<CellKey>,
    /// Leaf `c`'s cell index on pivot `i` is `indices[c·|P| + i]`.
    indices: Vec<u8>,
    /// Leaf `c`'s vector ids are `ids[offsets[c]..offsets[c + 1]]`; both
    /// empty when built keys-only.
    offsets: Vec<u32>,
    ids: Vec<u32>,
}

impl HierarchicalGrid {
    /// Build from mapped vectors, storing per-leaf vector id lists.
    pub fn build(params: GridParams, mapped: &MappedVectors) -> Result<Self> {
        Self::build_inner(params, mapped, true)
    }

    /// Build from mapped vectors without retaining vector id lists: the
    /// leaves only, which is what `HG_RV` is (its vectors live in the
    /// inverted index, whose cells are these leaves).
    pub fn build_keys_only(params: GridParams, mapped: &MappedVectors) -> Result<Self> {
        Self::build_inner(params, mapped, false)
    }

    fn build_inner(params: GridParams, mapped: &MappedVectors, with_vectors: bool) -> Result<Self> {
        if mapped.num_pivots() != params.num_pivots {
            return Err(PexesoError::DimensionMismatch {
                expected: params.num_pivots,
                got: mapped.num_pivots(),
            });
        }
        let keys = compute_leaf_keys(&params, mapped, ExecPolicy::Sequential);
        let (leaves, offsets, ids) = group_by_leaf(&keys);
        let vectors = with_vectors.then_some((offsets, ids));
        Ok(Self::from_leaves(params, leaves, vectors))
    }

    /// The grid over sorted distinct `leaves`, with each leaf's vector ids
    /// as `(offsets, ids)` (see [`group_by_leaf`]) or keys only.
    pub(crate) fn from_leaves(
        params: GridParams,
        leaves: Vec<CellKey>,
        vectors: Option<(Vec<u32>, Vec<u32>)>,
    ) -> Self {
        debug_assert!(leaves.windows(2).all(|w| w[0] < w[1]));
        let n = params.num_pivots;
        let indices = leaves
            .iter()
            .flat_map(|key| key.unpack(n, params.levels).into_iter().take(n))
            .collect();
        let (offsets, ids) = vectors.unwrap_or_default();
        Self {
            params,
            leaves,
            indices,
            offsets,
            ids,
        }
    }

    pub fn params(&self) -> &GridParams {
        &self.params
    }

    /// Non-empty leaf keys, ascending: leaf `c` is `leaves()[c]`.
    pub fn leaves(&self) -> &[CellKey] {
        &self.leaves
    }

    /// Every leaf's per-pivot cell indices, leaf by leaf: leaf `c`'s are
    /// `leaf_indices()[c·|P|..(c + 1)·|P|]`, the indices its key packs.
    #[inline]
    pub(crate) fn leaf_indices(&self) -> &[u8] {
        &self.indices
    }

    /// Vector ids in leaf `c`, ascending. Requires a vectors-retaining
    /// grid.
    pub fn leaf_vectors(&self, c: u32) -> &[u32] {
        debug_assert!(!self.offsets.is_empty(), "grid built keys-only");
        &self.ids[self.offsets[c as usize] as usize..self.offsets[c as usize + 1] as usize]
    }

    /// Estimated resident size in bytes (index-size experiments, Fig. 6b):
    /// every key, index byte and word held.
    pub fn approx_bytes(&self) -> usize {
        self.leaves.len() * std::mem::size_of::<CellKey>()
            + self.indices.len()
            + (self.offsets.len() + self.ids.len()) * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The radix sort is the stable comparison sort, for keys of every
        /// width from 1 to 128 bits, drawn with duplicates.
        #[test]
        fn sorted_ids_equal_the_stable_comparison_sort(
            bits in 1u32..=128,
            words in collection::vec((0u64..u64::MAX, 0u64..u64::MAX), 1..40),
            picks in collection::vec(0usize..1000, 0..300),
        ) {
            let mask = u128::MAX >> (128 - bits);
            let pool: Vec<CellKey> = words
                .iter()
                .map(|&(hi, lo)| CellKey((((hi as u128) << 64) | lo as u128) & mask))
                .collect();
            let keys: Vec<CellKey> = picks.iter().map(|&i| pool[i % pool.len()]).collect();
            let mut expected: Vec<u32> = (0..keys.len() as u32).collect();
            expected.sort_by_key(|&v| keys[v as usize]);
            prop_assert_eq!(sorted_ids(&keys), expected);
        }
    }

    fn mapped(coords: &[&[f32]]) -> MappedVectors {
        let k = coords[0].len();
        let flat: Vec<f32> = coords.iter().flat_map(|c| c.iter().copied()).collect();
        MappedVectors::from_raw(k, flat).unwrap()
    }

    #[test]
    fn key_pack_unpack_roundtrip() {
        let k = CellKey::pack(&[3, 7, 255, 0], 8);
        assert_eq!(k.unpack(4, 8)[..4], [3, 7, 255, 0]);
        // Level-1 bits on top: pivot 2's index 255 has its level-1 bit set.
        assert_eq!(k.0 >> (7 * 4), 0b0100);
    }

    #[test]
    fn ancestor_keeps_the_top_levels() {
        let p = GridParams::new(4, 8, 1.0).unwrap();
        let leaf = CellKey::pack(&[6, 7, 1, 255], 8);
        assert_eq!(p.ancestor(leaf, 7).unpack(4, 7)[..4], [3, 3, 0, 127]);
        assert_eq!(p.ancestor(leaf, 1).unpack(4, 1)[..4], [0, 0, 0, 1]);
        assert_eq!(p.ancestor(leaf, 8), leaf);
    }

    #[test]
    fn leaf_key_basic_geometry() {
        // span 4, m=2 -> leaf cells of width 1, indices 0..3.
        let p = GridParams::new(2, 2, 4.0).unwrap();
        assert_eq!(p.leaf_key(&[0.5, 3.5]).unpack(2, 2)[..2], [0, 3]);
        assert_eq!(p.leaf_key(&[1.0, 1.999]).unpack(2, 2)[..2], [1, 1]);
        // Boundary coordinate == span clamps into the last cell.
        assert_eq!(p.leaf_key(&[4.0, 0.0]).unpack(2, 2)[..2], [3, 0]);
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
        let pb = p.bounds(p.ancestor(leaf, 2), 2);
        let gb = p.bounds(p.ancestor(leaf, 1), 1);
        for i in 0..2 {
            assert!(pb.lower[i] <= lb.lower[i] && lb.upper[i] <= pb.upper[i]);
            assert!(gb.lower[i] <= pb.lower[i] && pb.upper[i] <= gb.upper[i]);
        }
    }

    /// Every leaf's indices are the ones its key packs, every vector is in
    /// exactly one leaf, and the leaf's bounds hold it.
    fn check_leaves(g: &HierarchicalGrid, mapped: &MappedVectors) {
        let p = g.params();
        let n = p.num_pivots;
        assert_eq!(g.leaf_indices().len(), g.leaves().len() * n);
        let mut seen = vec![false; mapped.len()];
        for (c, key) in g.leaves().iter().enumerate() {
            let idx = &g.leaf_indices()[c * n..(c + 1) * n];
            assert_eq!(idx, &key.unpack(n, p.levels)[..n]);
            let b = p.bounds(*key, p.levels);
            for &v in g.leaf_vectors(c as u32) {
                assert!(!std::mem::replace(&mut seen[v as usize], true));
                assert_eq!(p.leaf_key(mapped.get(v as usize)), *key);
                for (i, &x) in mapped.get(v as usize).iter().enumerate() {
                    assert!(b.lower[i] <= x && (x < b.upper[i] || x == p.span));
                }
            }
        }
        assert!(seen.into_iter().all(|s| s), "a vector in no leaf");
    }

    #[test]
    fn grid_matches_paper_example_shape() {
        // Fig. 3: 2-d pivot space, 2 levels; leaf cells 4x4.
        let p = GridParams::new(2, 2, 4.0).unwrap();
        let m = mapped(&[&[0.5, 0.5], &[0.6, 0.4], &[3.5, 3.5], &[2.5, 0.5]]);
        let g = HierarchicalGrid::build(p, &m).unwrap();
        assert_eq!(g.leaves().len(), 3, "two vectors share a leaf");
        assert_eq!(g.leaf_indices(), &[0, 0, 2, 0, 3, 3]);
        assert_eq!(g.leaf_vectors(0), &[0, 1]);
        check_leaves(&g, &m);
    }

    #[test]
    fn a_subtree_is_a_range_of_leaves() {
        let p = GridParams::new(1, 3, 8.0).unwrap();
        let m = mapped(&[&[0.5], &[1.5], &[2.5], &[7.5]]);
        let g = HierarchicalGrid::build(p.clone(), &m).unwrap();
        // The level-1 cell covering [0,4) holds the first 3 leaves.
        let low: Vec<bool> = g
            .leaves()
            .iter()
            .map(|&k| p.ancestor(k, 1).0 == 0)
            .collect();
        assert_eq!(low, [true, true, true, false]);
        check_leaves(&g, &m);
    }

    #[test]
    fn random_grids_hold_every_vector_once() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        for (n, m) in [(1, 1), (3, 4), (5, 6), (16, 8), (2, 8)] {
            let p = GridParams::new(n, m, 2.0).unwrap();
            let flat: Vec<f32> = (0..200 * n).map(|_| rng.gen_range(0.0f32..2.0)).collect();
            let mapped = MappedVectors::from_raw(n, flat).unwrap();
            check_leaves(&HierarchicalGrid::build(p, &mapped).unwrap(), &mapped);
        }
    }

    #[test]
    fn keys_only_grid_has_structure_but_no_vectors() {
        let p = GridParams::new(1, 2, 4.0).unwrap();
        let m = mapped(&[&[0.5], &[3.5]]);
        let g = HierarchicalGrid::build_keys_only(p, &m).unwrap();
        assert_eq!(g.leaves().len(), 2);
        assert_eq!(g.leaf_indices(), &[0, 3]);
        assert!(g.ids.is_empty());
    }

    #[test]
    fn single_level_grid() {
        let p = GridParams::new(2, 1, 4.0).unwrap();
        let m = mapped(&[&[0.5, 0.5], &[3.5, 3.5]]);
        let g = HierarchicalGrid::build(p, &m).unwrap();
        assert_eq!(g.leaves().len(), 2);
        assert_eq!(g.leaf_indices(), &[0, 0, 1, 1]);
        check_leaves(&g, &m);
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
        assert_eq!(p.leaf_key(&[-0.1]).unpack(1, 2)[..1], [0]);
    }
}

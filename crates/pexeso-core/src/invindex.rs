//! Inverted index over leaf cells (Section III-C, Fig. 4), laid out cell
//! by cell.
//!
//! Keys are the non-empty leaf cells of `HG_RV`; each key holds a postings
//! list of the columns with at least one vector in that cell, **sorted by
//! column id** (the document-at-a-time access order). The index owns
//! `HG_RV`: a keys-only [`HierarchicalGrid`], whose sorted leaves are the
//! cells, so a cell's ordinal is its leaf ordinal (cells are numbered by
//! ascending key, which is Morton order, [`crate::grid`]). Blocking emits
//! ordinals, and no key is looked up.
//!
//! ## Cell-major rows
//!
//! Every repository vector is one **row**, and the rows are stored cell by
//! cell: a cell's rows are one contiguous range, grouped by column in
//! ascending order. Columns own contiguous, ascending vector-id ranges, so
//! within a cell the rows also ascend by vector id. Each row keeps its
//! column id and |P| coordinates side by side, in two parallel arrays, so
//! the candidate scan (`verify.rs`) reads a candidate cell's columns and
//! coordinates as contiguous runs instead of gathering them by vector id
//! across the whole partition. These arrays *are* the index's vector →
//! column map: nothing is held twice.
//!
//! The build returns the rows' order — each row's vector id — and keeps no
//! copy of it: a [`crate::search::PexesoIndex`] holds its vectors in that
//! order, each with its id ([`crate::column::ColumnSet::in_order`]), so
//! row `r`'s vector is the `r`-th of its column set and the scan reads a
//! cell's vectors in sequence too.
//!
//! A row's coordinates are its **apex** (below) when the index keeps apex
//! boxes, else its pivot coordinates. The pivot coordinates of an index
//! with apexes are not resident: what needs them again (an index file, a
//! new column) maps the vectors afresh, and the per-pivot spread the
//! introspection plane reports is taken at layout.
//!
//! The rows are the postings: cell `c`'s rows are
//! `cell_row[c]..cell_row[c + 1]` ([`InvertedIndex::cell`]), and its
//! postings list is the runs of equal column ids over them, one run per
//! column, ascending. Nothing lists the columns a second time.
//!
//! ## Apexes and apex boxes
//!
//! In a Euclidean space the distances of a vector to the |P| pivots fix
//! its **apex**: its position relative to the pivots' simplex, with a last
//! coordinate for its height above the pivots' span (Connor et al.,
//! "Supermetric search", *Information Systems* 80, 2019). The Euclidean
//! distance of two apexes is an exact lower bound on the distance of the
//! vectors, and a tighter one than any single pivot's (Lemma 1); with one
//! apex's height negated it is an upper bound, a tighter one than Lemma 2.
//! The index keeps one axis-aligned box around the apexes of each cell's
//! rows; when a query vector's apex lies beyond `τ` of a candidate cell's
//! box, no row of the cell can match it, and the scan never enters the
//! cell. Within a cell, the scan tests each row's own apex the same way
//! ([`crate::lemmas::simplex_filter`], [`crate::lemmas::simplex_match`]).
//!
//! Apexes are computed once, in `f64`, from the `f32` pivot coordinates
//! (at build and at load, in the one pass that also takes the boxes), and
//! stored as `f32`. The pivot coordinates carry rounding error. Each box is
//! widened by how far that error can move a row's apex — the
//! per-coordinate error Lemma 1's `EPS` covers, taken at the cell's
//! largest coordinates — and a query vector's apex is the interval its
//! own coordinates allow. The last coordinate is a square root, which
//! turns an error of `ε` near zero (a row on the pivots' span) into one of
//! `√ε`, so its bounds are widened under the root. Each cell also keeps one
//! number for its rows: how far any stored row apex can lie from the true
//! one, the same error plus the `f32` rounding of the stored apex, with the
//! height's share taken at the cell's least squared height (the root
//! moves most there). A metric without [`Metric::simplex_projection`], or
//! pivots that are (nearly) affinely dependent, get no apexes: the rows
//! keep their pivot coordinates, and nothing is excluded.

use std::ops::Range;

use crate::config::{ExecPolicy, MAX_PIVOTS};
use crate::error::{PexesoError, Result};
use crate::grid::{by_pivots, compute_leaf_keys, group_by_leaf, GridParams, HierarchicalGrid};
use crate::inspect::PivotSpread;
use crate::kernel::{round_down, round_up};
use crate::lemmas::EPS;
use crate::mapping::MappedVectors;
use crate::metric::Metric;

/// The index's rows, cell by cell: entry `r` of each array describes row
/// `r`. The rows' vectors are an index's vectors: a
/// [`crate::search::PexesoIndex`] holds its [`crate::column::ColumnSet`]
/// in row order, with each row's vector id.
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    /// Column id of each row.
    pub col: &'a [u32],
    /// |P| coordinates of each row: its apex — the |P| − 1 base
    /// coordinates, then the height — when the index keeps apex boxes
    /// ([`InvertedIndex::apex`] is `Some`), else its pivot coordinates.
    pub coords: &'a MappedVectors,
}

/// The inverted index: leaf cell → column postings, over cell-major rows.
#[derive(Debug, Clone, PartialEq)]
pub struct InvertedIndex {
    /// `HG_RV`, keys only: leaf `c` is cell `c`.
    grid: HierarchicalGrid,
    /// Per cell, its first row; one sentinel (the row count).
    cell_row: Vec<u32>,
    row_col: Vec<u32>,
    /// Per row, its apex or its pivot coordinates (see [`Rows::coords`]).
    row_coords: MappedVectors,
    apex: Option<ApexBoxes>,
    /// Per pivot, the spread of the pivot coordinates, taken at layout.
    spread: Vec<PivotSpread>,
}

impl InvertedIndex {
    /// Build from the mapped repository vectors (in vector-id order) and
    /// the flat vector→column map, which must be non-decreasing (columns
    /// own contiguous, ascending vector-id ranges; anything else is
    /// [`PexesoError::InvalidParameter`]). With a simplex `base` (see
    /// [`SimplexBase::of`]) every row holds its apex and every cell gets
    /// its apex box. Returns the index and each row's vector id, the order
    /// to hold the vectors in ([`crate::column::ColumnSet::in_order`]):
    /// the index keeps no copy of it.
    pub fn build(
        params: &GridParams,
        mapped: &MappedVectors,
        vec_col: &[u32],
        base: Option<SimplexBase>,
    ) -> Result<(Self, Vec<u32>)> {
        Self::build_with(params, mapped, vec_col, base, ExecPolicy::Sequential)
    }

    /// [`InvertedIndex::build`], the leaf keys computed under `policy`.
    /// Cells are numbered by ascending key and their rows placed in id
    /// order, so the arrays are the same for every policy.
    pub(crate) fn build_with(
        params: &GridParams,
        mapped: &MappedVectors,
        vec_col: &[u32],
        base: Option<SimplexBase>,
        policy: ExecPolicy,
    ) -> Result<(Self, Vec<u32>)> {
        if mapped.num_pivots() != params.num_pivots {
            return Err(PexesoError::DimensionMismatch {
                expected: params.num_pivots,
                got: mapped.num_pivots(),
            });
        }
        let n = mapped.len();
        if vec_col.len() != n {
            return Err(PexesoError::Corrupt(format!(
                "{n} mapped vectors but vec_col has {}",
                vec_col.len()
            )));
        }
        // Every reader of a cell's columns relies on their runs ascending.
        if let Some(at) = vec_col.windows(2).position(|w| w[0] > w[1]) {
            return Err(PexesoError::InvalidParameter(format!(
                "the vector → column map must be non-decreasing: vector {} is in column {} after column {}",
                at + 1,
                vec_col[at + 1],
                vec_col[at]
            )));
        }
        // The vectors grouped by leaf are the rows: cell `c`'s are
        // `cell_row[c]..cell_row[c + 1]`, in id order.
        let keys = compute_leaf_keys(params, mapped, policy);
        let (leaves, cell_row, row_vid) = group_by_leaf(&keys);
        let k = mapped.num_pivots();
        let spread = PivotSpread::of(mapped.iter(), k);
        let row_col: Vec<u32> = row_vid.iter().map(|&v| vec_col[v as usize]).collect();
        let mut coords = Vec::with_capacity(n * k);
        for &v in &row_vid {
            coords.extend_from_slice(mapped.get(v as usize));
        }
        let apex = base
            .filter(|b| b.n == k)
            .map(|base| ApexBoxes::build(base, &mut coords, &cell_row));
        let inv = Self {
            grid: HierarchicalGrid::from_leaves(params.clone(), leaves, None),
            cell_row,
            row_col,
            row_coords: MappedVectors::from_raw(k, coords)?,
            apex,
            spread,
        };
        Ok((inv, row_vid))
    }

    /// `HG_RV`: the cells' keys, ascending, and their per-pivot indices.
    #[inline]
    pub fn grid(&self) -> &HierarchicalGrid {
        &self.grid
    }

    /// The rows of the cell with ordinal `c`: its postings are the runs of
    /// equal `rows().col` over them, ascending.
    #[inline]
    pub fn cell(&self, c: u32) -> Range<usize> {
        self.cell_row[c as usize] as usize..self.cell_row[c as usize + 1] as usize
    }

    /// Number of non-empty leaf cells.
    pub fn num_cells(&self) -> usize {
        self.grid.leaves().len()
    }

    /// The rows, cell by cell.
    #[inline]
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            col: &self.row_col,
            coords: &self.row_coords,
        }
    }

    /// Per pivot, the spread of the repository's pivot coordinates, taken
    /// when the rows were laid out.
    pub fn pivot_spread(&self) -> &[PivotSpread] {
        &self.spread
    }

    /// The cells' apex boxes, when the metric and the pivots allow them.
    #[inline]
    pub fn apex(&self) -> Option<&ApexBoxes> {
        self.apex.as_ref()
    }

    /// Resident size in bytes (Fig. 6b index-size accounting): every array
    /// element held — `HG_RV`'s keys, each cell's first row, the rows'
    /// columns and coordinates, the apex boxes and the pivot spread
    /// included.
    pub fn approx_bytes(&self) -> usize {
        let words = self.cell_row.len()
            + self.row_col.len()
            + self.row_coords.raw_data().len()
            + self.spread.len() * 3;
        self.grid.approx_bytes() + words * 4 + self.apex.as_ref().map_or(0, ApexBoxes::approx_bytes)
    }
}

/// Error allowed for each stored pivot coordinate: the rounding Lemma 1's
/// `EPS` covers.
const COORD_ERR: f64 = EPS as f64;
/// Pivots whose simplex has an altitude below this share of their largest
/// distance are treated as affinely dependent: the apex coordinates would
/// amplify every error by its inverse.
const MIN_ALTITUDE: f64 = 1e-3;
/// Added to every interval end for the `f64` arithmetic itself.
const F64_SLOP: f64 = 1e-12;
/// Relative error of rounding an `f64` to the nearest `f32` (one unit
/// in the last place, twice the least bound).
const F32_ROUNDING: f64 = f32::EPSILON as f64;

/// The n-simplex the pivots span, reduced to what apexes need: each of the
/// first `n − 1` apex coordinates is an affine function of the squared
/// distances to the pivots, `a_j = offset[j] + Σ_k coef[j][k] · d_k²`
/// (the last is the height `√(d₀² − Σ a_j²)`).
#[derive(Debug, Clone, PartialEq)]
pub struct SimplexBase {
    /// Number of pivots.
    n: usize,
    /// `coef[j * n + k]`, row `j < n − 1`.
    coef: Vec<f64>,
    offset: Vec<f64>,
}

impl SimplexBase {
    /// The base over `pivots`, when the metric has the n-simplex
    /// projection and the pivots are affinely independent.
    ///
    /// Vertex `i` of the simplex has `i` coordinates: those of pivot `i`
    /// relative to the vertices before it, the last its altitude over
    /// them. A point's coordinate `j` follows from its distances to
    /// vertices 0 and `j + 1`:
    /// `a_j = ((d₀² + ‖v_{j+1}‖² − d_{j+1}²) / 2 − Σ_{l<j} a_l · v_{j+1}[l]) / v_{j+1}[j]`,
    /// which the same recurrence, run on coefficient vectors, turns into
    /// the affine form.
    pub fn of<M: Metric>(pivots: &[Vec<f32>], metric: &M) -> Option<Self> {
        let n = pivots.len();
        if !metric.simplex_projection() || n == 0 || n > MAX_PIVOTS {
            return None;
        }
        let sq = |i: usize, j: usize| -> f64 {
            let (a, b) = (&pivots[i], &pivots[j]);
            a.iter()
                .zip(b)
                .map(|(&x, &y)| (x as f64 - y as f64).powi(2))
                .sum()
        };
        let widest = (0..n)
            .flat_map(|i| (0..i).map(move |j| (i, j)))
            .map(|(i, j)| sq(i, j).sqrt())
            .fold(0.0f64, f64::max);
        // Row j: coordinate j as coefficients of d₀²..d_{n−1}², then the
        // constant.
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n.saturating_sub(1));
        for i in 1..n {
            let v: Vec<f64> = (0..i - 1)
                .map(|j| {
                    let row = &rows[j];
                    row[n] + (0..i).map(|k| row[k] * sq(i, k)).sum::<f64>()
                })
                .collect();
            let h = (sq(i, 0) - v.iter().map(|x| x * x).sum::<f64>())
                .max(0.0)
                .sqrt();
            // A NaN altitude (a NaN pivot coordinate) is degenerate too.
            if h.is_nan() || h <= MIN_ALTITUDE * widest {
                return None;
            }
            let mut row = vec![0.0f64; n + 1];
            (row[0], row[i], row[n]) = (0.5, -0.5, sq(i, 0) / 2.0);
            for (l, prev) in rows.iter().enumerate() {
                for (r, p) in row.iter_mut().zip(prev) {
                    *r -= p * v[l];
                }
            }
            row.iter_mut().for_each(|r| *r /= h);
            rows.push(row);
        }
        Some(Self {
            n,
            coef: rows
                .iter()
                .flat_map(|row| row[..n].iter().copied())
                .collect(),
            offset: rows.iter().map(|row| row[n]).collect(),
        })
    }

    /// The first `n − 1` apex coordinates of a point with squared pivot
    /// distances `sq`, into `a`.
    #[inline]
    fn linear(&self, sq: &[f64], a: &mut [f64]) {
        let n = self.n;
        for (j, (a, coef)) in a.iter_mut().zip(self.coef.chunks_exact(n)).enumerate() {
            *a = self.offset[j] + coef.iter().zip(sq).map(|(c, s)| c * s).sum::<f64>();
        }
    }

    /// `e_j = Σ_k |coef[j][k]| · err[k]`: how far linear apex coordinate
    /// `j` can move when the squared distance to pivot `k` is off by at
    /// most `err[k]`, into `out`.
    #[inline]
    fn widening(&self, err: &[f64], out: &mut [f64]) {
        for (e, coef) in out.iter_mut().zip(self.coef.chunks_exact(self.n)) {
            *e = coef.iter().zip(err).map(|(c, e)| c.abs() * e).sum::<f64>() + F64_SLOP;
        }
    }

    /// The apex of a vector whose stored pivot coordinates are `mapped`,
    /// each within [`COORD_ERR`] of the true distance, as the box that
    /// holds the true apex.
    fn apex(&self, mapped: &[f32]) -> Apex {
        let n = self.n;
        debug_assert_eq!(mapped.len(), n);
        let (mut sq, mut err) = ([0.0f64; MAX_PIVOTS], [0.0f64; MAX_PIVOTS]);
        for (k, &d) in mapped.iter().enumerate() {
            (sq[k], err[k]) = (d as f64 * d as f64, sq_err(d as f64));
        }
        let (mut linear, mut e) = ([0.0f64; MAX_PIVOTS], [0.0f64; MAX_PIVOTS]);
        self.linear(&sq[..n], &mut linear[..n - 1]);
        self.widening(&err[..n], &mut e[..n - 1]);
        let mut out = Apex {
            lo: [0.0; MAX_PIVOTS],
            hi: [0.0; MAX_PIVOTS],
        };
        let (mut least, mut most) = (0.0f64, 0.0f64);
        for j in 0..n - 1 {
            let (l, h) = (linear[j] - e[j], linear[j] + e[j]);
            least += if l <= 0.0 && h >= 0.0 {
                0.0
            } else {
                (l * l).min(h * h)
            };
            most += (l * l).max(h * h);
            (out.lo[j], out.hi[j]) = (l, h);
        }
        // Height over the pivots' span: √(d₀² − Σ aⱼ²), as an interval.
        out.lo[n - 1] = (sq[0] - err[0] - most - F64_SLOP).max(0.0).sqrt();
        out.hi[n - 1] = (sq[0] + err[0] - least + F64_SLOP).max(0.0).sqrt();
        out
    }
}

/// Bound on `|d² − d*²|` for a stored coordinate `d` within [`COORD_ERR`]
/// of the true distance `d*`.
#[inline]
fn sq_err(d: f64) -> f64 {
    COORD_ERR * (2.0 * d.abs() + COORD_ERR)
}

/// A vector's apex, one interval per coordinate.
#[derive(Debug, Clone, Copy)]
pub struct Apex {
    pub(crate) lo: [f64; MAX_PIVOTS],
    pub(crate) hi: [f64; MAX_PIVOTS],
}

impl Apex {
    /// The squared distance, in `f64`, from the interval to the stored
    /// apex `x` (as many coordinates as the apex has): what the exact
    /// n-simplex bound ([`crate::lemmas::simplex_filter`]) compares. A NaN
    /// coordinate's gap counts as 0. The gaps are selects, not `f64::max`,
    /// which would spend instructions on NaN operands.
    #[inline]
    pub fn gap2(&self, x: &[f32]) -> f64 {
        let mut gap2 = 0.0f64;
        for ((&lo, &hi), &x) in self.lo.iter().zip(&self.hi).zip(x) {
            let (below, above) = (lo - x as f64, x as f64 - hi);
            let gap = if below > above { below } else { above };
            let gap = if gap > 0.0 { gap } else { 0.0 };
            gap2 += gap * gap;
        }
        gap2
    }
}

/// One axis-aligned box per cell around its rows' apexes, and one bound
/// per cell on the error of its rows' stored apexes (see the module
/// header).
#[derive(Debug, Clone, PartialEq)]
pub struct ApexBoxes {
    base: SimplexBase,
    /// Per cell, |P| lower then |P| upper bounds, rounded outwards to
    /// `f32`.
    bounds: Vec<f32>,
    /// Per cell, how far the stored apex of any of its rows can lie from
    /// the row's true apex (Euclidean norm), rounded up to `f32`.
    slack: Vec<f32>,
}

impl ApexBoxes {
    /// Boxes over the cells whose rows are `cell_row[c]..cell_row[c + 1]`,
    /// computed from the rows' pivot coordinates in `coords`, which are
    /// left holding the rows' apexes. Each row contributes its computed
    /// apex; the cell's box is then widened once for the error any of its
    /// rows' coordinates can carry, taken at the cell's largest
    /// coordinates. The linear coordinates move by at most `E_j`, so a
    /// row's squared height `r = d₀² − Σ aⱼ²` moves by at most
    /// `R = err(d₀) + Σ (2·|aⱼ| + E_j)·E_j`, and the height's bounds are
    /// the roots of the cell's least and greatest `r` widened by `R` (the
    /// root is monotone).
    ///
    /// The cell's slack: a stored linear coordinate is off by at most `E_j`
    /// plus its `f32` rounding. The stored height `√max(r, 0)` is off from
    /// the true one by at most `R / (√(r + R) + √r)` above and
    /// `R / (√r + √(r − R))` below; both shrink as `r` grows, so the cell's
    /// least `r` (taken as at least 0 above and at least `R` below, where
    /// each is `√R`) bounds every row's.
    fn build(base: SimplexBase, coords: &mut [f32], cell_row: &[u32]) -> Self {
        let n = base.n;
        let n_cells = cell_row.len() - 1;
        let mut bounds = Vec::with_capacity(n_cells * 2 * n);
        let mut slack = Vec::with_capacity(n_cells);
        for cell in cell_row.windows(2) {
            let rows = &mut coords[cell[0] as usize * n..cell[1] as usize * n];
            let Extent {
                mut lo,
                mut hi,
                far,
            } = by_pivots!(n, cell_extent(&base, rows));
            let (mut err, mut e) = ([0.0f64; MAX_PIVOTS], [0.0f64; MAX_PIVOTS]);
            for k in 0..n {
                err[k] = sq_err(far[k]);
            }
            base.widening(&err[..n], &mut e[..n - 1]);
            let mut reach = err[0] + F64_SLOP;
            let mut row_err2 = 0.0f64;
            for j in 0..n - 1 {
                let most = lo[j].abs().max(hi[j].abs());
                reach += (2.0 * most + e[j]) * e[j];
                row_err2 += (e[j] + most * F32_ROUNDING).powi(2);
                lo[j] -= e[j];
                hi[j] += e[j];
            }
            let (least, most) = (lo[n - 1], hi[n - 1]);
            let (r0, r1) = (least.max(0.0), least.max(reach));
            let above = reach / ((r0 + reach).sqrt() + r0.sqrt());
            let below = reach / (r1.sqrt() + (r1 - reach).sqrt());
            let height_err = above.max(below) + most.max(0.0).sqrt() * F32_ROUNDING + F64_SLOP;
            slack.push(round_up((row_err2 + height_err * height_err).sqrt()));
            lo[n - 1] = (least - reach).max(0.0).sqrt();
            hi[n - 1] = (most + reach).max(0.0).sqrt();
            bounds.extend(lo[..n].iter().map(|&x| round_down(x)));
            bounds.extend(hi[..n].iter().map(|&x| round_up(x)));
        }
        Self {
            base,
            bounds,
            slack,
        }
    }

    /// The apex of a query vector with pivot coordinates `mapped`.
    pub fn query(&self, mapped: &[f32]) -> Apex {
        self.base.apex(mapped)
    }

    /// Whether the box of cell `c` lies beyond `tau` of `q`: then no row of
    /// the cell is within `tau` of the query vector (`EPS` covers the
    /// rounding of the exact distance test).
    #[inline]
    pub fn excludes(&self, c: u32, q: &Apex, tau: f32) -> bool {
        let n = self.base.n;
        let b = &self.bounds[c as usize * 2 * n..(c as usize + 1) * 2 * n];
        let mut gap2 = 0.0f64;
        for j in 0..n {
            let gap = (q.lo[j] - b[n + j] as f64)
                .max(b[j] as f64 - q.hi[j])
                .max(0.0);
            gap2 += gap * gap;
        }
        let reach = tau as f64 + EPS as f64;
        gap2 > reach * reach
    }

    /// The squared distances the row bounds of [`crate::lemmas`] compare
    /// with for the rows of cell `c` at `tau`, widened by the cell's slack
    /// and by `EPS` (the rounding of the exact distance test): a row whose
    /// apex lies farther than the first from a query vector's apex is
    /// beyond `tau` ([`crate::lemmas::simplex_filter`]), and one whose
    /// reflected apex lies within the second is within it
    /// ([`crate::lemmas::simplex_match`]; negative when nothing is).
    #[inline]
    pub fn row_reach(&self, c: u32, tau: f32) -> (f64, f64) {
        let slack = self.slack[c as usize] as f64;
        let beyond = tau as f64 + EPS as f64 + slack;
        let within = tau as f64 - EPS as f64 - slack;
        let within2 = if within >= 0.0 { within * within } else { -1.0 };
        (beyond * beyond, within2)
    }

    fn approx_bytes(&self) -> usize {
        (self.bounds.len() + self.slack.len()) * 4
            + (self.base.coef.len() + self.base.offset.len()) * 8
    }
}

/// The least and greatest computed apex coordinates of a cell's rows (for
/// the last, the squared height), and their largest pivot coordinates.
struct Extent {
    lo: [f64; MAX_PIVOTS],
    hi: [f64; MAX_PIVOTS],
    far: [f64; MAX_PIVOTS],
}

/// The [`Extent`] of `coords`, rows of `N` pivot coordinates, each
/// overwritten with its apex: the `N − 1` linear coordinates and the
/// height `√max(r, 0)`, rounded to `f32`. With `N` known at compile time
/// the per-row loops unroll: on 53 k clustered rows of 3 pivots this took
/// 0.55 ms, against 1.5 ms for the same loops over a runtime |P|.
fn cell_extent<const N: usize>(base: &SimplexBase, coords: &mut [f32]) -> Extent {
    let (mut coef, mut offset) = ([[0.0f64; N]; N], [0.0f64; N]);
    for j in 0..N - 1 {
        coef[j].copy_from_slice(&base.coef[j * N..(j + 1) * N]);
        offset[j] = base.offset[j];
    }
    let mut out = Extent {
        lo: [f64::INFINITY; MAX_PIVOTS],
        hi: [f64::NEG_INFINITY; MAX_PIVOTS],
        far: [0.0; MAX_PIVOTS],
    };
    for row in coords.chunks_exact_mut(N) {
        let mut sq = [0.0f64; N];
        for k in 0..N {
            let d = row[k] as f64;
            sq[k] = d * d;
            out.far[k] = out.far[k].max(d.abs());
        }
        let mut height = sq[0];
        for j in 0..N - 1 {
            let mut a = offset[j];
            for k in 0..N {
                a += coef[j][k] * sq[k];
            }
            height -= a * a;
            out.lo[j] = out.lo[j].min(a);
            out.hi[j] = out.hi[j].max(a);
            row[j] = a as f32;
        }
        out.lo[N - 1] = out.lo[N - 1].min(height);
        out.hi[N - 1] = out.hi[N - 1].max(height);
        row[N - 1] = height.max(0.0).sqrt() as f32;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::ColumnSet;
    use crate::config::IndexOptions;
    use crate::grid::CellKey;
    use crate::metric::{Euclidean, Manhattan};
    use crate::persist::{load_index, save_index};
    use crate::search::PexesoIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mapped_from(coords: &[&[f32]]) -> MappedVectors {
        let k = coords[0].len();
        let flat: Vec<f32> = coords.iter().flat_map(|c| c.iter().copied()).collect();
        MappedVectors::from_raw(k, flat).unwrap()
    }

    /// The postings of the cell with leaf `key`, if it is non-empty: the
    /// runs of equal columns over its rows, each column with its rows'
    /// vector ids (`vids`, per row).
    fn postings(inv: &InvertedIndex, vids: &[u32], key: CellKey) -> Option<Vec<(u32, Vec<u32>)>> {
        let c = inv.grid().leaves().binary_search(&key).ok()?;
        let rows = inv.rows();
        let mut runs: Vec<(u32, Vec<u32>)> = Vec::new();
        for r in inv.cell(c as u32) {
            match runs.last_mut() {
                Some((col, ids)) if *col == rows.col[r] => ids.push(vids[r]),
                _ => runs.push((rows.col[r], vec![vids[r]])),
            }
        }
        Some(runs)
    }

    /// Every vector of `vec_col` (by id) is exactly one row of `vids` (per
    /// row, its vector id), with its own column; the cells' rows follow
    /// each other, none empty; and within a cell the columns run ascending
    /// (`row_col` non-decreasing) and vector ids ascend within a column's
    /// run — what every reader of a cell's postings relies on.
    fn assert_rows_grouped(inv: &InvertedIndex, vids: &[u32], vec_col: &[u32]) {
        let rows = inv.rows();
        assert_eq!(vids.len(), vec_col.len());
        assert_eq!(rows.col.len(), vec_col.len());
        let mut seen = vec![false; vec_col.len()];
        for (r, &v) in vids.iter().enumerate() {
            assert!(!std::mem::replace(&mut seen[v as usize], true), "row {r}");
            assert_eq!(rows.col[r], vec_col[v as usize], "row {r}");
        }
        let mut next = 0;
        for c in 0..inv.num_cells() as u32 {
            let cell = inv.cell(c);
            assert!(cell.start == next && !cell.is_empty(), "cell {c}: {cell:?}");
            next = cell.end;
            for r in cell.start + 1..cell.end {
                let (before, col) = (rows.col[r - 1], rows.col[r]);
                assert!(before <= col, "cell {c}: column {before} before {col}");
                assert!(
                    before < col || vids[r - 1] < vids[r],
                    "cell {c}, column {col}: ids out of order"
                );
            }
        }
        assert_eq!(next, vec_col.len());
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
        let (inv, vids) = InvertedIndex::build(&params, &mapped, &vec_col, None).unwrap();
        assert_eq!(inv.num_cells(), 4);

        let cell0 = params.leaf_key(&[0.5]);
        let p = postings(&inv, &vids, cell0).unwrap();
        assert_eq!(p, [(0, vec![0, 1]), (1, vec![3])]);

        let cell1 = params.leaf_key(&[1.5]);
        let p1 = postings(&inv, &vids, cell1).unwrap();
        assert_eq!(p1, [(1, vec![2]), (3, vec![6])]);
        // Cells are numbered by ascending key, rows laid out cell by cell.
        assert_eq!(vids, &[0, 1, 3, 2, 6, 4, 5, 7]);
        assert_eq!(inv.rows().col, &[0, 0, 1, 1, 3, 2, 2, 3]);
    }

    #[test]
    fn missing_cell_is_none() {
        let params = GridParams::new(1, 2, 4.0).unwrap();
        let mapped = mapped_from(&[&[0.5]]);
        let (inv, vids) = InvertedIndex::build(&params, &mapped, &[0], None).unwrap();
        assert!(postings(&inv, &vids, params.leaf_key(&[3.5])).is_none());
        assert!(postings(&inv, &vids, params.leaf_key(&[0.5])).is_some());
    }

    #[test]
    fn length_mismatch_rejected() {
        let params = GridParams::new(1, 2, 4.0).unwrap();
        let mapped = mapped_from(&[&[0.5], &[1.5]]);
        assert!(InvertedIndex::build(&params, &mapped, &[0], None).is_err());
    }

    /// A vector → column map that is not non-decreasing is refused: every
    /// reader of a cell's postings binary-searches its columns.
    #[test]
    fn unsorted_columns_are_refused() {
        let params = GridParams::new(1, 2, 4.0).unwrap();
        let mapped = mapped_from(&[&[0.5], &[0.6], &[3.5]]);
        let err = InvertedIndex::build(&params, &mapped, &[0, 1, 0], None).unwrap_err();
        assert!(matches!(err, PexesoError::InvalidParameter(_)), "{err}");
        assert!(InvertedIndex::build(&params, &mapped, &[0, 1, 1], None).is_ok());
    }

    /// Every vector is exactly one row, with its own column and pivot
    /// coordinates, and each cell's rows run column by column: for a
    /// built index, a loaded one (apex rows) and after `append_column`.
    #[test]
    fn rows_are_a_permutation_of_the_vectors() {
        let mut rng = StdRng::seed_from_u64(3);
        let params = GridParams::new(2, 3, 2.0).unwrap();
        let n = 300;
        let coords: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(0.0f32..2.0)).collect();
        let mapped = MappedVectors::from_raw(2, coords).unwrap();
        let vec_col: Vec<u32> = (0..n as u32).map(|v| v / 7).collect();
        let (inv, vids) = InvertedIndex::build(&params, &mapped, &vec_col, None).unwrap();
        assert_rows_grouped(&inv, &vids, &vec_col);
        let rows = inv.rows();
        for (r, &v) in vids.iter().enumerate() {
            assert_eq!(rows.coords.get(r), mapped.get(v as usize));
        }
        assert_eq!(inv.pivot_spread(), PivotSpread::of(mapped.iter(), 2));
        for (c, &key) in inv.grid().leaves().iter().enumerate() {
            for r in inv.cell(c as u32) {
                assert_eq!(params.leaf_key(rows.coords.get(r)), key);
            }
        }

        let mut columns = ColumnSet::new(8);
        for c in 0..12 {
            let vecs: Vec<Vec<f32>> = (0..5 + c % 4).map(|_| unit(&mut rng, 8)).collect();
            let refs: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
            columns
                .add_column("t", &format!("c{c}"), c as u64, refs)
                .unwrap();
        }
        let mut index = PexesoIndex::build(columns, Euclidean, IndexOptions::default()).unwrap();
        let path =
            std::env::temp_dir().join(format!("pexeso_invindex_rows_{}.pex", std::process::id()));
        save_index(&index, &path).unwrap();
        let loaded = load_index(&path, Euclidean).unwrap();
        std::fs::remove_file(&path).ok();
        let grouped = |index: &PexesoIndex<Euclidean>| {
            let columns = index.columns();
            let vids = columns
                .vector_ids()
                .expect("an index holds its rows' order");
            let by_id = columns.id_ordered().vector_to_column();
            assert_rows_grouped(index.inverted_index(), vids, &by_id);
            // Row `r`'s vector is held at `r`.
            assert_eq!(
                columns.vector_to_column(),
                index.inverted_index().rows().col
            );
        };
        for index in [&index, &loaded] {
            assert!(index.inverted_index().apex().is_some());
            grouped(index);
        }
        assert_eq!(index.columns(), loaded.columns());
        let added: Vec<Vec<f32>> = (0..9).map(|_| unit(&mut rng, 8)).collect();
        index
            .append_column("t", "added", 99, added.iter().map(|v| v.as_slice()))
            .unwrap();
        grouped(&index);
    }

    #[test]
    fn approx_bytes_counts_every_row() {
        let params = GridParams::new(1, 1, 4.0).unwrap();
        let (one, _) = InvertedIndex::build(&params, &mapped_from(&[&[0.5]]), &[0], None).unwrap();
        let (two, _) =
            InvertedIndex::build(&params, &mapped_from(&[&[0.5], &[0.6]]), &[0, 0], None).unwrap();
        // A second row in the same cell: its column and coordinate (its
        // vector id is the column set's).
        assert_eq!(two.approx_bytes() - one.approx_bytes(), 8);
    }

    fn unit(rng: &mut StdRng, dim: usize) -> Vec<f32> {
        let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let n: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        v.iter_mut().for_each(|x| *x /= n);
        v
    }

    /// The apex distance is a lower bound on the true distance, the base
    /// reproduces the pivots' own distances, and dependent pivots or a
    /// metric without the projection get no base.
    #[test]
    fn apex_distance_bounds_the_distance_from_below() {
        let mut rng = StdRng::seed_from_u64(17);
        let dim = 12;
        let pivots: Vec<Vec<f32>> = (0..4).map(|_| unit(&mut rng, dim)).collect();
        let base = SimplexBase::of(&pivots, &Euclidean).unwrap();
        let map = |v: &[f32]| -> Vec<f32> { pivots.iter().map(|p| Euclidean.dist(v, p)).collect() };
        let lower_bound = |x: &[f32], y: &[f32]| -> f64 {
            let (ax, ay) = (base.apex(&map(x)), base.apex(&map(y)));
            (0..4)
                .map(|j| {
                    (ax.lo[j] - ay.hi[j])
                        .max(ay.lo[j] - ax.hi[j])
                        .max(0.0)
                        .powi(2)
                })
                .sum::<f64>()
                .sqrt()
        };
        // The pivots lie on their own span: the bound between two of them
        // is their distance, up to the widening.
        for (i, p) in pivots.iter().enumerate() {
            for q in &pivots[..i] {
                let d = Euclidean.dist(p, q) as f64;
                let lb = lower_bound(p, q);
                assert!(lb <= d && lb > d - 1e-2, "pivots {i}: {lb} vs {d}");
            }
        }
        let mut tightest = 0.0f64;
        for _ in 0..500 {
            let (x, y) = (unit(&mut rng, dim), unit(&mut rng, dim));
            let lb = lower_bound(&x, &y);
            let d = Euclidean.dist(&x, &y) as f64;
            assert!(lb <= d + 1e-6, "{lb} > {d}");
            tightest = tightest.max(lb / d);
        }
        assert!(
            tightest > 0.9,
            "the bound should be tight somewhere: {tightest}"
        );

        let mut dependent = pivots.clone();
        dependent[3] = dependent[1].clone();
        assert!(SimplexBase::of(&dependent, &Euclidean).is_none());
        assert!(SimplexBase::of(&pivots, &Manhattan).is_none());
    }
}

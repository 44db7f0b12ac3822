//! SIMD kernels with runtime dispatch and a scalar ground truth.
//!
//! Every distance in the system — verification, pivot mapping, the
//! oracle in tests — funnels through the handful of inner loops in this
//! module, and so does stage 1 of the candidate scan
//! ([`simplex_rows`], below). Two tiers implement each loop:
//!
//! * **scalar** — always compiled, the portable ground truth. The
//!   accumulation is eight independent f32 lanes (elements `i`,
//!   `i+8`, `i+16`, … share a lane) combined as
//!   `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, plus a sequential tail for
//!   `len % 8` trailing dimensions.
//! * **AVX2** (`x86_64`) — one 256-bit vector register holds exactly those
//!   eight lanes; `_mm256_sub_ps`/`_mm256_mul_ps`/`_mm256_add_ps` perform
//!   the same IEEE-754 operation per lane as the scalar code, and the
//!   epilogue stores the register into `[f32; 8]` and reduces with the
//!   scalar combiner. No FMA is used — fusing would change rounding and
//!   break the tier-agreement contract below.
//!
//! Other targets (aarch64 included) run the scalar tier: it is
//! bit-identical by the contract below, so only speed differs there.
//!
//! ## Exact agreement
//!
//! For finite, non-NaN inputs every tier returns **bit-identical** results:
//! same lanes, same operations, same combination order. The differential
//! suite (`tests/simd_differential.rs`) pins the AVX2 tier against the
//! scalar one across all metrics, unaligned lengths, and edge values
//! (zeros, subnormals, `±f32::MAX`). This is what lets the exactness
//! contract of [`crate::metric::Metric::dist_le`] survive the dispatch:
//! `Parallel ≡ Sequential ≡ scalar` stays byte-identical whichever tier
//! answered.
//!
//! The early-exit (`*_le`) kernels may check their threshold bound on any
//! schedule *and with any reduction order* — an early `false` only fires
//! when a partial sum already exceeds the inflated bound (whose margin
//! absorbs reassociation error), which implies the full distance does too
//! — so the SIMD tiers use a cheap shuffle reduction for the checks and
//! keep the canonical reduction for the fall-through result, without
//! affecting the boolean answer.
//!
//! ## Stage 1 of the candidate scan
//!
//! [`simplex_rows`] puts a candidate cell's rows to the n-simplex row
//! bound and to the live-column test, eight rows per step, and packs the
//! survivors' row indexes. The bound runs in `f32` lanes against an
//! `f32` copy of the query vector's apex interval, rounded outward, and a
//! reach inflated for the rounding of the lanes' arithmetic
//! ([`SimplexLanes`]), so a row it rejects is one the exact bound
//! ([`crate::lemmas::simplex_filter`]) rejects too. Both tiers perform the
//! same operations per row in the same order and keep the same rows in
//! the same order.
//!
//! ## Dispatch
//!
//! The tier is detected once per process ([`tier`]) with
//! `is_x86_feature_detected!` and cached. Setting the environment variable
//! `PEXESO_FORCE_SCALAR` (to anything but `0`) before first use forces the
//! scalar tier — CI runs the whole workspace both ways.

use std::sync::OnceLock;

use crate::config::MAX_PIVOTS;
use crate::grid::by_pivots;
use crate::invindex::Apex;

/// Canonical accumulator width: eight independent f32 lanes.
pub(crate) const LANES: usize = 8;

/// Dimensions per early-exit bound check in the scalar tier: enough work
/// between checks to amortise the branch, small enough to exit within a
/// few cache lines.
const EXIT_BLOCK: usize = 16;

/// Dimensions per bound check in the SIMD tiers. Verification workloads
/// reject most candidates within the first vector block — the partial sum
/// is typically orders of magnitude above the bound — so checking every
/// block (with the cheap shuffle reduction) wins over longer strides even
/// though each check pays a horizontal reduction.
const SIMD_EXIT_BLOCK: usize = 8;

/// The instruction tier answering kernel calls in this process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Portable eight-lane scalar loops (the ground truth).
    Scalar,
    /// 256-bit AVX2 loops (x86-64, runtime-detected).
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

impl Tier {
    /// Stable lowercase name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => "avx2",
        }
    }
}

/// The tier every kernel entry point dispatches to, detected once and
/// cached. `PEXESO_FORCE_SCALAR` (any value but `0`) pins it to
/// [`Tier::Scalar`] for differential testing and triage.
pub fn tier() -> Tier {
    static TIER: OnceLock<Tier> = OnceLock::new();
    *TIER.get_or_init(detect_tier)
}

/// Whether `PEXESO_FORCE_SCALAR` (any value but `0`) turns every
/// runtime-detected instruction path off: the kernel tier here and the
/// hardware CRC32C of [`crate::codec::crc32c`].
pub(crate) fn force_scalar() -> bool {
    std::env::var_os("PEXESO_FORCE_SCALAR").is_some_and(|v| v != *"0")
}

fn detect_tier() -> Tier {
    if force_scalar() {
        return Tier::Scalar;
    }
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return Tier::Avx2;
    }
    Tier::Scalar
}

/// Combine the eight lanes exactly as every tier's epilogue must.
#[inline(always)]
fn sum8(l: &[f32; LANES]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

/// Combine the eight max-lanes. Order is value-irrelevant for the
/// non-negative, non-NaN magnitudes these kernels produce, but one
/// canonical order keeps the tiers trivially comparable.
#[inline(always)]
fn max8(l: &[f32; LANES]) -> f32 {
    (l[0].max(l[1]).max(l[2].max(l[3]))).max(l[4].max(l[5]).max(l[6].max(l[7])))
}

/// Conservative squared bound for the Euclidean early exit, evaluated in
/// f64 so its own rounding can never mask a borderline match: partial
/// sums of squares are monotone non-decreasing, so once a partial exceeds
/// this inflated bound the true distance is strictly beyond `tau`.
#[inline(always)]
fn inflated_sq_bound(tau: f32) -> f64 {
    (tau as f64) * (tau as f64) * 1.000_001 + f64::MIN_POSITIVE
}

/// The L1 analogue of [`inflated_sq_bound`].
#[inline(always)]
fn inflated_bound(tau: f32) -> f64 {
    (tau as f64) * 1.000_001 + f64::MIN_POSITIVE
}

// ---------------------------------------------------------------------------
// Scalar tier (ground truth, always compiled)
// ---------------------------------------------------------------------------

/// Sequential tail shared by every tier: squared-difference sum of the
/// dimensions from `from` onward.
#[inline(always)]
fn l2_tail(a: &[f32], b: &[f32], from: usize) -> f32 {
    let mut tail = 0.0f32;
    for i in from..a.len() {
        let d = a[i] - b[i];
        tail += d * d;
    }
    tail
}

#[inline(always)]
fn l1_tail(a: &[f32], b: &[f32], from: usize) -> f32 {
    let mut tail = 0.0f32;
    for i in from..a.len() {
        tail += (a[i] - b[i]).abs();
    }
    tail
}

#[inline(always)]
fn linf_tail(a: &[f32], b: &[f32], from: usize) -> f32 {
    let mut tail = 0.0f32;
    for i in from..a.len() {
        tail = tail.max((a[i] - b[i]).abs());
    }
    tail
}

/// Squared Euclidean distance, scalar tier.
pub fn l2_sq_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let blocks = a.len() / LANES;
    for i in 0..blocks {
        let o = i * LANES;
        for l in 0..LANES {
            let d = a[o + l] - b[o + l];
            lanes[l] += d * d;
        }
    }
    sum8(&lanes) + l2_tail(a, b, blocks * LANES)
}

/// Early-exit `‖a−b‖₂ ≤ tau`, scalar tier. Exactly equals
/// `l2_sq_scalar(a, b).sqrt() <= tau`.
pub fn l2_le_scalar(a: &[f32], b: &[f32], tau: f32) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let bound = inflated_sq_bound(tau);
    let mut lanes = [0.0f32; LANES];
    let blocks = a.len() / LANES;
    let mut i = 0;
    while i < blocks {
        let check_at = (i + EXIT_BLOCK / LANES).min(blocks);
        while i < check_at {
            let o = i * LANES;
            for l in 0..LANES {
                let d = a[o + l] - b[o + l];
                lanes[l] += d * d;
            }
            i += 1;
        }
        if i < blocks && (sum8(&lanes) as f64) > bound {
            return false;
        }
    }
    // Identical accumulation to `l2_sq_scalar` from here: exact agreement.
    (sum8(&lanes) + l2_tail(a, b, blocks * LANES)).sqrt() <= tau
}

/// Manhattan distance, scalar tier.
pub fn l1_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let blocks = a.len() / LANES;
    for i in 0..blocks {
        let o = i * LANES;
        for l in 0..LANES {
            lanes[l] += (a[o + l] - b[o + l]).abs();
        }
    }
    sum8(&lanes) + l1_tail(a, b, blocks * LANES)
}

/// Early-exit `‖a−b‖₁ ≤ tau`, scalar tier.
pub fn l1_le_scalar(a: &[f32], b: &[f32], tau: f32) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let bound = inflated_bound(tau);
    let mut lanes = [0.0f32; LANES];
    let blocks = a.len() / LANES;
    let mut i = 0;
    while i < blocks {
        let check_at = (i + EXIT_BLOCK / LANES).min(blocks);
        while i < check_at {
            let o = i * LANES;
            for l in 0..LANES {
                lanes[l] += (a[o + l] - b[o + l]).abs();
            }
            i += 1;
        }
        if i < blocks && (sum8(&lanes) as f64) > bound {
            return false;
        }
    }
    sum8(&lanes) + l1_tail(a, b, blocks * LANES) <= tau
}

/// Chebyshev (L∞) distance, scalar tier.
pub fn linf_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut lanes = [0.0f32; LANES];
    let blocks = a.len() / LANES;
    for i in 0..blocks {
        let o = i * LANES;
        for l in 0..LANES {
            lanes[l] = lanes[l].max((a[o + l] - b[o + l]).abs());
        }
    }
    max8(&lanes).max(linf_tail(a, b, blocks * LANES))
}

/// Early-exit `‖a−b‖∞ ≤ tau`, scalar tier. `max` is exact under any
/// evaluation order, so bailing at the first coordinate beyond `tau` is
/// trivially equivalent.
pub fn linf_le_scalar(a: &[f32], b: &[f32], tau: f32) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b.iter()).all(|(x, y)| (x - y).abs() <= tau)
}

/// The three angular accumulators `(a·b, ‖a‖², ‖b‖²)`, scalar tier.
pub fn angular_parts_scalar(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    debug_assert_eq!(a.len(), b.len());
    let mut dot = [0.0f32; LANES];
    let mut na = [0.0f32; LANES];
    let mut nb = [0.0f32; LANES];
    let blocks = a.len() / LANES;
    for i in 0..blocks {
        let o = i * LANES;
        for l in 0..LANES {
            let (x, y) = (a[o + l], b[o + l]);
            dot[l] += x * y;
            na[l] += x * x;
            nb[l] += y * y;
        }
    }
    let (mut dot_t, mut na_t, mut nb_t) = (0.0f32, 0.0f32, 0.0f32);
    for i in blocks * LANES..a.len() {
        let (x, y) = (a[i], b[i]);
        dot_t += x * y;
        na_t += x * x;
        nb_t += y * y;
    }
    (sum8(&dot) + dot_t, sum8(&na) + na_t, sum8(&nb) + nb_t)
}

/// The largest `f32` not above `x`.
pub(crate) fn round_down(x: f64) -> f32 {
    let y = x as f32;
    if y as f64 > x {
        y.next_down()
    } else {
        y
    }
}

/// The smallest `f32` not below `x`.
pub(crate) fn round_up(x: f64) -> f32 {
    let y = x as f32;
    if (y as f64) < x {
        y.next_up()
    } else {
        y
    }
}

/// One query vector's n-simplex row bound for one cell, in `f32` lanes:
/// a row whose apex lies farther than `√reach2` from the interval
/// `lo..=hi` is beyond τ. Built from the exact (`f64`) bound so that it
/// rejects no row the exact bound keeps:
///
/// * the interval is the query vector's apex interval rounded outward,
///   so a row's gap to it is never larger than to the exact one;
/// * a row's squared gap is computed with |P| + 2 roundings on any lane —
///   one subtraction and one square per coordinate (the selects are
///   exact), and |P| − 1 additions of non-negative terms — each off by a
///   factor of at most `1 + f32::EPSILON / 2`, so the computed value is at
///   most `(1 + f32::EPSILON)^(|P| + 2)` times the exact one;
/// * `reach2` is the exact reach times that factor, plus
///   `f32::MIN_POSITIVE` for the absolute error of results that underflow,
///   rounded up.
///
/// So when the lanes say "beyond" the exact squared gap exceeds the exact
/// reach. The widening is a few parts in ten million of the reach: on the
/// benchmark's lake (seed 13) the lanes reject exactly the rows the exact
/// bound rejects.
#[derive(Debug, Clone, Copy)]
pub struct SimplexLanes {
    lo: [f32; MAX_PIVOTS],
    hi: [f32; MAX_PIVOTS],
    reach2: f32,
    /// Coordinates per row, |P|.
    n: usize,
    /// `(1 + f32::EPSILON)^(|P| + 2)`.
    widen: f64,
}

impl SimplexLanes {
    /// The bound of the query vector with apex interval `apex`, over rows
    /// of `n` coordinates, at the exact squared reach `reach2` (see
    /// [`crate::invindex::ApexBoxes::row_reach`]).
    pub fn new(apex: &Apex, n: usize, reach2: f64) -> Self {
        assert!((1..=MAX_PIVOTS).contains(&n), "{n} coordinates per row");
        let mut lanes = Self {
            lo: [0.0; MAX_PIVOTS],
            hi: [0.0; MAX_PIVOTS],
            reach2: 0.0,
            n,
            widen: (1.0 + f32::EPSILON as f64).powi(n as i32 + 2),
        };
        for j in 0..n {
            lanes.lo[j] = round_down(apex.lo[j]);
            lanes.hi[j] = round_up(apex.hi[j]);
        }
        lanes.at(reach2)
    }

    /// The same interval at another exact squared reach.
    #[inline]
    pub fn at(self, reach2: f64) -> Self {
        Self {
            reach2: round_up(reach2 * self.widen + f32::MIN_POSITIVE as f64),
            ..self
        }
    }

    /// Whether the row with apex `x` (|P| coordinates) lies beyond the
    /// reach: the scalar ground truth of one lane of [`simplex_rows`].
    #[inline(always)]
    pub fn rejects(&self, x: &[f32]) -> bool {
        debug_assert_eq!(x.len(), self.n);
        let mut gap2 = 0.0f32;
        for ((&lo, &hi), &x) in self.lo.iter().zip(&self.hi).zip(x) {
            let (below, above) = (lo - x, x - hi);
            // Selects, as in the SIMD tier: a NaN gap counts as 0.
            let gap = if below > above { below } else { above };
            let gap = if gap > 0.0 { gap } else { 0.0 };
            gap2 += gap * gap;
        }
        gap2 > self.reach2
    }
}

/// The column state a row must pass to survive stage 1: the row's column
/// `c` is live and not yet matched by the query vector in hand when
/// `state[c − c_lo] < gen` (the scan's state word, see `verify.rs`).
#[derive(Debug, Clone, Copy)]
pub struct LiveColumns<'a> {
    pub c_lo: u32,
    pub state: &'a [u32],
    pub gen: u32,
}

impl LiveColumns<'_> {
    /// Whether a row of column `col` is live. Panics when `col` lies
    /// outside `c_lo..c_lo + state.len()`.
    #[inline(always)]
    fn admits(&self, col: u32) -> bool {
        self.state[col.wrapping_sub(self.c_lo) as usize] < self.gen
    }
}

/// Stage 1 of the candidate scan over `cols.len()` consecutive rows, the
/// first of which is row `first`: `cols` holds their columns and `coords`
/// their apexes, |P| = `bound`'s width per row. Every row whose column
/// `live` admits and that `bound` cannot reject is written, as a row
/// index, to the front of `buf`, in row order. Returns how many stayed
/// and how many rows of live columns the bound rejected. `buf` must hold
/// `cols.len()` entries; what follows the survivors is unspecified. Panics
/// when a column lies outside `live`'s window.
pub fn simplex_rows(
    coords: &[f32],
    cols: &[u32],
    first: u32,
    live: LiveColumns<'_>,
    bound: &SimplexLanes,
    buf: &mut [u32],
) -> (usize, u64) {
    check_rows(coords, cols, bound, buf);
    match tier() {
        #[cfg(target_arch = "x86_64")]
        Tier::Avx2 => by_pivots!(
            bound.n,
            simplex_rows_avx2(coords, cols, first, live, bound, buf)
        ),
        Tier::Scalar => by_pivots!(
            bound.n,
            simplex_rows_by_row(coords, cols, first, live, bound, buf)
        ),
    }
}

/// [`simplex_rows`], scalar tier.
pub fn simplex_rows_scalar(
    coords: &[f32],
    cols: &[u32],
    first: u32,
    live: LiveColumns<'_>,
    bound: &SimplexLanes,
    buf: &mut [u32],
) -> (usize, u64) {
    check_rows(coords, cols, bound, buf);
    by_pivots!(
        bound.n,
        simplex_rows_by_row(coords, cols, first, live, bound, buf)
    )
}

/// The shape [`simplex_rows`] requires of its slices, which the AVX2 tier
/// reads without bounds checks.
fn check_rows(coords: &[f32], cols: &[u32], bound: &SimplexLanes, buf: &[u32]) {
    assert_eq!(
        coords.len(),
        cols.len() * bound.n,
        "|P| coordinates per row"
    );
    assert!(buf.len() >= cols.len(), "room for every row");
}

/// The scalar tier of [`simplex_rows`] over rows of `N` coordinates, from
/// row `first`: one row at a time, no data-dependent branch — every row
/// is written, the cursor advances past the rows that stay. The AVX2
/// tier runs it on the rows after its last full step of eight.
#[inline(always)]
fn simplex_rows_by_row<const N: usize>(
    coords: &[f32],
    cols: &[u32],
    first: u32,
    live: LiveColumns<'_>,
    bound: &SimplexLanes,
    buf: &mut [u32],
) -> (usize, u64) {
    let (coords, _) = coords.as_chunks::<N>();
    let (mut kept, mut rejected) = (0usize, 0u64);
    for ((r, &col), x) in (first..).zip(cols).zip(coords) {
        let live = live.admits(col);
        let far = bound.rejects(x);
        buf[kept] = r;
        kept += usize::from(live & !far);
        rejected += u64::from(live & far);
    }
    (kept, rejected)
}

#[cfg(target_arch = "x86_64")]
fn simplex_rows_avx2<const N: usize>(
    coords: &[f32],
    cols: &[u32],
    first: u32,
    live: LiveColumns<'_>,
    bound: &SimplexLanes,
    buf: &mut [u32],
) -> (usize, u64) {
    // SAFETY: Tier::Avx2 is only ever detected when the CPU reports AVX2
    // support at runtime, and `check_rows` has checked the slices'
    // lengths; `tests/simd_differential.rs` pins it to the scalar tier.
    unsafe { avx2::simplex_rows::<N>(coords, cols, first, live, bound, buf) }
}

// ---------------------------------------------------------------------------
// AVX2 tier
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    use std::arch::x86_64::*;

    /// Store the 256-bit accumulator and combine with the canonical
    /// scalar epilogue, so the reduction order matches the scalar tier
    /// bit-for-bit.
    #[inline(always)]
    unsafe fn reduce_sum(acc: __m256) -> f32 {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        sum8(&lanes)
    }

    #[inline(always)]
    unsafe fn reduce_max(acc: __m256) -> f32 {
        let mut lanes = [0.0f32; LANES];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        max8(&lanes)
    }

    /// `|x|` by clearing the sign bit — bitwise identical to `f32::abs`.
    #[inline(always)]
    unsafe fn abs(x: __m256) -> __m256 {
        _mm256_andnot_ps(_mm256_set1_ps(-0.0), x)
    }

    /// Fast shuffle-tree reduction for early-exit *bound checks only*: its
    /// reassociated order differs from [`sum8`] by a few ulps, which the
    /// inflated f64 bound's `1e-6` margin absorbs, so a `> bound` verdict
    /// from this sum still proves the true distance exceeds `tau`. The
    /// fall-through result path must keep [`reduce_sum`].
    #[inline(always)]
    unsafe fn check_sum(acc: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(acc);
        let hi = _mm256_extractf128_ps::<1>(acc);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_movehdup_ps(s));
        _mm_cvtss_f32(s)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let blocks = a.len() / LANES;
        let mut acc = _mm256_setzero_ps();
        for i in 0..blocks {
            let o = i * LANES;
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(o)),
                _mm256_loadu_ps(b.as_ptr().add(o)),
            );
            acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
        }
        reduce_sum(acc) + l2_tail(a, b, blocks * LANES)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn l2_le(a: &[f32], b: &[f32], tau: f32) -> bool {
        let bound = inflated_sq_bound(tau);
        let blocks = a.len() / LANES;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < blocks {
            let check_at = (i + SIMD_EXIT_BLOCK / LANES).min(blocks);
            while i < check_at {
                let o = i * LANES;
                let d = _mm256_sub_ps(
                    _mm256_loadu_ps(a.as_ptr().add(o)),
                    _mm256_loadu_ps(b.as_ptr().add(o)),
                );
                acc = _mm256_add_ps(acc, _mm256_mul_ps(d, d));
                i += 1;
            }
            if i < blocks && (check_sum(acc) as f64) > bound {
                return false;
            }
        }
        (reduce_sum(acc) + l2_tail(a, b, blocks * LANES)).sqrt() <= tau
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn l1(a: &[f32], b: &[f32]) -> f32 {
        let blocks = a.len() / LANES;
        let mut acc = _mm256_setzero_ps();
        for i in 0..blocks {
            let o = i * LANES;
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(o)),
                _mm256_loadu_ps(b.as_ptr().add(o)),
            );
            acc = _mm256_add_ps(acc, abs(d));
        }
        reduce_sum(acc) + l1_tail(a, b, blocks * LANES)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn l1_le(a: &[f32], b: &[f32], tau: f32) -> bool {
        let bound = inflated_bound(tau);
        let blocks = a.len() / LANES;
        let mut acc = _mm256_setzero_ps();
        let mut i = 0;
        while i < blocks {
            let check_at = (i + SIMD_EXIT_BLOCK / LANES).min(blocks);
            while i < check_at {
                let o = i * LANES;
                let d = _mm256_sub_ps(
                    _mm256_loadu_ps(a.as_ptr().add(o)),
                    _mm256_loadu_ps(b.as_ptr().add(o)),
                );
                acc = _mm256_add_ps(acc, abs(d));
                i += 1;
            }
            if i < blocks && (check_sum(acc) as f64) > bound {
                return false;
            }
        }
        reduce_sum(acc) + l1_tail(a, b, blocks * LANES) <= tau
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn linf(a: &[f32], b: &[f32]) -> f32 {
        let blocks = a.len() / LANES;
        let mut acc = _mm256_setzero_ps();
        for i in 0..blocks {
            let o = i * LANES;
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(o)),
                _mm256_loadu_ps(b.as_ptr().add(o)),
            );
            acc = _mm256_max_ps(acc, abs(d));
        }
        reduce_max(acc).max(linf_tail(a, b, blocks * LANES))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn linf_le(a: &[f32], b: &[f32], tau: f32) -> bool {
        let blocks = a.len() / LANES;
        let tau8 = _mm256_set1_ps(tau);
        for i in 0..blocks {
            let o = i * LANES;
            let d = _mm256_sub_ps(
                _mm256_loadu_ps(a.as_ptr().add(o)),
                _mm256_loadu_ps(b.as_ptr().add(o)),
            );
            // Any |d| > tau (or NaN, matching `!(|d| <= tau)`) fails.
            let beyond = _mm256_cmp_ps::<_CMP_NLE_UQ>(abs(d), tau8);
            if _mm256_movemask_ps(beyond) != 0 {
                return false;
            }
        }
        a[blocks * LANES..]
            .iter()
            .zip(b[blocks * LANES..].iter())
            .all(|(x, y)| (x - y).abs() <= tau)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn angular_parts(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
        let blocks = a.len() / LANES;
        let mut dot = _mm256_setzero_ps();
        let mut na = _mm256_setzero_ps();
        let mut nb = _mm256_setzero_ps();
        for i in 0..blocks {
            let o = i * LANES;
            let x = _mm256_loadu_ps(a.as_ptr().add(o));
            let y = _mm256_loadu_ps(b.as_ptr().add(o));
            dot = _mm256_add_ps(dot, _mm256_mul_ps(x, y));
            na = _mm256_add_ps(na, _mm256_mul_ps(x, x));
            nb = _mm256_add_ps(nb, _mm256_mul_ps(y, y));
        }
        let (mut dot_t, mut na_t, mut nb_t) = (0.0f32, 0.0f32, 0.0f32);
        for i in blocks * LANES..a.len() {
            let (x, y) = (a[i], b[i]);
            dot_t += x * y;
            na_t += x * x;
            nb_t += y * y;
        }
        (
            reduce_sum(dot) + dot_t,
            reduce_sum(na) + na_t,
            reduce_sum(nb) + nb_t,
        )
    }

    /// For each 4-bit mask, the lanes it sets, ascending, then zeros: the
    /// offsets that pack four rows' survivors to the front.
    const PACK4: [[u32; 4]; 16] = {
        let mut table = [[0u32; 4]; 16];
        let mut mask = 0;
        while mask < 16 {
            let (mut lane, mut at) = (0, 0);
            while lane < 4 {
                if mask & (1 << lane) != 0 {
                    table[mask][at] = lane as u32;
                    at += 1;
                }
                lane += 1;
            }
            mask += 1;
        }
        table
    };

    /// Write `first + PACK4[mask]` at `buf[kept..kept + 4]` and advance
    /// `kept` past the rows `mask` keeps.
    ///
    /// # Safety
    ///
    /// `kept + 4 <= buf.len()`, and the CPU supports SSE2.
    #[inline(always)]
    unsafe fn pack4(mask: u32, first: u32, buf: &mut [u32], kept: &mut usize) {
        debug_assert!(*kept + 4 <= buf.len());
        let lanes = _mm_loadu_si128(PACK4[mask as usize].as_ptr().cast());
        let rows = _mm_add_epi32(_mm_set1_epi32(first as i32), lanes);
        _mm_storeu_si128(buf.as_mut_ptr().add(*kept).cast(), rows);
        *kept += mask.count_ones() as usize;
    }

    /// [`super::simplex_rows`] over rows of `N` coordinates, eight rows a
    /// step: each row's apex coordinates gathered into lanes, the bound
    /// evaluated with the scalar tier's operations in its order, the
    /// column's state word gathered and compared, and the survivors of
    /// each half-step packed by [`PACK4`]. A step writes at most four
    /// entries past its survivors and never past its own eight rows, so
    /// `buf` needs no slack. Rows after the last full step take the scalar
    /// path.
    ///
    /// # Safety
    ///
    /// The CPU supports AVX2, `coords` holds `N` coordinates per entry of
    /// `cols` and `buf` at least as many entries as `cols` (what
    /// `check_rows` asserts). A column outside `live`'s window panics
    /// before its state word is read.
    #[target_feature(enable = "avx2")]
    pub unsafe fn simplex_rows<const N: usize>(
        coords: &[f32],
        cols: &[u32],
        first: u32,
        live: LiveColumns<'_>,
        bound: &SimplexLanes,
        buf: &mut [u32],
    ) -> (usize, u64) {
        let steps = cols.len() / LANES;
        let n = N as i32;
        let strided = _mm256_setr_epi32(0, n, 2 * n, 3 * n, 4 * n, 5 * n, 6 * n, 7 * n);
        let reach2 = _mm256_set1_ps(bound.reach2);
        let zero = _mm256_setzero_ps();
        let c_lo = _mm256_set1_epi32(live.c_lo as i32);
        let last_slot = _mm256_set1_epi32(live.state.len().wrapping_sub(1) as i32);
        // `state < gen` unsigned, as a signed compare with the sign bits
        // flipped.
        let sign = _mm256_set1_epi32(i32::MIN);
        let gen = _mm256_set1_epi32((live.gen ^ (1 << 31)) as i32);
        let (mut kept, mut rejected) = (0usize, 0u64);
        for step in 0..steps {
            let row0 = step * LANES;
            let at = coords.as_ptr().add(row0 * N);
            let mut gap2 = zero;
            for j in 0..N {
                let x = _mm256_i32gather_ps::<4>(at.add(j), strided);
                let below = _mm256_sub_ps(_mm256_set1_ps(bound.lo[j]), x);
                let above = _mm256_sub_ps(x, _mm256_set1_ps(bound.hi[j]));
                let gap = _mm256_blendv_ps(above, below, _mm256_cmp_ps::<_CMP_GT_OQ>(below, above));
                let gap = _mm256_and_ps(gap, _mm256_cmp_ps::<_CMP_GT_OQ>(gap, zero));
                gap2 = _mm256_add_ps(gap2, _mm256_mul_ps(gap, gap));
            }
            let far = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GT_OQ>(gap2, reach2));
            let slot = _mm256_sub_epi32(_mm256_loadu_si256(cols.as_ptr().add(row0).cast()), c_lo);
            let in_window = _mm256_cmpeq_epi32(_mm256_min_epu32(slot, last_slot), slot);
            assert!(
                !live.state.is_empty() && _mm256_movemask_epi8(in_window) == -1,
                "a column outside the shard's window"
            );
            let state = _mm256_i32gather_epi32::<4>(live.state.as_ptr().cast(), slot);
            let admitted = _mm256_cmpgt_epi32(gen, _mm256_xor_si256(state, sign));
            let keep = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_andnot_si256(far, admitted)));
            let beyond = _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_and_si256(far, admitted)));
            rejected += u64::from(beyond.count_ones());
            let row0 = first + row0 as u32;
            pack4(keep as u32 & 0xf, row0, buf, &mut kept);
            pack4(keep as u32 >> 4, row0 + 4, buf, &mut kept);
        }
        let done = steps * LANES;
        let (tail_kept, tail_rejected) = simplex_rows_by_row::<N>(
            &coords[done * N..],
            &cols[done..],
            first + done as u32,
            live,
            bound,
            &mut buf[kept..],
        );
        (kept + tail_kept, rejected + tail_rejected)
    }
}

// ---------------------------------------------------------------------------
// Dispatched entry points
// ---------------------------------------------------------------------------

macro_rules! dispatch {
    ($scalar:path, $simd:ident, ($($arg:expr),*)) => {
        match tier() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: Tier::Avx2 is only ever detected when the CPU
            // reports AVX2 support at runtime.
            Tier::Avx2 => unsafe { avx2::$simd($($arg),*) },
            Tier::Scalar => $scalar($($arg),*),
        }
    };
}

/// Squared Euclidean distance `‖a−b‖₂²` on the active tier.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(l2_sq_scalar, l2_sq, (a, b))
}

/// Early-exit `‖a−b‖₂ ≤ tau` on the active tier; exactly equals
/// `l2_sq(a, b).sqrt() <= tau`.
#[inline]
pub fn l2_le(a: &[f32], b: &[f32], tau: f32) -> bool {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(l2_le_scalar, l2_le, (a, b, tau))
}

/// Manhattan distance `‖a−b‖₁` on the active tier.
#[inline]
pub fn l1(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(l1_scalar, l1, (a, b))
}

/// Early-exit `‖a−b‖₁ ≤ tau` on the active tier; exactly equals
/// `l1(a, b) <= tau`.
#[inline]
pub fn l1_le(a: &[f32], b: &[f32], tau: f32) -> bool {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(l1_le_scalar, l1_le, (a, b, tau))
}

/// Chebyshev distance `‖a−b‖∞` on the active tier.
#[inline]
pub fn linf(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(linf_scalar, linf, (a, b))
}

/// Early-exit `‖a−b‖∞ ≤ tau` on the active tier; exactly equals
/// `linf(a, b) <= tau`.
#[inline]
pub fn linf_le(a: &[f32], b: &[f32], tau: f32) -> bool {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(linf_le_scalar, linf_le, (a, b, tau))
}

/// The angular accumulators `(a·b, ‖a‖², ‖b‖²)` on the active tier.
#[inline]
pub fn angular_parts(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
    debug_assert_eq!(a.len(), b.len());
    dispatch!(angular_parts_scalar, angular_parts, (a, b))
}

/// Best-effort hint to pull the first cache lines of `row` towards L1
/// before a kernel reads it. Stage 2 of the candidate scan reads a cell's
/// survivors in row order but with the gaps stage 1 leaves, so hinting a
/// survivor a few ahead while the current one is verified hides much of
/// the miss latency. Purely a scheduling hint — no architectural effect —
/// and a no-op off x86-64.
#[inline(always)]
pub fn prefetch(row: &[f32]) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch has no memory semantics; any address is allowed.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        let p = row.as_ptr().cast::<i8>();
        _mm_prefetch::<_MM_HINT_T0>(p);
        // The early-exit kernels usually decide within the first
        // SIMD_EXIT_BLOCK dimensions — two cache lines.
        if row.len() > 16 {
            _mm_prefetch::<_MM_HINT_T0>(p.add(64));
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_pair(rng: &mut StdRng, dim: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        (a, b)
    }

    /// Whatever tier is active must agree with the scalar ground truth
    /// bit-for-bit on every kernel (vacuously green when dispatch picks
    /// scalar; the CI matrix runs both ways and
    /// `tests/simd_differential.rs` calls the SIMD tier directly).
    #[test]
    fn dispatched_kernels_match_scalar_bitwise() {
        let mut rng = StdRng::seed_from_u64(41);
        for dim in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 32, 63, 64, 129] {
            for _ in 0..50 {
                let (a, b) = random_pair(&mut rng, dim);
                assert_eq!(l2_sq(&a, &b).to_bits(), l2_sq_scalar(&a, &b).to_bits());
                assert_eq!(l1(&a, &b).to_bits(), l1_scalar(&a, &b).to_bits());
                assert_eq!(linf(&a, &b).to_bits(), linf_scalar(&a, &b).to_bits());
                let (d, na, nb) = angular_parts(&a, &b);
                let (ds, nas, nbs) = angular_parts_scalar(&a, &b);
                assert_eq!(d.to_bits(), ds.to_bits());
                assert_eq!(na.to_bits(), nas.to_bits());
                assert_eq!(nb.to_bits(), nbs.to_bits());
                for tau in [0.0f32, 0.5, 1.0, rng.gen_range(0.0f32..4.0)] {
                    assert_eq!(l2_le(&a, &b, tau), l2_le_scalar(&a, &b, tau));
                    assert_eq!(l1_le(&a, &b, tau), l1_le_scalar(&a, &b, tau));
                    assert_eq!(linf_le(&a, &b, tau), linf_le_scalar(&a, &b, tau));
                }
            }
        }
    }

    /// The `_le` kernels agree with the full kernels at the boundary.
    #[test]
    fn le_kernels_are_exact_at_the_boundary() {
        let mut rng = StdRng::seed_from_u64(42);
        for dim in [1usize, 8, 17, 64] {
            for _ in 0..100 {
                let (a, b) = random_pair(&mut rng, dim);
                let d2 = l2_sq(&a, &b).sqrt();
                for tau in [d2, d2 * 0.999, d2 * 1.001] {
                    assert_eq!(l2_le(&a, &b, tau), d2 <= tau, "dim={dim} tau={tau}");
                }
                let d1 = l1(&a, &b);
                for tau in [d1, d1 * 0.999, d1 * 1.001] {
                    assert_eq!(l1_le(&a, &b, tau), d1 <= tau, "dim={dim} tau={tau}");
                }
                let di = linf(&a, &b);
                for tau in [di, di * 0.999, di * 1.001] {
                    assert_eq!(linf_le(&a, &b, tau), di <= tau, "dim={dim} tau={tau}");
                }
            }
        }
    }

    #[test]
    fn tier_is_cached_and_named() {
        let t = tier();
        assert_eq!(t, tier(), "tier must be stable within a process");
        assert!(!t.name().is_empty());
    }
}

//! SIMD distance kernels with runtime dispatch and a scalar ground truth.
//!
//! Every distance in the system — verification, pivot mapping, the
//! oracle in tests — funnels through the handful of inner loops in this
//! module. Three tiers implement each loop:
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
//! * **NEON** (`aarch64`) — two 128-bit registers model the same eight
//!   lanes with the same epilogue.
//!
//! ## Exact agreement
//!
//! For finite, non-NaN inputs every tier returns **bit-identical** results:
//! same lanes, same operations, same combination order. The differential
//! suite (`tests/simd_differential.rs`) pins each SIMD tier against the
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
//! ## Dispatch
//!
//! The tier is detected once per process ([`tier`]) with
//! `is_x86_feature_detected!` and cached. Setting the environment variable
//! `PEXESO_FORCE_SCALAR` (to anything but `0`) before first use forces the
//! scalar tier — CI runs the whole workspace both ways.

use std::sync::OnceLock;

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
    /// 128-bit NEON loop pairs (aarch64).
    #[cfg(target_arch = "aarch64")]
    Neon,
}

impl Tier {
    /// Stable lowercase name for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Scalar => "scalar",
            #[cfg(target_arch = "x86_64")]
            Tier::Avx2 => "avx2",
            #[cfg(target_arch = "aarch64")]
            Tier::Neon => "neon",
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
    #[cfg(target_arch = "aarch64")]
    if std::arch::is_aarch64_feature_detected!("neon") {
        return Tier::Neon;
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
}

// ---------------------------------------------------------------------------
// NEON tier
// ---------------------------------------------------------------------------

#[cfg(target_arch = "aarch64")]
mod neon {
    use super::*;
    use std::arch::aarch64::*;

    /// Store both 128-bit accumulators as the canonical eight lanes and
    /// combine with the scalar epilogue.
    #[inline(always)]
    unsafe fn reduce_sum(acc0: float32x4_t, acc1: float32x4_t) -> f32 {
        let mut lanes = [0.0f32; LANES];
        vst1q_f32(lanes.as_mut_ptr(), acc0);
        vst1q_f32(lanes.as_mut_ptr().add(4), acc1);
        sum8(&lanes)
    }

    #[inline(always)]
    unsafe fn reduce_max(acc0: float32x4_t, acc1: float32x4_t) -> f32 {
        let mut lanes = [0.0f32; LANES];
        vst1q_f32(lanes.as_mut_ptr(), acc0);
        vst1q_f32(lanes.as_mut_ptr().add(4), acc1);
        max8(&lanes)
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
        let blocks = a.len() / LANES;
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        for i in 0..blocks {
            let o = i * LANES;
            let d0 = vsubq_f32(vld1q_f32(a.as_ptr().add(o)), vld1q_f32(b.as_ptr().add(o)));
            let d1 = vsubq_f32(
                vld1q_f32(a.as_ptr().add(o + 4)),
                vld1q_f32(b.as_ptr().add(o + 4)),
            );
            acc0 = vaddq_f32(acc0, vmulq_f32(d0, d0));
            acc1 = vaddq_f32(acc1, vmulq_f32(d1, d1));
        }
        reduce_sum(acc0, acc1) + l2_tail(a, b, blocks * LANES)
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn l2_le(a: &[f32], b: &[f32], tau: f32) -> bool {
        let bound = inflated_sq_bound(tau);
        let blocks = a.len() / LANES;
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut i = 0;
        while i < blocks {
            let check_at = (i + SIMD_EXIT_BLOCK / LANES).min(blocks);
            while i < check_at {
                let o = i * LANES;
                let d0 = vsubq_f32(vld1q_f32(a.as_ptr().add(o)), vld1q_f32(b.as_ptr().add(o)));
                let d1 = vsubq_f32(
                    vld1q_f32(a.as_ptr().add(o + 4)),
                    vld1q_f32(b.as_ptr().add(o + 4)),
                );
                acc0 = vaddq_f32(acc0, vmulq_f32(d0, d0));
                acc1 = vaddq_f32(acc1, vmulq_f32(d1, d1));
                i += 1;
            }
            if i < blocks && (reduce_sum(acc0, acc1) as f64) > bound {
                return false;
            }
        }
        (reduce_sum(acc0, acc1) + l2_tail(a, b, blocks * LANES)).sqrt() <= tau
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn l1(a: &[f32], b: &[f32]) -> f32 {
        let blocks = a.len() / LANES;
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        for i in 0..blocks {
            let o = i * LANES;
            let d0 = vsubq_f32(vld1q_f32(a.as_ptr().add(o)), vld1q_f32(b.as_ptr().add(o)));
            let d1 = vsubq_f32(
                vld1q_f32(a.as_ptr().add(o + 4)),
                vld1q_f32(b.as_ptr().add(o + 4)),
            );
            acc0 = vaddq_f32(acc0, vabsq_f32(d0));
            acc1 = vaddq_f32(acc1, vabsq_f32(d1));
        }
        reduce_sum(acc0, acc1) + l1_tail(a, b, blocks * LANES)
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn l1_le(a: &[f32], b: &[f32], tau: f32) -> bool {
        let bound = inflated_bound(tau);
        let blocks = a.len() / LANES;
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        let mut i = 0;
        while i < blocks {
            let check_at = (i + SIMD_EXIT_BLOCK / LANES).min(blocks);
            while i < check_at {
                let o = i * LANES;
                let d0 = vsubq_f32(vld1q_f32(a.as_ptr().add(o)), vld1q_f32(b.as_ptr().add(o)));
                let d1 = vsubq_f32(
                    vld1q_f32(a.as_ptr().add(o + 4)),
                    vld1q_f32(b.as_ptr().add(o + 4)),
                );
                acc0 = vaddq_f32(acc0, vabsq_f32(d0));
                acc1 = vaddq_f32(acc1, vabsq_f32(d1));
                i += 1;
            }
            if i < blocks && (reduce_sum(acc0, acc1) as f64) > bound {
                return false;
            }
        }
        reduce_sum(acc0, acc1) + l1_tail(a, b, blocks * LANES) <= tau
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn linf(a: &[f32], b: &[f32]) -> f32 {
        let blocks = a.len() / LANES;
        let mut acc0 = vdupq_n_f32(0.0);
        let mut acc1 = vdupq_n_f32(0.0);
        for i in 0..blocks {
            let o = i * LANES;
            let d0 = vsubq_f32(vld1q_f32(a.as_ptr().add(o)), vld1q_f32(b.as_ptr().add(o)));
            let d1 = vsubq_f32(
                vld1q_f32(a.as_ptr().add(o + 4)),
                vld1q_f32(b.as_ptr().add(o + 4)),
            );
            acc0 = vmaxq_f32(acc0, vabsq_f32(d0));
            acc1 = vmaxq_f32(acc1, vabsq_f32(d1));
        }
        reduce_max(acc0, acc1).max(linf_tail(a, b, blocks * LANES))
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn linf_le(a: &[f32], b: &[f32], tau: f32) -> bool {
        let blocks = a.len() / LANES;
        let tau4 = vdupq_n_f32(tau);
        for i in 0..blocks {
            let o = i * LANES;
            let d0 = vabsq_f32(vsubq_f32(
                vld1q_f32(a.as_ptr().add(o)),
                vld1q_f32(b.as_ptr().add(o)),
            ));
            let d1 = vabsq_f32(vsubq_f32(
                vld1q_f32(a.as_ptr().add(o + 4)),
                vld1q_f32(b.as_ptr().add(o + 4)),
            ));
            // `|d| <= tau` per lane; any zero lane (including NaN) fails.
            let ok0 = vcleq_f32(d0, tau4);
            let ok1 = vcleq_f32(d1, tau4);
            if vminvq_u32(vandq_u32(ok0, ok1)) == 0 {
                return false;
            }
        }
        a[blocks * LANES..]
            .iter()
            .zip(b[blocks * LANES..].iter())
            .all(|(x, y)| (x - y).abs() <= tau)
    }

    #[target_feature(enable = "neon")]
    pub unsafe fn angular_parts(a: &[f32], b: &[f32]) -> (f32, f32, f32) {
        let blocks = a.len() / LANES;
        let mut dot0 = vdupq_n_f32(0.0);
        let mut dot1 = vdupq_n_f32(0.0);
        let mut na0 = vdupq_n_f32(0.0);
        let mut na1 = vdupq_n_f32(0.0);
        let mut nb0 = vdupq_n_f32(0.0);
        let mut nb1 = vdupq_n_f32(0.0);
        for i in 0..blocks {
            let o = i * LANES;
            let x0 = vld1q_f32(a.as_ptr().add(o));
            let x1 = vld1q_f32(a.as_ptr().add(o + 4));
            let y0 = vld1q_f32(b.as_ptr().add(o));
            let y1 = vld1q_f32(b.as_ptr().add(o + 4));
            dot0 = vaddq_f32(dot0, vmulq_f32(x0, y0));
            dot1 = vaddq_f32(dot1, vmulq_f32(x1, y1));
            na0 = vaddq_f32(na0, vmulq_f32(x0, x0));
            na1 = vaddq_f32(na1, vmulq_f32(x1, x1));
            nb0 = vaddq_f32(nb0, vmulq_f32(y0, y0));
            nb1 = vaddq_f32(nb1, vmulq_f32(y1, y1));
        }
        let (mut dot_t, mut na_t, mut nb_t) = (0.0f32, 0.0f32, 0.0f32);
        for i in blocks * LANES..a.len() {
            let (x, y) = (a[i], b[i]);
            dot_t += x * y;
            na_t += x * x;
            nb_t += y * y;
        }
        (
            reduce_sum(dot0, dot1) + dot_t,
            reduce_sum(na0, na1) + na_t,
            reduce_sum(nb0, nb1) + nb_t,
        )
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
            #[cfg(target_arch = "aarch64")]
            // SAFETY: Tier::Neon is only ever detected when the CPU
            // reports NEON support at runtime.
            Tier::Neon => unsafe { neon::$simd($($arg),*) },
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
/// before a kernel reads it. Verification gathers candidate rows in
/// postings order (random access), so hinting the *next* row while the
/// current one is verified hides much of the miss latency. Purely a
/// scheduling hint — no architectural effect — and a no-op off x86-64.
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

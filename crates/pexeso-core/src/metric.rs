//! Distance functions and batched early-exit distance kernels.
//!
//! PEXESO supports *any* metric; the pivot lemmata only need the triangle
//! inequality. The paper's experiments use Euclidean distance over
//! unit-normalised vectors (maximum possible distance 2), which is the
//! default throughout this repo; Manhattan and Chebyshev are provided to
//! demonstrate metric-genericity and for tests.
//!
//! ## Kernel API
//!
//! Verification and pivot mapping are dominated by distance arithmetic, so
//! the [`Metric`] trait exposes two batched/thresholded entry points beyond
//! the plain [`Metric::dist`]:
//!
//! * [`Metric::dist_le`] answers `d(a, b) ≤ τ` **without** committing to the
//!   full distance: the Euclidean kernel accumulates the *squared* distance,
//!   checks a conservative squared bound every block, and bails out early
//!   once the partial sum alone proves `d > τ` — no `sqrt` and often only a
//!   prefix of the dimensions touched. When no early exit fires it falls
//!   through to exactly the same accumulation as `dist`, so the answer is
//!   bit-identical to `dist(a, b) <= tau` (the verification loop depends on
//!   this for exactness).
//! * [`Metric::dist_batch`] computes one query against a contiguous arena
//!   of candidates (the layout [`crate::vector::VectorStore`] and
//!   [`crate::mapping::MappedVectors`] already use), keeping the query hot
//!   in registers/cache across rows.
//!
//! Both have default implementations in terms of `dist`, so custom metrics
//! stay one-method simple. The built-in metrics override `dist_le` with an
//! early-exit kernel (Angular excepted: a dot product has no early exit);
//! `dist_batch` is the default everywhere, one inlined `dist` per row.
//!
//! The arithmetic itself lives in [`crate::kernel`]: explicit SIMD inner
//! loops (AVX2 on x86-64, runtime-detected) over an always-compiled
//! eight-lane scalar ground truth, which every other target runs, every tier
//! bit-identical for finite inputs. See the kernel module docs for the
//! exact-agreement contract and the `PEXESO_FORCE_SCALAR` escape hatch.

use crate::kernel;

/// A metric space over `&[f32]` vectors.
///
/// Implementations must satisfy the metric axioms — in particular the
/// triangle inequality, on which every filtering lemma relies.
///
/// Only [`Metric::dist`], [`Metric::max_dist_unit`] and [`Metric::name`]
/// are required; the kernel methods default to exact fallbacks. Overrides
/// of [`Metric::dist_le`] must return exactly `dist(a, b) <= tau` — they
/// may only be *faster*, never different.
pub trait Metric: Send + Sync + Clone + 'static {
    /// Distance between two equal-length vectors.
    fn dist(&self, a: &[f32], b: &[f32]) -> f32;

    /// Early-exit threshold test: `d(a, b) <= tau`, with license to stop
    /// as soon as the outcome is decided. Must agree exactly with
    /// `self.dist(a, b) <= tau`.
    #[inline]
    fn dist_le(&self, a: &[f32], b: &[f32], tau: f32) -> bool {
        self.dist(a, b) <= tau
    }

    /// Distances from `q` to every `q.len()`-wide row of the contiguous
    /// arena `flat`, written into `out` (`out.len() == flat.len() / q.len()`).
    fn dist_batch(&self, q: &[f32], flat: &[f32], out: &mut [f32]) {
        debug_assert_eq!(flat.len(), q.len() * out.len());
        for (row, o) in flat.chunks_exact(q.len()).zip(out.iter_mut()) {
            *o = self.dist(q, row);
        }
    }

    /// Upper bound on the distance between two L2-unit vectors of the given
    /// dimensionality. Used to resolve ratio-form thresholds (Section V of
    /// the paper) and to bound pivot-space coordinates.
    fn max_dist_unit(&self, dim: usize) -> f32;

    /// Short stable name for diagnostics and persistence validation.
    fn name(&self) -> &'static str;

    /// Whether the space is Euclidean, so that a vector's distances to the
    /// pivots fix its n-simplex apex (Connor et al., "Supermetric search",
    /// *Information Systems* 80, 2019), whose distance to another apex is
    /// an exact lower bound on the distance of the two vectors. The
    /// inverted index then keeps an apex box per leaf cell and the scan
    /// skips a cell whose box lies beyond τ ([`crate::invindex`]). False
    /// unless a metric says otherwise.
    fn simplex_projection(&self) -> bool {
        false
    }
}

/// Euclidean (L2) distance. `max_dist_unit` = 2 for unit vectors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Euclidean;

impl Metric for Euclidean {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        kernel::l2_sq(a, b).sqrt()
    }

    #[inline]
    fn dist_le(&self, a: &[f32], b: &[f32], tau: f32) -> bool {
        kernel::l2_le(a, b, tau)
    }

    fn max_dist_unit(&self, _dim: usize) -> f32 {
        2.0
    }

    fn name(&self) -> &'static str {
        "euclidean"
    }

    fn simplex_projection(&self) -> bool {
        true
    }
}

/// Manhattan (L1) distance. For unit L2 vectors, ‖a−b‖₁ ≤ √dim·‖a−b‖₂ ≤ 2√dim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Manhattan;

impl Metric for Manhattan {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        kernel::l1(a, b)
    }

    #[inline]
    fn dist_le(&self, a: &[f32], b: &[f32], tau: f32) -> bool {
        kernel::l1_le(a, b, tau)
    }

    fn max_dist_unit(&self, dim: usize) -> f32 {
        2.0 * (dim as f32).sqrt()
    }

    fn name(&self) -> &'static str {
        "manhattan"
    }
}

/// Angular distance: `arccos(a·b / (‖a‖‖b‖))`, a true metric on the unit
/// sphere (unlike raw cosine similarity, which violates the triangle
/// inequality). Maximum distance π for antipodal unit vectors. Zero-norm
/// inputs are treated as orthogonal (distance π/2). No early exit exists
/// for the dot product, so `dist_le` keeps the default implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Angular;

impl Metric for Angular {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        let (dot, na, nb) = kernel::angular_parts(a, b);
        if na == 0.0 || nb == 0.0 {
            return std::f32::consts::FRAC_PI_2;
        }
        let cos = (dot / (na.sqrt() * nb.sqrt())).clamp(-1.0, 1.0);
        cos.acos()
    }

    fn max_dist_unit(&self, _dim: usize) -> f32 {
        std::f32::consts::PI
    }

    fn name(&self) -> &'static str {
        "angular"
    }
}

/// Chebyshev (L∞) distance. For unit L2 vectors, ‖a−b‖∞ ≤ ‖a−b‖₂ ≤ 2.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Chebyshev;

impl Metric for Chebyshev {
    #[inline]
    fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        kernel::linf(a, b)
    }

    /// `max` is exact under any evaluation order, so the early exit (bail
    /// at the first block with a coordinate beyond τ) is trivially
    /// equivalent.
    #[inline]
    fn dist_le(&self, a: &[f32], b: &[f32], tau: f32) -> bool {
        kernel::linf_le(a, b, tau)
    }

    fn max_dist_unit(&self, _dim: usize) -> f32 {
        2.0
    }

    fn name(&self) -> &'static str {
        "chebyshev"
    }
}

/// The one place a metric *name* (a manifest's `metric=` line, a
/// [`crate::query::Query::metric`] expectation) becomes a metric *type*:
/// evaluate `$body` — an expression of type `Result<_>` — with `$m` bound
/// to the instance `$name` spells, or refuse the name. Adding a fifth
/// metric means one `impl Metric` above and one arm here; the erased
/// constructors in [`crate::outofcore`] are the only users.
macro_rules! with_metric {
    ($name:expr, |$m:ident| $body:expr) => {
        match $name {
            "euclidean" => {
                let $m = $crate::metric::Euclidean;
                $body
            }
            "manhattan" => {
                let $m = $crate::metric::Manhattan;
                $body
            }
            "chebyshev" => {
                let $m = $crate::metric::Chebyshev;
                $body
            }
            "angular" => {
                let $m = $crate::metric::Angular;
                $body
            }
            other => Err($crate::error::PexesoError::InvalidParameter(format!(
                "unsupported metric '{other}'"
            ))),
        }
    };
}
pub(crate) use with_metric;

/// Refuse a metric name no index can be built or loaded under — for
/// callers that must validate a manifest before they have anything to
/// build (an empty delta log still belongs to a deployment).
pub fn check_name(name: &str) -> crate::error::Result<()> {
    with_metric!(name, |_m| Ok(()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn euclidean_values() {
        assert!((Euclidean.dist(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
        assert_eq!(Euclidean.dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn manhattan_values() {
        assert_eq!(Manhattan.dist(&[0.0, 0.0], &[3.0, 4.0]), 7.0);
    }

    #[test]
    fn chebyshev_values() {
        assert_eq!(Chebyshev.dist(&[0.0, 0.0], &[3.0, 4.0]), 4.0);
    }

    fn triangle_holds<M: Metric>(m: M) {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let a: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let c: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let ab = m.dist(&a, &b);
            let bc = m.dist(&b, &c);
            let ac = m.dist(&a, &c);
            assert!(
                ac <= ab + bc + 1e-4,
                "triangle violated: {ac} > {ab} + {bc}"
            );
            assert!((m.dist(&a, &b) - m.dist(&b, &a)).abs() < 1e-6, "symmetry");
        }
    }

    #[test]
    fn metric_axioms() {
        triangle_holds(Euclidean);
        triangle_holds(Manhattan);
        triangle_holds(Chebyshev);
        triangle_holds(Angular);
    }

    #[test]
    fn angular_values() {
        use std::f32::consts::{FRAC_PI_2, PI};
        assert!(
            Angular.dist(&[1.0, 0.0], &[2.0, 0.0]).abs() < 1e-6,
            "parallel = 0"
        );
        assert!((Angular.dist(&[1.0, 0.0], &[0.0, 1.0]) - FRAC_PI_2).abs() < 1e-6);
        assert!((Angular.dist(&[1.0, 0.0], &[-1.0, 0.0]) - PI).abs() < 1e-5);
        // Zero vectors behave as orthogonal, never NaN.
        assert!((Angular.dist(&[0.0, 0.0], &[1.0, 0.0]) - FRAC_PI_2).abs() < 1e-6);
    }

    #[test]
    fn unit_vector_max_distances() {
        let mut rng = StdRng::seed_from_u64(12);
        let dim = 16;
        for _ in 0..100 {
            let mut a: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let mut b: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            a.iter_mut().for_each(|x| *x /= na);
            b.iter_mut().for_each(|x| *x /= nb);
            assert!(Euclidean.dist(&a, &b) <= Euclidean.max_dist_unit(dim) + 1e-5);
            assert!(Manhattan.dist(&a, &b) <= Manhattan.max_dist_unit(dim) + 1e-5);
            assert!(Chebyshev.dist(&a, &b) <= Chebyshev.max_dist_unit(dim) + 1e-5);
        }
    }

    fn random_pair(rng: &mut StdRng, dim: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let b: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        (a, b)
    }

    /// The kernel contract: `dist_le` agrees with `dist() <= tau` exactly,
    /// including when tau is the computed distance itself (the boundary).
    fn dist_le_is_exact<M: Metric>(m: M) {
        let mut rng = StdRng::seed_from_u64(77);
        for dim in [1usize, 3, 4, 7, 8, 31, 32, 64, 129] {
            for _ in 0..200 {
                let (a, b) = random_pair(&mut rng, dim);
                let d = m.dist(&a, &b);
                for tau in [d, d * 0.999, d * 1.001, rng.gen_range(0.0f32..3.0), 0.0] {
                    assert_eq!(
                        m.dist_le(&a, &b, tau),
                        m.dist(&a, &b) <= tau,
                        "{} dim={dim} d={d} tau={tau}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dist_le_matches_dist_exactly() {
        dist_le_is_exact(Euclidean);
        dist_le_is_exact(Manhattan);
        dist_le_is_exact(Chebyshev);
        dist_le_is_exact(Angular);
    }

    /// `dist_batch` agrees with per-row `dist` bit-for-bit.
    fn dist_batch_is_exact<M: Metric>(m: M) {
        let mut rng = StdRng::seed_from_u64(78);
        for dim in [1usize, 4, 17, 64] {
            let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let rows = 37;
            let flat: Vec<f32> = (0..rows * dim)
                .map(|_| rng.gen_range(-1.0f32..1.0))
                .collect();
            let mut out = vec![0.0f32; rows];
            m.dist_batch(&q, &flat, &mut out);
            for (i, row) in flat.chunks_exact(dim).enumerate() {
                assert_eq!(out[i], m.dist(&q, row), "{} dim={dim} row={i}", m.name());
            }
        }
    }

    #[test]
    fn dist_batch_matches_dist_exactly() {
        dist_batch_is_exact(Euclidean);
        dist_batch_is_exact(Manhattan);
        dist_batch_is_exact(Chebyshev);
        dist_batch_is_exact(Angular);
    }

    #[test]
    fn dist_le_tiny_tau_never_false_positives() {
        // Degenerate thresholds (0, subnormal) must stay exact.
        let a = [0.5f32; 64];
        let mut b = a;
        assert!(Euclidean.dist_le(&a, &b, 0.0));
        b[63] += 1e-3;
        assert!(!Euclidean.dist_le(&a, &b, 0.0));
        assert!(!Euclidean.dist_le(&a, &b, 1e-30));
        assert!(Euclidean.dist_le(&a, &b, 1e-2));
    }
}

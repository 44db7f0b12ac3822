//! Differential sweep pinning the SIMD kernel tiers to the scalar ground
//! truth.
//!
//! The kernel contract (see `pexeso_core::kernel`) is *exact agreement*:
//! on whatever tier the host dispatches to (AVX2, NEON, or scalar), every
//! entry point returns bit-identical results to its always-compiled
//! scalar counterpart — same lane-wise accumulation, same canonical
//! reduction. These tests drive the dispatched entries against the
//! `*_scalar` forms across unaligned lengths (every remainder class of
//! the 8-lane block), boundary thresholds, and IEEE edge values (zeros,
//! subnormals, ±MAX and the infinities they overflow into).
//!
//! On a host without SIMD (or under `PEXESO_FORCE_SCALAR=1`) the sweep
//! degenerates to scalar-vs-scalar and passes trivially; CI runs both
//! configurations so the SIMD tiers are genuinely exercised where the
//! hardware allows.

use pexeso_core::kernel;
use pexeso_core::metric::{Angular, Chebyshev, Euclidean, Manhattan, Metric};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lengths covering every `len % 8` remainder, the one-block boundary,
/// and multi-block vectors with and without tails.
const DIMS: &[usize] = &[
    1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 15, 16, 17, 23, 31, 32, 33, 47, 63, 64, 65, 100, 127, 128, 129,
    255,
];

/// IEEE f32 edge values the kernels must carry through unchanged: signed
/// zeros, the smallest subnormal, the smallest normal, and magnitudes
/// whose squares overflow to infinity.
const EDGES: &[f32] = &[
    0.0,
    -0.0,
    f32::from_bits(1), // smallest positive subnormal
    -f32::from_bits(1),
    f32::MIN_POSITIVE,
    f32::MAX,
    -f32::MAX,
    1.0,
    -1.0,
    1e-20,
    -3.5,
];

fn random_vec(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
}

/// A vector sprinkled with edge values at random positions.
fn edgy_vec(rng: &mut StdRng, dim: usize) -> Vec<f32> {
    (0..dim)
        .map(|_| {
            if rng.gen_range(0u32..3) == 0 {
                EDGES[rng.gen_range(0..EDGES.len())]
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

/// Bitwise f32 equality (distinguishes NaN payloads and signed zeros —
/// stronger than `==`, which is exactly what "bit-identical" promises).
fn assert_bits_eq(a: f32, b: f32, what: &str, dim: usize) {
    assert!(
        a.to_bits() == b.to_bits(),
        "{what} dim={dim}: dispatched {a:?} ({:#010x}) != scalar {b:?} ({:#010x})",
        a.to_bits(),
        b.to_bits()
    );
}

#[test]
fn distances_match_scalar_bitwise() {
    let mut rng = StdRng::seed_from_u64(0x51D);
    for &dim in DIMS {
        for case in 0..40 {
            let (a, b) = if case % 2 == 0 {
                (random_vec(&mut rng, dim), random_vec(&mut rng, dim))
            } else {
                (edgy_vec(&mut rng, dim), edgy_vec(&mut rng, dim))
            };
            assert_bits_eq(
                kernel::l2_sq(&a, &b),
                kernel::l2_sq_scalar(&a, &b),
                "l2_sq",
                dim,
            );
            assert_bits_eq(kernel::l1(&a, &b), kernel::l1_scalar(&a, &b), "l1", dim);
            assert_bits_eq(
                kernel::linf(&a, &b),
                kernel::linf_scalar(&a, &b),
                "linf",
                dim,
            );
            let (dot, na, nb) = kernel::angular_parts(&a, &b);
            let (dot_s, na_s, nb_s) = kernel::angular_parts_scalar(&a, &b);
            assert_bits_eq(dot, dot_s, "angular dot", dim);
            assert_bits_eq(na, na_s, "angular |a|²", dim);
            assert_bits_eq(nb, nb_s, "angular |b|²", dim);
        }
    }
}

#[test]
fn threshold_tests_match_scalar_at_boundaries() {
    let mut rng = StdRng::seed_from_u64(0x7A0);
    for &dim in DIMS {
        for case in 0..30 {
            let (a, b) = if case % 2 == 0 {
                (random_vec(&mut rng, dim), random_vec(&mut rng, dim))
            } else {
                (edgy_vec(&mut rng, dim), edgy_vec(&mut rng, dim))
            };
            let l2 = kernel::l2_sq_scalar(&a, &b).sqrt();
            let l1 = kernel::l1_scalar(&a, &b);
            let linf = kernel::linf_scalar(&a, &b);
            // Boundary taus (the computed distance itself, nudged both
            // ways) are where an over-eager early exit would diverge.
            for scale in [1.0f32, 0.999, 1.001, 0.5, 2.0, 0.0] {
                let t2 = l2 * scale;
                let t1 = l1 * scale;
                let ti = linf * scale;
                assert_eq!(
                    kernel::l2_le(&a, &b, t2),
                    kernel::l2_le_scalar(&a, &b, t2),
                    "l2_le dim={dim} tau={t2}"
                );
                assert_eq!(
                    kernel::l1_le(&a, &b, t1),
                    kernel::l1_le_scalar(&a, &b, t1),
                    "l1_le dim={dim} tau={t1}"
                );
                assert_eq!(
                    kernel::linf_le(&a, &b, ti),
                    kernel::linf_le_scalar(&a, &b, ti),
                    "linf_le dim={dim} tau={ti}"
                );
            }
            // And a handful of arbitrary taus, including subnormal ones.
            for tau in [0.0f32, f32::from_bits(1), 1e-10, 0.3, 10.0] {
                assert_eq!(
                    kernel::l2_le(&a, &b, tau),
                    kernel::l2_le_scalar(&a, &b, tau),
                    "l2_le dim={dim} tau={tau}"
                );
            }
        }
    }
}

#[test]
fn dist_le_agrees_with_dist_for_all_metrics() {
    // The metric-level contract on the dispatched tier: `dist_le` is
    // exactly `dist() <= tau`, whatever the tier decides to early-exit on.
    let mut rng = StdRng::seed_from_u64(0xD15);
    for &dim in DIMS {
        for _ in 0..20 {
            let a = edgy_vec(&mut rng, dim);
            let b = edgy_vec(&mut rng, dim);
            macro_rules! check {
                ($m:expr) => {
                    let d = $m.dist(&a, &b);
                    for tau in [d, d * 0.999, d * 1.001, 0.0, rng.gen_range(0.0f32..3.0)] {
                        assert_eq!(
                            $m.dist_le(&a, &b, tau),
                            d <= tau,
                            "{} dim={dim} d={d} tau={tau}",
                            $m.name()
                        );
                    }
                };
            }
            check!(Euclidean);
            check!(Manhattan);
            check!(Chebyshev);
            check!(Angular);
        }
    }
}

#[test]
fn dist_batch_matches_per_row_dist_bitwise() {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    for &dim in &[1usize, 7, 8, 17, 64, 129] {
        let rows = 41;
        let q = edgy_vec(&mut rng, dim);
        let flat: Vec<f32> = (0..rows).flat_map(|_| edgy_vec(&mut rng, dim)).collect();
        macro_rules! check {
            ($m:expr) => {
                let mut out = vec![0.0f32; rows];
                $m.dist_batch(&q, &flat, &mut out);
                for (i, row) in flat.chunks_exact(dim).enumerate() {
                    let solo = $m.dist(&q, row);
                    assert!(
                        out[i].to_bits() == solo.to_bits(),
                        "{} dim={dim} row={i}: batch {:?} != solo {:?}",
                        $m.name(),
                        out[i],
                        solo
                    );
                }
            };
        }
        check!(Euclidean);
        check!(Manhattan);
        check!(Chebyshev);
        check!(Angular);
    }
}

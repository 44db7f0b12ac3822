//! Differential sweep pinning the SIMD kernel tiers to the scalar ground
//! truth.
//!
//! The kernel contract (see `pexeso_core::kernel`) is *exact agreement*:
//! on whatever tier the host dispatches to (AVX2 or scalar), every
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

use pexeso_core::grid::GridParams;
use pexeso_core::invindex::{ApexBoxes, InvertedIndex, SimplexBase};
use pexeso_core::kernel::{self, LiveColumns, SimplexLanes};
use pexeso_core::mapping::MappedVectors;
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

/// Row coordinates the stage-1 kernel must carry like the scalar tier:
/// NaN, the infinities, subnormals, signed zeros and the largest finite
/// magnitudes.
const STAGE1_EDGES: &[f32] = &[
    f32::NAN,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::from_bits(1),
    -f32::from_bits(1),
    0.0,
    -0.0,
    f32::MAX,
    -f32::MAX,
];

/// The apex boxes of a small Euclidean index over `n` random pivots: what
/// turns a query vector's pivot coordinates into its apex interval.
fn apex_boxes(rng: &mut StdRng, n: usize) -> ApexBoxes {
    let dim = n + 3;
    let pivots: Vec<Vec<f32>> = (0..n).map(|_| random_vec(rng, dim)).collect();
    let base = SimplexBase::of(&pivots, &Euclidean).expect("random pivots span a simplex");
    let rows: Vec<f32> = (0..4 * n).map(|_| rng.gen_range(0.0f32..4.0)).collect();
    let mapped = MappedVectors::from_raw(n, rows).unwrap();
    let params = GridParams::new(n, 1, 8.0).unwrap();
    let (inv, _) = InvertedIndex::build(&params, &mapped, &[0; 4], Some(base)).unwrap();
    inv.apex().expect("a base gives apexes").clone()
}

/// Stage 1 of the candidate scan on the dispatched tier keeps the same
/// rows in the same order, and counts the same rejections, as the scalar
/// tier: for |P| = 1..=16, every window length from 0 to 17 (one step of
/// eight rows, two, and every tail), columns dead, matched and live, and
/// row and query coordinates sprinkled with NaN, ±∞, subnormals and ±0.
#[test]
fn stage1_kernel_matches_scalar() {
    let mut rng = StdRng::seed_from_u64(0x57A6E1);
    let mut kept_some = 0;
    for n in 1..=16usize {
        let boxes = apex_boxes(&mut rng, n);
        for len in 0..=17usize {
            for _ in 0..6 {
                let coord = |rng: &mut StdRng| {
                    if rng.gen_range(0u32..5) == 0 {
                        STAGE1_EDGES[rng.gen_range(0..STAGE1_EDGES.len())]
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                };
                let coords: Vec<f32> = (0..len * n).map(|_| coord(&mut rng)).collect();
                let q: Vec<f32> = (0..n).map(|_| coord(&mut rng).abs()).collect();
                let lanes = SimplexLanes::new(&boxes.query(&q), n, rng.gen_range(0.0f64..6.0));
                let gen = [0, 3, u32::MAX - 1][rng.gen_range(0..3usize)];
                let state: Vec<u32> = (0..5)
                    .map(|_| [0, gen.saturating_sub(1), gen, u32::MAX][rng.gen_range(0..4usize)])
                    .collect();
                let c_lo = 7u32;
                let cols: Vec<u32> = (0..len).map(|_| c_lo + rng.gen_range(0u32..5)).collect();
                let live = LiveColumns {
                    c_lo,
                    state: &state,
                    gen,
                };
                let first = rng.gen_range(0u32..1000);
                let mut got = vec![u32::MAX; len];
                let mut want = vec![u32::MAX; len];
                let (k, r) = kernel::simplex_rows(&coords, &cols, first, live, &lanes, &mut got);
                let (ks, rs) =
                    kernel::simplex_rows_scalar(&coords, &cols, first, live, &lanes, &mut want);
                assert_eq!((k, r), (ks, rs), "n={n} len={len}");
                assert_eq!(got[..k], want[..ks], "n={n} len={len}");
                kept_some += usize::from(k > 0 && r > 0);
            }
        }
    }
    assert!(
        kept_some > 100,
        "the sweep must keep and reject rows: {kept_some}"
    );
}

/// CRC32C one bit at a time (RFC 3720's reflected polynomial), the
/// reference the dispatched `codec::crc32c` — the SSE4.2 instruction where
/// the CPU has it, else the slicing-by-8 tables — must equal.
fn crc32c_bitwise(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82f6_3b78
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[test]
fn crc32c_matches_a_bitwise_reference() {
    use pexeso_core::codec::crc32c;
    assert_eq!(crc32c(b"123456789"), 0xe306_9283);
    let mut rng = StdRng::seed_from_u64(0xc3c);
    // Every tail length of the 8-byte word loop, and longer inputs.
    for len in (0..=40).chain([63, 64, 65, 255, 1000]) {
        let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
        assert_eq!(crc32c(&bytes), crc32c_bitwise(&bytes), "len {len}");
    }
}

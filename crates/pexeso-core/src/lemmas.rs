//! Lemmas 1, 2, 3 and 5 as pure predicates (Section III-A/B), and the
//! n-simplex row bounds that take the place of Lemmas 1 and 2 on a
//! Euclidean index.
//!
//! The lemmas operate in the pivot space. The paper's cell-cell Lemmas 4
//! and 6 decide nothing on a leaf that Lemmas 3 and 5 do not decide for
//! each of its query vectors, so blocking tests those alone
//! ([`crate::block`]). The n-simplex bounds (Connor et
//! al., "Supermetric search", 2019) operate on apexes
//! ([`crate::invindex`]): the apex distance is an exact lower bound on the
//! Euclidean distance, and at least as tight as Lemma 1 on every pivot;
//! with one apex reflected through the pivots' span it is an upper bound,
//! at least as tight as Lemma 2. Filtering predicates may only
//! return `true` when the pair is *provably* non-matching; matching
//! predicates may only return `true` when the pair is *provably* matching.
//! A small epsilon guards against f32 rounding at cell boundaries: filters
//! require clearance beyond `EPS`, matches require margin beyond `EPS`, so
//! borderline pairs fall through to exact verification — which keeps the
//! overall algorithm exact.

use crate::grid::CellBounds;
use crate::invindex::Apex;

/// Safety margin for boundary comparisons in pivot space.
pub(crate) const EPS: f32 = 1e-5;

/// Lemma 1 (pivot filtering): `q` cannot match `x` if some pivot dimension
/// has `|d(q,p) − d(x,p)| > τ`. Returns `true` when `x` is safely pruned.
///
/// A branch-free fold over the pivot dimensions, not a short-circuiting
/// `any`: |P| is a handful, and verification calls this once per live
/// candidate row, where an unpredictable early exit costs more than the
/// comparisons it saves.
#[inline]
pub fn lemma1_filter(q_mapped: &[f32], x_mapped: &[f32], tau: f32) -> bool {
    debug_assert_eq!(q_mapped.len(), x_mapped.len());
    let bound = tau + EPS;
    q_mapped
        .iter()
        .zip(x_mapped.iter())
        .fold(false, |out, (q, x)| out | ((q - x).abs() > bound))
}

/// Lemma 2 (pivot matching): `q` surely matches `x` if some pivot `p` has
/// `d(q,p) + d(x,p) ≤ τ`. Returns `true` when the match is certain.
#[inline]
pub fn lemma2_match(q_mapped: &[f32], x_mapped: &[f32], tau: f32) -> bool {
    debug_assert_eq!(q_mapped.len(), x_mapped.len());
    q_mapped
        .iter()
        .zip(x_mapped.iter())
        .any(|(q, x)| q + x <= tau - EPS)
}

/// n-simplex filtering, Lemma 1's counterpart on apexes: `q` cannot match
/// the row whose stored apex is `x` if `x` lies farther than `√reach2`
/// from `q`'s apex interval. `reach2` is the cell's first
/// [`crate::invindex::ApexBoxes::row_reach`]: `τ + EPS`, widened for how
/// far a stored apex can lie from the true one. Returns `true` when `x` is
/// safely pruned. A NaN coordinate never prunes.
///
/// This is the exact bound, in `f64`. The scan evaluates it in `f32`
/// lanes, widened so that it prunes no row this one keeps
/// ([`crate::kernel::SimplexLanes`]).
#[inline]
pub fn simplex_filter(q: &Apex, x: &[f32], reach2: f64) -> bool {
    q.gap2(x) > reach2
}

/// n-simplex matching, Lemma 2's counterpart on apexes: `q` surely matches
/// the row whose stored apex is `x` if the farthest point of `q`'s apex
/// interval from `x`, with the two heights on opposite sides of the
/// pivots' span, lies within `√within2` of it — the cell's second
/// [`crate::invindex::ApexBoxes::row_reach`], `τ − EPS` narrowed by the
/// same widening. Returns `true` when the match is certain.
///
/// The heights alone usually rule a match out (two vectors seldom both lie
/// within `τ` of the pivots' span), so they are tested first.
#[inline]
pub fn simplex_match(q: &Apex, x: &[f32], within2: f64) -> bool {
    let Some((&height, linear)) = x.split_last() else {
        return false;
    };
    let heights = q.hi[linear.len()] + height as f64;
    let mut far2 = heights * heights;
    if far2 > within2 {
        return false;
    }
    for ((&lo, &hi), &x) in q.lo.iter().zip(&q.hi).zip(linear) {
        let x = x as f64;
        let far = (x - lo).abs().max((hi - x).abs());
        far2 += far * far;
    }
    far2 <= within2
}

/// Lemma 3 (vector-cell filtering): no vector in the target cell `c` can
/// match `q` if `c` is disjoint from the square query region
/// `SQR(q', τ) = ∏ᵢ [q'ᵢ − τ, q'ᵢ + τ]`.
#[inline]
pub fn lemma3_vector_cell_filter(q_mapped: &[f32], c: &CellBounds, tau: f32) -> bool {
    debug_assert_eq!(q_mapped.len(), c.n);
    for (i, &q) in q_mapped.iter().enumerate().take(c.n) {
        if c.lower[i] > q + tau + EPS || c.upper[i] < q - tau - EPS {
            return true;
        }
    }
    false
}

/// Lemma 5 (vector-cell matching): every vector in target cell `c` matches
/// `q` if some pivot dimension `i` has `c.upperᵢ ≤ τ − d(q,pᵢ)` (the cell
/// lies inside the rectangle query region `RQR(q', pᵢ, τ)`).
#[inline]
pub fn lemma5_vector_cell_match(q_mapped: &[f32], c: &CellBounds, tau: f32) -> bool {
    debug_assert_eq!(q_mapped.len(), c.n);
    for (i, &q) in q_mapped.iter().enumerate().take(c.n) {
        let edge = tau - q;
        if edge > 0.0 && c.upper[i] <= edge - EPS {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{CellKey, GridParams};
    use crate::mapping::MappedVectors;
    use crate::metric::{Euclidean, Metric};
    use crate::vector::VectorStore;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bounds(lower: &[f32], upper: &[f32]) -> CellBounds {
        let mut b = CellBounds {
            lower: [0.0; 16],
            upper: [0.0; 16],
            n: lower.len(),
        };
        b.lower[..lower.len()].copy_from_slice(lower);
        b.upper[..upper.len()].copy_from_slice(upper);
        b
    }

    #[test]
    fn lemma1_prunes_only_beyond_tau() {
        assert!(lemma1_filter(&[1.0, 1.0], &[2.5, 1.0], 1.0));
        assert!(!lemma1_filter(&[1.0, 1.0], &[1.9, 1.0], 1.0));
        // Boundary: |q-x| == tau must NOT prune (d <= tau counts as match).
        assert!(!lemma1_filter(&[1.0], &[2.0], 1.0));
    }

    #[test]
    fn lemma2_matches_only_within_tau() {
        assert!(lemma2_match(&[0.2, 5.0], &[0.2, 5.0], 0.5));
        assert!(!lemma2_match(&[0.3, 5.0], &[0.3, 5.0], 0.5));
    }

    #[test]
    fn lemma3_disjoint_cell_pruned() {
        let c = bounds(&[3.0, 3.0], &[4.0, 4.0]);
        assert!(lemma3_vector_cell_filter(&[1.0, 1.0], &c, 1.0));
        assert!(!lemma3_vector_cell_filter(&[2.5, 2.5], &c, 1.0));
    }

    #[test]
    fn lemma5_cell_inside_rqr_matches() {
        let c = bounds(&[0.0, 0.0], &[0.2, 9.0]);
        // dim 0: tau - d(q,p0) = 0.5 - 0.2 = 0.3 >= upper 0.2 -> match.
        assert!(lemma5_vector_cell_match(&[0.2, 3.0], &c, 0.5));
        // tau - d = 0.1 < upper -> no certain match.
        assert!(!lemma5_vector_cell_match(&[0.4, 3.0], &c, 0.5));
        // Negative edge length: no RQR for that pivot.
        assert!(!lemma5_vector_cell_match(&[0.9, 3.0], &c, 0.5));
    }

    /// Soundness fuzz: on random unit vectors, Lemma 1 must never prune a
    /// true match, Lemma 2 must never accept a non-match, and the cell
    /// predicates must agree with brute force.
    #[test]
    fn soundness_on_random_data() {
        let mut rng = StdRng::seed_from_u64(99);
        let dim = 16;
        let n = 150;
        let mut store = VectorStore::new(dim);
        for _ in 0..n {
            let mut v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
            v.iter_mut().for_each(|x| *x /= norm);
            store.push(&v).unwrap();
        }
        let pivots: Vec<Vec<f32>> = (0..3).map(|i| store.get_raw(i * 7).to_vec()).collect();
        let mapped = MappedVectors::build(&store, &pivots, &Euclidean, None).unwrap();
        let params = GridParams::new(3, 3, 2.0 + 1e-4).unwrap();
        let tau = 0.4f32;

        for qi in 0..20 {
            let q = store.get_raw(qi);
            let qm = mapped.get(qi);
            for xi in 0..n {
                let x = store.get_raw(xi);
                let xm = mapped.get(xi);
                let d = Euclidean.dist(q, x);
                if d <= tau {
                    assert!(!lemma1_filter(qm, xm, tau), "lemma1 pruned a match (d={d})");
                }
                if lemma2_match(qm, xm, tau) {
                    assert!(d <= tau + 1e-4, "lemma2 accepted a non-match (d={d})");
                }
                // Cell-level: the leaf cell containing x.
                let key: CellKey = params.leaf_key(xm);
                let cb = params.bounds(key, 3);
                if d <= tau {
                    assert!(
                        !lemma3_vector_cell_filter(qm, &cb, tau),
                        "lemma3 pruned the cell of a match"
                    );
                }
                if lemma5_vector_cell_match(qm, &cb, tau) {
                    assert!(d <= tau + 1e-4, "lemma5 matched the cell of a non-match");
                }
            }
        }
    }
}

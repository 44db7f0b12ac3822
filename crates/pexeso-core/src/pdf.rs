//! 1-D probability mass functions and divergences.
//!
//! Used in two places: the cost model's per-dimension PDFs of mapped
//! vectors (Eq. 2), and the column-distribution summaries that drive the
//! JSD partitioner (Section IV).

/// A fixed-range, binned probability mass function: mass normalised to 1
/// (when non-empty).
#[derive(Debug, Clone, PartialEq)]
pub struct Pdf {
    lo: f32,
    hi: f32,
    bins: Vec<f64>,
    count: u64,
}

impl Pdf {
    /// Build over `[lo, hi]` with `nbins` bins; values outside the range
    /// clamp into the boundary bins.
    pub fn from_values(
        values: impl IntoIterator<Item = f32>,
        lo: f32,
        hi: f32,
        nbins: usize,
    ) -> Self {
        assert!(nbins > 0 && hi > lo, "bad histogram range/bins");
        let mut bins = vec![0.0f64; nbins];
        let mut count = 0u64;
        let width = (hi - lo) / nbins as f32;
        for v in values {
            let idx = (((v - lo) / width).floor() as i64).clamp(0, nbins as i64 - 1) as usize;
            bins[idx] += 1.0;
            count += 1;
        }
        if count > 0 {
            let inv = 1.0 / count as f64;
            bins.iter_mut().for_each(|b| *b *= inv);
        }
        Self {
            lo,
            hi,
            bins,
            count,
        }
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Fraction of mass in `[a, b]` (bins overlapping the range count
    /// fully — a deliberate upper bound matching Eq. 2's role).
    pub fn mass_in(&self, a: f32, b: f32) -> f64 {
        if b < a || self.count == 0 {
            return 0.0;
        }
        let width = (self.hi - self.lo) / self.bins.len() as f32;
        let first =
            (((a - self.lo) / width).floor() as i64).clamp(0, self.bins.len() as i64 - 1) as usize;
        let last =
            (((b - self.lo) / width).floor() as i64).clamp(0, self.bins.len() as i64 - 1) as usize;
        self.bins[first..=last].iter().sum()
    }

    /// Smoothed probability vector (Laplace ε), normalised to sum 1 — the
    /// representation handed to the divergence functions.
    pub fn smoothed(&self, eps: f64) -> Vec<f64> {
        let total: f64 = self.bins.iter().sum::<f64>() + eps * self.bins.len() as f64;
        self.bins.iter().map(|b| (b + eps) / total).collect()
    }
}

/// KL divergence between two probability vectors (natural log). Assumes
/// strictly positive entries (use [`Pdf::smoothed`]).
pub(crate) fn kl_divergence(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b.iter())
        .map(|(&pa, &pb)| if pa > 0.0 { pa * (pa / pb).ln() } else { 0.0 })
        .sum()
}

/// The divergence the paper calls JSD (Section IV): the symmetrised KL
/// `(KL(A‖B) + KL(B‖A)) / 2`.
pub fn jsd_paper(a: &[f64], b: &[f64]) -> f64 {
    (kl_divergence(a, b) + kl_divergence(b, a)) / 2.0
}

/// The standard Jensen–Shannon divergence (bounded by ln 2), provided for
/// comparison/ablation.
pub fn jensen_shannon(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let m: Vec<f64> = a.iter().zip(b.iter()).map(|(x, y)| (x + y) / 2.0).collect();
    (kl_divergence(a, &m) + kl_divergence(b, &m)) / 2.0
}

/// Element-wise mean of probability vectors (k-means centroid update).
pub fn mean_distribution(dists: &[&[f64]]) -> Vec<f64> {
    assert!(!dists.is_empty());
    let n = dists[0].len();
    let mut out = vec![0.0f64; n];
    for d in dists {
        debug_assert_eq!(d.len(), n);
        for (o, x) in out.iter_mut().zip(d.iter()) {
            *o += x;
        }
    }
    let inv = 1.0 / dists.len() as f64;
    out.iter_mut().for_each(|x| *x *= inv);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_masses_sum_to_one() {
        let h = Pdf::from_values([0.1f32, 0.2, 0.5, 0.9], 0.0, 1.0, 4);
        let sum: f64 = h.bins.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert_eq!(h.count(), 4);
    }

    #[test]
    fn out_of_range_values_clamp() {
        let h = Pdf::from_values([-5.0f32, 5.0], 0.0, 1.0, 2);
        assert!((h.bins[0] - 0.5).abs() < 1e-12);
        assert!((h.bins[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn mass_in_covers_overlapping_bins() {
        let h = Pdf::from_values([0.05f32, 0.15, 0.25, 0.35], 0.0, 0.4, 4);
        assert!((h.mass_in(0.0, 0.09) - 0.25).abs() < 1e-12);
        assert!((h.mass_in(0.12, 0.28) - 0.5).abs() < 1e-12);
        assert_eq!(h.mass_in(0.3, 0.1), 0.0);
        assert!((h.mass_in(-1.0, 1.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Pdf::from_values(std::iter::empty::<f32>(), 0.0, 1.0, 4);
        assert_eq!(h.mass_in(0.0, 1.0), 0.0);
        let s = h.smoothed(1e-6);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kl_zero_iff_equal() {
        let a = vec![0.25; 4];
        assert!(kl_divergence(&a, &a).abs() < 1e-12);
        let b = vec![0.7, 0.1, 0.1, 0.1];
        assert!(kl_divergence(&a, &b) > 0.0);
    }

    #[test]
    fn jsd_paper_is_symmetric_and_nonnegative() {
        let a = vec![0.7, 0.1, 0.1, 0.1];
        let b = vec![0.1, 0.1, 0.1, 0.7];
        assert!((jsd_paper(&a, &b) - jsd_paper(&b, &a)).abs() < 1e-12);
        assert!(jsd_paper(&a, &b) > 0.0);
        assert!(jsd_paper(&a, &a).abs() < 1e-12);
    }

    #[test]
    fn jensen_shannon_bounded_by_ln2() {
        let a = vec![1.0 - 3e-9, 1e-9, 1e-9, 1e-9];
        let b = vec![1e-9, 1e-9, 1e-9, 1.0 - 3e-9];
        let j = jensen_shannon(&a, &b);
        assert!(j > 0.0 && j <= std::f64::consts::LN_2 + 1e-9, "jsd={j}");
    }

    #[test]
    fn mean_distribution_averages() {
        let a = vec![1.0, 0.0];
        let b = vec![0.0, 1.0];
        let m = mean_distribution(&[&a, &b]);
        assert_eq!(m, vec![0.5, 0.5]);
    }
}

//! Percentiles.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; `NaN` for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, p)
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Samples strictly above the `p`-quantile: a percentile is reported
/// only with at least ten of them beyond it.
pub fn samples_beyond(samples: &[f64], p: f64) -> usize {
    let cut = percentile(samples, p);
    samples.iter().filter(|&&s| s > cut).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!((percentile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn beyond_counts_strictly_larger_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(&s, 0.9), 10);
        assert_eq!(samples_beyond(&s, 0.5), 50);
    }
}

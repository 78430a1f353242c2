//! Summary arithmetic: the percentile rule, failure accounting and
//! medians.

/// A percentile is reported only when at least this many samples lie
/// strictly beyond it; below that it is one or two unlucky samples,
/// not a tail.
pub const MIN_BEYOND: usize = 10;

/// A reported percentile with the counts that back it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// The sample at the nearest rank `ceil(p·n)`.
    pub value: f64,
    /// Samples in the summary.
    pub n: usize,
    /// Samples ranked strictly beyond the reported one.
    pub beyond: usize,
}

/// Nearest-rank percentile `p ∈ (0, 1)` of `sorted` (ascending), or
/// `None` when fewer than [`MIN_BEYOND`] samples would lie beyond it.
pub fn quantile(sorted: &[f64], p: f64) -> Option<Quantile> {
    assert!(p > 0.0 && p < 1.0, "percentile must be inside (0, 1)");
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "input must be sorted"
    );
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    (beyond >= MIN_BEYOND).then(|| Quantile {
        value: sorted[rank - 1],
        n,
        beyond,
    })
}

/// Sorts a copy of `samples` (NaN-free) ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `samples` (mean of the middle pair for even counts).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let v = sorted(samples);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Share of offered requests that did not produce a correct reply:
/// transport failures, admission drops and wrong replies all count.
pub fn failed_frac(offered: u64, failed: u64, dropped: u64, wrong: u64) -> f64 {
    if offered == 0 {
        return 0.0;
    }
    (failed + dropped + wrong) as f64 / offered as f64
}

/// `num / den`, or `0` when nothing was counted in the base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, ten beyond it.
        let q = quantile(&ramp(1000), 0.99).unwrap();
        assert_eq!(q.value, 990.0);
        assert_eq!((q.n, q.beyond), (1000, 10));
        // 999 samples: rank 990, only nine beyond — not reported.
        assert_eq!(quantile(&ramp(999), 0.99), None);
    }

    #[test]
    fn p999_and_median_follow_nearest_rank() {
        let q = quantile(&ramp(20_000), 0.999).unwrap();
        assert_eq!((q.value, q.beyond), (19_980.0, 20));
        let m = quantile(&ramp(101), 0.5).unwrap();
        assert_eq!((m.value, m.beyond), (51.0, 50));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&ramp(15), 0.5), None);
    }

    #[test]
    fn failed_frac_counts_drops_and_wrong_replies() {
        assert_eq!(failed_frac(1000, 0, 0, 0), 0.0);
        assert_eq!(failed_frac(1000, 1, 2, 3), 0.006);
        // A drop is a failure even though nothing was dispatched.
        assert_eq!(failed_frac(10, 0, 10, 0), 1.0);
        assert_eq!(failed_frac(0, 0, 0, 0), 0.0);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}

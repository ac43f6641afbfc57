//! Order statistics over timing and error samples.
//!
//! Percentiles are given in per mille (`990` = p99) so rank arithmetic
//! stays in integers: `0.99 * 1000.0` is not exactly `990.0` in binary
//! floating point, and an off-by-one rank would move the sample count
//! beyond the percentile.

/// A percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the tail is one or two outliers, not a
/// measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of the `per_mille` percentile among `n > 0`
/// sorted samples: the smallest index whose cumulative share reaches it.
fn rank(n: usize, per_mille: usize) -> usize {
    (n * per_mille).div_ceil(1000).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank position of `per_mille`.
pub fn beyond(n: usize, per_mille: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n - 1 - rank(n, per_mille)
}

/// The `per_mille` percentile of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    (beyond(sorted.len(), per_mille) >= MIN_BEYOND).then(|| sorted[rank(sorted.len(), per_mille)])
}

/// Median of ascending `sorted` (mean of the middle pair for even
/// counts); `NaN` when empty.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// An ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `per_mille` percentile of a weighted sample: `(value, weight)`
/// pairs sorted by value, nearest rank over the total weight — each
/// query template stands for every request that drew it.
pub fn weighted_percentile(sorted_by_value: &[(f64, u64)], per_mille: usize) -> f64 {
    let total: u64 = sorted_by_value.iter().map(|(_, w)| w).sum();
    if total == 0 {
        return f64::NAN;
    }
    let target = rank(total as usize, per_mille) as u64;
    let mut seen = 0u64;
    for &(value, weight) in sorted_by_value {
        seen += weight;
        if seen > target {
            return value;
        }
    }
    sorted_by_value[sorted_by_value.len() - 1].0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1,000 samples: rank 989 (value 990), ten samples beyond it.
        assert_eq!(beyond(1000, 990), 10);
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        // One sample fewer leaves only nine beyond: refused.
        assert_eq!(beyond(999, 990), 9);
        assert_eq!(percentile(&ramp(999), 990), None);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(percentile(&ramp(100), 900), Some(90.0));
        assert_eq!(percentile(&ramp(99), 900), None);
    }

    #[test]
    fn median_matches_p50_on_odd_counts() {
        let v = ramp(101);
        assert_eq!(median(&v), 51.0);
        assert_eq!(percentile(&v, 500), Some(51.0));
        assert_eq!(median(&ramp(4)), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(percentile(&[], 500), None);
    }

    #[test]
    fn weighted_percentile_counts_weights_as_samples() {
        // 90 samples of 0.0 and 10 of 1.0: p90 is still 0.0, p91 is 1.0,
        // exactly what the expanded sample gives.
        let v = [(0.0, 90), (1.0, 10)];
        assert_eq!(weighted_percentile(&v, 900), 0.0);
        assert_eq!(weighted_percentile(&v, 910), 1.0);
        let expanded: Vec<f64> = (0..100).map(|i| if i < 90 { 0.0 } else { 1.0 }).collect();
        assert_eq!(expanded[rank(100, 900)], 0.0);
        assert_eq!(expanded[rank(100, 910)], 1.0);
    }
}

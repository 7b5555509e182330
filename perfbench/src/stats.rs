//! Order statistics over wall-clock samples.

/// Percentiles a latency may be reported at, highest first.
const CANDIDATE_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a percentile must leave above it before it is reported.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Nearest-rank percentile `p` (in `(0, 100]`) of `samples`; 0 for an
/// empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(sorted.len(), p)]
}

/// Zero-based nearest-rank index of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float error (99.9 / 100 * 10000 = 9990.000000000002)
    // from bumping an exact rank up by one.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// The highest candidate percentile that leaves at least
/// [`MIN_SAMPLES_BEYOND`] samples above it, or `None` when even the median
/// does not.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    CANDIDATE_PERCENTILES.into_iter().find(|&p| samples_beyond(n, p) >= MIN_SAMPLES_BEYOND)
}

/// Geometric mean of positive ratios; 0 for an empty slice.
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 0.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// `part / whole`, or 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), 100.0);
        assert_eq!(percentile(&samples, 95.0), 190.0);
        assert_eq!(percentile(&samples, 100.0), 200.0);
        assert_eq!(samples_beyond(200, 95.0), 10);
    }

    #[test]
    fn the_reported_percentile_keeps_ten_samples_beyond_it() {
        // 200 samples: p95 leaves exactly 10 above it, p99 only 2.
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        // One sample fewer and p95 leaves 9, so the rule falls to p90.
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(19), None);
        for n in 0..3000 {
            if let Some(p) = highest_supported_percentile(n) {
                assert!(samples_beyond(n, p) >= MIN_SAMPLES_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn geomean_of_equal_ratios_is_that_ratio() {
        assert!((geomean(&[1.25, 1.25, 1.25]) - 1.25).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}

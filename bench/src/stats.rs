//! Order statistics over latency samples and over repeated runs.

/// The `p`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between the two closest ranks. Panics on an empty slice: a metric without
/// a sample is a harness bug, not a value to report.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// How many of `n` samples lie strictly beyond the `p`-quantile. A percentile
/// is only worth reading when at least [`MIN_BEYOND`] samples do.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).min(n)
}

/// The fewest samples beyond a percentile for it to count as supported.
pub const MIN_BEYOND: usize = 10;

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the "exclusive" method) — the rule the benchmark's
/// acceptance check uses for run-to-run spread. Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile distance as a share of the median: the run-to-run spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let samples: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 0.5), 3.0);
        assert_eq!(percentile(&samples, 1.0), 5.0);
        assert!((percentile(&samples, 0.9) - 4.6).abs() < 1e-12);
        // Order of the input does not matter.
        assert_eq!(percentile(&[5.0, 1.0, 3.0], 0.5), 3.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
    }

    #[test]
    fn beyond_rule_counts_samples_past_the_percentile() {
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(13_000, 0.99), 130);
        assert_eq!(samples_beyond(120, 0.90), 12);
        assert_eq!(samples_beyond(10, 0.5), 5);
        assert_eq!(samples_beyond(1, 0.99), 0);
        assert!(samples_beyond(999, 0.99) < MIN_BEYOND);
        assert!(samples_beyond(1000, 0.99) >= MIN_BEYOND);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&values) - 1.0).abs() < 1e-12);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let (q1, q3) = quartiles(&[10.0, 20.0]);
        assert!((q1 - 7.5).abs() < 1e-12 && (q3 - 22.5).abs() < 1e-12);
    }
}

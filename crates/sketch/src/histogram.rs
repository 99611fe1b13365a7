//! Equi-height histograms derived from Greenwald–Khanna quantile boundaries.
//!
//! Section 4 of the paper: "we extract quantiles which represent the right
//! border of a bucket in an equi-height histogram. The buckets help us identify
//! estimates for different ranges which are very useful in the case that filters
//! exist in the base datasets."

use crate::gk::GkSketch;

/// An equi-height histogram over the numeric rank of a column.
#[derive(Debug, Clone, PartialEq)]
pub struct EquiHeightHistogram {
    /// `buckets + 1` boundaries; bucket `i` covers `[bounds[i], bounds[i+1]]`
    /// (the last bucket is closed on both ends).
    bounds: Vec<f64>,
    /// Number of rows represented by each bucket (equal by construction, except
    /// for rounding).
    bucket_count: f64,
    /// Total number of rows summarized.
    total: u64,
}

impl EquiHeightHistogram {
    /// Default number of buckets used by the statistics framework.
    pub const DEFAULT_BUCKETS: usize = 64;

    /// Builds the histogram from a GK sketch.
    pub fn from_sketch(sketch: &mut GkSketch, buckets: usize) -> Self {
        let total = sketch.count();
        let bounds = sketch.boundaries(buckets.max(1));
        let effective_buckets = bounds.len().saturating_sub(1).max(1);
        Self {
            bounds,
            bucket_count: total as f64 / effective_buckets as f64,
            total,
        }
    }

    /// Builds a histogram directly from values (convenience for tests and small
    /// relations).
    pub fn from_values(values: impl IntoIterator<Item = f64>, buckets: usize) -> Self {
        let mut sketch = GkSketch::new(0.005);
        sketch.extend(values);
        Self::from_sketch(&mut sketch, buckets)
    }

    /// Total number of rows summarized.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.bounds.len().saturating_sub(1)
    }

    /// Minimum observed value (approximate).
    pub fn min(&self) -> Option<f64> {
        self.bounds.first().copied()
    }

    /// Maximum observed value (approximate).
    pub fn max(&self) -> Option<f64> {
        self.bounds.last().copied()
    }

    /// Estimates the selectivity (fraction of rows in `[0,1]`) of the range
    /// predicate `lo <= x <= hi`. Either bound may be infinite.
    pub fn range_selectivity(&self, lo: f64, hi: f64) -> f64 {
        if self.total == 0 || self.bounds.len() < 2 || hi < lo {
            return 0.0;
        }
        let mut selected = 0.0;
        for i in 0..self.num_buckets() {
            let (b_lo, b_hi) = (self.bounds[i], self.bounds[i + 1]);
            let width = (b_hi - b_lo).max(f64::EPSILON);
            let overlap_lo = lo.max(b_lo);
            let overlap_hi = hi.min(b_hi);
            if overlap_hi >= overlap_lo {
                let frac = if b_hi == b_lo {
                    1.0
                } else {
                    ((overlap_hi - overlap_lo) / width).clamp(0.0, 1.0)
                };
                selected += frac * self.bucket_count;
            }
        }
        (selected / self.total as f64).clamp(0.0, 1.0)
    }

    /// Estimates the selectivity of an equality predicate `x = v`, assuming
    /// uniformity inside the bucket containing `v` and using `distinct` values
    /// for the per-value density when provided.
    pub fn equality_selectivity(&self, v: f64, distinct: Option<f64>) -> f64 {
        if self.total == 0 || self.bounds.len() < 2 {
            return 0.0;
        }
        if v < self.bounds[0] || v > *self.bounds.last().unwrap() {
            return 0.0;
        }
        match distinct {
            Some(d) if d > 0.0 => (1.0 / d).clamp(0.0, 1.0),
            _ => {
                // Fall back to one bucket's share spread over an assumed 10
                // distinct values per bucket.
                (self.bucket_count / self.total as f64 / 10.0).clamp(0.0, 1.0)
            }
        }
    }

    /// Estimates the number of rows satisfying `lo <= x <= hi`.
    pub fn estimate_range_rows(&self, lo: f64, hi: f64) -> f64 {
        self.range_selectivity(lo, hi) * self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_hist(n: u64, buckets: usize) -> EquiHeightHistogram {
        EquiHeightHistogram::from_values((0..n).map(|i| i as f64), buckets)
    }

    #[test]
    fn empty_histogram() {
        let h = EquiHeightHistogram::from_values(std::iter::empty(), 8);
        assert_eq!(h.total(), 0);
        assert_eq!(h.range_selectivity(0.0, 100.0), 0.0);
        assert_eq!(h.equality_selectivity(5.0, Some(10.0)), 0.0);
    }

    #[test]
    fn full_range_selectivity_is_one() {
        let h = uniform_hist(10_000, 32);
        let s = h.range_selectivity(f64::NEG_INFINITY, f64::INFINITY);
        assert!((s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn half_range_selectivity() {
        let h = uniform_hist(10_000, 64);
        let s = h.range_selectivity(0.0, 5_000.0);
        assert!((s - 0.5).abs() < 0.05, "selectivity {s} should be ~0.5");
    }

    #[test]
    fn narrow_range_selectivity() {
        let h = uniform_hist(100_000, 64);
        let s = h.range_selectivity(10_000.0, 11_000.0);
        assert!((s - 0.01).abs() < 0.01, "selectivity {s} should be ~0.01");
    }

    #[test]
    fn disjoint_range_has_zero_selectivity() {
        let h = uniform_hist(1_000, 16);
        assert_eq!(h.range_selectivity(5_000.0, 6_000.0), 0.0);
        assert_eq!(h.range_selectivity(-100.0, -1.0), 0.0);
    }

    #[test]
    fn inverted_range_is_zero() {
        let h = uniform_hist(1_000, 16);
        assert_eq!(h.range_selectivity(500.0, 100.0), 0.0);
    }

    #[test]
    fn equality_uses_distinct_count() {
        let h = uniform_hist(10_000, 64);
        let s = h.equality_selectivity(500.0, Some(10_000.0));
        assert!((s - 1.0 / 10_000.0).abs() < 1e-9);
        // Out-of-range equality is zero.
        assert_eq!(h.equality_selectivity(1e9, Some(10_000.0)), 0.0);
    }

    #[test]
    fn skewed_distribution_buckets_adapt() {
        // 90% of the mass at small values: the range covering them should report
        // ~90% selectivity even though it is narrow in value space.
        let values = (0..10_000u64).map(|i| {
            if i % 10 == 0 {
                1_000.0 + i as f64
            } else {
                i as f64 % 10.0
            }
        });
        let h = EquiHeightHistogram::from_values(values, 64);
        let s = h.range_selectivity(0.0, 9.0);
        assert!(s > 0.8, "selectivity {s} should capture the skewed mass");
    }

    #[test]
    fn estimate_rows_scales_with_total() {
        let h = uniform_hist(50_000, 64);
        let rows = h.estimate_range_rows(0.0, 25_000.0);
        assert!((rows - 25_000.0).abs() < 2_500.0);
    }

    #[test]
    fn min_max_reported() {
        let h = uniform_hist(1_000, 16);
        assert!(h.min().unwrap() <= 20.0);
        assert!(h.max().unwrap() >= 980.0);
        assert_eq!(h.num_buckets(), 16);
    }

    #[test]
    fn equality_outside_the_observed_range_is_zero() {
        let h = uniform_hist(1_000, 10);
        assert_eq!(h.equality_selectivity(-1.0, Some(100.0)), 0.0);
        assert_eq!(h.equality_selectivity(5_000.0, None), 0.0);
        assert!((h.equality_selectivity(500.0, Some(4.0)) - 0.25).abs() < 1e-12);
        let fallback = h.equality_selectivity(500.0, None);
        assert!(fallback > 0.0 && fallback < 0.1, "{fallback}");
    }

    #[test]
    fn a_constant_column_is_selected_whole_by_its_point() {
        let h = EquiHeightHistogram::from_values(std::iter::repeat_n(5.0, 400), 8);
        assert_eq!(h.min(), Some(5.0));
        assert_eq!(h.max(), Some(5.0));
        assert!((h.range_selectivity(5.0, 5.0) - 1.0).abs() < 1e-9);
        assert_eq!(h.range_selectivity(6.0, 7.0), 0.0);
        assert!((h.estimate_range_rows(0.0, 10.0) - 400.0).abs() < 1e-6);
    }
}

//! Per-column statistics: row count, distinct-value estimate, equi-height
//! histogram and min/max.

use crate::gk::GkSketch;
use crate::histogram::EquiHeightHistogram;
use crate::hll::{hash_bool, hash_float64, hash_int64, hash_utf8, hash_value, HyperLogLog};
use rdo_common::value::string_rank;
use rdo_common::{Column, NullBitmap, Value};

/// Statistics describing one column of a (base or intermediate) dataset.
#[derive(Debug, Clone)]
pub struct ColumnStats {
    /// Number of non-null rows observed.
    pub count: u64,
    /// Number of null rows observed.
    pub null_count: u64,
    /// Estimated number of distinct non-null values.
    pub distinct: u64,
    /// Equi-height histogram over the numeric rank of the values.
    pub histogram: EquiHeightHistogram,
    /// Minimum observed value rank.
    pub min: Option<f64>,
    /// Maximum observed value rank.
    pub max: Option<f64>,
}

impl ColumnStats {
    /// Estimated selectivity of `lo <= col <= hi` (on value ranks).
    pub fn range_selectivity(&self, lo: f64, hi: f64) -> f64 {
        self.histogram.range_selectivity(lo, hi)
    }

    /// Estimated selectivity of `col = v` (on value ranks).
    pub fn equality_selectivity(&self, v: f64) -> f64 {
        self.histogram
            .equality_selectivity(v, Some(self.distinct.max(1) as f64))
    }

    /// Distinct count, never below 1 when the column has rows (avoids division
    /// by zero in the join-size formula).
    pub fn distinct_nonzero(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            self.distinct.max(1) as f64
        }
    }
}

/// Streaming builder collecting a [`ColumnStats`] while scanning rows, exactly
/// like the ingestion pipeline and the Sink operator do in the paper.
#[derive(Debug, Clone)]
pub struct ColumnStatsBuilder {
    gk: GkSketch,
    hll: HyperLogLog,
    count: u64,
    null_count: u64,
    min: Option<f64>,
    max: Option<f64>,
    buckets: usize,
}

impl ColumnStatsBuilder {
    /// Creates a builder with the default histogram resolution.
    pub fn new() -> Self {
        Self::with_buckets(EquiHeightHistogram::DEFAULT_BUCKETS)
    }

    /// Creates a builder with a custom number of histogram buckets.
    pub fn with_buckets(buckets: usize) -> Self {
        Self {
            gk: GkSketch::new(0.01),
            hll: HyperLogLog::default_precision(),
            count: 0,
            null_count: 0,
            min: None,
            max: None,
            buckets,
        }
    }

    /// Observes one value.
    pub fn observe(&mut self, value: &Value) {
        if value.is_null() {
            self.null_count += 1;
            return;
        }
        self.observe_ranked(value.numeric_rank(), hash_value(value));
    }

    /// Observes one non-null value by its histogram rank and stable digest.
    fn observe_ranked(&mut self, rank: f64, hash: u64) {
        self.count += 1;
        self.gk.insert(rank);
        self.hll.insert_hash(hash);
        self.min = Some(self.min.map_or(rank, |m| m.min(rank)));
        self.max = Some(self.max.map_or(rank, |m| m.max(rank)));
    }

    /// Observes every slot of a column in slot order, straight off the typed
    /// payload: the sketch state afterwards is exactly what observing the
    /// materialized [`Value`]s one by one would leave.
    pub fn observe_column(&mut self, column: &Column) {
        // Ranks and digests below replay `Value::numeric_rank` and
        // `hash_value` per variant.
        fn slots<T: Copy>(
            builder: &mut ColumnStatsBuilder,
            values: &[T],
            validity: &NullBitmap,
            ranked: impl Fn(T) -> (f64, u64),
        ) {
            let no_nulls = validity.all_valid();
            for (i, &v) in values.iter().enumerate() {
                if no_nulls || validity.is_valid(i) {
                    let (rank, hash) = ranked(v);
                    builder.observe_ranked(rank, hash);
                } else {
                    builder.null_count += 1;
                }
            }
        }
        match column {
            Column::Int64 { values, validity } | Column::Date { values, validity } => {
                slots(self, values, validity, |v| (v as f64, hash_int64(v)))
            }
            Column::Float64 { values, validity } => {
                slots(self, values, validity, |v| (v, hash_float64(v)))
            }
            Column::Bool { values, validity } => slots(self, values, validity, |v| {
                (if v { 1.0 } else { 0.0 }, hash_bool(v))
            }),
            Column::Utf8 { .. } => {
                for i in 0..column.len() {
                    match column.str_at(i) {
                        Some(s) => self.observe_ranked(string_rank(s), hash_utf8(s)),
                        None => self.null_count += 1,
                    }
                }
            }
            Column::Mixed { values } => self.observe_all(values),
        }
    }

    /// Observes many values.
    pub fn observe_all<'a>(&mut self, values: impl IntoIterator<Item = &'a Value>) {
        for v in values {
            self.observe(v);
        }
    }

    /// Merges another builder (per-partition collection then coordinator merge).
    pub fn merge(&mut self, other: &ColumnStatsBuilder) {
        self.gk.merge(&other.gk);
        self.hll.merge(&other.hll);
        self.count += other.count;
        self.null_count += other.null_count;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Number of non-null values observed so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finalizes the statistics.
    pub fn build(mut self) -> ColumnStats {
        let histogram = EquiHeightHistogram::from_sketch(&mut self.gk, self.buckets);
        ColumnStats {
            count: self.count,
            null_count: self.null_count,
            distinct: self.hll.estimate_count(),
            histogram,
            min: self.min,
            max: self.max,
        }
    }
}

impl Default for ColumnStatsBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_of(values: Vec<Value>) -> ColumnStats {
        let mut b = ColumnStatsBuilder::new();
        b.observe_all(values.iter());
        b.build()
    }

    #[test]
    fn counts_and_nulls() {
        let s = stats_of(vec![
            Value::Int64(1),
            Value::Null,
            Value::Int64(2),
            Value::Null,
        ]);
        assert_eq!(s.count, 2);
        assert_eq!(s.null_count, 2);
    }

    #[test]
    fn distinct_estimate_exactish_for_small_inputs() {
        let s = stats_of((0..100).map(Value::Int64).collect());
        assert!(
            (s.distinct as i64 - 100).abs() <= 3,
            "distinct {}",
            s.distinct
        );
    }

    #[test]
    fn distinct_of_constant_column_is_one() {
        let s = stats_of(vec![Value::Int64(7); 1000]);
        assert_eq!(s.distinct, 1);
        assert_eq!(s.min, Some(7.0));
        assert_eq!(s.max, Some(7.0));
    }

    #[test]
    fn min_max_tracking() {
        let s = stats_of(vec![Value::Int64(5), Value::Int64(-3), Value::Int64(12)]);
        assert_eq!(s.min, Some(-3.0));
        assert_eq!(s.max, Some(12.0));
    }

    #[test]
    fn range_and_equality_selectivity() {
        let s = stats_of((0..10_000).map(Value::Int64).collect());
        let r = s.range_selectivity(0.0, 999.0);
        assert!((r - 0.1).abs() < 0.05, "range selectivity {r}");
        let e = s.equality_selectivity(500.0);
        assert!(e > 0.0 && e < 0.01);
    }

    #[test]
    fn merge_combines_partitions() {
        let mut a = ColumnStatsBuilder::new();
        let mut b = ColumnStatsBuilder::new();
        for i in 0..5_000 {
            a.observe(&Value::Int64(i));
        }
        for i in 5_000..10_000 {
            b.observe(&Value::Int64(i));
        }
        a.merge(&b);
        let s = a.build();
        assert_eq!(s.count, 10_000);
        assert_eq!(s.min, Some(0.0));
        assert_eq!(s.max, Some(9_999.0));
        let err = (s.distinct as f64 - 10_000.0).abs() / 10_000.0;
        assert!(err < 0.05, "distinct error {err}");
    }

    #[test]
    fn distinct_nonzero_guards_empty() {
        let s = stats_of(vec![]);
        assert_eq!(s.distinct_nonzero(), 1.0);
        assert_eq!(s.count, 0);
    }

    #[test]
    fn string_columns_supported() {
        let s = stats_of(
            (0..500)
                .map(|i| Value::Utf8(format!("name{i:04}")))
                .collect(),
        );
        assert_eq!(s.count, 500);
        assert!((s.distinct as i64 - 500).abs() <= 15);
    }
}

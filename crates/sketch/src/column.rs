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

    /// Observes one value. NULL — and a `Float64` NaN, which has no rank (see
    /// [`crate::gk`]) — only counts toward `null_count`.
    pub fn observe(&mut self, value: &Value) {
        let rank = value.numeric_rank();
        if value.is_null() || rank.is_nan() {
            self.null_count += 1;
            return;
        }
        self.observe_present(1, [(rank, hash_value(value))]);
    }

    /// Feeds the `(rank, digest)` of every non-null value among `slots`
    /// slots (no rank is NaN), in slot order, to the three sketches in one
    /// loop: ranks go to the GK buffer a chunk at a time, digests to the HLL
    /// registers, and min/max fold in locals.
    fn observe_present(&mut self, slots: usize, present: impl IntoIterator<Item = (f64, u64)>) {
        // NaN is the identity of `f64::min`/`max` and never a rank, so it
        // stands for "nothing yet" without an `Option` per value.
        let mut min = self.min.unwrap_or(f64::NAN);
        let mut max = self.max.unwrap_or(f64::NAN);
        let mut seen = 0u64;
        let hll = &mut self.hll;
        self.gk.extend(present.into_iter().map(|(rank, hash)| {
            hll.insert_hash(hash);
            min = min.min(rank);
            max = max.max(rank);
            seen += 1;
            rank
        }));
        if seen > 0 {
            (self.min, self.max) = (Some(min), Some(max));
        }
        self.count += seen;
        self.null_count += slots as u64 - seen;
    }

    /// Observes every slot of a column in slot order, straight off the typed
    /// payload: the sketch state afterwards is exactly what observing the
    /// materialized [`Value`]s one by one would leave.
    pub fn observe_column(&mut self, column: &Column) {
        fn valid<'a, T: Copy>(
            values: &'a [T],
            validity: &'a NullBitmap,
        ) -> impl Iterator<Item = T> + 'a {
            let slots = values.iter().enumerate();
            slots.filter_map(|(i, &v)| validity.is_valid(i).then_some(v))
        }
        // Ranks and digests below replay `Value::numeric_rank` and
        // `hash_value` per variant.
        match column {
            Column::Int64 { values, validity } | Column::Date { values, validity } => {
                let ranked = valid(values, validity).map(|v| (v as f64, hash_int64(v)));
                self.observe_present(values.len(), ranked)
            }
            Column::Float64 { values, validity } => {
                let ranked = valid(values, validity).filter(|v| !v.is_nan());
                self.observe_present(values.len(), ranked.map(|v| (v, hash_float64(v))))
            }
            Column::Bool { values, validity } => {
                let ranked =
                    valid(values, validity).map(|v| (f64::from(u8::from(v)), hash_bool(v)));
                self.observe_present(values.len(), ranked)
            }
            Column::Utf8 { .. } => {
                let strings = (0..column.len()).filter_map(|i| column.str_at(i));
                let ranked = strings.map(|s| (string_rank(s), hash_utf8(s)));
                self.observe_present(column.len(), ranked)
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

    /// Flushes the quantile sketch's buffer into its summary. A partial does
    /// this where it was built, so that [`ColumnStatsBuilder::merge`] on the
    /// coordinator only reads it.
    pub fn seal(&mut self) {
        self.gk.seal();
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

    /// What the builder did per value before it read columns as slices, from
    /// the sketches' own public entry points: the definition `observe` and
    /// `observe_column` are held to.
    fn reference(values: &[Value]) -> ColumnStatsBuilder {
        let mut b = ColumnStatsBuilder::new();
        for value in values {
            if value.is_null() {
                b.null_count += 1;
                continue;
            }
            let rank = value.numeric_rank();
            b.count += 1;
            b.gk.insert(rank);
            b.hll.insert_hash(hash_value(value));
            b.min = Some(b.min.map_or(rank, |m| m.min(rank)));
            b.max = Some(b.max.map_or(rank, |m| m.max(rank)));
        }
        b
    }

    /// One column of each representation, NULL-free and NULL-bearing, long
    /// enough to cross several GK buffers. No NaN: those have their own rule.
    fn columns_of_every_variant() -> Vec<Vec<Value>> {
        let n = 1_300i64;
        let typed: Vec<Box<dyn Fn(i64) -> Value>> = vec![
            Box::new(|i| Value::Int64((i * 7919) % 257 - 100)),
            Box::new(|i| Value::Date(i % 90)),
            Box::new(|i| match i % 9 {
                0 => Value::Float64(-0.0),
                1 => Value::Float64(0.0),
                2 => Value::Float64(f64::INFINITY),
                3 => Value::Float64(f64::NEG_INFINITY),
                _ => Value::Float64((i % 41) as f64 / 3.0 - 5.0),
            }),
            Box::new(|i| Value::Bool(i % 3 == 0)),
            Box::new(|i| Value::Utf8(format!("né{}", (i * 31) % 77))),
            // Heterogeneous: lands in a `Mixed` column.
            Box::new(|i| {
                if i % 2 == 0 {
                    Value::Int64(i % 13)
                } else {
                    Value::Utf8(format!("m{}", i % 5))
                }
            }),
        ];
        let mut columns = Vec::new();
        for make in &typed {
            columns.push((0..n).map(make).collect());
            columns.push(
                (0..n)
                    .map(|i| if i % 4 == 1 { Value::Null } else { make(i) })
                    .collect(),
            );
        }
        columns.push(vec![Value::Null; 300]);
        columns
    }

    #[test]
    fn slice_feeding_equals_observing_value_by_value() {
        use rdo_common::{Batch, Tuple};
        for values in columns_of_every_variant() {
            let expected = format!("{:?}", reference(&values));
            let mut by_value = ColumnStatsBuilder::new();
            by_value.observe_all(&values);
            assert_eq!(format!("{by_value:?}"), expected);

            let rows: Vec<Tuple> = values.iter().map(|v| Tuple::new(vec![v.clone()])).collect();
            for chunk_size in [1usize, 100, 255, 256, 257, 5_000] {
                let mut by_column = ColumnStatsBuilder::new();
                for chunk in rows.chunks(chunk_size) {
                    by_column.observe_column(Batch::from_rows(1, chunk).column(0));
                }
                assert_eq!(format!("{by_column:?}"), expected, "chunks of {chunk_size}");
            }
        }
    }

    #[test]
    fn sealed_partials_merge_like_unsealed_ones() {
        let columns = columns_of_every_variant();
        let mut sealed = ColumnStatsBuilder::new();
        let mut unsealed = ColumnStatsBuilder::new();
        for values in &columns {
            let mut partial = ColumnStatsBuilder::new();
            partial.observe_all(values);
            unsealed.merge(&partial);
            partial.seal();
            sealed.merge(&partial);
        }
        assert_eq!(format!("{sealed:?}"), format!("{unsealed:?}"));
        assert_eq!(sealed.count() as usize, {
            let nulls = columns.iter().flatten().filter(|v| v.is_null()).count();
            columns.iter().map(Vec::len).sum::<usize>() - nulls
        });
    }

    #[test]
    fn a_nan_counts_with_the_nulls() {
        use rdo_common::{Batch, Tuple};
        let with_nans: Vec<Value> = (0..1_000)
            .map(|i| match i % 5 {
                0 => Value::Float64(f64::NAN),
                1 => Value::Float64(-f64::NAN),
                2 => Value::Null,
                _ => Value::Float64(i as f64),
            })
            .collect();
        let as_nulls: Vec<Value> = with_nans
            .iter()
            .map(|v| match v {
                Value::Float64(f) if f.is_nan() => Value::Null,
                v => v.clone(),
            })
            .collect();
        let expected = format!("{:?}", reference(&as_nulls));

        let mut by_value = ColumnStatsBuilder::new();
        by_value.observe_all(&with_nans);
        assert_eq!(format!("{by_value:?}"), expected);

        let rows: Vec<Tuple> = with_nans
            .iter()
            .map(|v| Tuple::new(vec![v.clone()]))
            .collect();
        let mut by_column = ColumnStatsBuilder::new();
        by_column.observe_column(Batch::from_rows(1, &rows).column(0));
        assert_eq!(format!("{by_column:?}"), expected);

        let stats = by_column.build();
        assert_eq!((stats.count, stats.null_count), (400, 600));
        assert_eq!((stats.min, stats.max), (Some(3.0), Some(999.0)));
        let bounds = [stats.histogram.min(), stats.histogram.max()];
        assert_eq!(bounds, [Some(3.0), Some(999.0)], "a sorted summary");
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

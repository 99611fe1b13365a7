//! Micro-benchmarks of the statistics sketches (Greenwald–Khanna quantiles and
//! HyperLogLog). The paper's argument that online statistics collection is a
//! small overhead rests on these being cheap relative to join work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdo_common::{Batch, Tuple, Value};
use rdo_sketch::{ColumnStatsBuilder, EquiHeightHistogram, GkSketch, HyperLogLog};

fn bench_sketches(c: &mut Criterion) {
    let mut group = c.benchmark_group("sketches");
    group.sample_size(20);

    for n in [10_000u64, 100_000] {
        group.bench_with_input(BenchmarkId::new("gk_insert", n), &n, |b, &n| {
            b.iter(|| {
                let mut sketch = GkSketch::new(0.01);
                for i in 0..n {
                    sketch.insert(((i * 2_654_435_761) % 1_000_003) as f64);
                }
                sketch.quantile(0.5)
            });
        });
        group.bench_with_input(BenchmarkId::new("hll_insert", n), &n, |b, &n| {
            b.iter(|| {
                let mut hll = HyperLogLog::default_precision();
                for i in 0..n {
                    hll.insert(&Value::Int64(i as i64));
                }
                hll.estimate_count()
            });
        });
        group.bench_with_input(BenchmarkId::new("column_stats", n), &n, |b, &n| {
            b.iter(|| {
                let mut builder = ColumnStatsBuilder::new();
                for i in 0..n {
                    builder.observe(&Value::Int64((i % 10_000) as i64));
                }
                builder.build().distinct
            });
        });
        // The Sink's coordinator step: four sealed per-partition partials
        // merged into one sketch.
        group.bench_with_input(BenchmarkId::new("gk_merge", n), &n, |b, &n| {
            let partials: Vec<GkSketch> = (0..4)
                .map(|p| {
                    let mut partial = GkSketch::new(0.01);
                    let ranks = (0..n).filter(|i| i % 4 == p);
                    partial.extend(ranks.map(|i| ((i * 2_654_435_761) % 1_000_003) as f64));
                    partial.seal();
                    partial
                })
                .collect();
            b.iter(|| {
                let mut merged = GkSketch::new(0.01);
                partials.iter().for_each(|partial| merged.merge(partial));
                merged.quantile(0.5)
            });
        });
        // The Sink's worker step: a typed column observed straight off its
        // payload, an `Int64` and a `Utf8` one.
        let rows: Vec<Tuple> = (0..n as i64)
            .map(|i| {
                let key = (i * 2_654_435_761) % 1_000_003;
                Tuple::new(vec![
                    Value::Int64(key),
                    Value::Utf8(format!("name{key:07}")),
                ])
            })
            .collect();
        let batches: Vec<Batch> = rows.chunks(1024).map(|c| Batch::from_rows(2, c)).collect();
        group.bench_with_input(BenchmarkId::new("column_stats_batch", n), &n, |b, _| {
            b.iter(|| {
                let mut int64 = ColumnStatsBuilder::new();
                let mut utf8 = ColumnStatsBuilder::new();
                for batch in &batches {
                    int64.observe_column(batch.column(0));
                    utf8.observe_column(batch.column(1));
                }
                (int64.build().distinct, utf8.build().distinct)
            });
        });
    }

    group.bench_function("histogram_range_estimates", |b| {
        let histogram = EquiHeightHistogram::from_values((0..100_000).map(|i| i as f64), 64);
        b.iter(|| {
            let mut total = 0.0;
            for i in 0..1_000 {
                total += histogram.range_selectivity(i as f64 * 10.0, i as f64 * 10.0 + 500.0);
            }
            total
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sketches);
criterion_main!(benches);

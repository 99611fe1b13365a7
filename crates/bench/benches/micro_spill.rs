//! Micro-benchmarks of the out-of-core path, layer by layer, on a fact-shaped
//! table (four integer keys and a float measure — `lineitem`'s shape): the
//! column codec and the LZ codec on one 64 KiB page, the page writer fed
//! batches and read back as batches, and one over-budget partition through the
//! grace join at 8× its budget. These are the layers `rdo-perf`'s
//! `spill_cold` workload sums up.

use criterion::{criterion_group, criterion_main, Criterion};
use rdo_common::{Batch, Tuple, Value};
use rdo_exec::grace::{grace_join_partition, GraceContext};
use rdo_spill::compress::{compress_block_with, decompress_block, LzScratch};
use rdo_spill::{decode_batch, encode_batch, SpillConfig, SpillManager, SpillPartitionWriter};
use std::sync::Arc;

/// Rows of one 64 KiB page of the row codec (49 bytes a row).
const PAGE_ROWS: i64 = 1_337;

fn fact_rows(n: i64, orders: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let part = (i * 2_654_435_761) % 20_000;
            Tuple::new(vec![
                Value::Int64(i % orders),
                Value::Int64(part),
                Value::Int64((part * 7 + i % 4 * 13) % 1_000),
                Value::Int64(1 + i % 50),
                Value::Float64(100.0 + (part as f64) * 0.49),
            ])
        })
        .collect()
}

fn chunks(rows: &[Tuple]) -> Vec<Batch> {
    rows.chunks(1024).map(|c| Batch::from_rows(5, c)).collect()
}

fn bench_page_codecs(c: &mut Criterion) {
    let mut group = c.benchmark_group("spill_page");
    group.sample_size(50);
    let page = Batch::from_rows(5, &fact_rows(PAGE_ROWS, PAGE_ROWS / 4));
    let mut body = Vec::new();
    encode_batch(&mut body, &page);
    let mut scratch = LzScratch::new();
    let stream = compress_block_with(&mut scratch, &body);

    group.bench_function("colcodec_encode", |b| {
        b.iter(|| {
            let mut out = Vec::with_capacity(body.len());
            encode_batch(&mut out, &page);
            out.len()
        });
    });
    group.bench_function("colcodec_decode", |b| {
        b.iter(|| decode_batch(&body, page.num_rows()).unwrap().num_rows());
    });
    group.bench_function("lz_compress", |b| {
        b.iter(|| compress_block_with(&mut scratch, &body).len());
    });
    group.bench_function("lz_decompress", |b| {
        b.iter(|| decompress_block(&stream, body.len()).unwrap().len());
    });
    group.finish();
}

fn bench_writer_roundtrip(c: &mut Criterion) {
    let mut group = c.benchmark_group("spill_store");
    group.sample_size(10);
    let batches = chunks(&fact_rows(75_000, 18_750));
    group.bench_function("append_batch_scan_batches_75k", |b| {
        b.iter(|| {
            let manager = SpillManager::create(SpillConfig::default().with_budget(512 << 10))
                .expect("spill manager");
            let mut writer = SpillPartitionWriter::new(manager, 4).expect("writer");
            for (i, batch) in batches.iter().enumerate() {
                writer.append_batch(i % 4, batch).expect("append");
            }
            let (store, _) = writer.finish().expect("finish");
            let mut rows = 0;
            for p in 0..4 {
                store
                    .scan_batches(p, |page| {
                        rows += page.num_rows();
                        Ok(true)
                    })
                    .expect("scan");
            }
            rows
        });
    });
    group.finish();
}

fn bench_grace_join(c: &mut Criterion) {
    let mut group = c.benchmark_group("grace_join");
    group.sample_size(10);
    // 20 000 orders joined by 80 000 line items; the build side is 8× the
    // budget, so one level of 8-way partitioning brings every bucket in.
    let build = chunks(&fact_rows(20_000, 20_000));
    let probe = chunks(&fact_rows(80_000, 20_000));
    let build_bytes: u64 = build.iter().map(|b| b.approx_bytes() as u64).sum();
    let manager = SpillManager::create(SpillConfig::default()).expect("spill manager");
    let ctx = GraceContext::new(Arc::clone(&manager), build_bytes / 8);
    group.bench_function("partition_at_8x_budget", |b| {
        b.iter(|| {
            let (out, tally) = grace_join_partition(&probe, &build, &[0], &[0], &ctx).unwrap();
            assert!(tally.partitions_spilled > 0);
            out.iter().map(Batch::num_rows).sum::<usize>()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_page_codecs,
    bench_writer_roundtrip,
    bench_grace_join
);
criterion_main!(benches);

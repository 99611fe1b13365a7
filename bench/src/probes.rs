//! Per-layer numbers no single query exposes: the kernels and codecs by
//! direct call on fixed inputs (partition 0 of `lineitem` and `orders`), the
//! paper's strategy comparison (Figs 6-7) in wall time, and checkpointing.

use crate::harness::{nproc, Fixture};
use crate::stats::median;
use crate::workload::{PAPER_NAMES, PAPER_SQL, PARTITIONS};
use runtime_dynamic_optimization::common::{Batch, FieldRef, Relation, Tuple, Value};
use runtime_dynamic_optimization::exec::partition::{
    hash_join_partition_chunked, hash_join_partition_rows, repartition_partition_chunked,
    repartition_partition_rows, scan_partition_chunked, scan_partition_rows,
};
use runtime_dynamic_optimization::exec::{CmpOp, Predicate};
use runtime_dynamic_optimization::net::frame::{read_page_batch, write_page_batch, Tag};
use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::sketch::ColumnStatsBuilder;
use runtime_dynamic_optimization::spill::codec::{self, encode_tuple};
use runtime_dynamic_optimization::spill::compress::{
    compress_block_with, decompress_block, LzScratch,
};
use runtime_dynamic_optimization::spill::{colcodec, SpillManager, SpillPartitionWriter};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

type Out = BTreeMap<&'static str, (f64, usize)>;

/// Repeats `op` at least three times and until 20 ms have been measured;
/// returns the median duration in milliseconds and the repetitions. Inputs
/// range from 750 rows to 75 000, so a fixed count would time either noise or
/// seconds.
fn time_ms<S, T>(mut setup: impl FnMut() -> S, mut op: impl FnMut(S) -> T) -> (f64, usize) {
    let mut samples = Vec::new();
    let mut total = Duration::ZERO;
    while samples.len() < 3 || total < Duration::from_millis(20) {
        let input = setup();
        let started = Instant::now();
        let output = op(input);
        let took = started.elapsed();
        black_box(output);
        total += took;
        samples.push(took.as_secs_f64() * 1e3);
    }
    (median(&samples), samples.len())
}

fn plain_ms<T>(op: impl FnMut(()) -> T) -> (f64, usize) {
    time_ms(|| (), op)
}

/// Throughput in MB/s (10^6 bytes) of `op` over `bytes` logical bytes.
fn mb_per_s<T>(bytes: usize, op: impl FnMut(()) -> T) -> (f64, usize) {
    let (ms, n) = plain_ms(op);
    (bytes as f64 / 1e6 / (ms / 1e3), n)
}

pub fn run(fixture: &Fixture, pool: &WorkerPool, out: &mut Out) {
    let lineitem = fixture.catalog.table("lineitem").expect("lineitem");
    let orders = fixture.catalog.table("orders").expect("orders");
    let rows = lineitem.partition_to_vec(0).expect("lineitem partition 0");
    let build = orders.partition_to_vec(0).expect("orders partition 0");
    kernels(lineitem.schema(), &rows, &build, out);
    codecs(&rows, out);
    sketches_and_batches(&rows, out);
    storage(fixture, lineitem.schema().clone(), &rows, out);
    let (us, n) = plain_ms(|()| pool.map_indexed(PARTITIONS, |i| i));
    out.insert("parallel.pool_dispatch_us", (us * 1e3, n));
    strategies(fixture, out);
    checkpointing(fixture, out);
}

/// The batch kernels beside their row-at-a-time twins, same input.
fn kernels(schema: &Schema, rows: &[Tuple], build: &[Tuple], out: &mut Out) {
    let predicates = [Predicate::compare(
        FieldRef::new("lineitem", "l_quantity"),
        CmpOp::Lt,
        Value::Int64(25),
    )];
    out.insert(
        "exec.kernel_scan_batch_ms",
        plain_ms(|()| {
            scan_partition_chunked(schema, &predicates, None, rows, DEFAULT_BATCH_SIZE)
                .expect("batch scan")
        }),
    );
    out.insert(
        "exec.kernel_scan_rows_ms",
        plain_ms(|()| scan_partition_rows(schema, &predicates, None, rows).expect("row scan")),
    );
    // lineitem and orders are both partitioned on the order key, so their
    // partitions 0 join on column 0 of each.
    out.insert(
        "exec.kernel_join_batch_ms",
        plain_ms(|()| hash_join_partition_chunked(rows, build, &[0], &[0], DEFAULT_BATCH_SIZE)),
    );
    out.insert(
        "exec.kernel_join_rows_ms",
        plain_ms(|()| hash_join_partition_rows(rows, build, &[0], &[0])),
    );
    let part_key = 1; // l_partkey: not the partitioning key, so rows move
    out.insert(
        "exec.kernel_repartition_batch_ms",
        plain_ms(|()| {
            repartition_partition_chunked(rows, part_key, 0, PARTITIONS, DEFAULT_BATCH_SIZE)
        }),
    );
    out.insert(
        "exec.kernel_repartition_rows_ms",
        plain_ms(|()| repartition_partition_rows(rows, part_key, 0, PARTITIONS)),
    );
}

/// Page codecs over the rows cut into 64 KiB pages the way the spill writers
/// cut them, the page-batch wire frames, and one spill write + read back.
fn codecs(rows: &[Tuple], out: &mut Out) {
    const PAGE: usize = 64 * 1024;
    let width = rows.first().map_or(0, Tuple::len);
    let mut pages: Vec<&[Tuple]> = Vec::new();
    let (mut start, mut size) = (0, 0);
    for (i, row) in rows.iter().enumerate() {
        size += codec::encoded_tuple_len(row);
        if size >= PAGE {
            pages.push(&rows[start..=i]);
            start = i + 1;
            size = 0;
        }
    }
    if start < rows.len() {
        pages.push(&rows[start..]);
    }
    let encode_rows = |page: &[Tuple]| {
        let mut body = Vec::new();
        for row in page {
            encode_tuple(&mut body, row);
        }
        body
    };
    let encode_cols = |page: &[Tuple]| {
        let mut body = Vec::new();
        colcodec::encode_rows(&mut body, width, page);
        body
    };
    let row_bodies: Vec<Vec<u8>> = pages.iter().map(|p| encode_rows(p)).collect();
    let col_bodies: Vec<Vec<u8>> = pages.iter().map(|p| encode_cols(p)).collect();
    let mut scratch = LzScratch::new();
    let streams: Vec<Vec<u8>> = row_bodies
        .iter()
        .map(|b| compress_block_with(&mut scratch, b))
        .collect();
    // Every rate is over the same logical bytes: the row-codec page bodies.
    let logical: usize = row_bodies.iter().map(Vec::len).sum();

    out.insert(
        "spill.encode_row_mb_s",
        mb_per_s(logical, |()| {
            pages.iter().map(|p| encode_rows(p).len()).sum::<usize>()
        }),
    );
    out.insert(
        "spill.encode_col_mb_s",
        mb_per_s(logical, |()| {
            pages.iter().map(|p| encode_cols(p).len()).sum::<usize>()
        }),
    );
    out.insert(
        "spill.compress_mb_s",
        mb_per_s(logical, |()| {
            row_bodies
                .iter()
                .map(|b| compress_block_with(&mut scratch, b).len())
                .sum::<usize>()
        }),
    );
    out.insert(
        "spill.decode_row_mb_s",
        mb_per_s(logical, |()| {
            pages
                .iter()
                .zip(&row_bodies)
                .map(|(p, b)| codec::decode_rows(b, p.len()).expect("row page").len())
                .sum::<usize>()
        }),
    );
    out.insert(
        "spill.decode_col_mb_s",
        mb_per_s(logical, |()| {
            pages
                .iter()
                .zip(&col_bodies)
                .map(|(p, b)| {
                    colcodec::decode_rows(b, p.len())
                        .expect("column page")
                        .len()
                })
                .sum::<usize>()
        }),
    );
    out.insert(
        "spill.decompress_mb_s",
        mb_per_s(logical, |()| {
            streams
                .iter()
                .zip(&row_bodies)
                .map(|(s, b)| decompress_block(s, b.len()).expect("stream").len())
                .sum::<usize>()
        }),
    );

    out.insert(
        "spill.roundtrip_ms",
        plain_ms(|()| {
            let manager = SpillManager::create(SpillConfig::default().with_budget(512 << 10))
                .expect("spill manager");
            let mut writer =
                SpillPartitionWriter::new(manager, PARTITIONS).expect("partition writer");
            for (i, row) in rows.iter().enumerate() {
                writer.append(i % PARTITIONS, row).expect("spill append");
            }
            let (store, _) = writer.finish().expect("spill finish");
            (0..PARTITIONS)
                .map(|p| store.read_partition(p).expect("spill read").len())
                .sum::<usize>()
        }),
    );

    let mut wire = Vec::new();
    out.insert(
        "net.page_batch_write_mb_s",
        mb_per_s(logical, |()| {
            wire.clear();
            write_page_batch(&mut wire, Tag::Page, &[], rows, true, true, &mut scratch)
                .expect("write page batch")
        }),
    );
    out.insert(
        "net.page_batch_read_mb_s",
        mb_per_s(logical, |()| {
            read_page_batch(&mut &wire[..])
                .expect("read page batch")
                .len()
        }),
    );
}

/// What the Sink does per tracked column (GK + HLL), and the row/column
/// conversions at the kernels' edges, per 100 000 rows.
fn sketches_and_batches(rows: &[Tuple], out: &mut Out) {
    let per_100k = |(ms, n): (f64, usize)| (ms * 100_000.0 / rows.len().max(1) as f64, n);
    out.insert(
        "sketch.build_ms_per_100k",
        per_100k(plain_ms(|()| {
            let mut builder = ColumnStatsBuilder::new();
            builder.observe_all(rows.iter().map(|r| r.value(0)));
            builder.build()
        })),
    );
    let width = rows.first().map_or(0, Tuple::len);
    out.insert(
        "common.batch_from_rows_ms_per_100k",
        per_100k(plain_ms(|()| Batch::from_rows(width, rows))),
    );
    let batch = Batch::from_rows(width, rows);
    out.insert(
        "common.batch_to_rows_ms_per_100k",
        per_100k(plain_ms(|()| batch.to_rows())),
    );
}

/// Registering an intermediate the way a re-optimization point does
/// (statistics on the join key included), and scanning a base table.
fn storage(fixture: &Fixture, schema: Schema, rows: &[Tuple], out: &mut Out) {
    let mut catalog = fixture.catalog.clone();
    let tracked = ["l_orderkey".to_string()];
    let name = "rdo_perf_probe";
    let relation = || Relation::new(schema.clone(), rows.to_vec()).expect("probe relation");
    out.insert(
        "storage.register_intermediate_ms",
        time_ms(relation, |relation| {
            catalog.drop_table(name);
            catalog
                .register_intermediate(name, relation, Some("l_orderkey"), &tracked, true)
                .expect("register intermediate")
        }),
    );
    // Base tables rest as rows: scanning one as batches pays the row-to-column
    // conversion every query's scan pays.
    let table = fixture.catalog.table("lineitem").expect("lineitem");
    out.insert(
        "storage.scan_batches_ms",
        plain_ms(|()| {
            let mut seen = 0;
            for p in 0..table.num_partitions() {
                table
                    .scan_batches(p, |batch| {
                        seen += batch.num_rows();
                        Ok(true)
                    })
                    .expect("scan batches");
            }
            seen
        }),
    );
}

/// The strategies of the paper's Fig 7, summed over the four queries, and
/// the price of dynamic against the best static plan per query (Fig 6) — in
/// milliseconds, not cost units. Three repetitions, except that a strategy
/// whose first pass over the four queries takes more than a second runs once
/// (worst-order at SF 1000 takes over two).
fn strategies(fixture: &Fixture, out: &mut Out) {
    const STRATEGIES: [(&str, Strategy); 5] = [
        ("core.strategy_dynamic_ms", Strategy::Dynamic),
        ("core.strategy_cost_based_ms", Strategy::CostBased),
        ("core.strategy_best_order_ms", Strategy::BestOrder),
        ("core.strategy_pilot_run_ms", Strategy::PilotRun),
        ("core.strategy_worst_order_ms", Strategy::WorstOrder),
    ];
    let runner = QueryRunner::new(
        CostModel::with_partitions(PARTITIONS),
        JoinAlgorithmRule::default(),
    )
    .with_parallel(ParallelConfig::serial().with_workers(nproc()))
    .with_tracing(false);
    let specs: Vec<_> = PAPER_SQL
        .iter()
        .zip(PAPER_NAMES)
        .map(|(sql, name)| fixture.compile(sql, name).spec)
        .collect();
    let mut catalog = fixture.catalog.clone();
    // times[strategy][query] = one entry per repetition
    let mut times = vec![vec![Vec::new(); specs.len()]; STRATEGIES.len()];
    for (s, (name, strategy)) in STRATEGIES.iter().enumerate() {
        let mut reps = 0;
        while reps < 3 {
            let pass = Instant::now();
            for (q, spec) in specs.iter().enumerate() {
                let t = Instant::now();
                black_box(
                    runner
                        .run(*strategy, spec, &mut catalog)
                        .expect("strategy run"),
                );
                times[s][q].push(t.elapsed().as_secs_f64() * 1e3);
            }
            reps += 1;
            if pass.elapsed() > Duration::from_secs(1) {
                break;
            }
        }
        let sum: f64 = times[s].iter().map(|reps| median(reps)).sum();
        out.insert(name, (sum, reps));
    }
    println!("  # strategies per query, median ms (Fig 7 in wall time):");
    println!(
        "    {:<6}{}",
        "",
        STRATEGIES
            .iter()
            .map(|(name, _)| format!(
                "{:>12}",
                name.trim_start_matches("core.strategy_")
                    .trim_end_matches("_ms")
            ))
            .collect::<String>()
    );
    for (q, name) in PAPER_NAMES.iter().enumerate() {
        let row: String = (0..STRATEGIES.len())
            .map(|s| format!("{:>12.2}", median(&times[s][q])))
            .collect();
        println!("    {name:<6}{row}");
    }
    let log_ratio_sum: f64 = (0..specs.len())
        .map(|q| {
            let best_static = (1..STRATEGIES.len())
                .map(|s| median(&times[s][q]))
                .fold(f64::INFINITY, f64::min);
            (median(&times[0][q]) / best_static).ln()
        })
        .sum();
    out.insert(
        "core.dynamic_over_best_static",
        ((log_ratio_sum / specs.len() as f64).exp(), specs.len()),
    );
}

/// `CheckpointedDriver` against `DynamicDriver` on the four queries, and the
/// time to finish them after a failure two stages in.
fn checkpointing(fixture: &Fixture, out: &mut Out) {
    let config = || {
        DynamicConfig::dynamic(JoinAlgorithmRule::default())
            .with_parallel(ParallelConfig::serial().with_workers(nproc()))
            .with_spill(SpillConfig::from_env())
            .with_trace(TraceHandle::disabled())
    };
    let mut catalog = fixture.catalog.clone();
    let (mut plain_ms, mut checkpointed_ms, mut restore_ms) = (0.0, 0.0, 0.0);
    for (sql, name) in PAPER_SQL.iter().zip(PAPER_NAMES) {
        let spec = fixture.compile(sql, name).spec;
        let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;

        let t = Instant::now();
        DynamicDriver::new(config())
            .execute(&spec, &mut catalog)
            .expect("dynamic run");
        plain_ms += ms(t);

        let driver = CheckpointedDriver::new(config());
        let mut log = CheckpointLog::new();
        let t = Instant::now();
        driver
            .execute(&spec, &mut catalog, FailureInjector::none(), &mut log)
            .expect("checkpointed run");
        checkpointed_ms += ms(t);

        let mut log = CheckpointLog::new();
        let failed = driver.execute(
            &spec,
            &mut catalog,
            FailureInjector::after_stages(2),
            &mut log,
        );
        assert!(failed.is_err(), "the injected failure did not fire");
        let t = Instant::now();
        let resumed = driver
            .execute(&spec, &mut catalog, FailureInjector::none(), &mut log)
            .expect("resumed run");
        restore_ms += ms(t);
        assert_eq!(resumed.stages_recovered, 2, "{name} resumed from scratch");
    }
    out.insert(
        "core.checkpoint_overhead_ratio",
        (checkpointed_ms / plain_ms, PAPER_SQL.len()),
    );
    out.insert("core.checkpoint_restore_ms", (restore_ms, PAPER_SQL.len()));
}

//! Reproduces the Figure 6 measurement methodology on all four queries at one
//! scale factor: each query is executed three times — (1) the optimal plan with
//! statistics known upfront (best-order), (2) re-optimization enabled but
//! online statistics disabled, and (3) the full dynamic approach — and the
//! differences isolate the re-optimization and online-statistics overheads.
//!
//! Every run executes with tracing enabled, so after the cost table the
//! example prints where the dynamic run's *wall time* actually went: the
//! EXPLAIN-ANALYZE span tree of `RunReport::profile()` and the per-stage
//! share of the push-down / re-optimization / final stages. The simulated
//! costs (the paper's metric) and the traced wall times tell the same story
//! from two independent measurements.
//!
//! Run with: `cargo run --release --example overhead_breakdown`

use runtime_dynamic_optimization::exec::partition::{
    batch_size, hash_join_partition_chunked, hash_join_partition_rows,
    repartition_partition_chunked, repartition_partition_rows, scan_partition_chunked,
    scan_partition_rows,
};
use runtime_dynamic_optimization::exec::setup::prepare_scan;
use runtime_dynamic_optimization::prelude::*;
use std::time::Instant;

fn main() -> rdo_common::Result<()> {
    let scale = ScaleFactor::gb(20);
    println!("loading synthetic benchmark data at {scale} ...");
    let mut env = BenchmarkEnv::load(scale, 8, false, 42)?;
    let runner = QueryRunner::new(
        CostModel::with_partitions(8),
        JoinAlgorithmRule::with_threshold(5_000.0),
    )
    .with_tracing(true);

    println!(
        "\n{:<6} {:>16} {:>16} {:>16} {:>10}",
        "query", "stats upfront", "re-optimization", "online stats", "overhead%"
    );
    let mut dynamic_reports = Vec::new();
    for query in all_queries() {
        let upfront = runner.run(Strategy::BestOrder, &query, &mut env.catalog)?;
        let reopt = runner.run(Strategy::ReoptWithoutOnlineStats, &query, &mut env.catalog)?;
        let full = runner.run(Strategy::Dynamic, &query, &mut env.catalog)?;
        let report = OverheadReport::from_costs(
            upfront.simulated_cost,
            reopt.simulated_cost,
            full.simulated_cost,
        );
        println!(
            "{:<6} {:>16.1} {:>16.1} {:>16.1} {:>9.1}%",
            query.name,
            report.statistics_upfront,
            report.reoptimization,
            report.online_stats,
            100.0 * report.overhead_fraction()
        );
        dynamic_reports.push((query.name.clone(), full));
    }

    println!("\npredicate push-down overhead (Figure 6, right):");
    println!(
        "{:<6} {:>16} {:>16} {:>10}",
        "query", "baseline", "push-down", "overhead%"
    );
    for query in all_queries() {
        let baseline = runner.run(Strategy::DynamicWithoutPushdown, &query, &mut env.catalog)?;
        let with_pushdown = runner.run(Strategy::Dynamic, &query, &mut env.catalog)?;
        let pushdown_cost = with_pushdown
            .breakdown
            .map(|b| b.predicate_pushdown)
            .unwrap_or(0.0);
        let overhead = (with_pushdown.simulated_cost - baseline.simulated_cost).max(0.0)
            / baseline.simulated_cost;
        println!(
            "{:<6} {:>16.1} {:>16.1} {:>9.1}%",
            query.name,
            baseline.simulated_cost,
            pushdown_cost,
            100.0 * overhead
        );
    }

    // The same decomposition measured a second way: traced wall time per
    // driver stage of each full dynamic run.
    println!("\ntraced wall-time share per driver stage (full dynamic runs):");
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12}",
        "query", "total ms", "push-down%", "re-opt%", "final%"
    );
    for (name, report) in &dynamic_reports {
        let profile = report.profile();
        let total = profile
            .total_seconds("driver.execute")
            .max(f64::MIN_POSITIVE);
        let share = |stage: &str| 100.0 * profile.total_seconds(stage) / total;
        println!(
            "{:<6} {:>12.1} {:>11.1}% {:>11.1}% {:>11.1}%",
            name,
            total * 1_000.0,
            share("stage.pushdown"),
            share("stage.reopt"),
            share("stage.final"),
        );
    }

    // Full detail for one query: the EXPLAIN-ANALYZE tree (its latency
    // section shows p50/p90/p99 per span name), the estimate-vs-actual audit
    // table with the re-optimization decisions, and the combined Prometheus
    // exposition (execution counters + trace metrics + histogram buckets).
    if let Some((name, report)) = dynamic_reports.iter().find(|(n, _)| n == "Q9") {
        println!("\nspan tree of the dynamic {name} run:");
        print!("{}", report.profile().render_tree());
        println!("optimizer audit of the dynamic {name} run:");
        print!("{}", report.audit());
        println!(
            "max q-error of the run: {:.2}",
            report.audit_log.max_q_error()
        );
        println!("metrics exposition (first lines):");
        for line in report.metrics_text().lines().take(8) {
            println!("{line}");
        }
        println!("...");
    }

    // A third decomposition, one level below the driver stages: the physical
    // operator kernels themselves, timed head to head — the row-at-a-time
    // reference kernels (`*_rows`) against the batch operators behind their
    // row adapters (conversion at both ends included) — over the same query
    // data (every alias's scan, every
    // join condition, every repartition of the four queries). Outputs are
    // asserted identical; only the wall time differs.
    println!(
        "\nper-operator kernel wall time, row reference vs columnar batches \
         (batch size {}, best of {KERNEL_REPS} reps):",
        batch_size()
    );
    println!(
        "{:<12} {:>12} {:>12} {:>10}",
        "operator", "row ms", "batch ms", "batch/row"
    );
    for (operator, row_s, batch_s) in kernel_timings(&env)? {
        println!(
            "{:<12} {:>12.2} {:>12.2} {:>9.2}x",
            operator,
            row_s * 1_000.0,
            batch_s * 1_000.0,
            batch_s / row_s.max(f64::MIN_POSITIVE)
        );
    }

    Ok(())
}

const KERNEL_REPS: usize = 5;

/// Times the scan, hash-join and repartition kernels over all four queries'
/// data, row path vs batch path, returning (operator, row seconds, batch
/// seconds) with the best-of-`KERNEL_REPS` wall time for each path.
fn kernel_timings(env: &BenchmarkEnv) -> rdo_common::Result<Vec<(&'static str, f64, f64)>> {
    // Pre-resolve everything once so the timed loops run kernels only.
    // Scans: (alias-resolved schema, predicates, partition rows) per alias.
    let mut scans = Vec::new();
    // Joins and repartitions: predicate-filtered partition-0 sides.
    let mut joins = Vec::new();
    let mut shuffles = Vec::new();
    let num_partitions = env.catalog.num_partitions();
    for query in all_queries() {
        for alias in query.aliases() {
            let table = env.catalog.table(query.table_of(alias)?)?;
            let setup = prepare_scan(table, alias, None)?;
            let predicates: Vec<Predicate> =
                query.predicates_for(alias).into_iter().cloned().collect();
            let partitions: Vec<Vec<Tuple>> = (0..table.num_partitions())
                .map(|p| table.partition_to_vec(p))
                .collect::<rdo_common::Result<_>>()?;
            let filtered = scan_partition_rows(&setup.schema, &predicates, None, &partitions[0])?.0;
            if let Some(columns) = query.join_key_columns().get(alias) {
                let key = setup.schema.index_of(&columns[0])?;
                shuffles.push((filtered.clone(), key));
            }
            for join in query.joins_involving(alias) {
                // Each condition once, from its left side.
                let left_key = query.key_of(join, alias).expect("alias key");
                if left_key != &join.left {
                    continue;
                }
                let right_alias = query.home_of(&join.right);
                let right_table = env.catalog.table(query.table_of(right_alias)?)?;
                let right_setup = prepare_scan(right_table, right_alias, None)?;
                let right_predicates: Vec<Predicate> = query
                    .predicates_for(right_alias)
                    .into_iter()
                    .cloned()
                    .collect();
                let right_rows = scan_partition_rows(
                    &right_setup.schema,
                    &right_predicates,
                    None,
                    &right_table.partition_to_vec(0)?,
                )?
                .0;
                let probe_key = setup.schema.index_of(&join.left)?;
                let build_key = right_setup.schema.index_of(&join.right)?;
                joins.push((filtered.clone(), right_rows, probe_key, build_key));
            }
            scans.push((setup.schema, predicates, partitions));
        }
    }

    let chunk = batch_size();
    let best = |f: &mut dyn FnMut() -> rdo_common::Result<()>| -> rdo_common::Result<f64> {
        let mut best = f64::INFINITY;
        for _ in 0..KERNEL_REPS {
            let start = Instant::now();
            f()?;
            best = best.min(start.elapsed().as_secs_f64());
        }
        Ok(best)
    };

    let scan_row = best(&mut || {
        for (schema, predicates, partitions) in &scans {
            for rows in partitions {
                scan_partition_rows(schema, predicates, None, rows)?;
            }
        }
        Ok(())
    })?;
    let scan_batch = best(&mut || {
        for (schema, predicates, partitions) in &scans {
            for rows in partitions {
                scan_partition_chunked(schema, predicates, None, rows, chunk)?;
            }
        }
        Ok(())
    })?;

    let join_row = best(&mut || {
        for (probe, build, pk, bk) in &joins {
            hash_join_partition_rows(probe, build, &[*pk], &[*bk]);
        }
        Ok(())
    })?;
    let join_batch = best(&mut || {
        for (probe, build, pk, bk) in &joins {
            hash_join_partition_chunked(probe, build, &[*pk], &[*bk], chunk);
        }
        Ok(())
    })?;
    // Untimed sanity pass: both paths must produce identical join output.
    for (probe, build, pk, bk) in &joins {
        assert_eq!(
            hash_join_partition_chunked(probe, build, &[*pk], &[*bk], chunk),
            hash_join_partition_rows(probe, build, &[*pk], &[*bk]),
            "kernel outputs diverged"
        );
    }

    let shuffle_row = best(&mut || {
        for (rows, key) in &shuffles {
            repartition_partition_rows(rows, *key, 0, num_partitions);
        }
        Ok(())
    })?;
    let shuffle_batch = best(&mut || {
        for (rows, key) in &shuffles {
            repartition_partition_chunked(rows, *key, 0, num_partitions, chunk);
        }
        Ok(())
    })?;

    Ok(vec![
        ("scan", scan_row, scan_batch),
        ("hash join", join_row, join_batch),
        ("repartition", shuffle_row, shuffle_batch),
    ])
}

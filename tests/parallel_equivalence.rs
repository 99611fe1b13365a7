//! Parallelism is an *optimization*, never a semantic change: for every
//! evaluation query (Q8, Q9, Q17, Q50) the executor must produce at every
//! worker count exactly the relations and metrics it produces at one worker
//! (a plain loop on the calling thread), and the dynamic driver's outcome must
//! be invariant in the worker count. Plus: `ExecutionMetrics::merge` — the
//! fold the executor relies on — is associative and commutative; the Sink's sketches read off
//! column slots are the sketches tuples would build; the indexed nested-loop
//! join addresses a columnar base table exactly as it would rows; and a
//! 3-row `RDO_BATCH_SIZE` — base-table chunk boundaries in the middle of
//! every partition — leaves everything observable unchanged.

use proptest::prelude::*;
// Explicit import: both preludes export a `Strategy` (the proptest trait and
// the runner's strategy enum); the trait is the one this test uses.
use proptest::Strategy;
use runtime_dynamic_optimization::exec::partition::hash_join_partition_rows;
use runtime_dynamic_optimization::prelude::*;
use runtime_dynamic_optimization::sketch::DatasetStatsBuilder;
use runtime_dynamic_optimization::storage::table::resolve_key;

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(2), 4, true, 42).expect("workload generation")
}

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The executor in its serial configuration (one worker) and at any other
/// worker count agree on the gathered relation and every metric counter, for
/// the static cost-based plan of all four evaluation queries.
#[test]
fn parallel_executor_matches_serial_on_all_evaluation_queries() {
    let env = env();
    let rule = JoinAlgorithmRule::with_threshold(25_000.0);
    for query in all_queries() {
        let plan = CostBasedOptimizer::new(rule)
            .plan(&query, &env.catalog, env.catalog.stats())
            .expect("static plan");

        let mut serial_metrics = ExecutionMetrics::new();
        let expected = ParallelExecutor::new(&env.catalog, ParallelConfig::serial())
            .execute_to_relation(&plan, &mut serial_metrics)
            .expect("one-worker execution");

        for workers in &WORKER_COUNTS[1..] {
            let config = ParallelConfig::serial().with_workers(*workers);
            let parallel = ParallelExecutor::new(&env.catalog, config);
            let mut metrics = ExecutionMetrics::new();
            let actual = parallel
                .execute_to_relation(&plan, &mut metrics)
                .expect("parallel execution");
            assert_eq!(
                actual, expected,
                "{}: relation diverged at workers={workers}",
                query.name
            );
            assert_eq!(
                metrics, serial_metrics,
                "{}: metrics diverged at workers={workers}",
                query.name
            );
        }
    }
}

/// The full dynamic driver (push-down, re-optimization loop with merged
/// per-partition sketches, final job) is worker-count invariant on all four
/// evaluation queries: same result, same merged metrics, same chosen plans.
#[test]
fn dynamic_driver_is_worker_count_invariant() {
    // One generated environment; each run gets a cheap clone (tables are
    // Arc-shared) so workload generation doesn't dominate the test.
    let env = env();
    for query in all_queries() {
        let mut reference = None;
        for workers in WORKER_COUNTS {
            let mut catalog = env.catalog.clone();
            let config = DynamicConfig::default()
                .with_parallel(ParallelConfig::serial().with_workers(workers));
            let outcome = DynamicDriver::new(config)
                .execute(&query, &mut catalog)
                .expect("dynamic execution");
            match &reference {
                None => reference = Some(outcome),
                Some(expected) => {
                    assert_eq!(
                        outcome.result, expected.result,
                        "{}: result diverged at workers={workers}",
                        query.name
                    );
                    assert_eq!(
                        outcome.total, expected.total,
                        "{}: metrics diverged at workers={workers}",
                        query.name
                    );
                    assert_eq!(
                        outcome.stage_plans, expected.stage_plans,
                        "{}: plan choice diverged at workers={workers}",
                        query.name
                    );
                }
            }
        }
    }
}

/// The parallel Sink reads its sketches off column slots; the statistics it
/// registers are exactly the ones per-partition builders fed the same rows
/// as tuples — GK quantile boundaries, HLL distinct estimates, min/max and
/// counts — at every worker count.
#[test]
fn sink_statistics_from_column_slots_match_statistics_from_tuples() {
    let env = env();
    let tracked = vec![
        "l_orderkey".to_string(),
        "l_partkey".to_string(),
        "l_shipmode".to_string(),
        "l_extendedprice".to_string(),
    ];
    for workers in WORKER_COUNTS {
        let mut catalog = env.catalog.clone();
        let config = ParallelConfig::serial().with_workers(workers);
        let mut metrics = ExecutionMetrics::new();
        let data = ParallelExecutor::new(&catalog, config)
            .execute(&PhysicalPlan::scan("lineitem"), &mut metrics)
            .expect("scan");

        let mut expected = DatasetStatsBuilder::new(data.schema(), &tracked);
        for p in 0..data.num_partitions() {
            let mut partial = DatasetStatsBuilder::new(data.schema(), &tracked);
            for row in data.partition_rows(p) {
                partial.observe(&row);
            }
            expected.merge(&partial);
        }
        let expected = expected.build();

        let outcome = runtime_dynamic_optimization::exec::materialize(
            &WorkerPool::new(workers),
            &mut catalog,
            "I_stats",
            &data,
            Some("l_partkey"),
            &tracked,
            true,
            &mut metrics,
        )
        .expect("materialize");
        assert_eq!(
            outcome.stats_values,
            outcome.rows * expected.columns.len() as u64
        );
        let stats = catalog.stats().get("I_stats").expect("registered");
        assert_eq!(stats.row_count, expected.row_count);
        assert_eq!(stats.columns.len(), expected.columns.len());
        assert!(expected.columns.len() >= 3, "the tracked columns exist");
        for (name, column) in &expected.columns {
            assert_eq!(
                format!("{:?}", stats.column(name).expect("tracked column")),
                format!("{column:?}"),
                "{name} at workers={workers}"
            );
        }
        // The table holds the same rows the data did, re-bucketed on the
        // requested key.
        let table = catalog.table("I_stats").expect("registered");
        let on_partkey = resolve_key(table.schema(), "l_partkey").unwrap();
        assert_eq!(table.partition_key(), Some(on_partkey));
        assert_eq!(table.gather().sorted(), data.gather().sorted());
    }
}

/// The indexed nested-loop join fetches base rows by `(chunk, slot)` out of
/// the columnar table: the executor agrees with itself at every worker
/// count, and the rows are the ones a row-at-a-time join of the gathered
/// tables produces.
#[test]
fn indexed_join_over_a_columnar_base_table_matches_the_row_result() {
    let mut catalog = Catalog::new(4);
    let orders = Schema::for_dataset(
        "orders",
        &[
            ("o_orderkey", DataType::Int64),
            ("o_custkey", DataType::Int64),
            ("o_note", DataType::Utf8),
        ],
    );
    // More rows per partition than one chunk holds at any batch size the
    // suite runs under, so index addresses span chunks.
    let rows = (0..6_000)
        .map(|i| {
            Tuple::new(vec![
                Value::Int64(i),
                if i % 97 == 0 {
                    Value::Null
                } else {
                    Value::Int64(i % 40)
                },
                Value::from(format!("note-{}", i % 13)),
            ])
        })
        .collect();
    catalog
        .ingest(
            "orders",
            Relation::new(orders, rows).expect("orders"),
            IngestOptions::partitioned_on("o_orderkey").with_index("o_custkey"),
        )
        .expect("ingest orders");
    let customer = Schema::for_dataset(
        "customer",
        &[("c_custkey", DataType::Int64), ("c_name", DataType::Utf8)],
    );
    let rows = (0..50)
        .map(|i| Tuple::new(vec![Value::Int64(i), Value::from(format!("c{i}"))]))
        .collect();
    catalog
        .ingest(
            "customer",
            Relation::new(customer, rows).expect("customer"),
            IngestOptions::partitioned_on("c_custkey"),
        )
        .expect("ingest customer");
    assert!(
        catalog.table("orders").expect("orders").batches(0).len() > 1,
        "a partition spans several chunks"
    );

    let plan = PhysicalPlan::join(
        PhysicalPlan::scan("orders")
            .with_predicates(vec![Predicate::compare(
                FieldRef::new("orders", "o_note"),
                CmpOp::Ne,
                "note-3",
            )])
            .with_projection(vec![
                FieldRef::new("orders", "o_custkey"),
                FieldRef::new("orders", "o_orderkey"),
            ]),
        PhysicalPlan::scan("customer"),
        FieldRef::new("orders", "o_custkey"),
        FieldRef::new("customer", "c_custkey"),
        JoinAlgorithm::IndexedNestedLoop,
    );
    let mut serial_metrics = ExecutionMetrics::new();
    let expected = ParallelExecutor::new(&catalog, ParallelConfig::serial())
        .execute_to_relation(&plan, &mut serial_metrics)
        .expect("one-worker INL");
    assert_eq!(serial_metrics.rows_scanned, 50, "orders is never scanned");
    for workers in &WORKER_COUNTS[1..] {
        let workers = *workers;
        let mut metrics = ExecutionMetrics::new();
        let actual =
            ParallelExecutor::new(&catalog, ParallelConfig::serial().with_workers(workers))
                .execute_to_relation(&plan, &mut metrics)
                .expect("parallel INL");
        assert_eq!(actual, expected, "workers={workers}");
        assert_eq!(metrics, serial_metrics, "workers={workers}");
    }

    // The row result: filter and project the gathered orders, join row by row.
    let orders: Vec<Tuple> = catalog
        .table("orders")
        .expect("orders")
        .gather()
        .into_rows()
        .into_iter()
        .filter(|r| r.value(2) != &Value::from("note-3"))
        .map(|r| r.project(&[1, 0]))
        .collect();
    let customers = catalog.table("customer").expect("customer").gather();
    let (by_rows, _) = hash_join_partition_rows(&orders, customers.rows(), &[0], &[0]);
    let mut by_rows = by_rows;
    by_rows.sort();
    assert_eq!(expected.sorted().rows(), by_rows.as_slice());
}

/// Everything a client or the planner can observe of the four evaluation
/// queries under the dynamic driver — result rows in order, every metric
/// counter, the chosen stage plans — as one digest.
fn observable_digest() -> u64 {
    use std::hash::{Hash, Hasher};
    let env = env();
    let chunk = batch_size();
    let lineitem = env.catalog.table("lineitem").expect("lineitem");
    for p in 0..lineitem.num_partitions() {
        let chunks = lineitem.batches(p);
        assert!(chunks.iter().all(|b| b.num_rows() <= chunk));
        assert_eq!(
            chunks.len(),
            lineitem.partition_len(p).div_ceil(chunk),
            "base tables are chunked at the batch size"
        );
    }
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for query in all_queries() {
        let mut catalog = env.catalog.clone();
        let config =
            DynamicConfig::default().with_parallel(ParallelConfig::serial().with_workers(2));
        let outcome = DynamicDriver::new(config)
            .execute(&query, &mut catalog)
            .expect("dynamic execution");
        format!(
            "{:?}|{:?}|{:?}",
            outcome.result.rows(),
            outcome.total,
            outcome.stage_plans
        )
        .hash(&mut hasher);
    }
    hasher.finish()
}

/// `RDO_BATCH_SIZE` is read once per process, so the 3-row run is a child
/// process: this test re-invokes its own binary with the knob exported and
/// compares what the child observed with a child at the default size.
#[test]
fn three_row_chunks_leave_everything_observable_unchanged() {
    const CHILD: &str = "PARALLEL_EQUIVALENCE_DIGEST_CHILD";
    if std::env::var_os(CHILD).is_some() {
        println!("observable-digest={}", observable_digest());
        return;
    }
    let digest_at = |batch_size: &str| -> String {
        let output = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([
                "--exact",
                "three_row_chunks_leave_everything_observable_unchanged",
                "--nocapture",
            ])
            .env(CHILD, "1")
            .env(BATCH_SIZE_ENV, batch_size)
            .output()
            .expect("child test process");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "child failed: {stdout}");
        stdout
            .lines()
            .find_map(|line| line.split("observable-digest=").nth(1))
            .unwrap_or_else(|| panic!("child printed no digest: {stdout}"))
            .trim()
            .to_string()
    };
    assert_eq!(digest_at("3"), digest_at("1024"));
}

fn metrics_from(values: &[u64; 33]) -> ExecutionMetrics {
    ExecutionMetrics {
        rows_scanned: values[0],
        bytes_scanned: values[1],
        rows_intermediate_read: values[2],
        bytes_intermediate_read: values[3],
        rows_shuffled: values[4],
        bytes_shuffled: values[5],
        rows_broadcast: values[6],
        bytes_broadcast: values[7],
        build_rows: values[8],
        probe_rows: values[9],
        output_rows: values[10],
        index_lookups: values[11],
        index_fetched_rows: values[12],
        rows_materialized: values[13],
        bytes_materialized: values[14],
        stats_values_observed: values[15],
        result_rows: values[16],
        spill_pages_written: values[17],
        spill_bytes_written: values[18],
        spill_pages_read: values[19],
        spill_bytes_read: values[20],
        spill_logical_bytes_written: values[28],
        spill_logical_bytes_read: values[29],
        grace_partitions_spilled: values[21],
        grace_pages_written: values[22],
        grace_bytes_written: values[23],
        grace_pages_read: values[24],
        grace_bytes_read: values[25],
        grace_logical_bytes_written: values[30],
        grace_logical_bytes_read: values[31],
        grace_recursions: values[26],
        grace_fallbacks: values[27],
        // Max-merged high-water mark; max is commutative and associative
        // with identity 0, so the merge laws below still hold.
        grace_peak_transient_bytes: values[32],
    }
}

fn counter_strategy() -> impl Strategy<Value = [u64; 33]> {
    prop::collection::vec(0u64..1_000_000, 33..34).prop_map(|v| {
        let mut out = [0u64; 33];
        out.copy_from_slice(&v);
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// merge is commutative: a ⊕ b = b ⊕ a.
    fn metrics_merge_is_commutative(a in counter_strategy(), b in counter_strategy()) {
        let (a, b) = (metrics_from(&a), metrics_from(&b));
        prop_assert_eq!(a.merge(b), b.merge(a));
    }

    /// merge is associative: (a ⊕ b) ⊕ c = a ⊕ (b ⊕ c), so any fold order over
    /// per-partition partials yields the same totals.
    fn metrics_merge_is_associative(
        a in counter_strategy(),
        b in counter_strategy(),
        c in counter_strategy(),
    ) {
        let (a, b, c) = (metrics_from(&a), metrics_from(&b), metrics_from(&c));
        prop_assert_eq!(a.merge(b).merge(c), a.merge(b.merge(c)));
        // The identity element is the zeroed metrics object.
        prop_assert_eq!(a.merge(ExecutionMetrics::new()), a);
    }
}

//! Load data through the LSM ingestion substrate and show that the statistics
//! the optimizer needs come "for free" from the component sketches collected
//! while the data was written — no pilot runs, no separate statistics scan.
//!
//! Run with: `cargo run --release --example lsm_ingestion`

use runtime_dynamic_optimization::lsm::{
    LsmDataset, LsmOptions, PrefixMergePolicy, TieredMergePolicy,
};
use runtime_dynamic_optimization::prelude::*;

fn main() -> rdo_common::Result<()> {
    // ------------------------------------------------------------- ingest --
    let orders_schema = Schema::for_dataset(
        "orders",
        &[
            ("o_orderkey", DataType::Int64),
            ("o_custkey", DataType::Int64),
            ("o_total", DataType::Float64),
        ],
    );
    let customer_schema = Schema::for_dataset(
        "customer",
        &[
            ("c_custkey", DataType::Int64),
            ("c_segment", DataType::Int64),
        ],
    );

    let mut orders = LsmDataset::with_policy(
        "orders",
        orders_schema,
        "o_orderkey",
        LsmOptions {
            memtable_capacity: 2_048,
        },
        Box::new(PrefixMergePolicy::default()),
    )?;
    for i in 0..100_000i64 {
        orders.insert(Tuple::new(vec![
            Value::Int64(i),
            Value::Int64(i % 5_000),
            Value::Float64((i % 997) as f64),
        ]))?;
    }

    let mut customer = LsmDataset::with_policy(
        "customer",
        customer_schema,
        "c_custkey",
        LsmOptions {
            memtable_capacity: 1_024,
        },
        Box::new(TieredMergePolicy { max_components: 4 }),
    )?;
    for i in 0..5_000i64 {
        customer.insert(Tuple::new(vec![Value::Int64(i), Value::Int64(i % 8)]))?;
    }

    for dataset in [&mut orders, &mut customer] {
        dataset.flush()?;
        let metrics = dataset.metrics();
        println!(
            "{:<9} policy={:<7} components={:<3} flushes={:<3} merges={:<3} write-amplification={:.2}",
            dataset.name(),
            dataset.policy_name(),
            dataset.components().len(),
            metrics.flushes,
            metrics.merges,
            metrics.write_amplification()
        );
    }

    // ------------------------------------ statistics from component sketches --
    let orders_stats = orders.merged_stats();
    println!(
        "\norders statistics straight from the LSM components: {} rows, ~{} distinct o_custkey",
        orders_stats.row_count,
        orders_stats
            .column(&FieldRef::new("orders", "o_custkey"))
            .map(|c| c.distinct)
            .unwrap_or(0)
    );

    // -------------------------------------------- register and run a query --
    let mut catalog = Catalog::new(8);
    orders.load_into_catalog(&mut catalog)?;
    customer.load_into_catalog(&mut catalog)?;

    let query = QuerySpec::new("lsm-join")
        .with_dataset(DatasetRef::named("orders"))
        .with_dataset(DatasetRef::named("customer"))
        .with_predicate(Predicate::compare(
            FieldRef::new("customer", "c_segment"),
            CmpOp::Eq,
            3i64,
        ))
        .with_join(
            FieldRef::new("orders", "o_custkey"),
            FieldRef::new("customer", "c_custkey"),
        )
        .with_projection(vec![
            FieldRef::new("orders", "o_orderkey"),
            FieldRef::new("customer", "c_segment"),
        ]);

    let runner = QueryRunner::new(
        CostModel::with_partitions(8),
        JoinAlgorithmRule::with_threshold(10_000.0),
    );
    for strategy in [Strategy::Dynamic, Strategy::CostBased] {
        let report = runner.run(strategy, &query, &mut catalog)?;
        println!(
            "{:<12} rows={:<7} simulated-cost={:>12.1} plan: {}",
            report.strategy.label(),
            report.result_rows(),
            report.simulated_cost,
            report.plan
        );
    }
    Ok(())
}

//! Micro-benchmarks of the three join algorithms (hash, broadcast, indexed
//! nested-loop) on a key/foreign-key join, at two build-side sizes. These back
//! the join-algorithm selection rule: broadcast/INL should win while the build
//! side is small, hash should win once it is not.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdo_common::{DataType, FieldRef, Relation, Schema, Tuple, Value};
use rdo_core::{ParallelConfig, ParallelExecutor};
use rdo_exec::{ExecutionMetrics, JoinAlgorithm, PhysicalPlan};
use rdo_storage::{Catalog, IngestOptions};

fn build_catalog(fact_rows: i64, dim_rows: i64) -> Catalog {
    let mut catalog = Catalog::new(8);
    let fact_schema = Schema::for_dataset(
        "fact",
        &[("f_id", DataType::Int64), ("f_dim", DataType::Int64)],
    );
    let fact: Vec<Tuple> = (0..fact_rows)
        .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % dim_rows)]))
        .collect();
    catalog
        .ingest(
            "fact",
            Relation::new(fact_schema, fact).unwrap(),
            IngestOptions::partitioned_on("f_id").with_index("f_dim"),
        )
        .unwrap();
    let dim_schema = Schema::for_dataset(
        "dim",
        &[("d_id", DataType::Int64), ("d_val", DataType::Int64)],
    );
    let dim: Vec<Tuple> = (0..dim_rows)
        .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 17)]))
        .collect();
    catalog
        .ingest(
            "dim",
            Relation::new(dim_schema, dim).unwrap(),
            IngestOptions::partitioned_on("d_id"),
        )
        .unwrap();
    catalog
}

fn join_plan(algorithm: JoinAlgorithm) -> PhysicalPlan {
    PhysicalPlan::join(
        PhysicalPlan::scan("fact"),
        PhysicalPlan::scan("dim"),
        FieldRef::new("fact", "f_dim"),
        FieldRef::new("dim", "d_id"),
        algorithm,
    )
}

fn bench_joins(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_algorithms");
    group.sample_size(10);
    for (fact_rows, dim_rows) in [(50_000i64, 100i64), (50_000, 10_000)] {
        let catalog = build_catalog(fact_rows, dim_rows);
        for algorithm in [
            JoinAlgorithm::Hash,
            JoinAlgorithm::Broadcast,
            JoinAlgorithm::IndexedNestedLoop,
        ] {
            let plan = join_plan(algorithm);
            group.bench_with_input(
                BenchmarkId::new(format!("fact{fact_rows}_dim{dim_rows}"), algorithm.symbol()),
                &plan,
                |b, plan| {
                    b.iter(|| {
                        let executor = ParallelExecutor::new(&catalog, ParallelConfig::serial());
                        let mut metrics = ExecutionMetrics::new();
                        executor.execute(plan, &mut metrics).unwrap().row_count()
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_joins);
criterion_main!(benches);

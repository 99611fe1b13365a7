//! Micro-benchmarks of the three join algorithms (hash, broadcast, indexed
//! nested-loop) on a key/foreign-key join, at two build-side sizes. These back
//! the join-algorithm selection rule: broadcast/INL should win while the build
//! side is small, hash should win once it is not.
//!
//! `join_index` times one `JoinBuildTable` build and probe alone: a
//! Q17-shaped join on three integer keys and a join on a string key, each a
//! 50k-row probe against a build side that one probe row in eight matches.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rdo_common::{batch_size, Batch, DataType, FieldRef, Relation, Schema, Tuple, Value};
use rdo_core::{ParallelConfig, ParallelExecutor};
use rdo_exec::{ExecutionMetrics, JoinAlgorithm, JoinBuildTable, PhysicalPlan};
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

/// `rows` rows of `key(i)` plus a payload, cut at the batch size.
fn chunks(rows: impl Iterator<Item = i64>, key: impl Fn(i64) -> Vec<Value>) -> Vec<Batch> {
    let rows: Vec<Tuple> = rows
        .map(|i| {
            let mut values = key(i);
            values.push(Value::Int64(i));
            Tuple::new(values)
        })
        .collect();
    let width = rows[0].len();
    rows.chunks(batch_size())
        .map(|chunk| Batch::from_rows(width, chunk))
        .collect()
}

fn bench_join_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_index");
    group.sample_size(10);
    let three_ints = |i: i64| {
        vec![
            Value::Int64(i % 1_000),
            Value::Int64(i % 7),
            Value::Int64(i),
        ]
    };
    let name = |i: i64| vec![Value::Utf8(format!("item-{:08}", i % 5_000))];
    type Key = Box<dyn Fn(i64) -> Vec<Value>>;
    let cases: [(&str, Key, usize); 2] = [
        ("q17_three_int_keys", Box::new(three_ints), 3),
        ("utf8_key", Box::new(name), 1),
    ];
    for (case, key, arity) in cases {
        let probe = chunks(0..50_000, &key);
        let build = chunks((0..50_000).step_by(8), &key);
        let keys: Vec<usize> = (0..arity).collect();
        group.bench_function(case, |b| {
            b.iter(|| {
                let table = JoinBuildTable::build(&build, &keys);
                table.probe_partition(&probe, &keys).1.output_rows
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_joins, bench_join_index);
criterion_main!(benches);

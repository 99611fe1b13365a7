//! Batch-operator vs row-kernel equivalence on the four evaluation queries.
//!
//! The row-at-a-time kernels survive as reference implementations
//! (`*_rows`); this suite drives both paths over the real Q8/Q9/Q17/Q50
//! benchmark tables — every alias, every partition, with the queries' own
//! predicates and join keys — and asserts outputs and tallies are identical
//! at several chunk sizes, including the degenerate size 1 and the
//! boundary-unfriendly size 3. It also pins the two places batches meet
//! rows: a base table's stored chunks scan exactly like the rows they hold,
//! and [`PartitionedData`] round-trips between its batch and row forms.
//! Together with the serial/parallel/distributed equivalence suites (which
//! exercise the batch operators through the executors) this pins the
//! columnar engine to the row semantics bit-for-bit.

use runtime_dynamic_optimization::exec::partition::{
    hash_join_partition_chunked, hash_join_partition_rows, repartition_partition_chunked,
    repartition_partition_rows, scan_partition_chunked, scan_partition_rows, scan_table_partition,
};
use runtime_dynamic_optimization::exec::setup::prepare_scan;
use runtime_dynamic_optimization::exec::PartitionedData;
use runtime_dynamic_optimization::prelude::*;

const CHUNK_SIZES: [usize; 4] = [1, 3, 1024, 100_000];

fn env() -> BenchmarkEnv {
    BenchmarkEnv::load(ScaleFactor::gb(2), 4, true, 42).expect("workload generation")
}

/// The scan kernel: each alias's predicates over each partition of its base
/// table, row path vs batch path at every chunk size.
#[test]
fn batch_scan_matches_row_scan_on_evaluation_queries() {
    let env = env();
    for query in all_queries() {
        for alias in query.aliases() {
            let table = env
                .catalog
                .table(query.table_of(alias).expect("alias has a table"))
                .expect("table exists");
            let setup = prepare_scan(table, alias, None).expect("scan setup");
            let predicates: Vec<Predicate> =
                query.predicates_for(alias).into_iter().cloned().collect();
            for p in 0..table.num_partitions() {
                let rows = &table.partition_to_vec(p).expect("resident base table");
                let reference =
                    scan_partition_rows(&setup.schema, &predicates, None, rows).expect("row scan");
                for chunk_size in CHUNK_SIZES {
                    let chunked =
                        scan_partition_chunked(&setup.schema, &predicates, None, rows, chunk_size)
                            .expect("batch scan");
                    assert_eq!(
                        chunked, reference,
                        "{} {alias} partition {p} chunk {chunk_size}",
                        query.name
                    );
                }
            }
        }
    }
}

/// The scan operator over a base table's *stored chunks* — what the executors
/// run — against the row scan over the same rows registered as tuples: same
/// survivors in the same order, same tally, with and without a projection.
/// A scan that filters nothing passes the stored chunks on shared.
#[test]
fn stored_chunks_scan_like_the_rows_they_hold() {
    let env = env();
    for query in all_queries() {
        for alias in query.aliases() {
            let table = env
                .catalog
                .table(query.table_of(alias).expect("alias has a table"))
                .expect("table exists");
            let setup = prepare_scan(table, alias, None).expect("scan setup");
            let predicates: Vec<Predicate> =
                query.predicates_for(alias).into_iter().cloned().collect();
            let last = setup.schema.len() - 1;
            for p in 0..table.num_partitions() {
                let rows = table.partition_to_vec(p).expect("resident base table");
                for projection in [None, Some(vec![last, 0])] {
                    let projection = projection.as_deref();
                    let (expected, expected_tally) =
                        scan_partition_rows(&setup.schema, &predicates, projection, &rows)
                            .expect("row scan");
                    let (batches, tally, pages) =
                        scan_table_partition(table, p, &setup.schema, &predicates, projection)
                            .expect("batch scan");
                    let got: Vec<Tuple> = batches.iter().flat_map(Batch::to_rows).collect();
                    assert_eq!(got, expected, "{} {alias} partition {p}", query.name);
                    assert_eq!(tally, expected_tally);
                    assert_eq!(pages.pages, 0, "a resident table reads no spill page");
                }
                let (unfiltered, _, _) =
                    scan_table_partition(table, p, &setup.schema, &[], None).expect("scan");
                assert_eq!(unfiltered.as_slice(), table.batches(p));
                for (lent, stored) in unfiltered.iter().zip(table.batches(p)) {
                    assert!(
                        std::ptr::eq(lent.column(0), stored.column(0)),
                        "an unfiltered scan shares the stored columns"
                    );
                }
            }
        }
    }
}

/// Operator output keeps its identity across the row edge: batches → rows →
/// batches gives the same rows, counts and byte accounting, and the gathered
/// relation is the partitions' rows end to end.
#[test]
fn partitioned_data_roundtrips_between_batches_and_rows() {
    let env = env();
    let executor = ParallelExecutor::new(&env.catalog, ParallelConfig::serial());
    for table in ["lineitem", "orders", "part"] {
        let mut metrics = ExecutionMetrics::new();
        let data = executor
            .execute(&PhysicalPlan::scan(table), &mut metrics)
            .expect("scan");
        let rows = data.to_rows();
        let back =
            PartitionedData::from_rows(data.schema().clone(), rows.clone(), data.partition_key());
        assert_eq!(back.to_rows(), rows, "{table}");
        assert_eq!(back.row_count(), data.row_count());
        assert_eq!(back.approx_bytes(), data.approx_bytes());
        assert_eq!(
            data.approx_bytes(),
            rows.iter()
                .flatten()
                .map(Tuple::approx_bytes)
                .sum::<usize>(),
            "batch accounting is the tuple model's"
        );
        assert_eq!(data.gather().rows(), rows.concat().as_slice());
        assert_eq!(back.gather(), data.gather());
    }
}

/// The hash-join kernel: every join condition of every query, joining the
/// predicate-filtered sides on the query's own keys.
#[test]
fn batch_join_matches_row_join_on_evaluation_queries() {
    let env = env();
    for query in all_queries() {
        for alias in query.aliases() {
            for join in query.joins_involving(alias) {
                let probe_key = join.key_of(alias).expect("alias key");
                let build_alias = if join.left.dataset == alias {
                    &join.right.dataset
                } else {
                    &join.left.dataset
                };
                let build_key = join.key_of(build_alias).expect("other key");

                let (probe_rows, probe_idx) = filtered_side(&env, &query, alias, probe_key);
                let (build_rows, build_idx) = filtered_side(&env, &query, build_alias, build_key);

                let reference =
                    hash_join_partition_rows(&probe_rows, &build_rows, &[probe_idx], &[build_idx]);
                assert!(
                    reference.1.probe_rows > 0,
                    "{}: empty probe side for {}",
                    query.name,
                    join.describe()
                );
                for chunk_size in CHUNK_SIZES {
                    let chunked = hash_join_partition_chunked(
                        &probe_rows,
                        &build_rows,
                        &[probe_idx],
                        &[build_idx],
                        chunk_size,
                    );
                    assert_eq!(
                        chunked,
                        reference,
                        "{} {} chunk {chunk_size}",
                        query.name,
                        join.describe()
                    );
                }
            }
        }
    }
}

/// The repartition kernel: every alias's rows bucketed on its first join
/// key, shuffle counters included.
#[test]
fn batch_repartition_matches_row_repartition_on_evaluation_queries() {
    let env = env();
    let num_partitions = env.catalog.num_partitions();
    for query in all_queries() {
        let key_columns = query.join_key_columns();
        for alias in query.aliases() {
            let Some(columns) = key_columns.get(alias) else {
                continue;
            };
            let key = FieldRef::new(alias, columns[0].clone());
            let (rows, key_idx) = filtered_side(&env, &query, alias, &key);
            for from in [0, num_partitions - 1] {
                let reference = repartition_partition_rows(&rows, key_idx, from, num_partitions);
                for chunk_size in CHUNK_SIZES {
                    let chunked = repartition_partition_chunked(
                        &rows,
                        key_idx,
                        from,
                        num_partitions,
                        chunk_size,
                    );
                    assert_eq!(
                        chunked, reference,
                        "{} {alias} from {from} chunk {chunk_size}",
                        query.name
                    );
                }
            }
        }
    }
}

/// One side of a join: partition 0 of the alias's table, filtered by the
/// query's predicates for that alias (the batch and row scan agree on this
/// by the scan test above), plus the resolved index of `key`.
fn filtered_side(
    env: &BenchmarkEnv,
    query: &QuerySpec,
    alias: &str,
    key: &FieldRef,
) -> (Vec<Tuple>, usize) {
    let table = env
        .catalog
        .table(query.table_of(alias).expect("alias has a table"))
        .expect("table exists");
    let setup = prepare_scan(table, alias, None).expect("scan setup");
    let predicates: Vec<Predicate> = query.predicates_for(alias).into_iter().cloned().collect();
    let base = table.partition_to_vec(0).expect("resident base table");
    let (rows, _) = scan_partition_rows(&setup.schema, &predicates, None, &base).expect("scan");
    let key_idx = setup.schema.resolve(key).expect("key resolves");
    (rows, key_idx)
}

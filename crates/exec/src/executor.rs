//! The plan executor: runs a [`PhysicalPlan`] partition-by-partition against the
//! catalog, recording everything into [`ExecutionMetrics`].

use crate::cost::ExecutionMetrics;
use crate::data::PartitionedData;
use crate::expr::Predicate;
use crate::grace::{joined_partition, GraceContext, GraceTally, PreparedBuild};
use crate::partition::{indexed_join_partition, scan_table_partition, IndexJoinTally, ScanTally};
use crate::plan::{JoinAlgorithm, PhysicalPlan};
use crate::setup::{prepare_indexed_join, prepare_scan, resolve_keys};
use rdo_common::{Batch, FieldRef, RdoError, Relation, Result};
use rdo_storage::{Catalog, SpillReadTally};

/// Executes physical plans against a catalog.
pub struct Executor<'a> {
    catalog: &'a Catalog,
}

impl<'a> Executor<'a> {
    /// Creates an executor over the given catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        Self { catalog }
    }

    /// Executes a plan, returning the partitioned output.
    pub fn execute(
        &self,
        plan: &PhysicalPlan,
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        match plan {
            PhysicalPlan::Scan {
                dataset,
                table,
                predicates,
                projection,
            } => self.execute_scan(dataset, table, predicates, projection.as_deref(), metrics),
            PhysicalPlan::Join {
                left,
                right,
                keys,
                algorithm,
            } => self.execute_join(left, right, keys, *algorithm, metrics),
        }
    }

    /// Executes a plan and gathers the result on the coordinator.
    pub fn execute_to_relation(
        &self,
        plan: &PhysicalPlan,
        metrics: &mut ExecutionMetrics,
    ) -> Result<Relation> {
        let data = self.execute(plan, metrics)?;
        let relation = data.gather();
        metrics.result_rows += relation.len() as u64;
        Ok(relation)
    }

    fn execute_scan(
        &self,
        dataset: &str,
        table_name: &str,
        predicates: &[Predicate],
        projection: Option<&[FieldRef]>,
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        let mut span = rdo_trace::span("exec.scan");
        span.attr_str("table", table_name);
        let table = self.catalog.table(table_name)?;
        let setup = prepare_scan(table, dataset, projection)?;

        // Every partition goes through the scan operator: resident tables
        // lend their stored chunks (an unfiltered scan passes them on
        // shared), spilled ones decode page by page. Chunk-invariance makes
        // results and tallies identical whichever backing delivers them.
        let mut partitions: Vec<Vec<Batch>> = Vec::with_capacity(table.num_partitions());
        let mut tally = ScanTally::default();
        let mut spill_read = SpillReadTally::default();
        for p in 0..table.num_partitions() {
            let (out, partial, pages) = scan_table_partition(
                table,
                p,
                &setup.schema,
                predicates,
                setup.projection_indexes.as_deref(),
            )?;
            tally.add(&partial);
            spill_read.add(&pages);
            partitions.push(out);
        }
        metrics.spill_pages_read += spill_read.pages;
        metrics.spill_bytes_read += spill_read.bytes;
        metrics.spill_logical_bytes_read += spill_read.logical_bytes;

        if table.is_temporary() {
            metrics.rows_intermediate_read += tally.scanned_rows;
            metrics.bytes_intermediate_read += tally.scanned_bytes;
        } else {
            metrics.rows_scanned += tally.scanned_rows;
            metrics.bytes_scanned += tally.scanned_bytes;
        }
        metrics.output_rows += tally.kept;
        span.attr_u64("rows_in", tally.scanned_rows);
        span.attr_u64("rows_out", tally.kept);
        span.attr_u64("predicates", predicates.len() as u64);

        let mut data = PartitionedData::new(setup.out_schema, partitions, setup.partition_key);
        if predicates.is_empty() && projection.is_none() && !table.is_temporary() {
            data = data.with_base_table(table_name);
        }
        Ok(data)
    }

    fn execute_join(
        &self,
        left: &PhysicalPlan,
        right: &PhysicalPlan,
        keys: &[(FieldRef, FieldRef)],
        algorithm: JoinAlgorithm,
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        if keys.is_empty() {
            return Err(RdoError::Execution("join without key pairs".to_string()));
        }
        let grace = GraceContext::from_catalog(self.catalog);
        match algorithm {
            JoinAlgorithm::Hash => {
                let left_data = self.execute(left, metrics)?;
                let right_data = self.execute(right, metrics)?;
                hash_join(left_data, right_data, keys, grace.as_ref(), metrics)
            }
            JoinAlgorithm::Broadcast => {
                let left_data = self.execute(left, metrics)?;
                let right_data = self.execute(right, metrics)?;
                broadcast_join(left_data, right_data, keys, grace.as_ref(), metrics)
            }
            JoinAlgorithm::IndexedNestedLoop => {
                let right_data = self.execute(right, metrics)?;
                self.indexed_nested_loop_join(left, right_data, keys, metrics)
            }
        }
    }

    /// Indexed nested-loop join (Section 3, "Indexed Nested Loop Join"): the
    /// right input is broadcast to every partition of the left input, which must
    /// be a base dataset with a secondary index on the join key; the broadcast
    /// rows probe the local index immediately, so the indexed table is never
    /// scanned.
    fn indexed_nested_loop_join(
        &self,
        left: &PhysicalPlan,
        right: PartitionedData,
        keys: &[(FieldRef, FieldRef)],
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        let PhysicalPlan::Scan {
            dataset,
            table: table_name,
            predicates,
            projection,
        } = left
        else {
            return Err(RdoError::Execution(
                "indexed nested-loop join requires its indexed input to be a base-table scan"
                    .to_string(),
            ));
        };
        let mut span = rdo_trace::span("exec.join");
        span.attr_str("algo", "inl");
        let (first_left_key, _) = &keys[0];
        let table = self.catalog.table(table_name)?;
        let index = self
            .catalog
            .secondary_index(table_name, &first_left_key.field)
            .ok_or_else(|| {
                RdoError::Execution(format!(
                    "no secondary index on {table_name}.{} for indexed nested-loop join",
                    first_left_key.field
                ))
            })?;

        let setup =
            prepare_indexed_join(table, dataset, projection.as_deref(), right.schema(), keys)?;

        let broadcast = right.all_batches();
        let partitions_count = table.num_partitions();
        metrics.rows_broadcast += right.row_count() as u64 * partitions_count as u64;
        metrics.bytes_broadcast += right.approx_bytes() as u64 * partitions_count as u64;

        let mut out_partitions: Vec<Vec<Batch>> = Vec::with_capacity(partitions_count);
        let mut tally = IndexJoinTally::default();
        for p in 0..partitions_count {
            let (out, partial) = indexed_join_partition(
                &broadcast,
                index,
                p,
                table.batches(p),
                &setup.left_schema,
                predicates,
                setup.projection_indexes.as_deref(),
                &setup.left_key_indexes,
                &setup.right_key_indexes,
                setup.first_right_key_index,
            )?;
            tally.add(&partial);
            out_partitions.push(out);
        }
        metrics.index_lookups += tally.index_lookups;
        metrics.index_fetched_rows += tally.index_fetched_rows;
        metrics.output_rows += tally.output_rows;
        span.attr_u64("rows_out", tally.output_rows);

        Ok(PartitionedData::new(
            setup.out_schema,
            out_partitions,
            setup.partition_key,
        ))
    }
}

/// Partitioned (re-shuffling) hash join on a conjunction of key pairs. With a
/// grace context, partitions whose build side exceeds the join budget go
/// through the spillable grace/hybrid path (bit-identical results).
pub fn hash_join(
    left: PartitionedData,
    right: PartitionedData,
    keys: &[(FieldRef, FieldRef)],
    grace: Option<&GraceContext>,
    metrics: &mut ExecutionMetrics,
) -> Result<PartitionedData> {
    let mut span = rdo_trace::span("exec.join");
    span.attr_str("algo", "hash");
    let (left_key_indexes, right_key_indexes) = resolve_keys(&left, &right, keys)?;
    let (first_left_key, first_right_key) = &keys[0];

    // Re-partition each side on its (first) join key unless it already is (the
    // paper's "in the event that one of the inputs is already partitioned on the
    // join key(s) re-partitioning is skipped and communication is saved").
    let left = if left.is_partitioned_on(&first_left_key.field) {
        left
    } else {
        let (data, moved_rows, moved_bytes) =
            left.repartition(left_key_indexes[0], &first_left_key.field);
        metrics.rows_shuffled += moved_rows;
        metrics.bytes_shuffled += moved_bytes;
        data
    };
    let right = if right.is_partitioned_on(&first_right_key.field) {
        right
    } else {
        let (data, moved_rows, moved_bytes) =
            right.repartition(right_key_indexes[0], &first_right_key.field);
        metrics.rows_shuffled += moved_rows;
        metrics.bytes_shuffled += moved_bytes;
        data
    };

    let out_schema = left.schema().join(right.schema());
    let num_partitions = left.num_partitions().max(right.num_partitions());
    let mut out_partitions: Vec<Vec<Batch>> = Vec::with_capacity(num_partitions);
    let mut tally = GraceTally::default();
    for p in 0..num_partitions {
        let build = right.partitions().get(p).map_or(&[][..], Vec::as_slice);
        let probe = left.partitions().get(p).map_or(&[][..], Vec::as_slice);
        let (out, partial) =
            joined_partition(probe, build, &left_key_indexes, &right_key_indexes, grace)?;
        tally.add(&partial);
        out_partitions.push(out);
    }
    span.attr_u64("rows_in", tally.join.build_rows + tally.join.probe_rows);
    span.attr_u64("rows_out", tally.join.output_rows);
    tally.record(metrics);

    let key_name = rdo_common::unqualified(&first_left_key.field).to_string();
    Ok(PartitionedData::new(
        out_schema,
        out_partitions,
        Some(key_name),
    ))
}

/// Broadcast join: the right input is replicated to every partition of the left
/// input and used as the build side. The join budget applies here too — an
/// over-budget replicated build side goes through the grace path per
/// partition.
pub fn broadcast_join(
    left: PartitionedData,
    right: PartitionedData,
    keys: &[(FieldRef, FieldRef)],
    grace: Option<&GraceContext>,
    metrics: &mut ExecutionMetrics,
) -> Result<PartitionedData> {
    let mut span = rdo_trace::span("exec.join");
    span.attr_str("algo", "broadcast");
    let (left_key_indexes, right_key_indexes) = resolve_keys(&left, &right, keys)?;

    let partitions_count = left.num_partitions();
    metrics.rows_broadcast += right.row_count() as u64 * partitions_count as u64;
    metrics.bytes_broadcast += right.approx_bytes() as u64 * partitions_count as u64;

    // The replicated build side is indexed once and probed by every
    // partition; each partition is still charged its own copy of the build
    // rows, as on the real cluster.
    let build = PreparedBuild::prepare(&right.all_batches(), &right_key_indexes, grace);
    let out_schema = left.schema().join(right.schema());
    let mut out_partitions: Vec<Vec<Batch>> = Vec::with_capacity(partitions_count);
    let mut tally = GraceTally::default();
    for probe in left.partitions() {
        let (out, partial) = build.join_partition(probe, &left_key_indexes, &right_key_indexes)?;
        tally.add(&partial);
        out_partitions.push(out);
    }
    span.attr_u64("rows_in", tally.join.build_rows + tally.join.probe_rows);
    span.attr_u64("rows_out", tally.join.output_rows);
    tally.record(metrics);

    // The probe side never moved, so its partitioning is preserved.
    let partition_key = left.partition_key().map(|s| s.to_string());
    Ok(PartitionedData::new(
        out_schema,
        out_partitions,
        partition_key,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use rdo_common::{DataType, Schema, Tuple, Value};
    use rdo_storage::IngestOptions;

    /// Builds a small catalog with `orders(o_orderkey, o_custkey)` and
    /// `customer(c_custkey, c_name)`, plus a secondary index on
    /// `orders.o_custkey`.
    fn catalog() -> Catalog {
        let mut cat = Catalog::new(4);
        let orders_schema = Schema::for_dataset(
            "orders",
            &[
                ("o_orderkey", DataType::Int64),
                ("o_custkey", DataType::Int64),
            ],
        );
        let orders_rows = (0..200)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 20)]))
            .collect();
        cat.ingest(
            "orders",
            Relation::new(orders_schema, orders_rows).unwrap(),
            IngestOptions::partitioned_on("o_orderkey").with_index("o_custkey"),
        )
        .unwrap();

        let cust_schema = Schema::for_dataset(
            "customer",
            &[("c_custkey", DataType::Int64), ("c_name", DataType::Utf8)],
        );
        let cust_rows = (0..20)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Utf8(format!("cust{i}"))]))
            .collect();
        cat.ingest(
            "customer",
            Relation::new(cust_schema, cust_rows).unwrap(),
            IngestOptions::partitioned_on("c_custkey"),
        )
        .unwrap();
        cat
    }

    fn join_plan(algorithm: JoinAlgorithm) -> PhysicalPlan {
        PhysicalPlan::join(
            PhysicalPlan::scan("orders"),
            PhysicalPlan::scan("customer"),
            FieldRef::new("orders", "o_custkey"),
            FieldRef::new("customer", "c_custkey"),
            algorithm,
        )
    }

    #[test]
    fn scan_with_filter_and_projection() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let mut m = ExecutionMetrics::new();
        let plan = PhysicalPlan::scan("orders")
            .with_predicates(vec![Predicate::compare(
                FieldRef::new("orders", "o_custkey"),
                CmpOp::Eq,
                3i64,
            )])
            .with_projection(vec![FieldRef::new("orders", "o_orderkey")]);
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert_eq!(rel.len(), 10, "200 orders / 20 customers = 10 per customer");
        assert_eq!(rel.schema().len(), 1);
        assert_eq!(m.rows_scanned, 200);
        assert_eq!(m.output_rows, 10);
        assert_eq!(m.result_rows, 10);
    }

    #[test]
    fn all_join_algorithms_agree() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let mut results = Vec::new();
        for algorithm in [
            JoinAlgorithm::Hash,
            JoinAlgorithm::Broadcast,
            JoinAlgorithm::IndexedNestedLoop,
        ] {
            let mut m = ExecutionMetrics::new();
            let plan = join_plan(algorithm);
            let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
            assert_eq!(rel.len(), 200, "every order matches exactly one customer");
            let mut rows = rel.into_rows();
            rows.sort();
            results.push(rows);
        }
        // Hash and broadcast produce (orders, customer) column order; INL as well.
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn hash_join_charges_shuffle_only_when_needed() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        // orders is partitioned on o_orderkey; joining on o_custkey must shuffle
        // the orders side. customer is partitioned on c_custkey already.
        let mut m = ExecutionMetrics::new();
        exec.execute(&join_plan(JoinAlgorithm::Hash), &mut m)
            .unwrap();
        assert!(m.rows_shuffled > 0);
        assert!(
            m.rows_shuffled <= 200,
            "only the orders side should shuffle"
        );

        // Joining orders to customer on the orders primary key needs no shuffle
        // for the orders side.
        let plan = PhysicalPlan::join(
            PhysicalPlan::scan("orders"),
            PhysicalPlan::scan("customer"),
            FieldRef::new("orders", "o_orderkey"),
            FieldRef::new("customer", "c_custkey"),
            JoinAlgorithm::Hash,
        );
        let mut m2 = ExecutionMetrics::new();
        exec.execute(&plan, &mut m2).unwrap();
        assert!(
            m2.rows_shuffled <= 20,
            "only the small customer side may move"
        );
    }

    #[test]
    fn broadcast_join_charges_replication() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let mut m = ExecutionMetrics::new();
        exec.execute(&join_plan(JoinAlgorithm::Broadcast), &mut m)
            .unwrap();
        assert_eq!(
            m.rows_broadcast,
            20 * 4,
            "20 customers replicated to 4 partitions"
        );
        assert_eq!(m.rows_shuffled, 0);
    }

    #[test]
    fn inl_join_uses_index_not_scan() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let mut m = ExecutionMetrics::new();
        let rel = exec
            .execute_to_relation(&join_plan(JoinAlgorithm::IndexedNestedLoop), &mut m)
            .unwrap();
        assert_eq!(rel.len(), 200);
        // The orders table itself is never scanned.
        assert_eq!(
            m.rows_scanned, 20,
            "only the customer build side is scanned"
        );
        assert_eq!(m.index_lookups, 20 * 4);
        assert_eq!(m.index_fetched_rows, 200);
    }

    #[test]
    fn inl_join_requires_index() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        // customer has no secondary index on c_custkey... actually it's the
        // partition key; swap sides so the indexed side is customer.c_name which
        // has no index.
        let plan = PhysicalPlan::join(
            PhysicalPlan::scan("customer"),
            PhysicalPlan::scan("orders"),
            FieldRef::new("customer", "c_name"),
            FieldRef::new("orders", "o_custkey"),
            JoinAlgorithm::IndexedNestedLoop,
        );
        let mut m = ExecutionMetrics::new();
        assert!(exec.execute(&plan, &mut m).is_err());
    }

    #[test]
    fn inl_join_requires_scan_input() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let inner = join_plan(JoinAlgorithm::Hash);
        let plan = PhysicalPlan::join(
            inner,
            PhysicalPlan::scan("customer"),
            FieldRef::new("orders", "o_custkey"),
            FieldRef::new("customer", "c_custkey"),
            JoinAlgorithm::IndexedNestedLoop,
        );
        let mut m = ExecutionMetrics::new();
        assert!(exec.execute(&plan, &mut m).is_err());
    }

    #[test]
    fn join_with_local_predicate_on_build_side() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let filtered_customer =
            PhysicalPlan::scan("customer").with_predicates(vec![Predicate::compare(
                FieldRef::new("customer", "c_custkey"),
                CmpOp::Lt,
                5i64,
            )]);
        let plan = PhysicalPlan::join(
            PhysicalPlan::scan("orders"),
            filtered_customer,
            FieldRef::new("orders", "o_custkey"),
            FieldRef::new("customer", "c_custkey"),
            JoinAlgorithm::Broadcast,
        );
        let mut m = ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert_eq!(rel.len(), 50, "5 customers × 10 orders each");
    }

    #[test]
    fn aliased_scan_joins() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let plan = PhysicalPlan::join(
            PhysicalPlan::scan("orders"),
            PhysicalPlan::scan_aliased("c2", "customer"),
            FieldRef::new("orders", "o_custkey"),
            FieldRef::new("c2", "c_custkey"),
            JoinAlgorithm::Hash,
        );
        let mut m = ExecutionMetrics::new();
        let rel = exec.execute_to_relation(&plan, &mut m).unwrap();
        assert_eq!(rel.len(), 200);
        assert!(rel.schema().fields().iter().any(|f| f.name.dataset == "c2"));
    }

    #[test]
    fn join_budget_runs_grace_join_with_identical_results() {
        let reference = {
            let cat = catalog();
            let exec = Executor::new(&cat);
            let mut m = ExecutionMetrics::new();
            let rel = exec
                .execute_to_relation(&join_plan(JoinAlgorithm::Hash), &mut m)
                .unwrap();
            (rel, m)
        };
        let mut cat = catalog();
        // A 1-byte join budget forces every partition's build side out of core.
        cat.configure_spill(
            rdo_storage::SpillConfig::default()
                .with_join_budget(1)
                .with_page_size(512),
        )
        .unwrap();
        let exec = Executor::new(&cat);
        for algorithm in [JoinAlgorithm::Hash, JoinAlgorithm::Broadcast] {
            let mut m = ExecutionMetrics::new();
            let rel = exec
                .execute_to_relation(&join_plan(algorithm), &mut m)
                .unwrap();
            assert!(
                m.grace_bytes_written > 0
                    && m.grace_pages_read > 0
                    && m.grace_partitions_spilled > 0,
                "{algorithm:?} must go out-of-core: {m:?}"
            );
            if algorithm == JoinAlgorithm::Hash {
                assert_eq!(rel, reference.0, "bit-identical to the in-memory join");
                assert_eq!(m.build_rows, reference.1.build_rows);
                assert_eq!(m.probe_rows, reference.1.probe_rows);
                assert_eq!(m.output_rows, reference.1.output_rows);
                assert_eq!(m.rows_shuffled, reference.1.rows_shuffled);
            }
        }
        // Every grace partition file was dropped with its join.
        let dir = cat.spill_dir().expect("join budget configured");
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    }

    #[test]
    fn unknown_dataset_errors() {
        let cat = catalog();
        let exec = Executor::new(&cat);
        let mut m = ExecutionMetrics::new();
        assert!(exec
            .execute(&PhysicalPlan::scan("missing"), &mut m)
            .is_err());
    }
}

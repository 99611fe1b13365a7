//! The plan executor.
//!
//! Executes a [`PhysicalPlan`] by mapping the per-partition operators of
//! [`crate::partition`] across a [`WorkerPool`] and moving batches between
//! partitions through the explicit exchange operators of [`crate::exchange`].
//! Results and metrics are identical for every worker count; see the crate
//! docs for why.

use crate::config::ParallelConfig;
use crate::cost::ExecutionMetrics;
use crate::data::PartitionedData;
use crate::exchange::{Broadcast, HashRepartition, InProcessTransport, Transport};
use crate::expr::Predicate;
use crate::grace::{joined_partition, GraceContext, GraceTally, PreparedBuild};
use crate::partition::{indexed_join_partition, scan_table_partition, IndexJoinTally, ScanTally};
use crate::plan::{JoinAlgorithm, PhysicalPlan};
use crate::pool::WorkerPool;
use crate::setup::{prepare_indexed_join, prepare_scan, resolve_keys};
use rdo_common::{Batch, FieldRef, RdoError, Relation, Result};
use rdo_storage::{Catalog, SpillReadTally};
use std::sync::Arc;

/// Executes physical plans against a catalog with one task per partition.
pub struct ParallelExecutor<'a> {
    catalog: &'a Catalog,
    pool: WorkerPool,
    transport: Arc<dyn Transport>,
}

impl<'a> ParallelExecutor<'a> {
    /// Creates an executor over the given catalog with its own worker pool.
    /// Callers executing many stages (the dynamic driver) should create one
    /// [`WorkerPool`] up front and use [`ParallelExecutor::with_pool`] so the
    /// persistent threads are spawned once, not per stage.
    pub fn new(catalog: &'a Catalog, config: ParallelConfig) -> Self {
        Self::with_pool(catalog, WorkerPool::new(config.workers))
    }

    /// Creates an executor sharing an existing worker pool (an `Arc` clone).
    pub fn with_pool(catalog: &'a Catalog, pool: WorkerPool) -> Self {
        Self {
            catalog,
            pool,
            transport: Arc::new(InProcessTransport),
        }
    }

    /// Routes the exchange operators through `transport` (builder style).
    /// The default is the in-process transport; note that
    /// [`ParallelConfig::transport`] is only a *selection* — resolving it
    /// into a concrete object is the caller's job (the `rdo-core` driver
    /// resolves it through `rdo-net`).
    pub fn with_transport(mut self, transport: Arc<dyn Transport>) -> Self {
        self.transport = transport;
        self
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
        self.gather(&data, metrics)
    }

    /// Gathers executed data on the coordinator through the transport — the
    /// row edge of a query's result.
    pub fn gather(
        &self,
        data: &PartitionedData,
        metrics: &mut ExecutionMetrics,
    ) -> Result<Relation> {
        let relation = self.transport.gather(data)?;
        metrics.result_rows += relation.len() as u64;
        Ok(relation)
    }

    /// Maps a fallible per-partition task over `partitions` partitions, one
    /// pool task (and one `pool.morsel` span) per partition, and returns the
    /// outputs in partition order. The error of the lowest failing partition
    /// wins, whichever worker hit it first.
    fn map_partitions<T: Send>(
        &self,
        partitions: usize,
        task: impl Fn(usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        self.pool
            .map_indexed(partitions, |p| {
                let mut span = rdo_trace::span("pool.morsel");
                span.attr_u64("morsel", p as u64);
                span.attr_u64("partitions", 1);
                task(p)
            })
            .into_iter()
            .collect()
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
        let table = self.catalog.table_handle(table_name)?;
        let setup = prepare_scan(&table, dataset, projection)?;

        // Each partition goes through the scan operator — resident tables
        // lend their stored chunks (an unfiltered scan passes them on
        // shared), spilled ones decode each page through the buffer pool.
        // Per-partition tallies fold in partition order, so metrics are
        // identical for every worker count and every backing.
        let results = self.map_partitions(table.num_partitions(), |p| {
            scan_table_partition(
                &table,
                p,
                &setup.schema,
                predicates,
                setup.projection_indexes.as_deref(),
            )
        })?;
        let mut partitions: Vec<Vec<Batch>> = Vec::with_capacity(results.len());
        let mut tally = ScanTally::default();
        let mut spill_read = SpillReadTally::default();
        for (rows, partial, page_tally) in results {
            tally.add(&partial);
            spill_read.add(&page_tally);
            partitions.push(rows);
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
        rdo_trace::counter("progress.rows_produced", tally.kept);

        Ok(PartitionedData::new(
            setup.out_schema,
            partitions,
            setup.partition_key,
        ))
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
        match algorithm {
            JoinAlgorithm::Hash => {
                let left_data = self.execute(left, metrics)?;
                let right_data = self.execute(right, metrics)?;
                self.hash_join(left_data, right_data, keys, metrics)
            }
            JoinAlgorithm::Broadcast => {
                let left_data = self.execute(left, metrics)?;
                let right_data = self.execute(right, metrics)?;
                self.broadcast_join(left_data, right_data, keys, metrics)
            }
            JoinAlgorithm::IndexedNestedLoop => {
                let right_data = self.execute(right, metrics)?;
                self.indexed_nested_loop_join(left, right_data, keys, metrics)
            }
        }
    }

    /// Partitioned hash join: a [`HashRepartition`] exchange in front of every
    /// input not already partitioned on its (first) join key column, then one
    /// build/probe kernel per partition. The output is partitioned on the
    /// left key column, which keeps its index in the joined schema.
    fn hash_join(
        &self,
        left: PartitionedData,
        right: PartitionedData,
        keys: &[(FieldRef, FieldRef)],
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        let (left_key_indexes, right_key_indexes) =
            resolve_keys(left.schema(), right.schema(), keys)?;
        let mut span = rdo_trace::span("exec.join");
        span.attr_str("algo", "hash");
        span.attr_u64("rows_in", (left.row_count() + right.row_count()) as u64);

        let left = self.placed_on(left, left_key_indexes[0], metrics)?;
        let right = self.placed_on(right, right_key_indexes[0], metrics)?;

        let out_schema = left.schema().join(right.schema());
        let num_partitions = left.num_partitions().max(right.num_partitions());
        let grace = GraceContext::from_catalog(self.catalog);
        let results = self.map_partitions(num_partitions, |p| {
            joined_partition(
                left.partitions().get(p).map_or(&[][..], Vec::as_slice),
                right.partitions().get(p).map_or(&[][..], Vec::as_slice),
                &left_key_indexes,
                &right_key_indexes,
                grace.as_ref(),
            )
        })?;
        let mut out_partitions: Vec<Vec<Batch>> = Vec::with_capacity(num_partitions);
        let mut tally = GraceTally::default();
        for (batches, partial) in results {
            tally.add(&partial);
            out_partitions.push(batches);
        }
        tally.record(metrics);
        span.attr_u64("rows_out", tally.join.output_rows);
        rdo_trace::counter("progress.rows_produced", tally.join.output_rows);

        Ok(PartitionedData::new(
            out_schema,
            out_partitions,
            Some(left_key_indexes[0]),
        ))
    }

    /// `data` hash-partitioned on column `key_index`: as it is when it
    /// already is, through a [`HashRepartition`] exchange (charged to the
    /// shuffle metrics) otherwise.
    fn placed_on(
        &self,
        data: PartitionedData,
        key_index: usize,
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        if data.is_partitioned_on(key_index) {
            return Ok(data);
        }
        let (data, moved_rows, moved_bytes) =
            self.transport
                .repartition(&HashRepartition::new(key_index), &data, &self.pool)?;
        metrics.rows_shuffled += moved_rows;
        metrics.bytes_shuffled += moved_bytes;
        Ok(data)
    }

    /// Broadcast join: a [`Broadcast`] exchange replicates the build side,
    /// the replica is indexed once, and every probe partition probes the
    /// shared index (each partition of the real cluster would build the same
    /// table over its received copy, which is what the metrics charge).
    fn broadcast_join(
        &self,
        left: PartitionedData,
        right: PartitionedData,
        keys: &[(FieldRef, FieldRef)],
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        let (left_key_indexes, right_key_indexes) =
            resolve_keys(left.schema(), right.schema(), keys)?;
        let mut span = rdo_trace::span("exec.join");
        span.attr_str("algo", "broadcast");
        span.attr_u64("rows_in", (left.row_count() + right.row_count()) as u64);

        let partitions_count = left.num_partitions();
        let (replica, replicated_rows, replicated_bytes) = self
            .transport
            .broadcast(&Broadcast::new(partitions_count), &right)?;
        metrics.rows_broadcast += replicated_rows;
        metrics.bytes_broadcast += replicated_bytes;

        let out_schema = left.schema().join(right.schema());
        let grace = GraceContext::from_catalog(self.catalog);
        let build = PreparedBuild::prepare(&replica, &right_key_indexes, grace.as_ref());
        let results = self.map_partitions(partitions_count, |p| {
            build.join_partition(&left.partitions()[p], &left_key_indexes, &right_key_indexes)
        })?;
        let mut out_partitions: Vec<Vec<Batch>> = Vec::with_capacity(partitions_count);
        let mut tally = GraceTally::default();
        for (batches, partial) in results {
            tally.add(&partial);
            out_partitions.push(batches);
        }
        tally.record(metrics);
        span.attr_u64("rows_out", tally.join.output_rows);
        rdo_trace::counter("progress.rows_produced", tally.join.output_rows);

        // The probe side's columns lead the output, so its placement holds.
        Ok(PartitionedData::new(
            out_schema,
            out_partitions,
            left.partition_key(),
        ))
    }

    /// Indexed nested-loop join: the build input is broadcast and every
    /// partition probes its local secondary index (the indexed table is never
    /// scanned).
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
        let (first_left_key, _) = &keys[0];
        let mut span = rdo_trace::span("exec.join");
        span.attr_str("algo", "inl");
        let table = self.catalog.table_handle(table_name)?;
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
            prepare_indexed_join(&table, dataset, projection.as_deref(), right.schema(), keys)?;

        let partitions_count = table.num_partitions();
        let (replica, replicated_rows, replicated_bytes) = self
            .transport
            .broadcast(&Broadcast::new(partitions_count), &right)?;
        metrics.rows_broadcast += replicated_rows;
        metrics.bytes_broadcast += replicated_bytes;

        let results = self.map_partitions(partitions_count, |p| {
            indexed_join_partition(
                &replica,
                index,
                p,
                table.batches(p),
                &setup.left_schema,
                predicates,
                setup.projection_indexes.as_deref(),
                &setup.left_key_indexes,
                &setup.right_key_indexes,
                setup.first_right_key_index,
            )
        })?;
        let mut out_partitions: Vec<Vec<Batch>> = Vec::with_capacity(partitions_count);
        let mut tally = IndexJoinTally::default();
        for (batches, partial) in results {
            tally.add(&partial);
            out_partitions.push(batches);
        }
        metrics.index_lookups += tally.index_lookups;
        metrics.index_fetched_rows += tally.index_fetched_rows;
        metrics.output_rows += tally.output_rows;
        span.attr_u64("rows_out", tally.output_rows);
        rdo_trace::counter("progress.rows_produced", tally.output_rows);

        Ok(PartitionedData::new(
            setup.out_schema,
            out_partitions,
            setup.partition_key,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;
    use rdo_common::{DataType, Relation, Schema, Tuple, Value};
    use rdo_storage::IngestOptions;

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

    fn plans() -> Vec<PhysicalPlan> {
        vec![
            PhysicalPlan::scan("orders").with_predicates(vec![Predicate::compare(
                FieldRef::new("orders", "o_custkey"),
                CmpOp::Lt,
                7i64,
            )]),
            join_plan(JoinAlgorithm::Hash),
            join_plan(JoinAlgorithm::Broadcast),
            join_plan(JoinAlgorithm::IndexedNestedLoop),
        ]
    }

    fn executor(cat: &Catalog, workers: usize) -> ParallelExecutor<'_> {
        ParallelExecutor::new(cat, ParallelConfig::serial().with_workers(workers))
    }

    #[test]
    fn scan_with_filter_and_projection() {
        let cat = catalog();
        let exec = executor(&cat, 1);
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
        let exec = executor(&cat, 1);
        let mut results = Vec::new();
        for algorithm in [
            JoinAlgorithm::Hash,
            JoinAlgorithm::Broadcast,
            JoinAlgorithm::IndexedNestedLoop,
        ] {
            let mut m = ExecutionMetrics::new();
            let rel = exec
                .execute_to_relation(&join_plan(algorithm), &mut m)
                .unwrap();
            assert_eq!(rel.len(), 200, "every order matches exactly one customer");
            let mut rows = rel.into_rows();
            rows.sort();
            results.push(rows);
        }
        // All three produce (orders, customer) column order.
        assert_eq!(results[0], results[1]);
        assert_eq!(results[1], results[2]);
    }

    #[test]
    fn hash_join_charges_shuffle_only_when_needed() {
        let cat = catalog();
        let exec = executor(&cat, 1);
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
        let mut m = ExecutionMetrics::new();
        executor(&cat, 1)
            .execute(&join_plan(JoinAlgorithm::Broadcast), &mut m)
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
        let mut m = ExecutionMetrics::new();
        let rel = executor(&cat, 1)
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
        // The indexed side is customer.c_name, which has no index.
        let plan = PhysicalPlan::join(
            PhysicalPlan::scan("customer"),
            PhysicalPlan::scan("orders"),
            FieldRef::new("customer", "c_name"),
            FieldRef::new("orders", "o_custkey"),
            JoinAlgorithm::IndexedNestedLoop,
        );
        let mut m = ExecutionMetrics::new();
        assert!(executor(&cat, 1).execute(&plan, &mut m).is_err());
    }

    #[test]
    fn inl_join_requires_scan_input() {
        let cat = catalog();
        let plan = PhysicalPlan::join(
            join_plan(JoinAlgorithm::Hash),
            PhysicalPlan::scan("customer"),
            FieldRef::new("orders", "o_custkey"),
            FieldRef::new("customer", "c_custkey"),
            JoinAlgorithm::IndexedNestedLoop,
        );
        let mut m = ExecutionMetrics::new();
        assert!(executor(&cat, 1).execute(&plan, &mut m).is_err());
    }

    #[test]
    fn join_with_local_predicate_on_build_side() {
        let cat = catalog();
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
        let rel = executor(&cat, 1)
            .execute_to_relation(&plan, &mut m)
            .unwrap();
        assert_eq!(rel.len(), 50, "5 customers × 10 orders each");
    }

    #[test]
    fn aliased_scan_joins() {
        let cat = catalog();
        let plan = PhysicalPlan::join(
            PhysicalPlan::scan("orders"),
            PhysicalPlan::scan_aliased("c2", "customer"),
            FieldRef::new("orders", "o_custkey"),
            FieldRef::new("c2", "c_custkey"),
            JoinAlgorithm::Hash,
        );
        let mut m = ExecutionMetrics::new();
        let rel = executor(&cat, 1)
            .execute_to_relation(&plan, &mut m)
            .unwrap();
        assert_eq!(rel.len(), 200);
        assert!(rel.schema().fields().iter().any(|f| f.name.dataset == "c2"));
    }

    #[test]
    fn join_budget_runs_grace_join_with_identical_results() {
        let reference = {
            let cat = catalog();
            let mut m = ExecutionMetrics::new();
            let rel = executor(&cat, 1)
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
        let exec = executor(&cat, 1);
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
        let mut m = ExecutionMetrics::new();
        assert!(executor(&cat, 1)
            .execute(&PhysicalPlan::scan("missing"), &mut m)
            .is_err());
    }

    /// The core guarantee: identical partitions, partition keys and metrics
    /// at every worker count. The serial configuration (one worker: every
    /// task in a plain loop on the calling thread) is the reference.
    #[test]
    fn matches_serial_executor_exactly() {
        let cat = catalog();
        for plan in plans() {
            let mut expected_metrics = ExecutionMetrics::new();
            let expected = executor(&cat, 1)
                .execute(&plan, &mut expected_metrics)
                .unwrap();
            for workers in [2, 4, 8] {
                let mut metrics = ExecutionMetrics::new();
                let data = executor(&cat, workers)
                    .execute(&plan, &mut metrics)
                    .unwrap();
                assert_eq!(data.partitions(), expected.partitions());
                assert_eq!(data.partition_key(), expected.partition_key());
                assert_eq!(metrics, expected_metrics, "workers={workers}");
            }
        }
    }

    #[test]
    fn gathered_relation_and_result_rows_match_serial() {
        let cat = catalog();
        for plan in plans() {
            let mut expected_metrics = ExecutionMetrics::new();
            let expected = executor(&cat, 1)
                .execute_to_relation(&plan, &mut expected_metrics)
                .unwrap();
            for workers in [2, 4, 8] {
                let mut metrics = ExecutionMetrics::new();
                let actual = executor(&cat, workers)
                    .execute_to_relation(&plan, &mut metrics)
                    .unwrap();
                assert_eq!(actual, expected, "workers={workers}");
                assert_eq!(metrics, expected_metrics, "workers={workers}");
            }
        }
    }

    /// The grace path is worker-count invariant too: with a tiny join budget
    /// every partition's build side spills, and results, partitions and every
    /// metric counter (including the grace counters) still match the
    /// one-worker run exactly.
    #[test]
    fn grace_join_matches_serial_executor_exactly() {
        let mut cat = catalog();
        cat.configure_spill(
            rdo_storage::SpillConfig::default()
                .with_join_budget(1)
                .with_page_size(512),
        )
        .unwrap();
        for plan in plans() {
            let mut expected_metrics = ExecutionMetrics::new();
            let expected = executor(&cat, 1)
                .execute(&plan, &mut expected_metrics)
                .unwrap();
            for workers in [2, 4, 8] {
                let mut metrics = ExecutionMetrics::new();
                let data = executor(&cat, workers)
                    .execute(&plan, &mut metrics)
                    .unwrap();
                assert_eq!(data.partitions(), expected.partitions());
                assert_eq!(metrics, expected_metrics, "workers={workers}");
            }
        }
        let dir = cat.spill_dir().expect("join budget configured");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "grace partition files are gone after the joins"
        );
    }

    /// `a(id, x)` and `b(id, y)` are both partitioned on a column named `id`.
    /// The broadcast join's output keeps `a`'s placement (on `a.id`), so the
    /// hash join on `b.id` above it must still re-partition its left input.
    #[test]
    fn hash_join_above_a_broadcast_repartitions_on_the_other_datasets_key() {
        let mut cat = Catalog::new(4);
        for (name, cols, rows) in [
            (
                "a",
                ["id", "x"],
                (0..40).map(|i| [i, i % 5]).collect::<Vec<_>>(),
            ),
            ("b", ["id", "y"], (0..5).map(|j| [10 + j, j]).collect()),
            ("c", ["k", "z"], (0..40).map(|i| [i, i]).collect()),
        ] {
            let schema = Schema::for_dataset(
                name,
                &[(cols[0], DataType::Int64), (cols[1], DataType::Int64)],
            );
            let rows = rows
                .into_iter()
                .map(|r| Tuple::new(r.into_iter().map(Value::Int64).collect()))
                .collect();
            let options = IngestOptions::partitioned_on(cols[0]);
            cat.ingest(name, Relation::new(schema, rows).unwrap(), options)
                .unwrap();
        }
        let plan = |first: JoinAlgorithm| {
            PhysicalPlan::join(
                PhysicalPlan::join(
                    PhysicalPlan::scan("a"),
                    PhysicalPlan::scan("b"),
                    FieldRef::new("a", "x"),
                    FieldRef::new("b", "y"),
                    first,
                ),
                PhysicalPlan::scan("c"),
                FieldRef::new("b", "id"),
                FieldRef::new("c", "k"),
                JoinAlgorithm::Hash,
            )
        };
        // b.id = 10 + a.x lands in 10..15, so every `a` row meets one `c` row.
        for workers in [1, 4] {
            let mut m = ExecutionMetrics::new();
            let mut rows = executor(&cat, workers)
                .execute_to_relation(&plan(JoinAlgorithm::Broadcast), &mut m)
                .unwrap()
                .into_rows();
            assert_eq!(rows.len(), 40, "workers={workers}");
            let mut m = ExecutionMetrics::new();
            let mut reference = executor(&cat, workers)
                .execute_to_relation(&plan(JoinAlgorithm::Hash), &mut m)
                .unwrap()
                .into_rows();
            rows.sort();
            reference.sort();
            assert_eq!(rows, reference, "workers={workers}");
        }
    }

    #[test]
    fn errors_propagate_from_workers() {
        let cat = catalog();
        let parallel = executor(&cat, 4);
        let mut metrics = ExecutionMetrics::new();
        assert!(parallel
            .execute(&PhysicalPlan::scan("missing"), &mut metrics)
            .is_err());
        let bad_join = PhysicalPlan::join(
            PhysicalPlan::scan("orders"),
            PhysicalPlan::scan("customer"),
            FieldRef::new("orders", "not_a_column"),
            FieldRef::new("customer", "c_custkey"),
            JoinAlgorithm::Hash,
        );
        assert!(parallel.execute(&bad_join, &mut metrics).is_err());
    }
}

//! The partition-parallel plan executor.
//!
//! Executes the same [`PhysicalPlan`]s as the serial [`rdo_exec::Executor`],
//! but maps the per-partition operators of [`rdo_exec::partition`] across a
//! [`WorkerPool`] and moves batches between partitions through the explicit
//! exchange operators of [`crate::exchange`]. Results and metrics are
//! identical to the serial executor for every worker count; see the crate
//! docs for why.

use crate::config::ParallelConfig;
use crate::exchange::{Broadcast, HashRepartition};
use crate::pool::WorkerPool;
use crate::transport::{default_transport, Transport};
use rdo_common::{Batch, FieldRef, RdoError, Relation, Result};
use rdo_exec::grace::{joined_partition, GraceContext, GraceTally, PreparedBuild};
use rdo_exec::partition::{
    indexed_join_partition, scan_table_partition, IndexJoinTally, ScanTally,
};
use rdo_exec::setup::{prepare_indexed_join, prepare_scan, resolve_keys};
use rdo_exec::{ExecutionMetrics, JoinAlgorithm, PartitionedData, PhysicalPlan, Predicate};
use rdo_storage::{Catalog, SpillReadTally};
use std::sync::Arc;

/// Executes physical plans against a catalog with one task per partition.
pub struct ParallelExecutor<'a> {
    catalog: &'a Catalog,
    config: ParallelConfig,
    pool: WorkerPool,
    transport: Arc<dyn Transport>,
}

impl<'a> ParallelExecutor<'a> {
    /// Creates an executor over the given catalog with its own worker pool.
    /// Callers executing many stages (the dynamic driver) should create one
    /// [`WorkerPool`] up front and use [`ParallelExecutor::with_pool`] so the
    /// persistent threads are spawned once, not per stage.
    pub fn new(catalog: &'a Catalog, config: ParallelConfig) -> Self {
        Self::with_pool(catalog, config, WorkerPool::new(config.workers))
    }

    /// Creates an executor sharing an existing worker pool (an `Arc` clone).
    pub fn with_pool(catalog: &'a Catalog, config: ParallelConfig, pool: WorkerPool) -> Self {
        Self {
            catalog,
            config,
            pool,
            transport: default_transport(),
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

    /// The executor's configuration.
    pub fn config(&self) -> ParallelConfig {
        self.config
    }

    /// The executor's worker pool.
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// The transport routing the executor's exchanges.
    pub fn transport(&self) -> &Arc<dyn Transport> {
        &self.transport
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
        let relation = self.transport.gather(&data)?;
        metrics.result_rows += relation.len() as u64;
        Ok(relation)
    }

    /// Maps a fallible per-partition task over `partitions` partitions,
    /// claiming `morsel_size` partitions per task, and returns the
    /// per-partition outputs in partition order. The error of the lowest
    /// failing partition wins, matching the serial executor's first-error
    /// behaviour.
    fn map_partitions<T: Send>(
        &self,
        partitions: usize,
        task: impl Fn(usize) -> Result<T> + Sync,
    ) -> Result<Vec<T>> {
        let morsel = self.config.morsel_size.max(1);
        let morsels = partitions.div_ceil(morsel);
        let chunks = self.pool.map_indexed(morsels, |m| {
            let start = m * morsel;
            let end = ((m + 1) * morsel).min(partitions);
            // One span per morsel, not per partition: the morsel count depends
            // only on (partitions, morsel_size), so the trace shape is the
            // same for every worker count.
            let mut span = rdo_trace::span("pool.morsel");
            span.attr_u64("morsel", m as u64);
            span.attr_u64("partitions", (end - start) as u64);
            (start..end).map(&task).collect::<Vec<Result<T>>>()
        });
        let mut out = Vec::with_capacity(partitions);
        for result in chunks.into_iter().flatten() {
            out.push(result?);
        }
        Ok(out)
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
    /// input not already partitioned on its join key, then one build/probe
    /// kernel per partition.
    fn hash_join(
        &self,
        left: PartitionedData,
        right: PartitionedData,
        keys: &[(FieldRef, FieldRef)],
        metrics: &mut ExecutionMetrics,
    ) -> Result<PartitionedData> {
        let (left_key_indexes, right_key_indexes) = resolve_keys(&left, &right, keys)?;
        let (first_left_key, first_right_key) = &keys[0];
        let mut span = rdo_trace::span("exec.join");
        span.attr_str("algo", "hash");
        span.attr_u64("rows_in", (left.row_count() + right.row_count()) as u64);

        let left = if left.is_partitioned_on(&first_left_key.field) {
            left
        } else {
            let exchange = HashRepartition::new(left_key_indexes[0], &first_left_key.field);
            let (data, moved_rows, moved_bytes) =
                self.transport.repartition(&exchange, &left, &self.pool)?;
            metrics.rows_shuffled += moved_rows;
            metrics.bytes_shuffled += moved_bytes;
            data
        };
        let right = if right.is_partitioned_on(&first_right_key.field) {
            right
        } else {
            let exchange = HashRepartition::new(right_key_indexes[0], &first_right_key.field);
            let (data, moved_rows, moved_bytes) =
                self.transport.repartition(&exchange, &right, &self.pool)?;
            metrics.rows_shuffled += moved_rows;
            metrics.bytes_shuffled += moved_bytes;
            data
        };

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

        let key_name = rdo_common::unqualified(&first_left_key.field).to_string();
        Ok(PartitionedData::new(
            out_schema,
            out_partitions,
            Some(key_name),
        ))
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
        let (left_key_indexes, right_key_indexes) = resolve_keys(&left, &right, keys)?;
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

        let partition_key = left.partition_key().map(|s| s.to_string());
        Ok(PartitionedData::new(
            out_schema,
            out_partitions,
            partition_key,
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
    use rdo_common::{DataType, Relation, Schema, Tuple, Value};
    use rdo_exec::{CmpOp, Executor};
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

    fn plans() -> Vec<PhysicalPlan> {
        let join = |algorithm| {
            PhysicalPlan::join(
                PhysicalPlan::scan("orders"),
                PhysicalPlan::scan("customer"),
                FieldRef::new("orders", "o_custkey"),
                FieldRef::new("customer", "c_custkey"),
                algorithm,
            )
        };
        vec![
            PhysicalPlan::scan("orders").with_predicates(vec![Predicate::compare(
                FieldRef::new("orders", "o_custkey"),
                CmpOp::Lt,
                7i64,
            )]),
            join(JoinAlgorithm::Hash),
            join(JoinAlgorithm::Broadcast),
            join(JoinAlgorithm::IndexedNestedLoop),
        ]
    }

    /// The core guarantee: identical partitions, partition keys and metrics to
    /// the serial executor, for every worker count and morsel size.
    #[test]
    fn matches_serial_executor_exactly() {
        let cat = catalog();
        let serial = Executor::new(&cat);
        for plan in plans() {
            let mut serial_metrics = ExecutionMetrics::new();
            let expected = serial.execute(&plan, &mut serial_metrics).unwrap();
            for workers in [1, 2, 4, 8] {
                for morsel_size in [1, 3] {
                    let config = ParallelConfig::serial()
                        .with_workers(workers)
                        .with_morsel_size(morsel_size);
                    let parallel = ParallelExecutor::new(&cat, config);
                    let mut metrics = ExecutionMetrics::new();
                    let data = parallel.execute(&plan, &mut metrics).unwrap();
                    assert_eq!(data.partitions(), expected.partitions());
                    assert_eq!(data.partition_key(), expected.partition_key());
                    assert_eq!(data.base_table(), expected.base_table());
                    assert_eq!(metrics, serial_metrics, "workers={workers}");
                }
            }
        }
    }

    #[test]
    fn gathered_relation_and_result_rows_match_serial() {
        let cat = catalog();
        let serial = Executor::new(&cat);
        let parallel = ParallelExecutor::new(&cat, ParallelConfig::serial().with_workers(4));
        for plan in plans() {
            let mut sm = ExecutionMetrics::new();
            let mut pm = ExecutionMetrics::new();
            let expected = serial.execute_to_relation(&plan, &mut sm).unwrap();
            let actual = parallel.execute_to_relation(&plan, &mut pm).unwrap();
            assert_eq!(actual, expected);
            assert_eq!(pm, sm);
        }
    }

    /// The grace path is worker-count invariant too: with a tiny join budget
    /// every partition's build side spills, and results, partitions and every
    /// metric counter (including the grace counters) still match the serial
    /// executor exactly.
    #[test]
    fn grace_join_matches_serial_executor_exactly() {
        let mut cat = catalog();
        cat.configure_spill(
            rdo_storage::SpillConfig::default()
                .with_join_budget(1)
                .with_page_size(512),
        )
        .unwrap();
        let serial = Executor::new(&cat);
        for plan in plans() {
            let mut serial_metrics = ExecutionMetrics::new();
            let expected = serial.execute(&plan, &mut serial_metrics).unwrap();
            for workers in [1, 2, 4, 8] {
                let config = ParallelConfig::serial().with_workers(workers);
                let parallel = ParallelExecutor::new(&cat, config);
                let mut metrics = ExecutionMetrics::new();
                let data = parallel.execute(&plan, &mut metrics).unwrap();
                assert_eq!(data.partitions(), expected.partitions());
                assert_eq!(metrics, serial_metrics, "workers={workers}");
            }
        }
        let dir = cat.spill_dir().expect("join budget configured");
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "grace partition files are gone after the joins"
        );
    }

    #[test]
    fn errors_propagate_from_workers() {
        let cat = catalog();
        let parallel = ParallelExecutor::new(&cat, ParallelConfig::serial().with_workers(4));
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

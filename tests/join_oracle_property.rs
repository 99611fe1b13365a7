//! Property-based tests: the three distributed join algorithms must always
//! produce exactly the multiset a naive single-node nested-loop join produces,
//! for arbitrary data distributions, partition counts and key skew.

use proptest::prelude::*;
use runtime_dynamic_optimization::prelude::*;

/// Naive nested-loop join oracle on gathered relations.
fn oracle_join(
    left: &Relation,
    right: &Relation,
    left_key: usize,
    right_key: usize,
) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    for l in left.rows() {
        for r in right.rows() {
            if !l.value(left_key).is_null() && l.value(left_key) == r.value(right_key) {
                let mut row: Vec<Value> = l.values().to_vec();
                row.extend(r.values().iter().cloned());
                out.push(row);
            }
        }
    }
    out.sort();
    out
}

fn make_catalog(
    left_keys: &[i64],
    right_keys: &[i64],
    partitions: usize,
    with_index: bool,
) -> Catalog {
    let mut catalog = Catalog::new(partitions);
    let left_schema = Schema::for_dataset("l", &[("lk", DataType::Int64), ("lv", DataType::Int64)]);
    let left_rows: Vec<Tuple> = left_keys
        .iter()
        .enumerate()
        .map(|(i, k)| Tuple::new(vec![Value::Int64(*k), Value::Int64(i as i64)]))
        .collect();
    let mut options = IngestOptions::partitioned_on("lv");
    if with_index {
        options = options.with_index("lk");
    }
    catalog
        .ingest("l", Relation::new(left_schema, left_rows).unwrap(), options)
        .unwrap();

    let right_schema =
        Schema::for_dataset("r", &[("rk", DataType::Int64), ("rv", DataType::Int64)]);
    let right_rows: Vec<Tuple> = right_keys
        .iter()
        .enumerate()
        .map(|(i, k)| Tuple::new(vec![Value::Int64(*k), Value::Int64(1000 + i as i64)]))
        .collect();
    catalog
        .ingest(
            "r",
            Relation::new(right_schema, right_rows).unwrap(),
            IngestOptions::partitioned_on("rk"),
        )
        .unwrap();
    catalog
}

fn run_join(catalog: &Catalog, algorithm: JoinAlgorithm) -> Vec<Vec<Value>> {
    let plan = PhysicalPlan::join(
        PhysicalPlan::scan("l"),
        PhysicalPlan::scan("r"),
        FieldRef::new("l", "lk"),
        FieldRef::new("r", "rk"),
        algorithm,
    );
    let executor = ParallelExecutor::new(catalog, ParallelConfig::serial());
    let mut metrics = ExecutionMetrics::new();
    let relation = executor.execute_to_relation(&plan, &mut metrics).unwrap();
    let mut rows: Vec<Vec<Value>> = relation
        .rows()
        .iter()
        .map(|t| t.values().to_vec())
        .collect();
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hash_and_broadcast_joins_match_the_oracle(
        left_keys in prop::collection::vec(0i64..20, 0..60),
        right_keys in prop::collection::vec(0i64..20, 0..60),
        partitions in 1usize..8,
    ) {
        let catalog = make_catalog(&left_keys, &right_keys, partitions, false);
        let left = catalog.table("l").unwrap().gather();
        let right = catalog.table("r").unwrap().gather();
        let expected = oracle_join(&left, &right, 0, 0);

        prop_assert_eq!(run_join(&catalog, JoinAlgorithm::Hash), expected.clone());
        prop_assert_eq!(run_join(&catalog, JoinAlgorithm::Broadcast), expected);
    }

    #[test]
    fn indexed_nested_loop_join_matches_the_oracle(
        left_keys in prop::collection::vec(0i64..15, 1..60),
        right_keys in prop::collection::vec(0i64..15, 1..40),
        partitions in 1usize..6,
    ) {
        let catalog = make_catalog(&left_keys, &right_keys, partitions, true);
        let left = catalog.table("l").unwrap().gather();
        let right = catalog.table("r").unwrap().gather();
        let expected = oracle_join(&left, &right, 0, 0);
        prop_assert_eq!(run_join(&catalog, JoinAlgorithm::IndexedNestedLoop), expected);
    }

    #[test]
    fn partitioning_never_loses_rows(
        keys in prop::collection::vec(any::<i64>(), 0..200),
        partitions in 1usize..12,
    ) {
        let mut catalog = Catalog::new(partitions);
        let schema = Schema::for_dataset("t", &[("k", DataType::Int64)]);
        let rows: Vec<Tuple> = keys.iter().map(|k| Tuple::new(vec![Value::Int64(*k)])).collect();
        catalog
            .ingest("t", Relation::new(schema, rows).unwrap(), IngestOptions::partitioned_on("k"))
            .unwrap();
        let table = catalog.table("t").unwrap();
        prop_assert_eq!(table.row_count(), keys.len());
        let mut gathered: Vec<i64> = table
            .gather()
            .rows()
            .iter()
            .map(|t| t.value(0).as_i64().unwrap())
            .collect();
        let mut expected = keys.clone();
        gathered.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(gathered, expected);
    }
}

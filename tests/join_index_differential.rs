//! Differential tests of the flat join index against the row-at-a-time
//! oracle.
//!
//! `JoinBuildTable` hashes and compares join keys straight off column slots;
//! `hash_join_partition_rows` keys a `HashMap<Vec<Value>, _>` with
//! materialized values. The two must produce the same rows **in the same
//! order** (probe-major, build-insertion order) and the same tally, for every
//! key type, for composite keys, NULL components, heavy duplicates, empty
//! sides, `Mixed` columns, and wherever the chunk boundaries fall.

use proptest::prelude::*;
use runtime_dynamic_optimization::common::{
    Batch, DataType, FieldRef, Relation, Schema, Tuple, Value,
};
use runtime_dynamic_optimization::exec::partition::{
    hash_join_partition_chunked, hash_join_partition_rows, JoinTally,
};
use runtime_dynamic_optimization::exec::{
    grace::joined_partition, ExecutionMetrics, GraceTally, JoinAlgorithm, PartitionedData,
    PhysicalPlan, PreparedBuild,
};
use runtime_dynamic_optimization::parallel::{ParallelConfig, ParallelExecutor};
use runtime_dynamic_optimization::storage::{Catalog, IngestOptions};

const CHUNK_SIZES: [usize; 3] = [1, 3, 1024];

/// Join-key values from a deliberately small domain, so keys collide, repeat
/// and — across variants — almost match. `flavour` picks the column's mix:
///
/// * 0 — `Int64` and `Date` holding the same numbers (they match each other);
/// * 1 — `Float64` with `NaN`, `-0.0` and `0.0` (bit equality);
/// * 2 — strings, the empty one and a multi-byte one included;
/// * 3 — booleans;
/// * 4 — everything at once (a `Mixed` column): integers that are never
///   numerically equal to a float of the domain, so `Value`'s numeric `Eq`
///   (`Int64(2) == Float64(2.0)`, which its `Hash` contradicts) cannot make
///   the hash-map oracle itself nondeterministic.
fn key_value(flavour: usize) -> impl Strategy<Value = Value> {
    let ints = prop_oneof![
        (1i64..5).prop_map(Value::Int64),
        (1i64..5).prop_map(Value::Date),
    ];
    let floats = prop_oneof![
        Just(Value::Float64(f64::NAN)),
        Just(Value::Float64(-0.0)),
        Just(Value::Float64(0.0)),
        Just(Value::Float64(0.5)),
        Just(Value::Float64(-1.5)),
    ];
    let strings = prop_oneof![
        Just(Value::from("")),
        Just(Value::from("a")),
        Just(Value::from("ab")),
        Just(Value::from("é")),
    ];
    let bools = any::<bool>().prop_map(Value::Bool);
    let weights: [u32; 4] = match flavour {
        0 => [1, 0, 0, 0],
        1 => [0, 1, 0, 0],
        2 => [0, 0, 1, 0],
        3 => [0, 0, 0, 1],
        _ => [1, 1, 1, 1],
    };
    prop_oneof![
        weights[0] * 6 => ints,
        weights[1] * 6 => floats,
        weights[2] * 6 => strings,
        weights[3] * 6 => bools,
        1 => Just(Value::Null),
    ]
}

/// Rows of one key column per flavour (columns 0–4) plus a unique payload,
/// so output order is observable even among duplicates.
fn side(tag: i64) -> impl Strategy<Value = Vec<Tuple>> {
    let keys = (
        key_value(0),
        key_value(1),
        key_value(2),
        key_value(3),
        key_value(4),
    );
    prop::collection::vec(keys, 0..40).prop_map(move |rows| {
        rows.into_iter()
            .enumerate()
            .map(|(i, (a, b, c, d, e))| {
                Tuple::new(vec![a, b, c, d, e, Value::Int64(tag + i as i64)])
            })
            .collect()
    })
}

fn assert_matches_oracle(probe: &[Tuple], build: &[Tuple], keys: &[usize]) {
    let expected = hash_join_partition_rows(probe, build, keys, keys);
    for chunk_size in CHUNK_SIZES {
        let got = hash_join_partition_chunked(probe, build, keys, keys, chunk_size);
        assert_eq!(got, expected, "keys {keys:?} chunk {chunk_size}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_key_joins_match_the_oracle(probe in side(0), build in side(1_000)) {
        for flavour in 0..5 {
            assert_matches_oracle(&probe, &build, &[flavour]);
        }
    }

    #[test]
    fn composite_key_joins_match_the_oracle(probe in side(0), build in side(1_000)) {
        // Typed ++ typed, typed ++ Mixed, and a three-part key.
        assert_matches_oracle(&probe, &build, &[0, 3]);
        assert_matches_oracle(&probe, &build, &[4, 0]);
        assert_matches_oracle(&probe, &build, &[3, 2, 0]);
    }

    #[test]
    fn heavy_duplicates_keep_probe_major_build_insertion_order(
        probe_keys in prop::collection::vec(0i64..3, 0..30),
        build_keys in prop::collection::vec(0i64..3, 0..30),
    ) {
        let rows = |keys: &[i64], tag: i64| -> Vec<Tuple> {
            keys.iter()
                .enumerate()
                .map(|(i, k)| Tuple::new(vec![Value::Int64(*k), Value::Int64(tag + i as i64)]))
                .collect()
        };
        let (probe, build) = (rows(&probe_keys, 0), rows(&build_keys, 1_000));
        assert_matches_oracle(&probe, &build, &[0]);
        // Spelled out, not just "same as the oracle": for every probe row in
        // order, its matches in build order.
        let (out, _) = hash_join_partition_chunked(&probe, &build, &[0], &[0], 3);
        let mut expected = Vec::new();
        for p in &probe {
            for b in &build {
                if p.value(0) == b.value(0) {
                    expected.push(p.concat(b));
                }
            }
        }
        prop_assert_eq!(out, expected);
    }
}

/// Rows of three integer key columns from a small domain, each value built
/// by `variant` (so the columns come out typed `Int64` or `Date`), and the
/// middle column NULL where `null_middle` says so, plus a unique payload.
fn int_rows(keys: &[(i64, i64, i64, u8)], variant: fn(i64) -> Value, tag: i64) -> Vec<Tuple> {
    keys.iter()
        .enumerate()
        .map(|(i, &(a, b, c, null_middle))| {
            let b = if null_middle == 0 {
                Value::Null
            } else {
                variant(b)
            };
            Tuple::new(vec![
                variant(a),
                b,
                variant(c),
                Value::Int64(tag + i as i64),
            ])
        })
        .collect()
}

/// Key triples; the fourth field is 0 for a NULL middle component, which
/// only `nulls` allows (one in four).
fn int_keys(nulls: bool) -> impl Strategy<Value = Vec<(i64, i64, i64, u8)>> {
    let null = if nulls { 0u8 } else { 1 };
    prop::collection::vec((-2i64..3, 0i64..3, 0i64..2, null..4), 2..40)
}

/// Strings around the eight-byte word boundary of the key hash, and a
/// multi-byte one.
fn string_key() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("a".to_string()),
        Just("abcdefg".to_string()),
        Just("abcdefgh".to_string()),
        Just("abcdefgh\0".to_string()),
        Just("abcdefghi".to_string()),
        Just("ééééé".to_string()),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// NULL-free typed `Int64` probe keys against typed `Date` build keys,
    /// one to three of them: the integer loop, across the two variants.
    #[test]
    fn typed_integer_keys_of_any_arity_match_the_oracle(
        probe in int_keys(false),
        build in int_keys(false),
    ) {
        let probe = int_rows(&probe, Value::Int64, 0);
        let build = int_rows(&build, Value::Date, 1_000);
        prop_assert_eq!(Batch::from_rows(4, &probe).column(1).data_type(), Some(DataType::Int64));
        prop_assert_eq!(Batch::from_rows(4, &build).column(1).data_type(), Some(DataType::Date));
        for keys in [&[0usize][..], &[0, 1][..], &[0, 1, 2][..]] {
            assert_matches_oracle(&probe, &build, keys);
            assert_matches_oracle(&build, &probe, keys);
        }
    }

    /// A NULL in the middle component of a three-part key: the row neither
    /// enters the index nor probes it, on either side.
    #[test]
    fn a_null_middle_component_never_matches(probe in int_keys(true), build in int_keys(true)) {
        let probe = int_rows(&probe, Value::Int64, 0);
        let build = int_rows(&build, Value::Date, 1_000);
        assert_matches_oracle(&probe, &build, &[0, 1, 2]);
        assert_matches_oracle(&build, &probe, &[2, 1, 0]);
    }

    /// A typed integer side against a `Mixed` side whose integers are split
    /// between `Int64` and `Date` values: the generic path, matching across
    /// the variants.
    #[test]
    fn typed_integer_keys_match_a_mixed_int_and_date_side(
        probe in int_keys(false),
        build in int_keys(false),
    ) {
        let probe = int_rows(&probe, Value::Int64, 0);
        // Every other build row holds `Date`s, the rest `Int64`s.
        let build: Vec<Tuple> = int_rows(&build, Value::Int64, 1_000)
            .into_iter()
            .zip(int_rows(&build, Value::Date, 1_000))
            .enumerate()
            .map(|(i, (int, date))| if i % 2 == 0 { int } else { date })
            .collect();
        let mixed = Batch::from_rows(4, &build);
        prop_assert_eq!(mixed.column(0).data_type(), None);
        for keys in [&[0usize][..], &[0, 1, 2][..]] {
            assert_matches_oracle(&probe, &build, keys);
            assert_matches_oracle(&build, &probe, keys);
        }
    }

    /// `Utf8` keys typed on one side and `Mixed` (strings among integers)
    /// on the other.
    #[test]
    fn typed_and_mixed_string_keys_match_the_oracle(
        typed in prop::collection::vec(string_key(), 1..30),
        mixed in prop::collection::vec(prop_oneof![
            3 => string_key().prop_map(Value::Utf8),
            1 => (0i64..3).prop_map(Value::Int64),
        ], 1..30),
    ) {
        let typed: Vec<Tuple> = typed
            .into_iter()
            .enumerate()
            .map(|(i, s)| row(vec![Value::Utf8(s), Value::Int64(i as i64)]))
            .collect();
        let mixed: Vec<Tuple> = mixed
            .into_iter()
            .enumerate()
            .map(|(i, v)| row(vec![v, Value::Int64(1_000 + i as i64)]))
            .collect();
        prop_assert_eq!(Batch::from_rows(2, &typed).column(0).data_type(), Some(DataType::Utf8));
        assert_matches_oracle(&typed, &mixed, &[0]);
        assert_matches_oracle(&mixed, &typed, &[0]);
    }
}

fn row(values: Vec<Value>) -> Tuple {
    Tuple::new(values)
}

/// The key classes, pinned one pair at a time (expected output spelled out).
#[test]
fn key_classes_match_as_value_keys_do() {
    let matches = |probe: Value, build: Value| -> u64 {
        let probe = [row(vec![probe])];
        let build = [row(vec![build])];
        let mut counts = CHUNK_SIZES
            .iter()
            .map(|&c| hash_join_partition_chunked(&probe, &build, &[0], &[0], c).1);
        let first = counts.next().unwrap();
        assert!(counts.all(|t| t == first));
        first.output_rows
    };
    // Int64 and Date hold the same key space.
    assert_eq!(matches(Value::Int64(7), Value::Date(7)), 1);
    assert_eq!(matches(Value::Date(7), Value::Int64(7)), 1);
    assert_eq!(matches(Value::Date(7), Value::Int64(8)), 0);
    // Floats match on their bit pattern.
    assert_eq!(
        matches(Value::Float64(f64::NAN), Value::Float64(f64::NAN)),
        1
    );
    assert_eq!(matches(Value::Float64(-0.0), Value::Float64(0.0)), 0);
    assert_eq!(matches(Value::Float64(0.0), Value::Float64(0.0)), 1);
    assert_eq!(
        matches(
            Value::Float64(f64::NAN),
            Value::Float64(f64::from_bits(f64::NAN.to_bits() ^ 1))
        ),
        0,
        "different NaN payloads are different keys"
    );
    // An integer never matches a float, numerically equal or not. (`Value`
    // calls `Int64(2) == Float64(2.0)` equal but hashes them apart, so a
    // hash map of values almost never finds the pair either — the index
    // makes "never" exact.)
    assert_eq!(matches(Value::Int64(2), Value::Float64(2.0)), 0);
    assert_eq!(matches(Value::Float64(2.0), Value::Date(2)), 0);
    // Strings, booleans, and NULL (which matches nothing, itself included).
    assert_eq!(matches(Value::from("é"), Value::from("é")), 1);
    assert_eq!(matches(Value::from(""), Value::from("")), 1);
    assert_eq!(matches(Value::from("a"), Value::from("ab")), 0);
    assert_eq!(matches(Value::Bool(true), Value::Bool(true)), 1);
    assert_eq!(matches(Value::Bool(true), Value::Bool(false)), 0);
    assert_eq!(matches(Value::Bool(true), Value::Int64(1)), 0);
    assert_eq!(matches(Value::Null, Value::Null), 0);
}

/// A typed column on one side against a `Mixed` column on the other: the key
/// classes, not the column representations, decide.
#[test]
fn typed_and_mixed_columns_join_by_key_class() {
    let typed: Vec<Tuple> = (0..6).map(|i| row(vec![Value::Int64(i % 3)])).collect();
    let mixed = vec![
        row(vec![Value::Date(1)]),
        row(vec![Value::from("1")]),
        row(vec![Value::Int64(2)]),
        row(vec![Value::Float64(1.0)]),
        row(vec![Value::Null]),
        row(vec![Value::Bool(true)]),
    ];
    assert_eq!(
        Batch::from_rows(1, &mixed).column(0).data_type(),
        None,
        "the heterogeneous side is a Mixed column"
    );
    assert_matches_oracle(&typed, &mixed, &[0]);
    assert_matches_oracle(&mixed, &typed, &[0]);
    let (out, _) = hash_join_partition_chunked(&mixed, &typed, &[0], &[0], 2);
    assert_eq!(out.len(), 4, "Date(1) and Int64(2) each match two rows");
}

#[test]
fn empty_sides_join_to_nothing_and_still_count() {
    let some: Vec<Tuple> = (0..5).map(|i| row(vec![Value::Int64(i)])).collect();
    for chunk_size in CHUNK_SIZES {
        assert_eq!(
            hash_join_partition_chunked(&[], &some, &[0], &[0], chunk_size),
            (
                Vec::new(),
                JoinTally {
                    build_rows: 5,
                    probe_rows: 0,
                    output_rows: 0
                }
            )
        );
        assert_eq!(
            hash_join_partition_chunked(&some, &[], &[0], &[0], chunk_size),
            (
                Vec::new(),
                JoinTally {
                    build_rows: 0,
                    probe_rows: 5,
                    output_rows: 0
                }
            )
        );
        assert_eq!(
            hash_join_partition_chunked(&[], &[], &[0], &[0], chunk_size).1,
            JoinTally::default()
        );
    }
}

fn customers_and_orders() -> Catalog {
    let mut catalog = Catalog::new(4);
    let orders = Schema::for_dataset("o", &[("ok", DataType::Int64), ("ck", DataType::Int64)]);
    let rows = (0..400)
        .map(|i| row(vec![Value::Int64(i), Value::Int64(i % 25)]))
        .collect();
    catalog
        .ingest(
            "o",
            Relation::new(orders, rows).unwrap(),
            IngestOptions::partitioned_on("ok"),
        )
        .unwrap();
    let customers = Schema::for_dataset("c", &[("ck", DataType::Int64), ("name", DataType::Utf8)]);
    let rows = (0..30)
        .map(|i| row(vec![Value::Int64(i), Value::from(format!("c{i}"))]))
        .collect();
    catalog
        .ingest(
            "c",
            Relation::new(customers, rows).unwrap(),
            IngestOptions::partitioned_on("ck"),
        )
        .unwrap();
    catalog
}

/// A broadcast join indexes the replicated build side once and shares the
/// table; every probe partition must get the rows, and be charged the build
/// rows, that building a private table per partition would.
#[test]
fn shared_broadcast_build_equals_four_private_ones() {
    let catalog = customers_and_orders();
    let executor = ParallelExecutor::new(&catalog, ParallelConfig::serial());
    let mut scratch = ExecutionMetrics::new();
    let probe: PartitionedData = executor
        .execute(&PhysicalPlan::scan("o"), &mut scratch)
        .unwrap();
    let build = executor
        .execute(&PhysicalPlan::scan("c"), &mut scratch)
        .unwrap()
        .all_batches();
    assert_eq!(probe.num_partitions(), 4);

    let shared = PreparedBuild::prepare(&build, &[0], None);
    let mut shared_tally = GraceTally::default();
    for p in 0..4 {
        let (out, tally) = shared
            .join_partition(&probe.partitions()[p], &[1], &[0])
            .unwrap();
        let (private_out, private_tally) =
            joined_partition(&probe.partitions()[p], &build, &[1], &[0], None).unwrap();
        assert_eq!(out, private_out, "partition {p}");
        assert_eq!(tally, private_tally);
        assert_eq!(
            tally.join.build_rows, 30,
            "each partition pays for its copy"
        );
        // And both agree with the row oracle on this partition.
        let build_rows: Vec<Tuple> = build.iter().flat_map(Batch::to_rows).collect();
        let (expected, expected_tally) =
            hash_join_partition_rows(&probe.partition_rows(p), &build_rows, &[1], &[0]);
        let rows: Vec<Tuple> = out.iter().flat_map(Batch::to_rows).collect();
        assert_eq!(rows, expected);
        assert_eq!(tally.join, expected_tally);
        shared_tally.add(&tally);
    }

    // The executor's broadcast join is exactly that, partition by partition.
    let plan = PhysicalPlan::join(
        PhysicalPlan::scan("o"),
        PhysicalPlan::scan("c"),
        FieldRef::new("o", "ck"),
        FieldRef::new("c", "ck"),
        JoinAlgorithm::Broadcast,
    );
    let mut metrics = ExecutionMetrics::new();
    let joined = executor.execute(&plan, &mut metrics).unwrap();
    assert_eq!(metrics.build_rows, 4 * 30);
    assert_eq!(metrics.build_rows, shared_tally.join.build_rows);
    assert_eq!(metrics.probe_rows, 400);
    assert_eq!(joined.row_count() as u64, shared_tally.join.output_rows);
}

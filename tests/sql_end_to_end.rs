//! End-to-end tests through the SQL++ frontend: the paper queries submitted as
//! text must behave exactly like their programmatic [`QuerySpec`] counterparts,
//! and the post-join GROUP BY / ORDER BY / LIMIT stage must match a naive
//! oracle computed from the raw join result.

use rdo_workloads::{compile_paper_query, PAPER_QUERY_NAMES};
use runtime_dynamic_optimization::prelude::*;
use std::collections::BTreeMap;

fn runner() -> QueryRunner {
    QueryRunner::new(
        CostModel::with_partitions(4),
        JoinAlgorithmRule::with_threshold(2_000.0),
    )
}

#[test]
fn every_paper_query_compiles_and_all_strategies_agree() {
    let mut env = BenchmarkEnv::load(ScaleFactor::gb(2), 4, false, 99).unwrap();
    let runner = runner();
    for name in PAPER_QUERY_NAMES {
        let bound = compile_paper_query(name, &env.catalog)
            .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
        let reports = runner
            .run_comparison(&bound.spec, &mut env.catalog)
            .unwrap();
        let reference = reports[0].result.clone().sorted();
        for report in &reports {
            assert_eq!(
                report.result.clone().sorted(),
                reference,
                "{name}: {} disagrees with {}",
                report.strategy,
                reports[0].strategy
            );
        }
    }
}

#[test]
fn q17_group_by_matches_a_naive_oracle() {
    let mut env = BenchmarkEnv::load(ScaleFactor::gb(2), 4, false, 7).unwrap();
    let runner = runner();
    let bound = compile_paper_query("Q17", &env.catalog).unwrap();
    assert!(bound.has_post_processing());

    // Raw join result (pre-aggregation projection).
    let report = runner
        .run(Strategy::Dynamic, &bound.spec, &mut env.catalog)
        .unwrap();
    let joined = report.result.clone();

    // Post-processed result.
    let output = bound.post.apply(joined.clone()).unwrap();

    // Oracle: group by (i_item_id, s_store_name), sum ss_quantity.
    let schema = joined.schema();
    let item_idx = schema
        .index_of(&FieldRef::new("item", "i_item_id"))
        .unwrap();
    let store_idx = schema
        .index_of(&FieldRef::new("store", "s_store_name"))
        .unwrap();
    let qty_idx = schema
        .index_of(&FieldRef::new("store_sales", "ss_quantity"))
        .unwrap();
    let mut oracle: BTreeMap<(Value, Value), i64> = BTreeMap::new();
    for row in joined.rows() {
        let key = (row.value(item_idx).clone(), row.value(store_idx).clone());
        *oracle.entry(key).or_insert(0) += row.value(qty_idx).as_i64().unwrap_or(0);
    }

    // The post-processed output is sorted by (item, store) and limited to 100.
    assert!(output.len() <= 100);
    assert_eq!(output.len(), oracle.len().min(100));
    let mut previous: Option<(Value, Value)> = None;
    for row in output.rows() {
        let key = (row.value(0).clone(), row.value(1).clone());
        let total = row.value(2).as_i64().unwrap();
        assert_eq!(
            oracle.get(&key),
            Some(&total),
            "group {key:?} has the wrong aggregate"
        );
        if let Some(prev) = &previous {
            assert!(prev <= &key, "output must be ordered by the ORDER BY keys");
        }
        previous = Some(key);
    }
}

#[test]
fn sql_parameters_change_the_result_like_programmatic_parameters() {
    use rdo_workloads::{paper_udfs, q50_params, Q50_SQL};
    let mut env = BenchmarkEnv::load(ScaleFactor::gb(4), 4, false, 31).unwrap();
    let runner = runner();
    let udfs = paper_udfs();

    let narrow = compile(Q50_SQL, "Q50", &env.catalog, &udfs, &q50_params(9, 2000)).unwrap();
    let wide = compile(
        Q50_SQL,
        "Q50-wide",
        &env.catalog,
        &udfs,
        &q50_params(1, 1998),
    )
    .unwrap();
    let narrow_report = runner
        .run(Strategy::Dynamic, &narrow.spec, &mut env.catalog)
        .unwrap();
    let wide_report = runner
        .run(Strategy::Dynamic, &wide.spec, &mut env.catalog)
        .unwrap();
    // Different parameter bindings must actually reach the executor.
    assert_ne!(
        narrow_report.result.clone().sorted(),
        wide_report.result.clone().sorted(),
        "different Q50 parameters should select different rows"
    );
}

#[test]
fn ad_hoc_sql_aggregation_over_tpch_runs_end_to_end() {
    let mut env = BenchmarkEnv::load(ScaleFactor::gb(2), 4, false, 55).unwrap();
    let runner = runner();
    let bound = compile(
        "SELECT nation.n_name, COUNT(*) AS suppliers, MIN(supplier.s_suppkey) AS min_key \
         FROM supplier, nation \
         WHERE supplier.s_nationkey = nation.n_nationkey \
         GROUP BY nation.n_name ORDER BY suppliers DESC, nation.n_name LIMIT 5",
        "adhoc",
        &env.catalog,
        &UdfRegistry::new(),
        &ParamBindings::new(),
    )
    .unwrap();
    let report = runner
        .run(Strategy::Dynamic, &bound.spec, &mut env.catalog)
        .unwrap();
    let output = bound.post.apply(report.result.clone()).unwrap();
    assert!(output.len() <= 5);
    assert!(
        !output.is_empty(),
        "suppliers exist in every nation at this scale"
    );
    // Counts are non-increasing because of ORDER BY suppliers DESC.
    let counts: Vec<i64> = output
        .rows()
        .iter()
        .map(|r| r.value(1).as_i64().unwrap())
        .collect();
    assert!(counts.windows(2).all(|w| w[0] >= w[1]));
    // The total of the per-nation counts equals the supplier row count.
    let total: i64 = {
        let full = compile(
            "SELECT nation.n_name, COUNT(*) AS suppliers FROM supplier, nation \
             WHERE supplier.s_nationkey = nation.n_nationkey GROUP BY nation.n_name",
            "adhoc-full",
            &env.catalog,
            &UdfRegistry::new(),
            &ParamBindings::new(),
        )
        .unwrap();
        let joined = runner
            .run(Strategy::Dynamic, &full.spec, &mut env.catalog)
            .unwrap();
        let grouped = full.post.apply(joined.result.clone()).unwrap();
        grouped
            .rows()
            .iter()
            .map(|r| r.value(1).as_i64().unwrap())
            .sum()
    };
    assert_eq!(
        total as usize,
        env.catalog.table("supplier").unwrap().row_count(),
        "every supplier joins exactly one nation"
    );
}

/// An equi-join between columns of different types used to return no rows
/// with `Ok` under every strategy (the kernels match keys by type), while a
/// nested loop found 200. It is now rejected with an error naming both
/// columns and both types: by the binder for SQL text, and when the join's
/// keys are resolved for a hand-built spec.
#[test]
fn mixed_type_equi_joins_are_rejected() {
    let mut catalog = Catalog::new(4);
    let a = Relation::new(
        Schema::for_dataset("a", &[("id", DataType::Int64), ("x", DataType::Int64)]),
        (0..200)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 10)]))
            .collect(),
    )
    .unwrap();
    catalog
        .ingest("a", a, IngestOptions::partitioned_on("id"))
        .unwrap();
    let strategies = Strategy::COMPARISON.into_iter().chain([
        Strategy::ReoptWithoutOnlineStats,
        Strategy::DynamicWithoutPushdown,
    ]);
    let others = [
        (
            "b_float",
            DataType::Float64,
            (0..10)
                .map(|i| Value::Float64(i as f64))
                .collect::<Vec<_>>(),
        ),
        (
            "b_utf8",
            DataType::Utf8,
            (0..10).map(|i| Value::Utf8(i.to_string())).collect(),
        ),
    ];
    for (table, data_type, values) in others {
        let b = Relation::new(
            Schema::for_dataset(table, &[("y", data_type)]),
            values.into_iter().map(|y| Tuple::new(vec![y])).collect(),
        )
        .unwrap();
        catalog.ingest(table, b, IngestOptions::default()).unwrap();
        let names_both = |err: String| {
            let expected = ["a.x", "b.y", "Int64", &data_type.to_string()];
            assert!(expected.iter().all(|s| err.contains(s)), "{err}");
        };

        let sql = format!("SELECT a.id FROM a, {table} b WHERE a.x = b.y");
        let compiled = compile(
            &sql,
            "e9",
            &catalog,
            &UdfRegistry::new(),
            &ParamBindings::new(),
        );
        names_both(compiled.expect_err("the binder rejects").to_string());

        let spec = QuerySpec::new("e9")
            .with_dataset(DatasetRef::named("a"))
            .with_dataset(DatasetRef::aliased("b", table))
            .with_join(FieldRef::new("a", "x"), FieldRef::new("b", "y"))
            .with_projection(vec![FieldRef::new("a", "id")]);
        for strategy in strategies.clone() {
            let run = runner().run(strategy, &spec, &mut catalog);
            names_both(run.expect_err("the join is rejected").to_string());
        }
    }
}

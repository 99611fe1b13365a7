//! Synthetic TPC-H and TPC-DS style workloads (data generators plus the four
//! evaluation queries of the paper: TPC-DS Q17 and Q50, TPC-H Q8 and Q9).
//!
//! The paper evaluates on 10 GB / 100 GB / 1000 GB datasets on a 10-node AWS
//! cluster. The reproduction keeps the *relative* sizes (fact tables orders of
//! magnitude larger than dimension tables, scale factors 1:10:100) but scales
//! absolute row counts down so the simulated cluster executes in memory; the
//! cost model supplies the distributed I/O/network weighting. All distributional
//! properties the paper relies on are preserved:
//!
//! * selective filters on dimension tables (month/year predicates on
//!   `date_dim`, region name on `region`);
//! * *correlated* predicates on `orders` (order status is determined by the
//!   order date, so the independence assumption underestimates);
//! * UDF predicates (`myyear`, `mysub`) whose selectivity static optimizers
//!   cannot see;
//! * parameterized predicates on `date_dim` in Q50;
//! * fact-to-fact joins on composite keys (store_sales ⋈ store_returns ⋈
//!   catalog_sales) next to key/foreign-key joins.

pub mod queries;
pub mod queries_sql;
pub mod scale;
pub mod tpcds;
pub mod tpch;

pub use queries::{all_queries, q17, q50, q8, q9};
pub use queries_sql::{
    compile_paper_query, paper_udfs, q50_params, PAPER_QUERY_NAMES, Q17_SQL, Q50_SQL, Q8_SQL,
    Q9_SQL,
};
pub use scale::{ScaleFactor, TpcdsSizes, TpchSizes};

use rdo_common::Result;
use rdo_storage::Catalog;

/// A fully loaded benchmark environment: both schemas ingested into one catalog.
#[derive(Debug)]
pub struct BenchmarkEnv {
    /// The loaded catalog.
    pub catalog: Catalog,
    /// Scale factor used.
    pub scale: ScaleFactor,
    /// Whether secondary indexes were created (Figure 8 configuration).
    pub with_indexes: bool,
}

impl BenchmarkEnv {
    /// Loads both the TPC-H and TPC-DS style datasets at the given scale factor
    /// into a catalog with `partitions` partitions. `with_indexes` additionally
    /// creates the secondary indexes used by the indexed nested-loop experiments
    /// (Figure 8).
    pub fn load(
        scale: ScaleFactor,
        partitions: usize,
        with_indexes: bool,
        seed: u64,
    ) -> Result<Self> {
        let mut catalog = Catalog::new(partitions);
        tpch::load_tpch(&mut catalog, scale, with_indexes, seed)?;
        tpcds::load_tpcds(&mut catalog, scale, with_indexes, seed.wrapping_add(1))?;
        Ok(Self {
            catalog,
            scale,
            with_indexes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_env_loads_all_tables() {
        let env = BenchmarkEnv::load(ScaleFactor::gb(2), 4, true, 7).unwrap();
        let names = env.catalog.table_names();
        for expected in [
            "lineitem",
            "orders",
            "customer",
            "part",
            "partsupp",
            "supplier",
            "nation",
            "region",
            "store_sales",
            "store_returns",
            "catalog_sales",
            "date_dim",
            "store",
            "item",
        ] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
        assert!(env.with_indexes);
        assert_eq!(env.scale.gb, 2);
    }

    #[test]
    fn loaded_tables_have_the_scale_row_counts_and_statistics() {
        let scale = ScaleFactor::gb(1);
        let env = BenchmarkEnv::load(scale, 3, false, 11).unwrap();
        let (h, d) = (scale.tpch(), scale.tpcds());
        for (name, rows) in [
            ("lineitem", h.lineitem),
            ("orders", h.orders),
            ("customer", h.customer),
            ("region", h.region),
            ("store_sales", d.store_sales),
            ("item", d.item),
            ("date_dim", d.date_dim),
        ] {
            let table = env.catalog.table(name).unwrap();
            assert_eq!(table.row_count() as u64, rows, "{name}");
            assert_eq!(table.num_partitions(), 3, "{name}");
            assert_eq!(env.catalog.stats().row_count(name), Some(rows), "{name}");
        }
    }

    #[test]
    fn secondary_indexes_are_built_only_on_request() {
        let without = BenchmarkEnv::load(ScaleFactor::gb(1), 2, false, 5).unwrap();
        let with = BenchmarkEnv::load(ScaleFactor::gb(1), 2, true, 5).unwrap();
        for column in ["l_partkey", "l_suppkey"] {
            assert!(!without.catalog.has_secondary_index("lineitem", column));
            assert!(with.catalog.has_secondary_index("lineitem", column));
        }
        assert!(!with.catalog.has_secondary_index("lineitem", "l_orderkey"));
    }

    #[test]
    fn loading_is_deterministic_per_seed() {
        let a = BenchmarkEnv::load(ScaleFactor::gb(1), 2, false, 9).unwrap();
        let b = BenchmarkEnv::load(ScaleFactor::gb(1), 2, false, 9).unwrap();
        for name in ["lineitem", "orders", "store_sales", "store_returns"] {
            assert_eq!(
                a.catalog.table(name).unwrap().gather(),
                b.catalog.table(name).unwrap().gather(),
                "{name}"
            );
        }
    }
}

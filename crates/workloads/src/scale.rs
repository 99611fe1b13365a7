//! Scale factors and per-table row counts.

/// A scale factor expressed in "gigabytes" to match the paper's 10 / 100 / 1000
/// GB datasets. Row counts are proportional to the paper's setup but scaled
/// down by a constant factor so the workloads execute in memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScaleFactor {
    /// The nominal dataset size in GB.
    pub gb: u64,
}

impl ScaleFactor {
    /// Creates a scale factor.
    pub fn gb(gb: u64) -> Self {
        Self { gb: gb.max(1) }
    }

    /// The three scale factors used throughout the paper's evaluation.
    pub fn paper_scales() -> [ScaleFactor; 3] {
        [Self::gb(10), Self::gb(100), Self::gb(1000)]
    }

    /// Row counts for the TPC-H style tables.
    pub fn tpch(&self) -> TpchSizes {
        let gb = self.gb;
        TpchSizes {
            lineitem: 300 * gb,
            orders: 150 * gb,
            customer: 15 * gb,
            part: 20 * gb,
            partsupp: 80 * gb,
            supplier: (gb / 2).max(10),
            nation: 25,
            region: 5,
        }
    }

    /// Row counts for the TPC-DS style tables.
    pub fn tpcds(&self) -> TpcdsSizes {
        let gb = self.gb;
        TpcdsSizes {
            store_sales: 300 * gb,
            store_returns: 30 * gb,
            catalog_sales: 150 * gb,
            date_dim: crate::tpcds::CALENDAR_DAYS as u64, // independent of scale
            item: 30 * gb,
            store: 5 + gb / 10,
        }
    }
}

impl std::fmt::Display for ScaleFactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}GB", self.gb)
    }
}

/// Row counts of the TPC-H style tables at a given scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpchSizes {
    /// lineitem fact table rows.
    pub lineitem: u64,
    /// orders table rows.
    pub orders: u64,
    /// customer table rows.
    pub customer: u64,
    /// part table rows.
    pub part: u64,
    /// partsupp table rows.
    pub partsupp: u64,
    /// supplier table rows.
    pub supplier: u64,
    /// nation table rows (fixed).
    pub nation: u64,
    /// region table rows (fixed).
    pub region: u64,
}

/// Row counts of the TPC-DS style tables at a given scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TpcdsSizes {
    /// store_sales fact table rows.
    pub store_sales: u64,
    /// store_returns fact table rows.
    pub store_returns: u64,
    /// catalog_sales fact table rows.
    pub catalog_sales: u64,
    /// date_dim dimension rows (fixed).
    pub date_dim: u64,
    /// item dimension rows.
    pub item: u64,
    /// store dimension rows.
    pub store: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_factors_keep_their_ratios() {
        let [s10, s100, s1000] = ScaleFactor::paper_scales();
        assert_eq!(s100.tpch().lineitem, 10 * s10.tpch().lineitem);
        assert_eq!(s1000.tpch().lineitem, 10 * s100.tpch().lineitem);
        assert_eq!(s100.tpcds().store_sales, 10 * s10.tpcds().store_sales);
    }

    #[test]
    fn dimension_tables_stay_small() {
        let s = ScaleFactor::gb(1000);
        assert_eq!(s.tpch().nation, 25);
        assert_eq!(s.tpch().region, 5);
        assert_eq!(s.tpcds().date_dim, 1_825);
        assert!(s.tpcds().store < 1_000);
    }

    #[test]
    fn fact_tables_dominate() {
        for s in ScaleFactor::paper_scales() {
            let h = s.tpch();
            assert!(h.lineitem > h.orders && h.orders > h.customer);
            let d = s.tpcds();
            assert!(d.store_sales > d.store_returns);
            assert!(d.store_sales > d.catalog_sales);
        }
    }

    #[test]
    fn display_and_minimum() {
        assert_eq!(ScaleFactor::gb(10).to_string(), "10GB");
        assert_eq!(
            ScaleFactor::gb(0).gb,
            1,
            "scale factor is clamped to at least 1"
        );
    }

    #[test]
    fn small_tables_have_scale_floors() {
        assert_eq!(ScaleFactor::gb(1).tpch().supplier, 10);
        assert_eq!(ScaleFactor::gb(100).tpch().supplier, 50);
        assert_eq!(ScaleFactor::gb(1).tpcds().store, 5);
        assert_eq!(ScaleFactor::gb(100).tpcds().store, 15);
    }
}

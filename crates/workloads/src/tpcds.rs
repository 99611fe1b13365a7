//! Synthetic TPC-DS style data generator (the tables used by queries 17 and 50).
//!
//! `date_dim` covers [`CALENDAR_DAYS`] days (1998-01-01 .. 2002-12-30) with
//! one row per day, independent of scale factor, exactly like the real
//! benchmark where the calendar dimension has a fixed size. `store_returns` is generated as a
//! sample of `store_sales` (a return references the original sale's customer,
//! item and ticket number) so the fact-to-fact composite joins of Q17 and Q50
//! produce realistic match rates; `catalog_sales` partially overlaps
//! `store_returns` on (customer, item) so the three-fact join of Q17 is
//! non-empty.

use crate::scale::ScaleFactor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rdo_common::{DataType, Relation, Result, Schema, Tuple, Value};
use rdo_storage::{Catalog, IngestOptions};

/// Days in the generated calendar (five 365-day years starting 1998-01-01).
pub const CALENDAR_DAYS: i64 = 1_825;

/// Year of a date surrogate key.
pub fn date_year(date_sk: i64) -> i64 {
    1998 + (date_sk / 365).clamp(0, 4)
}

/// Month (1..=12) of a date surrogate key.
pub fn date_month(date_sk: i64) -> i64 {
    ((date_sk % 365) / 31).min(11) + 1
}

/// First surrogate key of a (year, month) pair, useful for tests.
pub fn first_day_of(year: i64, month: i64) -> i64 {
    (year - 1998) * 365 + (month - 1) * 31
}

/// Generates the `date_dim` relation.
pub fn date_dim() -> Relation {
    let schema = Schema::for_dataset(
        "date_dim",
        &[
            ("d_date_sk", DataType::Int64),
            ("d_year", DataType::Int64),
            ("d_moy", DataType::Int64),
            ("d_dom", DataType::Int64),
        ],
    );
    let rows = (0..CALENDAR_DAYS)
        .map(|sk| {
            Tuple::new(vec![
                Value::Int64(sk),
                Value::Int64(date_year(sk)),
                Value::Int64(date_month(sk)),
                Value::Int64((sk % 31) + 1),
            ])
        })
        .collect();
    Relation::new(schema, rows).expect("static schema")
}

/// Generates the `store` relation.
pub fn store(rows: u64) -> Relation {
    let schema = Schema::for_dataset(
        "store",
        &[
            ("s_store_sk", DataType::Int64),
            ("s_store_name", DataType::Utf8),
            ("s_state", DataType::Utf8),
        ],
    );
    let states = ["CA", "TX", "NY", "WA", "IL"];
    let data = (0..rows as i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Int64(i),
                Value::Utf8(format!("Store#{i:04}")),
                Value::from(states[(i as usize) % states.len()]),
            ])
        })
        .collect();
    Relation::new(schema, data).expect("static schema")
}

/// Generates the `item` relation.
pub fn item(rows: u64) -> Relation {
    let schema = Schema::for_dataset(
        "item",
        &[
            ("i_item_sk", DataType::Int64),
            ("i_item_id", DataType::Utf8),
            ("i_category", DataType::Utf8),
        ],
    );
    let categories = ["Books", "Music", "Electronics", "Home", "Sports", "Shoes"];
    let data = (0..rows as i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Int64(i),
                Value::Utf8(format!("ITEM{i:08}")),
                Value::from(categories[(i as usize) % categories.len()]),
            ])
        })
        .collect();
    Relation::new(schema, data).expect("static schema")
}

/// Generates the `store_sales` fact table.
pub fn store_sales(rows: u64, items: u64, stores: u64, rng: &mut StdRng) -> Relation {
    let schema = store_sales_schema();
    let customers = (rows / 5).max(1) as i64;
    let data = (0..rows as i64)
        .map(|i| {
            Tuple::new(vec![
                Value::Int64(rng.gen_range(0..CALENDAR_DAYS)),
                Value::Int64(rng.gen_range(0..items.max(1) as i64)),
                Value::Int64(rng.gen_range(0..customers)),
                Value::Int64(i), // ticket number: one per sale row
                Value::Int64(rng.gen_range(0..stores.max(1) as i64)),
                Value::Int64(rng.gen_range(1..=20)),
            ])
        })
        .collect();
    Relation::new(schema, data).expect("static schema")
}

fn store_sales_schema() -> Schema {
    Schema::for_dataset(
        "store_sales",
        &[
            ("ss_sold_date_sk", DataType::Int64),
            ("ss_item_sk", DataType::Int64),
            ("ss_customer_sk", DataType::Int64),
            ("ss_ticket_number", DataType::Int64),
            ("ss_store_sk", DataType::Int64),
            ("ss_quantity", DataType::Int64),
        ],
    )
}

/// Generates `store_returns` as a sample of `store_sales`: every `1/ratio`-th
/// sale is returned a few days later.
pub fn store_returns(sales: &Relation, target_rows: u64, rng: &mut StdRng) -> Relation {
    let schema = Schema::for_dataset(
        "store_returns",
        &[
            ("sr_returned_date_sk", DataType::Int64),
            ("sr_item_sk", DataType::Int64),
            ("sr_customer_sk", DataType::Int64),
            ("sr_ticket_number", DataType::Int64),
            ("sr_return_quantity", DataType::Int64),
        ],
    );
    let step = (sales.len() as u64 / target_rows.max(1)).max(1) as usize;
    let data = sales
        .rows()
        .iter()
        .step_by(step)
        .map(|sale| {
            let sold = sale.value(0).as_i64().unwrap_or(0);
            let returned = (sold + rng.gen_range(1i64..=60)).min(CALENDAR_DAYS - 1);
            Tuple::new(vec![
                Value::Int64(returned),
                sale.value(1).clone(),
                sale.value(2).clone(),
                sale.value(3).clone(),
                Value::Int64(rng.gen_range(1..=5)),
            ])
        })
        .collect();
    Relation::new(schema, data).expect("static schema")
}

/// Generates `catalog_sales`; roughly half of the rows re-use a (customer,
/// item) pair from `store_returns` with a sale date shortly after the return,
/// so the Q17 three-fact join finds matches.
pub fn catalog_sales(rows: u64, items: u64, returns: &Relation, rng: &mut StdRng) -> Relation {
    let schema = Schema::for_dataset(
        "catalog_sales",
        &[
            ("cs_sold_date_sk", DataType::Int64),
            ("cs_bill_customer_sk", DataType::Int64),
            ("cs_item_sk", DataType::Int64),
            ("cs_quantity", DataType::Int64),
        ],
    );
    let customers = (rows / 3).max(1) as i64;
    let data = (0..rows as i64)
        .map(|_| {
            if !returns.is_empty() && rng.gen_bool(0.5) {
                let r = &returns.rows()[rng.gen_range(0..returns.len())];
                let returned = r.value(0).as_i64().unwrap_or(0);
                Tuple::new(vec![
                    Value::Int64((returned + rng.gen_range(0i64..30)).min(CALENDAR_DAYS - 1)),
                    r.value(2).clone(),
                    r.value(1).clone(),
                    Value::Int64(rng.gen_range(1..=10)),
                ])
            } else {
                Tuple::new(vec![
                    Value::Int64(rng.gen_range(0..CALENDAR_DAYS)),
                    Value::Int64(rng.gen_range(0..customers)),
                    Value::Int64(rng.gen_range(0..items.max(1) as i64)),
                    Value::Int64(rng.gen_range(1..=10)),
                ])
            }
        })
        .collect();
    Relation::new(schema, data).expect("static schema")
}

/// Generates and ingests all TPC-DS style tables into the catalog.
pub fn load_tpcds(
    catalog: &mut Catalog,
    scale: ScaleFactor,
    with_indexes: bool,
    seed: u64,
) -> Result<()> {
    let sizes = scale.tpcds();
    let mut rng = StdRng::seed_from_u64(seed);

    catalog.ingest(
        "date_dim",
        date_dim(),
        IngestOptions::partitioned_on("d_date_sk"),
    )?;
    catalog.ingest(
        "store",
        store(sizes.store),
        IngestOptions::partitioned_on("s_store_sk"),
    )?;
    catalog.ingest(
        "item",
        item(sizes.item),
        IngestOptions::partitioned_on("i_item_sk"),
    )?;

    let sales = store_sales(sizes.store_sales, sizes.item, sizes.store, &mut rng);
    let returns = store_returns(&sales, sizes.store_returns, &mut rng);
    let catalog_rel = catalog_sales(sizes.catalog_sales, sizes.item, &returns, &mut rng);

    let mut ss_options = IngestOptions::partitioned_on("ss_ticket_number");
    let mut sr_options = IngestOptions::partitioned_on("sr_ticket_number");
    let mut cs_options = IngestOptions::partitioned_on("cs_bill_customer_sk");
    if with_indexes {
        ss_options = ss_options.with_index("ss_sold_date_sk");
        sr_options = sr_options.with_index("sr_returned_date_sk");
        cs_options = cs_options.with_index("cs_sold_date_sk");
    }
    catalog.ingest("store_sales", sales, ss_options)?;
    catalog.ingest("store_returns", returns, sr_options)?;
    catalog.ingest("catalog_sales", catalog_rel, cs_options)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_covers_five_years() {
        let d = date_dim();
        assert_eq!(d.len(), CALENDAR_DAYS as usize);
        assert_eq!(date_year(0), 1998);
        assert_eq!(date_year(CALENDAR_DAYS - 1), 2002);
        assert!((1..=12).contains(&date_month(100)));
        assert!(first_day_of(2001, 4) > first_day_of(2000, 4));
    }

    #[test]
    fn returns_reference_real_sales() {
        let mut rng = StdRng::seed_from_u64(3);
        let sales = store_sales(5_000, 200, 10, &mut rng);
        let returns = store_returns(&sales, 500, &mut rng);
        assert!(
            returns.len() >= 450 && returns.len() <= 550,
            "got {}",
            returns.len()
        );
        use std::collections::HashSet;
        let tickets: HashSet<i64> = sales
            .rows()
            .iter()
            .map(|r| r.value(3).as_i64().unwrap())
            .collect();
        for r in returns.rows() {
            assert!(tickets.contains(&r.value(3).as_i64().unwrap()));
            // Returned on or after some sale date, within the calendar.
            let returned = r.value(0).as_i64().unwrap();
            assert!(returned < CALENDAR_DAYS);
        }
    }

    #[test]
    fn catalog_sales_overlap_returns() {
        let mut rng = StdRng::seed_from_u64(5);
        let sales = store_sales(2_000, 100, 5, &mut rng);
        let returns = store_returns(&sales, 200, &mut rng);
        let cs = catalog_sales(1_000, 100, &returns, &mut rng);
        use std::collections::HashSet;
        let pairs: HashSet<(i64, i64)> = returns
            .rows()
            .iter()
            .map(|r| (r.value(2).as_i64().unwrap(), r.value(1).as_i64().unwrap()))
            .collect();
        let overlapping = cs
            .rows()
            .iter()
            .filter(|r| {
                pairs.contains(&(r.value(1).as_i64().unwrap(), r.value(2).as_i64().unwrap()))
            })
            .count();
        assert!(
            overlapping >= cs.len() / 4,
            "expected substantial overlap, got {overlapping}/{}",
            cs.len()
        );
    }

    #[test]
    fn load_registers_tables_and_indexes() {
        let mut cat = Catalog::new(4);
        load_tpcds(&mut cat, ScaleFactor::gb(1), true, 11).unwrap();
        assert_eq!(
            cat.table("date_dim").unwrap().row_count(),
            CALENDAR_DAYS as usize
        );
        assert!(cat.table("store_sales").unwrap().row_count() > 0);
        assert!(cat.has_secondary_index("store_sales", "ss_sold_date_sk"));
        assert!(cat.has_secondary_index("store_returns", "sr_returned_date_sk"));
        assert!(cat.has_secondary_index("catalog_sales", "cs_sold_date_sk"));
    }

    #[test]
    fn fact_table_sizes_follow_scale() {
        let mut cat = Catalog::new(2);
        load_tpcds(&mut cat, ScaleFactor::gb(2), false, 1).unwrap();
        let ss = cat.table("store_sales").unwrap().row_count();
        let sr = cat.table("store_returns").unwrap().row_count();
        assert_eq!(ss, 600);
        assert!((55..=65).contains(&sr), "returns ≈ 10% of sales, got {sr}");
    }
}

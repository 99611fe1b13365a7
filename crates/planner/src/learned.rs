//! The learned-statistics catalog: measured subplan cardinalities that
//! outlive the query which discovered them.
//!
//! The paper's premise is that mid-query re-optimization discovers *true*
//! cardinalities the static optimizer could not know; in a single-query world
//! those observations die with the query. Under a multi-query server the same
//! SQL text arrives again and again, so the driver records every materialized
//! stage's actual row count here, keyed by a canonical subplan signature, and
//! the [`SizeEstimator`](crate::SizeEstimator) of a *repeat* query reads the
//! measured value instead of multiplying histogram selectivities — the
//! correlated-predicate estimation error (Section 4) disappears on the second
//! run without re-executing the pilot stages.
//!
//! Keys must be *value-qualified*: [`rdo_exec::PhysicalPlan::signature`]
//! renders a filtered scan as `σ(table)` regardless of the predicates, so
//! Q17's `σ(d1)` (September 2000) and Q50's `σ(d1)` (a parameterized month)
//! would collide. [`LearnedStatsCatalog::filter_key`] therefore renders the
//! predicate list — constants, `BETWEEN` bounds and `IN`-list values included
//! — into the key, sorted so predicate order does not matter.
//!
//! The catalog is shared across concurrent sessions (`&self` everywhere,
//! interior locking) and counts hits and misses so the server can surface
//! stats-cache effectiveness in `/metrics`. Keys derive from client SQL
//! text, so a server-owned catalog must be [`LearnedStatsCatalog::bounded`]:
//! when the cap is exceeded, the least-recently-touched entry is evicted.

use rdo_common::Lru;
use rdo_exec::{Predicate, PredicateExpr};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Measured subplan cardinalities keyed by canonical subplan signature.
#[derive(Debug, Default)]
pub struct LearnedStatsCatalog {
    /// Measured row counts; unbounded unless built by [`Self::bounded`].
    entries: Mutex<Lru<u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LearnedStatsCatalog {
    /// An empty, unbounded catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty catalog holding at most `cap` subplans; observing past the
    /// cap evicts the least-recently-touched entry. Servers keying off
    /// client-controlled SQL text must use this constructor so a client
    /// iterating literal values inline cannot grow the catalog without
    /// bound.
    pub fn bounded(cap: usize) -> Self {
        Self {
            entries: Mutex::new(Lru::new(cap)),
            ..Self::default()
        }
    }

    /// Records the measured cardinality of a subplan (last observation wins —
    /// under data drift the freshest measurement is the right one). On a
    /// bounded catalog, inserting a fresh key past the cap first evicts the
    /// least-recently-touched entry.
    pub fn observe(&self, key: &str, rows: u64) {
        let mut entries = self.entries.lock().expect("learned-stats lock poisoned");
        entries.insert(key.to_string(), rows);
    }

    /// Looks a subplan up, counting the hit or miss (a hit also refreshes the
    /// entry's eviction recency).
    pub fn lookup(&self, key: &str) -> Option<u64> {
        let mut entries = self.entries.lock().expect("learned-stats lock poisoned");
        let found = entries.get(key).copied();
        drop(entries);
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Looks a subplan up without touching the hit/miss counters or the
    /// eviction recency (for tests and introspection).
    pub fn peek(&self, key: &str) -> Option<u64> {
        self.entries
            .lock()
            .expect("learned-stats lock poisoned")
            .peek(key)
            .copied()
    }

    /// Number of learned subplans.
    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .expect("learned-stats lock poisoned")
            .len()
    }

    /// True if nothing has been learned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookups that found a measured value.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookups that fell back to static estimation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// The canonical key of a filtered scan: the base table plus every local
    /// predicate rendered *with its constants*, sorted so predicate order
    /// does not matter. UDF predicates are keyed by their display name, which
    /// the SQL binder derives from the comparison they implement (e.g.
    /// `myyear[=1998]`), so two closures implementing different comparisons
    /// never share a key.
    pub fn filter_key(table: &str, predicates: &[Predicate]) -> String {
        let mut parts: Vec<String> = predicates.iter().map(predicate_key).collect();
        parts.sort();
        format!("σ[{}]({table})", parts.join(" ∧ "))
    }
}

/// A value-qualified rendering of one predicate. `Predicate`'s `Display` is
/// close but renders `IN` lists as a value *count* only; the key must include
/// the values themselves.
fn predicate_key(p: &Predicate) -> String {
    match &p.expr {
        PredicateExpr::Compare { field, op, value } => format!("{field} {op} {value}"),
        PredicateExpr::Between { field, lo, hi } => format!("{field} BETWEEN {lo} AND {hi}"),
        PredicateExpr::InList { field, values } => {
            let vals: Vec<String> = values.iter().map(|v| v.to_string()).collect();
            format!("{field} IN [{}]", vals.join(","))
        }
        PredicateExpr::Udf { name, field, .. } => format!("{name}({field})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::FieldRef;
    use rdo_exec::CmpOp;

    fn lt(dataset: &str, field: &str, v: i64) -> Predicate {
        Predicate::compare(FieldRef::new(dataset, field), CmpOp::Lt, v)
    }

    #[test]
    fn observe_then_lookup_counts_a_hit() {
        let learned = LearnedStatsCatalog::new();
        assert!(learned.is_empty());
        learned.observe("σ[x](t)", 42);
        assert_eq!(learned.lookup("σ[x](t)"), Some(42));
        assert_eq!(learned.lookup("σ[y](t)"), None);
        assert_eq!((learned.hits(), learned.misses()), (1, 1));
        assert_eq!(learned.len(), 1);
        // peek does not count.
        assert_eq!(learned.peek("σ[x](t)"), Some(42));
        assert_eq!(learned.hits(), 1);
    }

    #[test]
    fn last_observation_wins() {
        let learned = LearnedStatsCatalog::new();
        learned.observe("k", 10);
        learned.observe("k", 20);
        assert_eq!(learned.peek("k"), Some(20));
    }

    #[test]
    fn bounded_catalog_evicts_least_recently_touched() {
        let learned = LearnedStatsCatalog::bounded(2);
        learned.observe("a", 1);
        learned.observe("b", 2);
        // Touch "a" so "b" is now the coldest entry.
        assert_eq!(learned.lookup("a"), Some(1));
        learned.observe("c", 3);
        assert_eq!(learned.len(), 2);
        assert_eq!(learned.peek("b"), None, "coldest entry evicted");
        assert_eq!(learned.peek("a"), Some(1));
        assert_eq!(learned.peek("c"), Some(3));
        // Re-observing an existing key never evicts.
        learned.observe("a", 10);
        assert_eq!(learned.len(), 2);
        assert_eq!(learned.peek("a"), Some(10));
    }

    #[test]
    fn filter_key_is_order_insensitive_and_value_qualified() {
        let a = lt("d1", "d_moy", 9);
        let b = lt("d1", "d_year", 2000);
        let ab = LearnedStatsCatalog::filter_key("date_dim", &[a.clone(), b.clone()]);
        let ba = LearnedStatsCatalog::filter_key("date_dim", &[b, a.clone()]);
        assert_eq!(ab, ba);
        // Same shape, different constant → different key (the σ(d1)-style
        // signature collision this key exists to avoid).
        let other = LearnedStatsCatalog::filter_key("date_dim", &[a, lt("d1", "d_year", 1999)]);
        assert_ne!(ab, other);
    }

    #[test]
    fn filter_key_includes_in_list_values() {
        let mk = |vals: Vec<i64>| {
            Predicate::in_list(
                FieldRef::new("o", "k"),
                vals.into_iter().map(rdo_common::Value::Int64).collect(),
            )
        };
        let one = LearnedStatsCatalog::filter_key("orders", &[mk(vec![1, 2, 3])]);
        let two = LearnedStatsCatalog::filter_key("orders", &[mk(vec![4, 5, 6])]);
        assert_ne!(one, two, "IN lists with equal lengths must not collide");
    }

    #[test]
    fn shared_across_threads() {
        let learned = std::sync::Arc::new(LearnedStatsCatalog::new());
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let learned = std::sync::Arc::clone(&learned);
            handles.push(std::thread::spawn(move || {
                learned.observe(&format!("k{i}"), i);
                learned.lookup(&format!("k{i}"))
            }));
        }
        for h in handles {
            assert!(h.join().unwrap().is_some());
        }
        assert_eq!(learned.len(), 4);
        assert_eq!(learned.hits(), 4);
    }
}

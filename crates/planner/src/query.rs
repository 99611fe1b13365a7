//! The logical query specification.

use rdo_common::{FieldRef, RdoError, Result};
use rdo_exec::Predicate;
use std::collections::{BTreeSet, HashMap, HashSet};

/// A dataset participating in a query, possibly under an alias (`date_dim d1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetRef {
    /// Alias used in predicates and join conditions.
    pub alias: String,
    /// Physical table name in the catalog.
    pub table: String,
    /// The bound aliases whose columns this dataset holds: its own alias for
    /// a FROM-clause dataset, every alias a materialized join consumed for an
    /// intermediate. Columns keep the identity the binder gave them (`b.id`),
    /// so this is how the remaining query finds where they now live.
    pub holds: Vec<String>,
}

impl DatasetRef {
    /// A dataset used under its own name.
    pub fn named(name: impl Into<String>) -> Self {
        let name = name.into();
        Self::aliased(name.clone(), name)
    }

    /// A dataset used under an alias.
    pub fn aliased(alias: impl Into<String>, table: impl Into<String>) -> Self {
        let alias = alias.into();
        Self {
            holds: vec![alias.clone()],
            alias,
            table: table.into(),
        }
    }

    /// A materialized intermediate holding the columns of `holds`.
    pub(crate) fn intermediate(name: impl Into<String>, holds: Vec<String>) -> Self {
        let name = name.into();
        Self {
            alias: name.clone(),
            table: name,
            holds,
        }
    }
}

/// An equi-join condition `left = right` between two bound columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinCondition {
    /// Key on one side.
    pub left: FieldRef,
    /// Key on the other side.
    pub right: FieldRef,
}

impl JoinCondition {
    /// Creates a join condition.
    pub fn new(left: FieldRef, right: FieldRef) -> Self {
        Self { left, right }
    }

    /// Human-readable form, e.g. `lineitem.l_partkey = part.p_partkey`.
    pub fn describe(&self) -> String {
        format!("{} = {}", self.left, self.right)
    }
}

/// A logical multi-join query: the datasets in the FROM clause (in the order
/// the user wrote them, which matters for AsterixDB's default optimizer and the
/// best/worst-order baselines), the local predicates of the WHERE clause, the
/// equi-join conditions and the projection list.
#[derive(Debug, Clone, Default)]
pub struct QuerySpec {
    /// FROM-clause datasets in user order.
    pub datasets: Vec<DatasetRef>,
    /// Local (single-dataset) selection predicates.
    pub predicates: Vec<Predicate>,
    /// Equi-join conditions.
    pub joins: Vec<JoinCondition>,
    /// Projection list (SELECT clause). Empty means "all columns".
    pub projection: Vec<FieldRef>,
    /// Query name used in reports (e.g. "Q17").
    pub name: String,
}

impl QuerySpec {
    /// Creates an empty query with a name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Adds a dataset (builder style).
    pub fn with_dataset(mut self, dataset: DatasetRef) -> Self {
        self.datasets.push(dataset);
        self
    }

    /// Adds a local predicate (builder style).
    pub fn with_predicate(mut self, predicate: Predicate) -> Self {
        self.predicates.push(predicate);
        self
    }

    /// Adds a join condition (builder style).
    pub fn with_join(mut self, left: FieldRef, right: FieldRef) -> Self {
        self.joins.push(JoinCondition::new(left, right));
        self
    }

    /// Sets the projection list (builder style).
    pub fn with_projection(mut self, projection: Vec<FieldRef>) -> Self {
        self.projection = projection;
        self
    }

    /// The aliases of all datasets, in FROM-clause order.
    pub fn aliases(&self) -> Vec<&str> {
        self.datasets.iter().map(|d| d.alias.as_str()).collect()
    }

    /// Looks up a dataset by alias.
    pub fn dataset(&self, alias: &str) -> Option<&DatasetRef> {
        self.datasets.iter().find(|d| d.alias == alias)
    }

    /// Physical table behind an alias.
    pub fn table_of(&self, alias: &str) -> Result<&str> {
        self.dataset(alias)
            .map(|d| d.table.as_str())
            .ok_or_else(|| RdoError::UnknownDataset(alias.to_string()))
    }

    /// Local predicates attached to an alias.
    pub fn predicates_for(&self, alias: &str) -> Vec<&Predicate> {
        self.predicates
            .iter()
            .filter(|p| p.dataset() == alias)
            .collect()
    }

    /// The FROM-clause alias of the dataset holding `column` (see
    /// [`DatasetRef::holds`]); a column no dataset holds answers its own
    /// qualifier, which [`QuerySpec::validate`] rejects.
    pub fn home_of<'a>(&'a self, column: &'a FieldRef) -> &'a str {
        self.datasets
            .iter()
            .find(|d| d.holds.contains(&column.dataset))
            .map_or(&column.dataset, |d| &d.alias)
    }

    /// The FROM-clause aliases of the two datasets a condition joins.
    pub fn join_homes<'a>(&'a self, join: &'a JoinCondition) -> (&'a str, &'a str) {
        (self.home_of(&join.left), self.home_of(&join.right))
    }

    /// The key of `join` held by `alias`, if any.
    pub fn key_of<'a>(&'a self, join: &'a JoinCondition, alias: &str) -> Option<&'a FieldRef> {
        match self.join_homes(join) {
            (l, _) if l == alias => Some(&join.left),
            (_, r) if r == alias => Some(&join.right),
            _ => None,
        }
    }

    /// Join conditions touching an alias.
    pub fn joins_involving(&self, alias: &str) -> Vec<&JoinCondition> {
        self.joins
            .iter()
            .filter(|j| self.key_of(j, alias).is_some())
            .collect()
    }

    /// Aliases that carry more than one local predicate or at least one complex
    /// predicate — the datasets the dynamic approach pushes down and executes
    /// first (Algorithm 1, lines 6-9).
    pub fn pushdown_candidates(&self) -> Vec<String> {
        self.aliases()
            .into_iter()
            .filter(|alias| {
                let preds = self.predicates_for(alias);
                preds.len() > 1 || preds.iter().any(|p| p.is_complex())
            })
            .map(|s| s.to_string())
            .collect()
    }

    /// Columns of `alias` needed by the rest of the query: the projection list,
    /// every join key of the alias, and (unless `include_predicates` is false)
    /// the columns of its local predicates. This is the paper's rule for the
    /// SELECT clause of the pushed-down single-variable queries: "the SELECT
    /// clause is defined by attributes that participate in the remaining query".
    pub fn required_columns(&self, alias: &str, include_predicates: bool) -> Vec<FieldRef> {
        let mut out: BTreeSet<FieldRef> = BTreeSet::new();
        for p in &self.projection {
            if self.home_of(p) == alias {
                out.insert(p.clone());
            }
        }
        for j in &self.joins {
            if let Some(k) = self.key_of(j, alias) {
                out.insert(k.clone());
            }
        }
        if include_predicates {
            for p in self.predicates_for(alias) {
                out.insert(p.field().clone());
            }
        }
        out.into_iter().collect()
    }

    /// Join-key columns per alias holding them (used to decide which columns
    /// need statistics).
    pub fn join_key_columns(&self) -> HashMap<String, Vec<FieldRef>> {
        let mut out: HashMap<String, BTreeSet<FieldRef>> = HashMap::new();
        for j in &self.joins {
            for key in [&j.left, &j.right] {
                out.entry(self.home_of(key).to_string())
                    .or_default()
                    .insert(key.clone());
            }
        }
        out.into_iter()
            .map(|(k, v)| (k, v.into_iter().collect()))
            .collect()
    }

    /// Validates the query: every predicate and join references a known alias,
    /// there are at least two datasets when joins are present, and the join
    /// graph is connected (no cross products, which the paper excludes).
    pub fn validate(&self) -> Result<()> {
        let aliases: HashSet<&str> = self.aliases().into_iter().collect();
        if aliases.len() != self.datasets.len() {
            return Err(RdoError::InvalidQuery("duplicate dataset alias".into()));
        }
        for p in &self.predicates {
            if !aliases.contains(p.dataset()) {
                return Err(RdoError::InvalidQuery(format!(
                    "predicate on unknown dataset {}",
                    p.dataset()
                )));
            }
        }
        for j in &self.joins {
            let (l, r) = self.join_homes(j);
            if !aliases.contains(l) || !aliases.contains(r) {
                return Err(RdoError::InvalidQuery(format!(
                    "join references unknown dataset: {}",
                    j.describe()
                )));
            }
            if l == r {
                return Err(RdoError::InvalidQuery(format!(
                    "self-join condition not supported: {}",
                    j.describe()
                )));
            }
        }
        if self.datasets.len() > 1 && !self.is_connected() {
            return Err(RdoError::InvalidQuery(
                "join graph is not connected (cross products are not supported)".into(),
            ));
        }
        Ok(())
    }

    /// True if the join graph spans all datasets.
    pub fn is_connected(&self) -> bool {
        if self.datasets.is_empty() {
            return true;
        }
        let mut reached: HashSet<&str> = HashSet::new();
        reached.insert(&self.datasets[0].alias);
        let mut changed = true;
        while changed {
            changed = false;
            for j in &self.joins {
                let (l, r) = self.join_homes(j);
                let has_l = reached.contains(l);
                let has_r = reached.contains(r);
                if has_l && !has_r {
                    reached.insert(r);
                    changed = true;
                } else if has_r && !has_l {
                    reached.insert(l);
                    changed = true;
                }
            }
        }
        reached.len() == self.datasets.len()
    }

    /// Number of joins.
    pub fn join_count(&self) -> usize {
        self.joins.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_exec::CmpOp;

    fn three_way() -> QuerySpec {
        QuerySpec::new("q")
            .with_dataset(DatasetRef::named("a"))
            .with_dataset(DatasetRef::named("b"))
            .with_dataset(DatasetRef::named("c"))
            .with_join(FieldRef::new("a", "x"), FieldRef::new("b", "x"))
            .with_join(FieldRef::new("b", "y"), FieldRef::new("c", "y"))
            .with_predicate(Predicate::compare(
                FieldRef::new("a", "v"),
                CmpOp::Lt,
                10i64,
            ))
            .with_projection(vec![FieldRef::new("a", "v")])
    }

    #[test]
    fn builder_and_lookup() {
        let q = three_way();
        assert_eq!(q.aliases(), vec!["a", "b", "c"]);
        assert_eq!(q.table_of("a").unwrap(), "a");
        assert!(q.table_of("zzz").is_err());
        assert_eq!(q.predicates_for("a").len(), 1);
        assert!(q.predicates_for("b").is_empty());
        assert_eq!(q.joins_involving("b").len(), 2);
        assert_eq!(q.join_count(), 2);
    }

    #[test]
    fn validation_accepts_connected_query() {
        assert!(three_way().validate().is_ok());
    }

    #[test]
    fn validation_rejects_cross_product() {
        let q = QuerySpec::new("q")
            .with_dataset(DatasetRef::named("a"))
            .with_dataset(DatasetRef::named("b"));
        assert!(q.validate().is_err());
    }

    #[test]
    fn validation_rejects_unknown_alias() {
        let q = three_way().with_join(FieldRef::new("a", "x"), FieldRef::new("zzz", "x"));
        assert!(q.validate().is_err());
        let q2 = three_way().with_predicate(Predicate::compare(
            FieldRef::new("zzz", "v"),
            CmpOp::Eq,
            1i64,
        ));
        assert!(q2.validate().is_err());
    }

    #[test]
    fn validation_rejects_duplicate_alias() {
        let q = three_way().with_dataset(DatasetRef::named("a"));
        assert!(q.validate().is_err());
    }

    #[test]
    fn validation_rejects_self_join() {
        let q = three_way().with_join(FieldRef::new("a", "x"), FieldRef::new("a", "y"));
        assert!(q.validate().is_err());
    }

    #[test]
    fn aliased_datasets() {
        let q = QuerySpec::new("q")
            .with_dataset(DatasetRef::aliased("d1", "date_dim"))
            .with_dataset(DatasetRef::named("store_sales"))
            .with_join(
                FieldRef::new("d1", "d_date_sk"),
                FieldRef::new("store_sales", "ss_sold_date_sk"),
            );
        assert!(q.validate().is_ok());
        assert_eq!(q.table_of("d1").unwrap(), "date_dim");
    }

    #[test]
    fn pushdown_candidates_require_multiple_or_complex_predicates() {
        // a has only one simple predicate → not a candidate.
        assert!(three_way().pushdown_candidates().is_empty());
        // two predicates on a → candidate.
        let q = three_way().with_predicate(Predicate::compare(
            FieldRef::new("a", "w"),
            CmpOp::Gt,
            5i64,
        ));
        assert_eq!(q.pushdown_candidates(), vec!["a".to_string()]);
        // A single UDF on c → candidate.
        let q2 = three_way().with_predicate(Predicate::udf("f", FieldRef::new("c", "z"), |_| true));
        assert_eq!(q2.pushdown_candidates(), vec!["c".to_string()]);
    }

    #[test]
    fn required_columns_cover_projection_joins_and_predicates() {
        let q = three_way();
        let cols = q.required_columns("a", true);
        assert!(cols.contains(&FieldRef::new("a", "v")));
        assert!(cols.contains(&FieldRef::new("a", "x")));
        assert_eq!(cols.len(), 2);
        let cols_no_pred = q.required_columns("b", false);
        assert_eq!(
            cols_no_pred,
            vec![FieldRef::new("b", "x"), FieldRef::new("b", "y")]
        );
    }

    #[test]
    fn join_key_columns_per_alias() {
        let q = three_way();
        let keys = q.join_key_columns();
        assert_eq!(keys["a"], vec![FieldRef::new("a", "x")]);
        assert_eq!(
            keys["b"],
            vec![FieldRef::new("b", "x"), FieldRef::new("b", "y")]
        );
    }

    #[test]
    fn join_condition_helpers() {
        let q = three_way();
        let j = &q.joins[0];
        assert_eq!(q.join_homes(j), ("a", "b"));
        assert_eq!(q.key_of(j, "a"), Some(&FieldRef::new("a", "x")));
        assert_eq!(q.key_of(j, "b"), Some(&FieldRef::new("b", "x")));
        assert!(q.key_of(j, "c").is_none());
        assert_eq!(j.describe(), "a.x = b.x");
    }

    /// An intermediate holding `a` and `b` is where their columns now live;
    /// the columns themselves keep their bound identity.
    #[test]
    fn columns_are_found_through_the_dataset_holding_them() {
        let mut q = three_way();
        q.datasets.drain(..2);
        q.datasets.insert(
            0,
            DatasetRef::intermediate("I1", vec!["a".into(), "b".into()]),
        );
        q.joins.remove(0);
        let j = &q.joins[0];
        assert_eq!(q.join_homes(j), ("I1", "c"));
        assert_eq!(q.key_of(j, "I1"), Some(&FieldRef::new("b", "y")));
        assert_eq!(
            q.required_columns("I1", false),
            vec![FieldRef::new("a", "v"), FieldRef::new("b", "y")]
        );
        assert_eq!(q.join_key_columns()["I1"], vec![FieldRef::new("b", "y")]);
        assert_eq!(q.joins_involving("I1").len(), 1);
    }
}

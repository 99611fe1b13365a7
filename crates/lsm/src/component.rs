//! Immutable LSM components.
//!
//! A component is the unit AsterixDB's LSM storage writes on flush and rewrites
//! on merge: an immutable run of rows sorted by primary key, together with the
//! statistical sketches collected while it was written. The paper exploits
//! exactly this property — "we exploit AsterixDB's LSM ingestion process to get
//! initial statistics for base datasets" — so every [`Component`] carries its
//! own [`DatasetStats`] and the corresponding mergeable builder.

use rdo_common::{RdoError, Result, Schema, Tuple, Value};
use rdo_sketch::{DatasetStats, DatasetStatsBuilder};
use std::fmt;

/// Identifier of a component within one LSM dataset (monotonically increasing;
/// higher ids contain newer data).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub u64);

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// An immutable sorted run of rows plus its ingestion-time statistics.
#[derive(Debug, Clone)]
pub struct Component {
    id: ComponentId,
    /// How many merges produced this component (0 = flushed directly).
    generation: usize,
    key_index: usize,
    rows: Vec<Tuple>,
    min_key: Value,
    max_key: Value,
    bytes: usize,
    stats_builder: DatasetStatsBuilder,
    stats: DatasetStats,
}

impl Component {
    /// Builds a component from rows already sorted by the key column and with
    /// unique keys (the memtable guarantees both). Statistics over every column
    /// are collected while the component is written, exactly once per row.
    pub fn from_sorted_rows(
        id: ComponentId,
        generation: usize,
        schema: &Schema,
        key_index: usize,
        rows: Vec<Tuple>,
    ) -> Result<Self> {
        if rows.is_empty() {
            return Err(RdoError::Execution(
                "refusing to create an empty LSM component".into(),
            ));
        }
        debug_assert!(
            rows.windows(2)
                .all(|w| w[0].value(key_index) < w[1].value(key_index)),
            "component rows must be sorted by unique key"
        );
        let mut builder = DatasetStatsBuilder::all_columns(schema);
        let mut bytes = 0usize;
        for row in &rows {
            builder.observe(row);
            bytes += row.approx_bytes();
        }
        let stats = builder.clone().build();
        let min_key = rows.first().expect("non-empty").value(key_index).clone();
        let max_key = rows.last().expect("non-empty").value(key_index).clone();
        Ok(Self {
            id,
            generation,
            key_index,
            rows,
            min_key,
            max_key,
            bytes,
            stats_builder: builder,
            stats,
        })
    }

    /// Merges older components into one new component. `inputs` must be ordered
    /// oldest → newest; when the same key appears in several inputs the newest
    /// version wins (LSM shadowing).
    pub fn merge_of(
        id: ComponentId,
        schema: &Schema,
        key_index: usize,
        inputs: &[&Component],
    ) -> Result<Self> {
        if inputs.is_empty() {
            return Err(RdoError::Execution("cannot merge zero components".into()));
        }
        // Newest versions win: walk the inputs from newest to oldest and keep
        // the first occurrence of each key.
        let mut merged: std::collections::BTreeMap<Value, Tuple> =
            std::collections::BTreeMap::new();
        for component in inputs.iter().rev() {
            for row in &component.rows {
                let key = row.value(key_index).clone();
                merged.entry(key).or_insert_with(|| row.clone());
            }
        }
        let generation = inputs.iter().map(|c| c.generation).max().unwrap_or(0) + 1;
        Self::from_sorted_rows(
            id,
            generation,
            schema,
            key_index,
            merged.into_values().collect(),
        )
    }

    /// Component identifier.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// Merge generation (0 for a flush).
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the component holds no rows (never constructed, kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate bytes of the component.
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// The rows, sorted by key.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// The smallest and largest key in the component.
    pub fn key_range(&self) -> (&Value, &Value) {
        (&self.min_key, &self.max_key)
    }

    /// True if the key ranges of two components overlap.
    pub fn overlaps(&self, other: &Component) -> bool {
        !(self.max_key < other.min_key || other.max_key < self.min_key)
    }

    /// Point lookup by primary key (binary search over the sorted run).
    pub fn get(&self, key: &Value) -> Option<&Tuple> {
        if key < &self.min_key || key > &self.max_key {
            return None;
        }
        self.rows
            .binary_search_by(|row| row.value(self.key_index).cmp(key))
            .ok()
            .map(|idx| &self.rows[idx])
    }

    /// The component's ingestion-time statistics.
    pub fn stats(&self) -> &DatasetStats {
        &self.stats
    }

    /// The mergeable statistics builder (used to derive dataset-level
    /// statistics without rescanning the data).
    pub fn stats_builder(&self) -> &DatasetStatsBuilder {
        &self.stats_builder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, FieldRef};

    fn schema() -> Schema {
        Schema::for_dataset("t", &[("id", DataType::Int64), ("v", DataType::Int64)])
    }

    fn rows(range: std::ops::Range<i64>, v_offset: i64) -> Vec<Tuple> {
        range
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i + v_offset)]))
            .collect()
    }

    #[test]
    fn component_collects_stats_and_key_range() {
        let c =
            Component::from_sorted_rows(ComponentId(1), 0, &schema(), 0, rows(0..100, 0)).unwrap();
        assert_eq!(c.len(), 100);
        assert_eq!(c.key_range(), (&Value::Int64(0), &Value::Int64(99)));
        assert_eq!(c.stats().row_count, 100);
        assert!(c.stats().column(&FieldRef::new("t", "id")).is_some());
        assert!(c.approx_bytes() > 0);
        assert_eq!(c.generation(), 0);
        assert_eq!(c.id().to_string(), "c1");
        assert!(!c.is_empty());
    }

    #[test]
    fn empty_component_rejected() {
        assert!(Component::from_sorted_rows(ComponentId(1), 0, &schema(), 0, vec![]).is_err());
    }

    #[test]
    fn point_lookup_hits_and_misses() {
        let c =
            Component::from_sorted_rows(ComponentId(1), 0, &schema(), 0, rows(10..20, 5)).unwrap();
        assert_eq!(
            c.get(&Value::Int64(12)).unwrap().value(1),
            &Value::Int64(17)
        );
        assert!(c.get(&Value::Int64(9)).is_none());
        assert!(c.get(&Value::Int64(25)).is_none());
    }

    #[test]
    fn overlap_detection() {
        let a =
            Component::from_sorted_rows(ComponentId(1), 0, &schema(), 0, rows(0..10, 0)).unwrap();
        let b =
            Component::from_sorted_rows(ComponentId(2), 0, &schema(), 0, rows(5..15, 0)).unwrap();
        let c =
            Component::from_sorted_rows(ComponentId(3), 0, &schema(), 0, rows(20..30, 0)).unwrap();
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn merge_keeps_newest_version_of_duplicate_keys() {
        let old =
            Component::from_sorted_rows(ComponentId(1), 0, &schema(), 0, rows(0..10, 0)).unwrap();
        let new =
            Component::from_sorted_rows(ComponentId(2), 0, &schema(), 0, rows(5..15, 100)).unwrap();
        let merged = Component::merge_of(ComponentId(3), &schema(), 0, &[&old, &new]).unwrap();
        assert_eq!(merged.len(), 15);
        assert_eq!(merged.generation(), 1);
        // Key 7 exists in both; the newer component's value (7 + 100) wins.
        assert_eq!(
            merged.get(&Value::Int64(7)).unwrap().value(1),
            &Value::Int64(107)
        );
        // Key 2 only exists in the old component.
        assert_eq!(
            merged.get(&Value::Int64(2)).unwrap().value(1),
            &Value::Int64(2)
        );
    }

    #[test]
    fn merge_of_nothing_is_an_error() {
        assert!(Component::merge_of(ComponentId(1), &schema(), 0, &[]).is_err());
    }

    #[test]
    fn merged_component_stats_cover_all_rows() {
        let a =
            Component::from_sorted_rows(ComponentId(1), 0, &schema(), 0, rows(0..500, 0)).unwrap();
        let b = Component::from_sorted_rows(ComponentId(2), 0, &schema(), 0, rows(500..1000, 0))
            .unwrap();
        let merged = Component::merge_of(ComponentId(3), &schema(), 0, &[&a, &b]).unwrap();
        assert_eq!(merged.stats().row_count, 1000);
        let distinct = merged
            .stats()
            .column(&FieldRef::new("t", "id"))
            .unwrap()
            .distinct as f64;
        assert!(
            (distinct - 1000.0).abs() / 1000.0 < 0.05,
            "distinct {distinct}"
        );
    }
}

//! Partitioned storage for the simulated shared-nothing cluster.
//!
//! AsterixDB hash-partitions every dataset across the nodes of the cluster and
//! collects statistical sketches while ingesting (its LSM load pipeline). This
//! crate reproduces that substrate: a [`Table`] is a set of hash partitions
//! (resident as columnar batch runs, or spilled to the paged disk store of
//! `rdo-spill`), a
//! [`Catalog`] owns tables, their secondary indexes and the ingestion-time
//! [`rdo_sketch::StatsCatalog`], and intermediate results produced at
//! re-optimization points
//! are registered as temporary tables — kept resident or spilled to disk
//! according to the catalog's memory budget ([`Catalog::configure_spill`],
//! `RDO_SPILL_BUDGET`).

pub mod catalog;
pub mod index;
pub mod table;

pub use catalog::{Catalog, IngestOptions, StoredIntermediate};
pub use index::{RowAddr, SecondaryIndex};
pub use table::Table;

// Spill-layer types surfaced through the storage API so downstream crates
// need no direct `rdo-spill` dependency.
pub use rdo_spill::{
    PoolDiagnostics, SpillConfig, SpillManager, SpillPartitionWriter, SpillReadTally,
    SpillWriteTally, SpilledPartitions, JOIN_BUDGET_ENV, SPILL_BUDGET_ENV,
};

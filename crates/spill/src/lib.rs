//! Disk-backed materialization for out-of-core intermediate results.
//!
//! The paper's dynamic optimizer materializes the chosen join's result at
//! every re-optimization point and its cost model explicitly charges for
//! *writing and reading those materialized intermediates*. Before this crate
//! the reproduction kept every intermediate as an in-memory `Vec<Tuple>`, so
//! those charges were simulated numbers and the scale factor was capped by
//! RAM. `rdo-spill` makes them physical:
//!
//! ```text
//!        Sink (materialize at a re-optimization point)
//!                         │
//!              SpillManager::wants_spill?          (budget policy:
//!                 │ no            │ yes             RDO_SPILL_BUDGET /
//!                 ▼               ▼                 DynamicConfig.spill)
//!        in-memory Table    SpilledPartitions
//!                                 │ pages (cut from column slices)
//!                                 ▼
//!                           BufferPool              (fixed frames, CLOCK
//!                                 │ pin/unpin,       second-chance,
//!                                 │ dirty writeback  pinned never evicted)
//!                                 ▼
//!                        intermediate-N.pages       (one file per table,
//!                                                    deleted on drop)
//! ```
//!
//! * [`codec`] — the row codec: exact binary roundtrip for `Value`/`Tuple`
//!   (NULLs, NaN bit patterns, strings of any length). Its per-row length is
//!   the unit every page boundary and logical byte counter is measured in,
//!   read straight off the columns of a batch (`codec::encoded_row_lens`).
//! * [`colcodec`] — the columnar page layout: the same rows stored as
//!   column runs — one type tag, a null bitmap and contiguous payloads per
//!   column, encoded and decoded a column slice at a time — so the LZ
//!   compressor sees same-type byte runs. Page boundaries, row counts and
//!   logical byte counters stay identical to the row codec's. A page is
//!   encoded once, in one layout, fixed before encoding: columnar, except
//!   tail pages under 1 KiB.
//! * [`compress`] — the dependency-free LZ page codec every page goes
//!   through: pages that shrink are stored compressed, the rest raw, with
//!   both stored and logical byte volumes reported.
//! * [`buffer`] — the fixed-frame [`BufferPool`]: CLOCK eviction, pin/unpin,
//!   dirty-page writeback, graceful bypass when every frame is pinned, and
//!   `prefetch_page` for the scan read-ahead.
//! * [`store`] — [`SpilledPartitions`], the paged per-partition store with
//!   a streaming `scan_batches` API the executors feed through the
//!   per-partition kernels (with a two-page read-ahead),
//!   and [`SpillPartitionWriter`], the batch-native partition router — it
//!   takes whole batches or `(partition, slot)` routes, cuts a page per
//!   partition as it fills, and keeps its transient footprint bounded by
//!   partitions × page size. `append(&Tuple)` and `read_partition` are the
//!   row edge for callers holding tuples.
//! * [`manager`] — [`SpillManager`] (budget accounting, temp-dir ownership,
//!   the shared pool) and [`SpillConfig`] (`RDO_SPILL_BUDGET`,
//!   `RDO_JOIN_BUDGET` and the page size).
//!
//! The counters the subsystem reports ([`SpillWriteTally`] /
//! [`SpillReadTally`]) are *logical* page traffic — a pure function of the
//! spilled rows and the page size — so execution metrics stay
//! bit-identical for every worker count even though the buffer pool's
//! physical hit/miss/prefetch behaviour varies.
//!
//! # Example
//!
//! Spill two partitions to disk through a tiny buffer pool and stream them
//! back, byte-exact:
//!
//! ```
//! use rdo_common::{Tuple, Value};
//! use rdo_spill::{SpillConfig, SpillManager, SpilledPartitions};
//! use std::sync::Arc;
//!
//! let manager = SpillManager::create(
//!     SpillConfig::default().with_budget(1).with_page_size(512),
//! ).unwrap();
//! let partitions: Vec<Vec<Tuple>> = (0..2)
//!     .map(|p| {
//!         (0..100)
//!             .map(|i| Tuple::new(vec![
//!                 Value::Int64(p * 100 + i),
//!                 Value::Utf8(format!("row-{p}-{i}")),
//!             ]))
//!             .collect()
//!     })
//!     .collect();
//!
//! let (store, tally) = SpilledPartitions::write(Arc::clone(&manager), &partitions).unwrap();
//! assert!(tally.pages > 0, "rows went to disk pages");
//! for (p, expected) in partitions.iter().enumerate() {
//!     assert_eq!(&store.read_partition(p).unwrap(), expected, "exact roundtrip");
//! }
//!
//! // Dropping the store deletes its spill file.
//! let dir = manager.dir().to_path_buf();
//! drop(store);
//! assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod codec;
pub mod colcodec;
pub mod compress;
pub mod manager;
pub mod store;

pub use buffer::{BufferPool, PoolDiagnostics, SpillFile};
pub use colcodec::{decode_batch, encode_batch};
pub use manager::{
    SpillConfig, SpillManager, SpillReadTally, SpillWriteTally, DEFAULT_PAGE_SIZE, JOIN_BUDGET_ENV,
    SPILL_BUDGET_ENV,
};
pub use store::{SpillPartitionWriter, SpilledPartitions};

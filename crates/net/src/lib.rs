//! Distributed multi-process exchange backend for the simulated cluster.
//!
//! Four PRs of subsystems made the cluster's *data* model real (partitioned
//! storage, spillable intermediates, grace joins); this crate makes the
//! cluster's *network* real. It backs the exchange operators of
//! [`rdo_parallel::exchange`] — `HashRepartition`, `Broadcast`, `Gather` —
//! with a length-prefixed TCP protocol across OS processes, behind the
//! [`rdo_parallel::Transport`] seam:
//!
//! * The **coordinator** process plans, re-optimizes and runs the join
//!   kernels exactly as before; only the exchange data movements change
//!   route. [`TcpTransport`] implements the seam over one persistent
//!   connection per worker.
//! * Each **worker** process ([`worker_main`]) serves a contiguous partition
//!   range: it decodes incoming page batches, runs the shared bucketing
//!   kernel of [`rdo_exec::partition`], and streams results back. Workers
//!   are stateless between exchanges, so a worker crash costs a query, never
//!   the dataset.
//! * Tuples travel as **framed page batches** reusing the `rdo-spill` tuple
//!   page codecs and LZ page compression on the wire
//!   ([`frame`]), so a row that crosses a socket round-trips byte-exactly —
//!   NaN bit patterns and all.
//!
//! Selection is by configuration, not code: `RDO_TRANSPORT=tcp` plus a
//! worker list in `RDO_NET_WORKERS` routes every exchange through the
//! cluster ([`transport_from_config`]); the default stays in-process.
//! Results, plans and logical metrics are bit-identical either way — the
//! `distributed_equivalence` suite pins Q8/Q9/Q17/Q50 at 1/2/4 worker
//! processes, and `examples/distributed.rs` is a runnable harness.
//!
//! # Example
//!
//! Serve one worker on a background thread (processes work the same, see
//! [`LocalCluster`]) and run a repartition exchange through it:
//!
//! ```
//! use rdo_common::{DataType, Schema, Tuple, Value};
//! use rdo_exec::PartitionedData;
//! use rdo_net::{shutdown_workers, TcpTransport};
//! use rdo_parallel::{HashRepartition, InProcessTransport, Transport, WorkerPool};
//! use std::net::TcpListener;
//!
//! // A tiny 4-partition dataset, partitioned on nothing in particular.
//! let schema = Schema::for_dataset("t", &[("k", DataType::Int64)]);
//! let parts = (0..4)
//!     .map(|p| (0..50).map(|i| Tuple::new(vec![Value::Int64(p + 4 * i)])).collect())
//!     .collect();
//! let data = PartitionedData::from_rows(schema, parts, None);
//!
//! // One worker, served from a thread.
//! let listener = TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! let worker = std::thread::spawn(move || rdo_net::serve(listener));
//!
//! // The same exchange through both transports is bit-identical.
//! let exchange = HashRepartition::new(0, "t.k");
//! let pool = WorkerPool::new(1);
//! let (expected, expected_rows, _) =
//!     InProcessTransport.repartition(&exchange, &data, &pool).unwrap();
//! let tcp = TcpTransport::connect(&[addr]).unwrap();
//! let (actual, rows, _) = tcp.repartition(&exchange, &data, &pool).unwrap();
//! assert_eq!(actual.to_rows(), expected.to_rows());
//! assert_eq!(rows, expected_rows);
//! assert!(tcp.stats().bytes_sent > 0, "tuples really used the socket");
//!
//! shutdown_workers(&[addr]).unwrap();
//! worker.join().unwrap().unwrap();
//! ```

#![warn(missing_docs)]

pub mod cluster;
pub mod frame;
pub mod transport;
pub mod worker;

pub use cluster::{shutdown_workers, LocalCluster};
pub use transport::{
    parse_worker_addrs, transport_from_config, TcpTransport, WireStats, WORKER_ADDRS_ENV,
};
pub use worker::{
    maybe_worker, serve, worker_main, ADDR_ANNOUNCE_PREFIX, LISTEN_ENV, WORKER_MODE_ENV,
};

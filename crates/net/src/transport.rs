//! The coordinator-side TCP transport.
//!
//! [`TcpTransport`] implements the [`rdo_exec::Transport`] seam over a
//! set of worker processes, one persistent connection per worker. Partitions
//! are assigned to workers as contiguous ranges (`owner(p) = p·W / n` for `n`
//! partitions over `W` workers), and every exchange moves its tuples as
//! framed page batches through the partition's owner. The wire format ships
//! tuples, so this transport is an explicit row edge: each exchange
//! materializes the partitions it sends ([`PartitionedData::partition_rows`])
//! and re-chunks what it receives ([`PartitionedData::from_rows`]):
//!
//! * **Repartition** — each source partition streams to its owner, the owner
//!   runs the shared bucketing kernel and streams the buckets back with the
//!   kernel's moved-rows/moved-bytes tally; the coordinator concatenates
//!   buckets in source-partition order, exactly like the in-process exchange.
//! * **Broadcast** — the full build side streams to *every* worker (the
//!   replication a real cluster pays); each worker acknowledges its replica's
//!   row count, and the reported metrics use the same logical
//!   `rows × partitions` charge as the in-process exchange.
//! * **Gather** — each partition round-trips through its owner so result
//!   delivery crosses the same links a real cluster's gather would, and the
//!   rows arrive back on the coordinator in partition order.
//!
//! Because the wire codec round-trip is exact and the kernels are shared,
//! results, plans and logical metrics are bit-identical to
//! [`rdo_exec::InProcessTransport`] at every worker count — the
//! `distributed_equivalence` suite pins this.

use crate::frame::read_page_batch;
use crate::frame::{expect_frame, payload, write_frame, write_page_batch, Tag};
use crate::worker::read_bucketed_response;
use rdo_common::{Batch, RdoError, Relation, Result, Tuple};
use rdo_exec::{
    Broadcast, HashRepartition, InProcessTransport, ParallelConfig, PartitionedData, Transport,
    TransportKind, WorkerPool,
};
use rdo_spill::compress::LzScratch;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable listing the worker addresses the TCP transport
/// connects to (comma-separated `host:port` pairs). Required when
/// `RDO_TRANSPORT=tcp`; when missing, the transport resolver warns and falls
/// back to in-process exchanges.
pub const WORKER_ADDRS_ENV: &str = "RDO_NET_WORKERS";

/// Wire-traffic counters of one [`TcpTransport`] (monotonic, in bytes).
/// Physical diagnostics only — never part of the logical
/// [`rdo_exec::ExecutionMetrics`], which stay transport-invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Bytes written to worker sockets.
    pub bytes_sent: u64,
    /// Bytes read back from worker sockets.
    pub bytes_received: u64,
}

/// Byte-counting wrapper so the transport can report real wire volume.
struct Counting<T> {
    inner: T,
    counter: Arc<AtomicU64>,
}

impl<T: Read> Read for Counting<T> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.counter.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl<T: Write> Write for Counting<T> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.counter.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

/// One worker connection (locked per exchange; a transport is driven from
/// the coordinator thread, the mutex makes sharing an `Arc<TcpTransport>`
/// across executors sound).
struct WorkerConn {
    reader: BufReader<Counting<TcpStream>>,
    writer: BufWriter<Counting<TcpStream>>,
    scratch: LzScratch,
}

impl WorkerConn {
    fn ping(&mut self) -> Result<()> {
        write_frame(&mut self.writer, Tag::Ping, &[])?;
        self.writer.flush()?;
        let (tag, _) = expect_frame(&mut self.reader)?;
        if tag != Tag::Ack {
            return Err(RdoError::Execution(format!(
                "worker handshake: expected Ack, got {tag:?}"
            )));
        }
        Ok(())
    }
}

/// The TCP implementation of the exchange [`Transport`] seam. See the module
/// docs for the wire topology of each exchange.
pub struct TcpTransport {
    addrs: Vec<SocketAddr>,
    conns: Vec<Mutex<WorkerConn>>,
    bytes_sent: Arc<AtomicU64>,
    bytes_received: Arc<AtomicU64>,
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("workers", &self.addrs)
            .field("stats", &self.stats())
            .finish()
    }
}

impl TcpTransport {
    /// Connects to the given worker processes and verifies each one answers
    /// a liveness ping.
    pub fn connect(addrs: &[SocketAddr]) -> Result<Self> {
        if addrs.is_empty() {
            return Err(RdoError::Execution(
                "TcpTransport::connect: empty worker list".to_string(),
            ));
        }
        let bytes_sent = Arc::new(AtomicU64::new(0));
        let bytes_received = Arc::new(AtomicU64::new(0));
        let mut conns = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let stream = TcpStream::connect(addr)
                .map_err(|e| RdoError::Io(format!("connect worker {addr}: {e}")))?;
            stream.set_nodelay(true)?;
            let mut conn = WorkerConn {
                reader: BufReader::new(Counting {
                    inner: stream.try_clone()?,
                    counter: Arc::clone(&bytes_received),
                }),
                writer: BufWriter::new(Counting {
                    inner: stream,
                    counter: Arc::clone(&bytes_sent),
                }),
                scratch: LzScratch::new(),
            };
            conn.ping()?;
            conns.push(Mutex::new(conn));
        }
        Ok(Self {
            addrs: addrs.to_vec(),
            conns,
            bytes_sent,
            bytes_received,
        })
    }

    /// Number of worker processes behind the transport.
    pub fn num_workers(&self) -> usize {
        self.conns.len()
    }

    /// Wire-traffic counters accumulated so far.
    pub fn stats(&self) -> WireStats {
        WireStats {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
        }
    }

    /// Records the wire bytes an exchange moved: as attributes on its span
    /// and as sum-merged counters (so the totals survive into the metrics
    /// exposition).
    fn record_wire_delta(&self, span: &mut rdo_trace::SpanGuard, before: WireStats) {
        let after = self.stats();
        let sent = after.bytes_sent.saturating_sub(before.bytes_sent);
        let received = after.bytes_received.saturating_sub(before.bytes_received);
        span.attr_u64("wire_sent", sent);
        span.attr_u64("wire_received", received);
        rdo_trace::counter("net.bytes_sent", sent);
        rdo_trace::counter("net.bytes_received", received);
    }

    /// The worker owning partition `p` of `n`: contiguous ranges, first
    /// partitions to the first worker.
    fn owner(&self, p: usize, n: usize) -> usize {
        debug_assert!(p < n);
        p * self.conns.len() / n.max(1)
    }

    /// Runs `task` once per worker on scoped threads, handing each its own
    /// locked connection and the list of partitions it owns. Results come
    /// back per worker; a failed worker yields its error. Partition-indexed
    /// outputs are returned tagged so callers can reassemble them in
    /// deterministic partition order regardless of thread interleaving.
    fn per_worker<T: Send>(
        &self,
        num_partitions: usize,
        task: impl Fn(&mut WorkerConn, &[usize]) -> Result<Vec<T>> + Sync,
    ) -> Result<Vec<T>> {
        let mut owned: Vec<Vec<usize>> = vec![Vec::new(); self.conns.len()];
        for p in 0..num_partitions {
            owned[self.owner(p, num_partitions)].push(p);
        }
        // Spans opened on the exchange threads (and updates adopted from the
        // workers' tally frames) stitch under the caller's exchange span.
        let trace_ctx = rdo_trace::TaskContext::capture();
        let results: Vec<Result<Vec<T>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .conns
                .iter()
                .zip(&owned)
                .zip(&self.addrs)
                .map(|((conn, partitions), addr)| {
                    let task = &task;
                    let trace_ctx = &trace_ctx;
                    scope.spawn(move || {
                        let _trace = trace_ctx.install();
                        let mut span = rdo_trace::span("net.worker");
                        span.attr_str("addr", &addr.to_string());
                        span.attr_u64("partitions", partitions.len() as u64);
                        let mut conn = conn.lock().map_err(|_| {
                            RdoError::Execution("worker connection poisoned".to_string())
                        })?;
                        task(&mut conn, partitions)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(RdoError::Execution(
                            "worker exchange thread panicked".to_string(),
                        ))
                    })
                })
                .collect()
        });
        let mut out = Vec::new();
        for result in results {
            out.extend(result?);
        }
        Ok(out)
    }
}

impl Transport for TcpTransport {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn repartition(
        &self,
        exchange: &HashRepartition,
        data: &PartitionedData,
        _pool: &WorkerPool,
    ) -> Result<(PartitionedData, u64, u64)> {
        let n = data.num_partitions();
        let mut span = rdo_trace::span("net.repartition");
        span.attr_u64("partitions", n as u64);
        let wire_before = self.stats();
        /// One source partition's worker response: its output buckets plus
        /// the kernel's `(moved_rows, moved_bytes)` tally.
        type Bucketed = (Vec<Vec<Tuple>>, u64, u64);
        let tagged: Vec<(usize, Bucketed)> = self.per_worker(n, |conn, partitions| {
            let mut out = Vec::with_capacity(partitions.len());
            for &from in partitions {
                rdo_trace::counter("net.frames", 1);
                let mut header = Vec::with_capacity(12);
                header.extend_from_slice(&(exchange.key_index as u32).to_le_bytes());
                header.extend_from_slice(&(from as u32).to_le_bytes());
                header.extend_from_slice(&(n as u32).to_le_bytes());
                write_frame(&mut conn.writer, Tag::Repartition, &header)?;
                write_page_batch(
                    &mut conn.writer,
                    Tag::Page,
                    &[],
                    &data.partition_rows(from),
                    true,
                    true,
                    &mut conn.scratch,
                )?;
                conn.writer.flush()?;
                out.push((from, read_bucketed_response(&mut conn.reader, n)?));
            }
            Ok(out)
        })?;
        self.record_wire_delta(&mut span, wire_before);

        // Reassemble exactly like the in-process exchange: buckets
        // concatenated in source-partition order, so the output is
        // independent of worker interleaving.
        let mut bucketed: Vec<Option<Bucketed>> = (0..n).map(|_| None).collect();
        for (from, result) in tagged {
            bucketed[from] = Some(result);
        }
        let mut new_partitions: Vec<Vec<Tuple>> = vec![Vec::new(); n];
        let mut moved_rows = 0u64;
        let mut moved_bytes = 0u64;
        for slot in bucketed {
            let (buckets, rows, bytes) = slot.ok_or_else(|| {
                RdoError::Execution("repartition lost a source partition".to_string())
            })?;
            moved_rows += rows;
            moved_bytes += bytes;
            for (to, mut bucket) in buckets.into_iter().enumerate() {
                new_partitions[to].append(&mut bucket);
            }
        }
        Ok((
            PartitionedData::from_rows(
                data.schema().clone(),
                new_partitions,
                Some(exchange.key_index),
            ),
            moved_rows,
            moved_bytes,
        ))
    }

    fn broadcast(
        &self,
        exchange: &Broadcast,
        data: &PartitionedData,
    ) -> Result<(Vec<Batch>, u64, u64)> {
        let rows = data.gather().into_rows();
        let mut span = rdo_trace::span("net.broadcast");
        span.attr_u64("rows", rows.len() as u64);
        let wire_before = self.stats();
        // Ship a full replica to every worker; each acknowledges the row
        // count it decoded.
        let acks: Vec<u64> = self.per_worker(self.conns.len(), |conn, _| {
            rdo_trace::counter("net.frames", 1);
            write_frame(&mut conn.writer, Tag::Broadcast, &[])?;
            write_page_batch(
                &mut conn.writer,
                Tag::Page,
                &[],
                &rows,
                true,
                true,
                &mut conn.scratch,
            )?;
            conn.writer.flush()?;
            let (tag, ack) = expect_frame(&mut conn.reader)?;
            if tag != Tag::Ack {
                return Err(RdoError::Execution(format!(
                    "broadcast: expected Ack, got {tag:?}"
                )));
            }
            Ok(vec![payload::u64_at(&ack, 0)?])
        })?;
        self.record_wire_delta(&mut span, wire_before);
        for ack in acks {
            if ack != rows.len() as u64 {
                return Err(RdoError::Execution(format!(
                    "broadcast replica mismatch: sent {} rows, worker decoded {ack}",
                    rows.len()
                )));
            }
        }
        // The logical charge is identical to the in-process exchange: a copy
        // per *partition*, not per worker process. The coordinator joins
        // against the batches it already holds.
        let copies = exchange.target_partitions as u64;
        Ok((
            data.all_batches(),
            data.row_count() as u64 * copies,
            data.approx_bytes() as u64 * copies,
        ))
    }

    fn gather(&self, data: &PartitionedData) -> Result<Relation> {
        let n = data.num_partitions();
        let mut span = rdo_trace::span("net.gather");
        span.attr_u64("partitions", n as u64);
        let wire_before = self.stats();
        let tagged: Vec<(usize, Vec<Tuple>)> = self.per_worker(n, |conn, partitions| {
            let mut out = Vec::with_capacity(partitions.len());
            for &p in partitions {
                rdo_trace::counter("net.frames", 1);
                write_frame(&mut conn.writer, Tag::Gather, &(p as u32).to_le_bytes())?;
                write_page_batch(
                    &mut conn.writer,
                    Tag::Page,
                    &[],
                    &data.partition_rows(p),
                    true,
                    true,
                    &mut conn.scratch,
                )?;
                conn.writer.flush()?;
                out.push((p, read_page_batch(&mut conn.reader)?));
            }
            Ok(out)
        })?;
        self.record_wire_delta(&mut span, wire_before);
        let mut by_partition: Vec<Option<Vec<Tuple>>> = (0..n).map(|_| None).collect();
        for (p, rows) in tagged {
            by_partition[p] = Some(rows);
        }
        let mut relation = Relation::empty(data.schema().clone());
        for slot in by_partition {
            let rows =
                slot.ok_or_else(|| RdoError::Execution("gather lost a partition".to_string()))?;
            for row in rows {
                relation.push(row);
            }
        }
        Ok(relation)
    }
}

/// Parses an `RDO_NET_WORKERS` value (comma-separated `host:port` pairs).
/// Returns the warning to print when any entry is not a socket address.
pub fn parse_worker_addrs(raw: &str) -> std::result::Result<Vec<SocketAddr>, String> {
    let mut addrs = Vec::new();
    for entry in raw.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        match entry.parse::<SocketAddr>() {
            Ok(addr) => addrs.push(addr),
            Err(_) => {
                return Err(format!(
                    "warning: {WORKER_ADDRS_ENV} entry {entry:?} is not a socket address \
                     (host:port expected); exchanges stay in-process"
                ))
            }
        }
    }
    Ok(addrs)
}

/// Resolves a [`ParallelConfig`]'s [`TransportKind`] selection into a
/// concrete transport object:
///
/// * [`TransportKind::InProcess`] → the default in-process transport.
/// * [`TransportKind::Tcp`] → a [`TcpTransport`] over the workers listed in
///   [`WORKER_ADDRS_ENV`]. A missing/empty/invalid list warns on stderr and
///   falls back to in-process exchanges (matching the `RDO_*` knob
///   convention of never silently testing something else); an unreachable
///   worker in a *valid* list is a hard error, because the caller named a
///   concrete cluster.
pub fn transport_from_config(config: &ParallelConfig) -> Result<Arc<dyn Transport>> {
    match config.transport {
        TransportKind::InProcess => Ok(Arc::new(InProcessTransport)),
        TransportKind::Tcp => {
            let Ok(raw) = std::env::var(WORKER_ADDRS_ENV) else {
                rdo_common::warn!(
                    "RDO_TRANSPORT=tcp but {WORKER_ADDRS_ENV} is unset; \
                     exchanges stay in-process"
                );
                return Ok(Arc::new(InProcessTransport));
            };
            let addrs = match parse_worker_addrs(&raw) {
                Ok(addrs) => addrs,
                Err(warning) => {
                    let text = warning.strip_prefix("warning: ").unwrap_or(&warning);
                    rdo_common::warn!("{text}");
                    return Ok(Arc::new(InProcessTransport));
                }
            };
            if addrs.is_empty() {
                rdo_common::warn!(
                    "RDO_TRANSPORT=tcp but {WORKER_ADDRS_ENV} lists no workers; \
                     exchanges stay in-process"
                );
                return Ok(Arc::new(InProcessTransport));
            }
            Ok(Arc::new(TcpTransport::connect(&addrs)?))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{DataType, Schema, Value};
    use std::net::TcpListener;

    fn data(n: i64, partitions: usize) -> PartitionedData {
        let schema = Schema::for_dataset(
            "t",
            &[
                ("k", DataType::Int64),
                ("g", DataType::Int64),
                ("s", DataType::Utf8),
            ],
        );
        let mut parts = vec![Vec::new(); partitions];
        for i in 0..n {
            parts[(i % partitions as i64) as usize].push(Tuple::new(vec![
                Value::Int64(i),
                Value::Int64(i % 7),
                Value::Utf8(format!("row-{i}")),
            ]));
        }
        PartitionedData::from_rows(schema, parts, None)
    }

    fn spawn_workers(n: usize) -> (Vec<SocketAddr>, Vec<std::thread::JoinHandle<Result<()>>>) {
        let mut addrs = Vec::new();
        let mut handles = Vec::new();
        for _ in 0..n {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            addrs.push(listener.local_addr().unwrap());
            handles.push(std::thread::spawn(move || crate::worker::serve(listener)));
        }
        (addrs, handles)
    }

    /// All three exchanges over in-thread workers are bit-identical to the
    /// in-process transport, at 1, 2 and 3 workers, and real bytes moved.
    #[test]
    fn tcp_exchanges_match_in_process_exchanges() {
        let input = data(400, 4);
        let pool = WorkerPool::new(2);
        let in_process = InProcessTransport;
        let exchange = HashRepartition::new(1);
        let (expected_data, expected_rows, expected_bytes) =
            in_process.repartition(&exchange, &input, &pool).unwrap();
        let bcast = Broadcast::new(4);
        let (expected_replica, er, eb) = in_process.broadcast(&bcast, &input).unwrap();
        let expected_gather = in_process.gather(&input).unwrap();

        for workers in [1, 2, 3] {
            let (addrs, handles) = spawn_workers(workers);
            let transport = TcpTransport::connect(&addrs).unwrap();
            assert_eq!(transport.num_workers(), workers);
            assert_eq!(transport.name(), "tcp");

            let (actual, rows, bytes) = transport.repartition(&exchange, &input, &pool).unwrap();
            assert_eq!(actual.to_rows(), expected_data.to_rows());
            assert_eq!(actual.partition_key(), expected_data.partition_key());
            assert_eq!((rows, bytes), (expected_rows, expected_bytes));

            let (replica, rr, rb) = transport.broadcast(&bcast, &input).unwrap();
            assert_eq!(replica, expected_replica);
            assert_eq!((rr, rb), (er, eb));

            assert_eq!(transport.gather(&input).unwrap(), expected_gather);

            let stats = transport.stats();
            assert!(
                stats.bytes_sent > 0 && stats.bytes_received > 0,
                "tuples really crossed the sockets: {stats:?}"
            );

            crate::cluster::shutdown_workers(&addrs).unwrap();
            for handle in handles {
                handle.join().unwrap().unwrap();
            }
        }
    }

    #[test]
    fn worker_addr_lists_parse_or_warn() {
        assert_eq!(parse_worker_addrs(""), Ok(vec![]));
        let addrs = parse_worker_addrs("127.0.0.1:7001, 127.0.0.1:7002,").unwrap();
        assert_eq!(addrs.len(), 2);
        assert_eq!(addrs[1].port(), 7002);
        for invalid in ["localhost", "127.0.0.1", "nope:port", "1,2"] {
            let warning = parse_worker_addrs(invalid).expect_err(invalid);
            assert!(
                warning.contains("RDO_NET_WORKERS") && warning.contains("warning"),
                "{warning}"
            );
        }
    }

    #[test]
    fn connect_rejects_empty_and_unreachable_clusters() {
        assert!(TcpTransport::connect(&[]).is_err());
        // A port nothing listens on: bind then drop to find a free one.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        assert!(TcpTransport::connect(&[addr]).is_err());
    }

    #[test]
    fn in_process_config_resolves_without_touching_the_network() {
        let transport = transport_from_config(&ParallelConfig::serial()).unwrap();
        assert_eq!(transport.name(), "in-process");
    }

    /// Ranges are contiguous and cover every partition for any worker count.
    #[test]
    fn owner_assignment_is_a_contiguous_cover() {
        let (addrs, handles) = spawn_workers(3);
        let transport = TcpTransport::connect(&addrs).unwrap();
        let n = 8;
        let owners: Vec<usize> = (0..n).map(|p| transport.owner(p, n)).collect();
        assert!(owners.windows(2).all(|w| w[0] <= w[1]), "{owners:?}");
        assert_eq!(owners[0], 0);
        assert_eq!(*owners.last().unwrap(), 2);
        crate::cluster::shutdown_workers(&addrs).unwrap();
        for handle in handles {
            handle.join().unwrap().unwrap();
        }
    }
}

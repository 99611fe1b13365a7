//! The worker-process side of the TCP exchange backend.
//!
//! A worker is a stateless exchange server for the partition range the
//! coordinator assigns it: it decodes incoming page batches, runs the shared
//! per-partition exchange kernels of [`rdo_exec::partition`] on them, and
//! streams the outputs back as framed page batches. Because the kernels and
//! the row codec are byte-exact, a worker's answers are bit-identical to the
//! in-process exchange — the coordinator never needs to know (or test) which
//! transport produced a result.
//!
//! Process mode: [`worker_main`] binds a listener (`RDO_NET_LISTEN`, default
//! `127.0.0.1:0`), announces the bound address on stdout and serves until a
//! shutdown frame arrives. [`maybe_worker`] is the re-exec hook harness
//! binaries call first thing in `main`, so one binary can play both
//! coordinator and worker (see `examples/distributed.rs`).

use crate::frame::{decode_page_payload, read_page_batch};
use crate::frame::{payload, read_frame, write_frame, write_page_batch, Tag};
use rdo_common::{RdoError, Result};
use rdo_exec::partition::repartition_partition;
use rdo_spill::compress::LzScratch;
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};

/// Environment variable that flips a harness binary into worker mode (see
/// [`maybe_worker`]).
pub const WORKER_MODE_ENV: &str = "RDO_NET_WORKER";

/// Environment variable with the address a worker process binds
/// (`127.0.0.1:0` — any free localhost port — when unset).
pub const LISTEN_ENV: &str = "RDO_NET_LISTEN";

/// Prefix of the one stdout line a worker process prints to announce its
/// bound address to whoever spawned it.
pub const ADDR_ANNOUNCE_PREFIX: &str = "RDO_NET_WORKER_ADDR ";

/// What a served connection asked the worker to do next.
enum Served {
    /// Keep accepting connections (the coordinator closed this one).
    Continue,
    /// A shutdown frame arrived: leave the serve loop.
    Stop,
}

/// Runs one worker process to completion: binds `RDO_NET_LISTEN` (default
/// `127.0.0.1:0`), prints the [`ADDR_ANNOUNCE_PREFIX`] line on stdout so the
/// spawner can discover the port, and serves exchange connections until a
/// shutdown frame arrives. Returns `Ok(())` on a clean shutdown — the
/// process exit code is the harness's to choose.
pub fn worker_main() -> Result<()> {
    let listen = std::env::var(LISTEN_ENV).unwrap_or_else(|_| "127.0.0.1:0".to_string());
    let listener = TcpListener::bind(&listen)
        .map_err(|e| RdoError::Io(format!("worker bind {listen}: {e}")))?;
    let addr = listener.local_addr()?;
    println!("{ADDR_ANNOUNCE_PREFIX}{addr}");
    std::io::stdout().flush()?;
    serve(listener)
}

/// The re-exec hook: when [`WORKER_MODE_ENV`] is set, runs [`worker_main`]
/// and returns `true` (the caller's `main` should exit); otherwise returns
/// `false` and the caller proceeds as coordinator. Harness binaries (the
/// distributed example and test) call this first thing, so spawning
/// `current_exe` with the variable set turns the same binary into a worker.
pub fn maybe_worker() -> Result<bool> {
    if std::env::var_os(WORKER_MODE_ENV).is_none() {
        return Ok(false);
    }
    worker_main()?;
    Ok(true)
}

/// Serves exchange connections on `listener` until a shutdown frame arrives.
/// Each connection gets its own thread (the shutdown frame typically arrives
/// on a fresh connection while a coordinator's exchange connection is still
/// open); a connection-level protocol error is reported on stderr and the
/// worker keeps accepting — a crashed coordinator must not take the cluster
/// down with it.
pub fn serve(listener: TcpListener) -> Result<()> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    let stop = Arc::new(AtomicBool::new(false));
    let self_addr = listener.local_addr()?;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) => {
                rdo_common::warn!("rdo-net worker: accept failed: {e}");
                continue;
            }
        };
        if stop.load(Ordering::Acquire) {
            return Ok(());
        }
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || match serve_connection(stream) {
            Ok(Served::Continue) => {}
            Ok(Served::Stop) => {
                // Acknowledged the shutdown: flag the accept loop and poke
                // it with a throwaway connection so it observes the flag.
                stop.store(true, Ordering::Release);
                let _ = TcpStream::connect(self_addr);
            }
            Err(e) => rdo_common::warn!("rdo-net worker: connection failed: {e}"),
        });
    }
}

/// Handles one coordinator connection: a sequence of command frames, each
/// followed by its page batch, until the peer disconnects or asks for
/// shutdown.
fn serve_connection(stream: TcpStream) -> Result<Served> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut scratch = LzScratch::new();
    // Tracing in worker processes follows the same env knobs as the
    // coordinator (the cluster spawner passes the environment through). Each
    // repartition command traces into a fresh handle whose spans and metrics
    // ship back inside that command's tally frame, so the coordinator can
    // adopt them under its per-worker exchange span.
    let tracing = rdo_trace::TraceHandle::from_env().is_enabled();
    loop {
        let Some((tag, header)) = read_frame(&mut reader)? else {
            return Ok(Served::Continue);
        };
        match tag {
            Tag::Ping => {
                write_frame(&mut writer, Tag::Ack, &0u64.to_le_bytes())?;
                writer.flush()?;
            }
            Tag::Shutdown => {
                write_frame(&mut writer, Tag::Ack, &0u64.to_le_bytes())?;
                writer.flush()?;
                return Ok(Served::Stop);
            }
            Tag::Repartition => {
                let key_index = payload::u32_at(&header, 0)? as usize;
                let from = payload::u32_at(&header, 4)? as usize;
                let num_partitions = payload::u32_at(&header, 8)? as usize;
                let trace = if tracing {
                    rdo_trace::TraceHandle::enabled()
                } else {
                    rdo_trace::TraceHandle::disabled()
                };
                let (buckets, moved_rows, moved_bytes) = {
                    let _install = trace.install();
                    let mut span = rdo_trace::span("serve.repartition");
                    span.attr_u64("from", from as u64);
                    span.attr_u64("fanout", num_partitions as u64);
                    let rows = read_page_batch(&mut reader)?;
                    span.attr_u64("rows_in", rows.len() as u64);
                    // Shipped back in the tally frame and adopted by the
                    // coordinator, so `/progress` sees worker-side movement.
                    rdo_trace::counter("progress.rows_repartitioned", rows.len() as u64);
                    repartition_partition(&rows, key_index, from, num_partitions)
                };
                for (to, bucket) in buckets.iter().enumerate() {
                    if bucket.is_empty() {
                        continue;
                    }
                    let to_header = (to as u32).to_le_bytes();
                    write_page_batch(
                        &mut writer,
                        Tag::Bucket,
                        &to_header,
                        bucket,
                        true,
                        true,
                        &mut scratch,
                    )?;
                }
                // The tally frame's fixed 16-byte prefix is followed by the
                // command's encoded trace update (absent when tracing is off;
                // old coordinators only read the prefix).
                let mut tally = Vec::with_capacity(16);
                tally.extend_from_slice(&moved_rows.to_le_bytes());
                tally.extend_from_slice(&moved_bytes.to_le_bytes());
                if tracing {
                    tally.extend_from_slice(&trace.encode_update());
                }
                write_frame(&mut writer, Tag::Tally, &tally)?;
                writer.flush()?;
            }
            Tag::Broadcast => {
                let rows = read_page_batch(&mut reader)?;
                write_frame(&mut writer, Tag::Ack, &(rows.len() as u64).to_le_bytes())?;
                writer.flush()?;
            }
            Tag::Gather => {
                // The partition index in the header is informational (it lets
                // a wire trace attribute traffic); the round-trip itself is
                // partition-agnostic.
                let _partition = payload::u32_at(&header, 0)?;
                let rows = read_page_batch(&mut reader)?;
                write_page_batch(&mut writer, Tag::Page, &[], &rows, true, true, &mut scratch)?;
                writer.flush()?;
            }
            other => {
                return Err(RdoError::Execution(format!(
                    "rdo-net worker: unexpected command frame {other:?}"
                )))
            }
        }
    }
}

/// Reads a bucketed repartition response: [`Tag::Bucket`] pages routed into
/// `num_partitions` buckets, closed by a [`Tag::Tally`] frame. Returns the
/// buckets plus the kernel's `(moved_rows, moved_bytes)` tally. Shared by
/// the coordinator-side transport (it is the inverse of what
/// `serve_connection` emits for [`Tag::Repartition`]).
pub(crate) fn read_bucketed_response(
    reader: &mut impl std::io::Read,
    num_partitions: usize,
) -> Result<(Vec<Vec<rdo_common::Tuple>>, u64, u64)> {
    let mut buckets: Vec<Vec<rdo_common::Tuple>> = vec![Vec::new(); num_partitions];
    loop {
        let (tag, body) = crate::frame::expect_frame(reader)?;
        match tag {
            // Either body layout is fine — the worker picks the smaller per
            // page and the tag byte says which arrived.
            Tag::Bucket | Tag::ColBucket => {
                let to = payload::u32_at(&body, 0)? as usize;
                if to >= num_partitions {
                    return Err(RdoError::Execution(format!(
                        "corrupt exchange frame: bucket {to} out of range"
                    )));
                }
                buckets[to].extend(decode_page_payload(tag, &body, 4)?);
            }
            Tag::Tally => {
                let moved_rows = payload::u64_at(&body, 0)?;
                let moved_bytes = payload::u64_at(&body, 8)?;
                // Anything after the fixed prefix is the worker's encoded
                // trace update; merge it under the caller's current span
                // (the transport's per-worker exchange span).
                if body.len() > 16 {
                    rdo_trace::adopt_update(rdo_trace::wire::decode_update(&body[16..])?);
                }
                return Ok((buckets, moved_rows, moved_bytes));
            }
            other => {
                return Err(RdoError::Execution(format!(
                    "corrupt exchange frame: expected Bucket/Tally, got {other:?}"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_common::{Tuple, Value};

    fn rows(n: i64) -> Vec<Tuple> {
        (0..n)
            .map(|i| Tuple::new(vec![Value::Int64(i), Value::Int64(i % 5)]))
            .collect()
    }

    /// Drives one worker thread through the raw protocol: ping, a
    /// repartition command, a broadcast, a gather round-trip and a clean
    /// shutdown.
    #[test]
    fn worker_serves_the_raw_protocol() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || serve(listener));

        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        let mut scratch = LzScratch::new();

        write_frame(&mut writer, Tag::Ping, &[]).unwrap();
        writer.flush().unwrap();
        let (tag, _) = crate::frame::expect_frame(&mut reader).unwrap();
        assert_eq!(tag, Tag::Ack);

        // Repartition partition 0 of 4 on column 1: the worker's buckets and
        // tally must equal the local kernel's.
        let data = rows(500);
        let (expected_buckets, expected_rows, expected_bytes) =
            repartition_partition(&data, 1, 0, 4);
        let mut header = Vec::new();
        header.extend_from_slice(&1u32.to_le_bytes());
        header.extend_from_slice(&0u32.to_le_bytes());
        header.extend_from_slice(&4u32.to_le_bytes());
        write_frame(&mut writer, Tag::Repartition, &header).unwrap();
        // The worker's reader dispatches on the tag byte, whichever layout
        // each page picked.
        write_page_batch(&mut writer, Tag::Page, &[], &data, true, true, &mut scratch).unwrap();
        writer.flush().unwrap();
        let (buckets, moved_rows, moved_bytes) = read_bucketed_response(&mut reader, 4).unwrap();
        assert_eq!(buckets, expected_buckets);
        assert_eq!((moved_rows, moved_bytes), (expected_rows, expected_bytes));

        // Broadcast: the ack carries the replica's row count.
        write_frame(&mut writer, Tag::Broadcast, &[]).unwrap();
        write_page_batch(
            &mut writer,
            Tag::Page,
            &[],
            &data,
            true,
            false,
            &mut scratch,
        )
        .unwrap();
        writer.flush().unwrap();
        let (tag, ack) = crate::frame::expect_frame(&mut reader).unwrap();
        assert_eq!(tag, Tag::Ack);
        assert_eq!(payload::u64_at(&ack, 0).unwrap(), data.len() as u64);

        // Gather: the partition comes back byte-exact.
        write_frame(&mut writer, Tag::Gather, &2u32.to_le_bytes()).unwrap();
        write_page_batch(&mut writer, Tag::Page, &[], &data, true, true, &mut scratch).unwrap();
        writer.flush().unwrap();
        assert_eq!(read_page_batch(&mut reader).unwrap(), data);

        write_frame(&mut writer, Tag::Shutdown, &[]).unwrap();
        writer.flush().unwrap();
        let (tag, _) = crate::frame::expect_frame(&mut reader).unwrap();
        assert_eq!(tag, Tag::Ack);
        handle.join().unwrap().unwrap();
    }

    /// A dropped connection does not stop the worker: it keeps serving the
    /// next coordinator until an explicit shutdown.
    #[test]
    fn worker_survives_disconnects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || serve(listener));
        for _ in 0..3 {
            let stream = TcpStream::connect(addr).unwrap();
            drop(stream);
        }
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, Tag::Shutdown, &[]).unwrap();
        writer.flush().unwrap();
        let (tag, _) = crate::frame::expect_frame(&mut reader).unwrap();
        assert_eq!(tag, Tag::Ack);
        handle.join().unwrap().unwrap();
    }
}

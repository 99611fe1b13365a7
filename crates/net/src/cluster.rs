//! Spawning and tearing down localhost worker processes.
//!
//! [`LocalCluster`] re-executes the current binary with
//! [`crate::worker::WORKER_MODE_ENV`] set, so any harness whose `main` calls
//! [`crate::maybe_worker`] first can serve as its own worker fleet — the
//! pattern `examples/distributed.rs` and the `distributed_equivalence` suite
//! use. Each worker announces its bound port on stdout; the cluster collects
//! the addresses, and [`LocalCluster::shutdown`] delivers the shutdown frame
//! and reaps every child, so a green run leaves no orphan processes behind.

use crate::frame::{expect_frame, write_frame, Tag};
use crate::worker::{ADDR_ANNOUNCE_PREFIX, WORKER_MODE_ENV};
use rdo_common::{RdoError, Result};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, ExitStatus, Stdio};

/// A fleet of localhost worker processes spawned from the current binary.
#[derive(Debug)]
pub struct LocalCluster {
    children: Vec<Child>,
    addrs: Vec<SocketAddr>,
}

impl LocalCluster {
    /// Spawns `workers` copies of the current executable in worker mode
    /// (each binds a free localhost port and announces it on stdout) and
    /// waits until every one is reachable. The caller's `main` must route
    /// through [`crate::maybe_worker`] before doing anything else.
    pub fn spawn(workers: usize) -> Result<Self> {
        let exe = std::env::current_exe().map_err(|e| RdoError::Io(format!("current_exe: {e}")))?;
        // Children are pushed into the cluster as they spawn, so any error
        // below drops the half-built cluster and its `Drop` kills and reaps
        // every worker started so far — a failed spawn must not leak the
        // successful ones as orphans.
        let mut cluster = Self {
            children: Vec::with_capacity(workers),
            addrs: Vec::with_capacity(workers),
        };
        for _ in 0..workers {
            let child = Command::new(&exe)
                .env(WORKER_MODE_ENV, "1")
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .stdin(Stdio::null())
                .spawn()
                .map_err(|e| RdoError::Io(format!("spawn worker: {e}")))?;
            cluster.children.push(child);
            let stdout = cluster
                .children
                .last_mut()
                .expect("just pushed")
                .stdout
                .take()
                .ok_or_else(|| RdoError::Execution("worker child has no stdout".to_string()))?;
            let mut lines = BufReader::new(stdout).lines();
            let addr = loop {
                let Some(line) = lines.next() else {
                    return Err(RdoError::Execution(
                        "worker exited before announcing its address".to_string(),
                    ));
                };
                let line = line.map_err(|e| RdoError::Io(format!("worker stdout: {e}")))?;
                if let Some(raw) = line.strip_prefix(ADDR_ANNOUNCE_PREFIX) {
                    break raw.trim().parse::<SocketAddr>().map_err(|e| {
                        RdoError::Execution(format!("worker announced {raw:?}: {e}"))
                    })?;
                }
            };
            cluster.addrs.push(addr);
        }
        Ok(cluster)
    }

    /// Addresses of the spawned workers, in spawn order (pass to
    /// [`crate::TcpTransport::connect`] or export as `RDO_NET_WORKERS`).
    pub fn addrs(&self) -> &[SocketAddr] {
        &self.addrs
    }

    /// The `RDO_NET_WORKERS` value naming this cluster.
    pub fn addr_list(&self) -> String {
        self.addrs
            .iter()
            .map(|a| a.to_string())
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Delivers the shutdown frame to every worker and reaps the processes,
    /// returning their exit statuses (in spawn order). Errors if a worker
    /// cannot be reached or exits unsuccessfully — a clean distributed run
    /// must leave no orphan processes behind.
    pub fn shutdown(mut self) -> Result<Vec<ExitStatus>> {
        shutdown_workers(&self.addrs)?;
        let mut statuses = Vec::with_capacity(self.children.len());
        for mut child in self.children.drain(..) {
            let status = child
                .wait()
                .map_err(|e| RdoError::Io(format!("wait worker: {e}")))?;
            if !status.success() {
                return Err(RdoError::Execution(format!(
                    "worker exited unsuccessfully: {status}"
                )));
            }
            statuses.push(status);
        }
        Ok(statuses)
    }
}

impl Drop for LocalCluster {
    fn drop(&mut self) {
        // Best effort: a cluster the test forgot (or failed) to shut down
        // must not leak processes past the harness.
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Sends the shutdown frame to each worker address on a fresh connection and
/// waits for the acknowledgement. Usable against any worker, spawned locally
/// or not.
pub fn shutdown_workers(addrs: &[SocketAddr]) -> Result<()> {
    for addr in addrs {
        let stream = TcpStream::connect(addr)
            .map_err(|e| RdoError::Io(format!("connect worker {addr} for shutdown: {e}")))?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = BufWriter::new(stream);
        write_frame(&mut writer, Tag::Shutdown, &[])?;
        writer.flush()?;
        let (tag, _) = expect_frame(&mut reader)?;
        if tag != Tag::Ack {
            return Err(RdoError::Execution(format!(
                "worker {addr} answered shutdown with {tag:?}"
            )));
        }
    }
    Ok(())
}

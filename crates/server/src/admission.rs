//! Global memory admission for concurrent queries.
//!
//! Every query reserves a memory grant from one server-wide budget before it
//! executes; the grant funds the query's private spill and join budgets, so
//! the sum of per-query memory the server hands out never exceeds the global
//! cap. Waiters queue FIFO (ticket numbers, like a bakery lock) and wait a
//! bounded time: a query that cannot be admitted before its deadline fails
//! with a clean admission-timeout error instead of wedging its session.

use rdo_common::{RdoError, Result};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Mutable admission state guarded by the controller mutex.
#[derive(Debug, Default)]
struct State {
    /// Bytes currently handed out to running queries.
    reserved: u64,
    /// Next ticket number to issue to an arriving query.
    next_ticket: u64,
    /// Lowest ticket number still owed a turn (FIFO head).
    next_served: u64,
    /// Tickets whose waiters timed out mid-queue; the head skips over them.
    abandoned: HashSet<u64>,
}

impl State {
    /// Hands the head of the queue to the next ticket still waiting, skipping
    /// tickets whose waiters departed at their deadline.
    fn advance_head(&mut self) {
        self.next_served += 1;
        while self.abandoned.remove(&self.next_served) {
            self.next_served += 1;
        }
    }
}

/// A server-wide memory budget that concurrent queries draw grants from.
///
/// FIFO fairness: grants are handed out strictly in arrival order, so a large
/// query at the head of the queue is never starved by small queries slipping
/// past it. A waiter that times out consumes its queue turn (hands the head to
/// its successor) before failing.
#[derive(Debug)]
pub struct AdmissionController {
    /// Total budget in bytes.
    total: u64,
    state: Mutex<State>,
    changed: Condvar,
    peak: AtomicU64,
    waits: AtomicU64,
    timeouts: AtomicU64,
    max_queue_depth: AtomicU64,
}

impl AdmissionController {
    /// Creates a controller over `total` bytes of global memory budget.
    pub fn new(total: u64) -> Arc<Self> {
        Arc::new(Self {
            total,
            state: Mutex::new(State::default()),
            changed: Condvar::new(),
            peak: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            max_queue_depth: AtomicU64::new(0),
        })
    }

    /// The total budget in bytes.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Reserves `bytes` (clamped to the total, so one query can never ask for
    /// more than the whole budget and deadlock). Blocks until the reservation
    /// is both at the head of the FIFO queue and fundable, or until `timeout`
    /// elapses — then fails with an execution error naming the wait.
    pub fn admit(self: &Arc<Self>, bytes: u64, timeout: Duration) -> Result<AdmissionTicket> {
        let grant = bytes.min(self.total);
        let deadline = Instant::now() + timeout;
        let mut state = self.state.lock().expect("admission mutex poisoned");
        let ticket = state.next_ticket;
        state.next_ticket += 1;

        let depth = state.next_ticket - state.next_served;
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        let mut waited = false;

        loop {
            let my_turn = state.next_served == ticket;
            if my_turn && state.reserved + grant <= self.total {
                state.advance_head();
                state.reserved += grant;
                self.peak.fetch_max(state.reserved, Ordering::Relaxed);
                if waited {
                    self.waits.fetch_add(1, Ordering::Relaxed);
                }
                // Successors may be fundable too (e.g. grant 0 edge case).
                self.changed.notify_all();
                return Ok(AdmissionTicket {
                    controller: Arc::clone(self),
                    bytes: grant,
                });
            }
            waited = true;
            let now = Instant::now();
            if now >= deadline {
                // Consume this ticket's turn so successors are not stuck
                // behind a departed waiter: advance the head if we hold it,
                // otherwise leave a marker the head skips when it gets here.
                if state.next_served == ticket {
                    state.advance_head();
                } else {
                    state.abandoned.insert(ticket);
                }
                self.timeouts.fetch_add(1, Ordering::Relaxed);
                self.changed.notify_all();
                return Err(RdoError::Execution(format!(
                    "admission timeout: waited {}ms for {} bytes of the {}-byte global budget",
                    timeout.as_millis(),
                    grant,
                    self.total
                )));
            }
            let (next, _timed_out) = self
                .changed
                .wait_timeout(state, deadline - now)
                .expect("admission mutex poisoned");
            state = next;
        }
    }

    /// Bytes currently reserved by running queries.
    pub fn reserved(&self) -> u64 {
        self.state
            .lock()
            .expect("admission mutex poisoned")
            .reserved
    }

    /// Highest concurrent reservation ever observed (≤ total, by construction).
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Queries currently queued or being served (instantaneous).
    pub fn queue_depth(&self) -> u64 {
        let state = self.state.lock().expect("admission mutex poisoned");
        state.next_ticket - state.next_served
    }

    /// Highest queue depth ever observed.
    pub fn max_queue_depth(&self) -> u64 {
        self.max_queue_depth.load(Ordering::Relaxed)
    }

    /// Number of admissions that had to wait at least one round.
    pub fn waits(&self) -> u64 {
        self.waits.load(Ordering::Relaxed)
    }

    /// Number of admissions that gave up at their deadline.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    fn release(&self, bytes: u64) {
        let mut state = self.state.lock().expect("admission mutex poisoned");
        state.reserved = state.reserved.saturating_sub(bytes);
        self.changed.notify_all();
    }
}

/// An admitted reservation; returns its bytes to the global pool on drop, so
/// a query that panics or errors still releases its grant.
#[derive(Debug)]
pub struct AdmissionTicket {
    controller: Arc<AdmissionController>,
    bytes: u64,
}

impl AdmissionTicket {
    /// The granted bytes (the requested amount clamped to the total budget).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Drop for AdmissionTicket {
    fn drop(&mut self) {
        self.controller.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn grants_clamp_to_total_and_return_on_drop() {
        let ctl = AdmissionController::new(100);
        let ticket = ctl.admit(1_000_000, 10 * MS).unwrap();
        assert_eq!(ticket.bytes(), 100, "request clamped to the total budget");
        assert_eq!(ctl.reserved(), 100);
        drop(ticket);
        assert_eq!(ctl.reserved(), 0, "budget fully returned");
        assert_eq!(ctl.peak(), 100);
    }

    #[test]
    fn concurrent_holders_never_exceed_total() {
        let ctl = AdmissionController::new(100);
        let running = Arc::new(AtomicUsize::new(0));
        let max_running = Arc::new(AtomicUsize::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let ctl = Arc::clone(&ctl);
                let running = Arc::clone(&running);
                let max_running = Arc::clone(&max_running);
                std::thread::spawn(move || {
                    let _ticket = ctl.admit(60, Duration::from_secs(30)).unwrap();
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    max_running.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(5 * MS);
                    running.fetch_sub(1, Ordering::SeqCst);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(
            max_running.load(Ordering::SeqCst),
            1,
            "60-byte grants against a 100-byte budget must serialize"
        );
        assert!(ctl.peak() <= ctl.total());
        assert_eq!(ctl.reserved(), 0);
        assert!(ctl.waits() >= 7, "all but the first admission waited");
        assert!(ctl.max_queue_depth() >= 2);
    }

    #[test]
    fn timeout_fails_cleanly_and_frees_the_queue() {
        let ctl = AdmissionController::new(100);
        let holder = ctl.admit(100, 10 * MS).unwrap();
        let err = ctl.admit(10, 20 * MS).unwrap_err();
        assert!(err.to_string().contains("admission timeout"), "{err}");
        assert_eq!(ctl.timeouts(), 1);
        drop(holder);
        // The timed-out waiter consumed its turn; a new arrival is served.
        let next = ctl.admit(10, 10 * MS).unwrap();
        assert_eq!(next.bytes(), 10);
        drop(next);
        assert_eq!(ctl.reserved(), 0);
    }

    #[test]
    fn fifo_order_is_preserved() {
        let ctl = AdmissionController::new(100);
        let first = ctl.admit(100, 10 * MS).unwrap();
        let order = Arc::new(Mutex::new(Vec::new()));
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let ctl = Arc::clone(&ctl);
                let order = Arc::clone(&order);
                // Stagger arrivals so ticket numbers follow thread index.
                std::thread::sleep(3 * MS);
                std::thread::spawn(move || {
                    let _t = ctl.admit(100, Duration::from_secs(30)).unwrap();
                    order.lock().unwrap().push(i);
                })
            })
            .collect();
        std::thread::sleep(20 * MS);
        drop(first);
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn grants_that_fit_together_are_admitted_without_waiting() {
        let ctl = AdmissionController::new(100);
        let a = ctl.admit(40, 10 * MS).unwrap();
        let b = ctl.admit(40, 10 * MS).unwrap();
        assert_eq!(ctl.reserved(), 80);
        assert_eq!(ctl.peak(), 80);
        assert_eq!(ctl.waits(), 0);
        assert_eq!(ctl.queue_depth(), 0, "both served");
        drop(a);
        assert_eq!(ctl.reserved(), 40);
        drop(b);
        assert_eq!(ctl.reserved(), 0);
    }

    #[test]
    fn zero_byte_grants_never_wait_for_budget() {
        let ctl = AdmissionController::new(100);
        let holder = ctl.admit(100, 10 * MS).unwrap();
        let free = ctl.admit(0, 10 * MS).unwrap();
        assert_eq!(free.bytes(), 0);
        assert_eq!(ctl.timeouts(), 0);
        drop((holder, free));
        let empty = AdmissionController::new(0);
        assert_eq!(empty.admit(50, 10 * MS).unwrap().bytes(), 0, "clamped");
    }

    /// A waiter that times out behind the head leaves a marker; the head
    /// skips it once it moves, so later arrivals are not stuck behind it.
    #[test]
    fn a_waiter_abandoned_mid_queue_is_skipped() {
        let ctl = AdmissionController::new(100);
        let holder = ctl.admit(100, 10 * MS).unwrap();
        let head = {
            let ctl = Arc::clone(&ctl);
            std::thread::spawn(move || {
                let ticket = ctl.admit(100, Duration::from_secs(30)).unwrap();
                ticket.bytes()
            })
        };
        // The holder was served; wait until the head waiter has its ticket.
        while ctl.queue_depth() < 1 {
            std::thread::sleep(MS);
        }
        let err = ctl.admit(10, 20 * MS).unwrap_err();
        assert!(err.to_string().contains("admission timeout"), "{err}");
        drop(holder);
        assert_eq!(head.join().unwrap(), 100);
        let next = ctl.admit(10, Duration::from_secs(30)).unwrap();
        assert_eq!(next.bytes(), 10);
        assert_eq!(ctl.timeouts(), 1);
        assert_eq!(ctl.queue_depth(), 0);
    }
}

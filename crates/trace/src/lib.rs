#![warn(missing_docs)]
//! Structured tracing and metrics for the whole engine.
//!
//! The paper's argument is about *where time goes mid-query* — planning and
//! materialization overhead at each re-optimization point traded against
//! better join orders — so the reproduction needs per-phase timing, not just
//! one wall-clock number per run. This crate is that substrate:
//!
//! * [`span`] opens a RAII-guarded span (name, attributes, monotonic
//!   start/duration, parent id, thread id) recorded into a lock-sharded
//!   [`Collector`];
//! * [`counter`] / [`gauge_max`] / [`timer`] accumulate named metrics beside
//!   the spans (counters sum-merge, gauges max-merge — the same two merge
//!   laws `ExecutionMetrics` uses); every finished span additionally feeds a
//!   per-name latency [`Histogram`] (fixed log buckets, bucket-wise sum
//!   merge), so per-operator and per-stage p50/p90/p99 come for free;
//! * [`audit`] carries the optimizer audit trail (estimate-vs-actual Q-error
//!   records and re-optimization decision explanations) the driver fills in;
//! * [`serve`] is the live scrape endpoint (`RDO_METRICS_ADDR`): `/metrics`
//!   and `/progress` over a dependency-free HTTP listener;
//! * [`TaskContext`] carries the active trace across thread boundaries (the
//!   worker pool, the spill prefetcher), so spans started on other threads
//!   stitch under the submitting span;
//! * [`Profile`] renders the collected data three ways: an
//!   `EXPLAIN ANALYZE`-style tree, a Chrome `trace_event` JSON file, and a
//!   Prometheus text exposition.
//!
//! **Disabled cost.** Tracing is off unless a [`TraceHandle`] is installed on
//! the current thread. Every instrumentation entry point first performs one
//! relaxed atomic load of a global install count and returns immediately when
//! it is zero — no lock, no allocation, no thread-local access — so the
//! equivalence suites and the bench gate run the exact seed code path.

pub mod audit;
pub mod profile;
pub mod serve;

pub use profile::Profile;

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of span shards in a collector: threads append to
/// `shard[thread_id % SHARDS]`, so concurrent workers rarely contend.
const SHARDS: usize = 16;

/// Count of enabled trace contexts currently installed across all threads.
/// Zero means tracing is off everywhere; the disabled fast path of every
/// entry point is a single relaxed load of this counter.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// One attribute value attached to a span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned integer (row counts, byte volumes, fanouts, levels).
    U64(u64),
    /// A free-form string (table names, plan signatures).
    Str(String),
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::Str(s) => write!(f, "{s}"),
        }
    }
}

/// One finished span, as stored in the collector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id within the owning collector (never 0).
    pub id: u64,
    /// Id of the enclosing span, or 0 for a root.
    pub parent: u64,
    /// Span name (`"stage.reopt"`, `"exec.grace"`, …).
    pub name: String,
    /// Small per-process thread number (lane grouping in the Chrome export).
    pub thread: u64,
    /// Start, in nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub duration_ns: u64,
    /// Key/value attributes recorded on the span.
    pub attrs: Vec<(String, AttrValue)>,
}

/// Number of finite bucket boundaries in a [`Histogram`]: boundary `i` is
/// `2^(10+i)` nanoseconds, spanning ~1 µs to ~36 minutes; one extra overflow
/// bucket catches everything beyond the last boundary.
pub const HISTOGRAM_BOUNDS: usize = 32;

/// A fixed-boundary log-bucketed latency histogram.
///
/// Every histogram shares the same boundaries, so merging two of them is a
/// bucket-wise sum (plus summing `sum` and `count`) — an associative and
/// commutative law like the counter (sum) and gauge (max) laws, which is what
/// keeps the merged exposition worker-count invariant. The
/// collector records one histogram per span name automatically when a span
/// guard drops, giving per-operator and per-stage wall-latency distributions
/// for free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BOUNDS + 1],
    sum: u64,
    count: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            counts: [0; HISTOGRAM_BOUNDS + 1],
            sum: 0,
            count: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The upper bound (inclusive) of finite bucket `index`, in nanoseconds.
    pub fn bound_ns(index: usize) -> u64 {
        1u64 << (10 + index as u32)
    }

    /// Index of the bucket whose range `(bound(i-1), bound(i)]` contains
    /// `value_ns`; values past the last boundary land in the overflow bucket.
    fn bucket_index(value_ns: u64) -> usize {
        if value_ns <= Self::bound_ns(0) {
            return 0;
        }
        let log2 = 63 - value_ns.leading_zeros() as usize;
        let mut index = log2 - 10;
        if (1u64 << log2) < value_ns {
            index += 1;
        }
        index.min(HISTOGRAM_BOUNDS)
    }

    /// Records one observation.
    pub fn observe(&mut self, value_ns: u64) {
        self.counts[Self::bucket_index(value_ns)] += 1;
        self.sum = self.sum.saturating_add(value_ns);
        self.count += 1;
    }

    /// Merges another histogram in: bucket-wise count sum. Associative and
    /// commutative, so the order workers report in never changes the result.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.sum = self.sum.saturating_add(other.sum);
        self.count += other.count;
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observed values, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum
    }

    /// Per-bucket (non-cumulative) counts; the last entry is the overflow
    /// bucket.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Reassembles a histogram from its parts (the inverse of
    /// [`Histogram::bucket_counts`], [`Histogram::sum_ns`] and
    /// [`Histogram::count`]). `None` when the bucket count does not match
    /// this build's boundaries.
    pub fn from_parts(bucket_counts: &[u64], sum: u64, count: u64) -> Option<Self> {
        let counts: [u64; HISTOGRAM_BOUNDS + 1] = bucket_counts.try_into().ok()?;
        Some(Self { counts, sum, count })
    }

    /// The `q`-quantile as a bucket upper bound in nanoseconds: the smallest
    /// boundary at which the cumulative count reaches `ceil(q · count)`.
    /// Returns 0 for an empty histogram; observations in the overflow bucket
    /// report twice the last finite boundary.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for (index, bucket) in self.counts.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= target {
                return if index < HISTOGRAM_BOUNDS {
                    Self::bound_ns(index)
                } else {
                    2 * Self::bound_ns(HISTOGRAM_BOUNDS - 1)
                };
            }
        }
        2 * Self::bound_ns(HISTOGRAM_BOUNDS - 1)
    }
}

/// The shared span + metrics store behind a [`TraceHandle`].
///
/// Spans land in one of 16 mutex-guarded shard vectors keyed by thread id;
/// counters and gauges live in two small maps. All timestamps are relative to
/// the collector's creation instant, so records from different threads of one
/// process share a timeline.
#[derive(Debug)]
pub struct Collector {
    epoch: Instant,
    next_id: AtomicU64,
    shards: Vec<Mutex<Vec<SpanRecord>>>,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    notes: Mutex<BTreeMap<String, String>>,
}

impl Collector {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            notes: Mutex::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn push(&self, record: SpanRecord) {
        let shard = (record.thread as usize) % SHARDS;
        self.shards[shard]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push(record);
    }

    fn add_counter(&self, name: &str, delta: u64) {
        let mut map = self.counters.lock().unwrap_or_else(|p| p.into_inner());
        match map.get_mut(name) {
            Some(value) => *value += delta,
            None => {
                map.insert(name.to_string(), delta);
            }
        }
    }

    fn gauge_max(&self, name: &str, value: u64) {
        let mut map = self.gauges.lock().unwrap_or_else(|p| p.into_inner());
        match map.get_mut(name) {
            Some(current) => *current = (*current).max(value),
            None => {
                map.insert(name.to_string(), value);
            }
        }
    }

    fn observe(&self, name: &str, value_ns: u64) {
        let mut map = self.histograms.lock().unwrap_or_else(|p| p.into_inner());
        match map.get_mut(name) {
            Some(histogram) => histogram.observe(value_ns),
            None => {
                let mut histogram = Histogram::new();
                histogram.observe(value_ns);
                map.insert(name.to_string(), histogram);
            }
        }
    }

    fn set_note(&self, key: &str, value: &str) {
        let mut map = self.notes.lock().unwrap_or_else(|p| p.into_inner());
        map.insert(key.to_string(), value.to_string());
    }

    fn snapshot_spans(&self) -> Vec<SpanRecord> {
        let mut all = Vec::new();
        for shard in &self.shards {
            all.extend_from_slice(&shard.lock().unwrap_or_else(|p| p.into_inner()));
        }
        all.sort_by_key(|s| (s.start_ns, s.id));
        all
    }
}

thread_local! {
    /// The thread's active trace context: which collector spans record into,
    /// and the stack of open span ids (top = current parent).
    static CTX: RefCell<Option<ThreadCtx>> = const { RefCell::new(None) };
}

struct ThreadCtx {
    collector: Arc<Collector>,
    stack: Vec<u64>,
}

fn current_thread_id() -> u64 {
    static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }
    TID.with(|cell| {
        if cell.get() == 0 {
            cell.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        cell.get()
    })
}

/// A clonable reference to one query's trace. `disabled()` handles carry no
/// collector and cost nothing; cloning either flavour is an `Arc` bump (or a
/// `None` copy).
#[derive(Debug, Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<Collector>>,
}

impl TraceHandle {
    /// A handle that records nothing. Installing it is a no-op.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A handle backed by a fresh collector.
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Collector::new())),
        }
    }

    /// Builds a handle from the environment: enabled when `RDO_TRACE_SPANS`
    /// is truthy or `RDO_TRACE` names an export path (both parsed through the
    /// shared warn-on-invalid helpers), disabled otherwise.
    pub fn from_env() -> Self {
        let spans = rdo_common::env::read_env(
            "RDO_TRACE_SPANS",
            "tracing stays disabled",
            rdo_common::env::parse_env_bool,
        )
        .unwrap_or(false);
        // A scrape endpoint needs something to scrape: RDO_METRICS_ADDR alone
        // enables collection too, so /metrics and /progress have live data
        // without also setting RDO_TRACE_SPANS.
        if spans || export_path().is_some() || serve::metrics_addr().is_some() {
            Self::enabled()
        } else {
            Self::disabled()
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs this trace on the current thread for the guard's lifetime:
    /// spans, counters and timers opened on this thread record into the
    /// handle's collector. Disabled handles install nothing (an enclosing
    /// installed trace, if any, stays active).
    pub fn install(&self) -> InstallGuard {
        install_ctx(self.inner.clone(), Vec::new())
    }

    /// Adds `delta` to a named counter directly on the handle (no thread
    /// context needed).
    pub fn counter(&self, name: &str, delta: u64) {
        if let Some(collector) = &self.inner {
            collector.add_counter(name, delta);
        }
    }

    /// Raises a named max-merged gauge directly on the handle.
    pub fn gauge_max(&self, name: &str, value: u64) {
        if let Some(collector) = &self.inner {
            collector.gauge_max(name, value);
        }
    }

    /// Snapshot of every finished span so far, ordered by start time.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner
            .as_ref()
            .map(|c| c.snapshot_spans())
            .unwrap_or_default()
    }

    /// Snapshot of the counter map.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.inner
            .as_ref()
            .map(|c| c.counters.lock().unwrap_or_else(|p| p.into_inner()).clone())
            .unwrap_or_default()
    }

    /// Snapshot of the gauge map.
    pub fn gauges(&self) -> BTreeMap<String, u64> {
        self.inner
            .as_ref()
            .map(|c| c.gauges.lock().unwrap_or_else(|p| p.into_inner()).clone())
            .unwrap_or_default()
    }

    /// Records one latency observation into the named histogram directly on
    /// the handle (no thread context needed).
    pub fn observe(&self, name: &str, value_ns: u64) {
        if let Some(collector) = &self.inner {
            collector.observe(name, value_ns);
        }
    }

    /// Snapshot of the histogram map (one latency histogram per span name,
    /// recorded automatically as span guards drop).
    pub fn histograms(&self) -> BTreeMap<String, Histogram> {
        self.inner
            .as_ref()
            .map(|c| {
                c.histograms
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .clone()
            })
            .unwrap_or_default()
    }

    /// Sets a last-write-wins progress note (e.g. the stage the driver is
    /// currently executing) directly on the handle.
    pub fn note(&self, key: &str, value: &str) {
        if let Some(collector) = &self.inner {
            collector.set_note(key, value);
        }
    }

    /// Snapshot of the note map. Notes are local diagnostics for the live
    /// `/progress` endpoint.
    pub fn notes(&self) -> BTreeMap<String, String> {
        self.inner
            .as_ref()
            .map(|c| c.notes.lock().unwrap_or_else(|p| p.into_inner()).clone())
            .unwrap_or_default()
    }

    /// Builds a [`Profile`] from everything collected so far. Callable any
    /// number of times; spans still open are not included.
    pub fn profile(&self) -> Profile {
        Profile::new(self.spans(), self.counters(), self.gauges())
            .with_histograms(self.histograms())
    }
}

/// Export path from the `RDO_TRACE` knob: when set (to a non-empty string),
/// the driver writes a Chrome `trace_event` JSON file there after each run.
pub fn export_path() -> Option<String> {
    match std::env::var("RDO_TRACE") {
        Ok(path) if !path.trim().is_empty() => Some(path),
        _ => None,
    }
}

/// Restores the thread's previous trace context when dropped.
pub struct InstallGuard {
    prev: Option<ThreadCtx>,
    installed: bool,
    _not_send: PhantomData<*const ()>,
}

fn install_ctx(collector: Option<Arc<Collector>>, stack: Vec<u64>) -> InstallGuard {
    match collector {
        Some(collector) => {
            ACTIVE.fetch_add(1, Ordering::Relaxed);
            let prev = CTX.with(|ctx| ctx.replace(Some(ThreadCtx { collector, stack })));
            InstallGuard {
                prev,
                installed: true,
                _not_send: PhantomData,
            }
        }
        None => InstallGuard {
            prev: None,
            installed: false,
            _not_send: PhantomData,
        },
    }
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        if self.installed {
            CTX.with(|ctx| ctx.replace(self.prev.take()));
            ACTIVE.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// A captured trace context that can cross a thread boundary: created on the
/// submitting thread, installed on a worker so spans opened there stitch
/// under the submitter's current span. Capturing with tracing disabled yields
/// an inert context whose `install` is a no-op.
#[derive(Debug, Clone, Default)]
pub struct TaskContext {
    inner: Option<(Arc<Collector>, u64)>,
}

impl TaskContext {
    /// Captures the calling thread's collector and current span id.
    pub fn capture() -> Self {
        if ACTIVE.load(Ordering::Relaxed) == 0 {
            return Self { inner: None };
        }
        CTX.with(|ctx| {
            let borrowed = ctx.borrow();
            let Some(t) = borrowed.as_ref() else {
                return Self { inner: None };
            };
            Self {
                inner: Some((
                    Arc::clone(&t.collector),
                    t.stack.last().copied().unwrap_or(0),
                )),
            }
        })
    }

    /// Whether the captured context carries a live trace.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Installs the captured context on the current thread: new spans become
    /// children of the span that was open at capture time.
    pub fn install(&self) -> InstallGuard {
        match &self.inner {
            Some((collector, parent)) => install_ctx(Some(Arc::clone(collector)), vec![*parent]),
            None => install_ctx(None, Vec::new()),
        }
    }
}

/// Finishes its span when dropped. Obtained from [`span`]; inert when tracing
/// is disabled.
pub struct SpanGuard {
    inner: Option<ActiveSpan>,
    _not_send: PhantomData<*const ()>,
}

struct ActiveSpan {
    collector: Arc<Collector>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
    attrs: Vec<(Cow<'static, str>, AttrValue)>,
}

impl SpanGuard {
    const NOOP: SpanGuard = SpanGuard {
        inner: None,
        _not_send: PhantomData,
    };

    /// This span's id (0 when tracing is disabled).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map(|s| s.id).unwrap_or(0)
    }

    /// Attaches an integer attribute (row counts, byte volumes, levels).
    pub fn attr_u64(&mut self, key: &'static str, value: u64) {
        if let Some(span) = &mut self.inner {
            span.attrs.push((Cow::Borrowed(key), AttrValue::U64(value)));
        }
    }

    /// Attaches a string attribute. The value is only materialized when the
    /// span is live, so pass `&format!(..)` results freely.
    pub fn attr_str(&mut self, key: &'static str, value: &str) {
        if let Some(span) = &mut self.inner {
            span.attrs
                .push((Cow::Borrowed(key), AttrValue::Str(value.to_string())));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.inner.take() else {
            return;
        };
        let end = active.collector.now_ns();
        // Pop this span off the thread's parent stack. The guard is !Send and
        // guards nest lexically, so the top of the stack is this span unless
        // the install guard already dropped (then there is nothing to pop).
        CTX.with(|ctx| {
            if let Some(t) = ctx.borrow_mut().as_mut() {
                if t.stack.last() == Some(&active.id) {
                    t.stack.pop();
                }
            }
        });
        let duration_ns = end.saturating_sub(active.start_ns);
        // Every finished span feeds the latency histogram keyed by its name,
        // so per-operator and per-stage percentiles come for free.
        active.collector.observe(active.name, duration_ns);
        active.collector.push(SpanRecord {
            id: active.id,
            parent: active.parent,
            name: active.name.to_string(),
            thread: current_thread_id(),
            start_ns: active.start_ns,
            duration_ns,
            attrs: active
                .attrs
                .into_iter()
                .map(|(k, v)| (k.into_owned(), v))
                .collect(),
        });
    }
}

/// Opens a span named `name` under the thread's current span. Returns an
/// inert guard (one relaxed load, nothing else) when no trace is installed.
pub fn span(name: &'static str) -> SpanGuard {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return SpanGuard::NOOP;
    }
    CTX.with(|ctx| {
        let mut borrowed = ctx.borrow_mut();
        let Some(t) = borrowed.as_mut() else {
            return SpanGuard::NOOP;
        };
        let id = t.collector.alloc_id();
        let parent = t.stack.last().copied().unwrap_or(0);
        t.stack.push(id);
        SpanGuard {
            inner: Some(ActiveSpan {
                collector: Arc::clone(&t.collector),
                id,
                parent,
                name,
                start_ns: t.collector.now_ns(),
                attrs: Vec::new(),
            }),
            _not_send: PhantomData,
        }
    })
}

/// Adds `delta` to the named counter of the thread's installed trace.
/// Counters sum-merge across threads and processes.
pub fn counter(name: &'static str, delta: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    CTX.with(|ctx| {
        if let Some(t) = ctx.borrow().as_ref() {
            t.collector.add_counter(name, delta);
        }
    });
}

/// Raises the named gauge of the thread's installed trace to at least
/// `value`. Gauges max-merge (peak semantics), mirroring
/// `grace_peak_transient_bytes` in the execution metrics.
pub fn gauge_max(name: &'static str, value: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    CTX.with(|ctx| {
        if let Some(t) = ctx.borrow().as_ref() {
            t.collector.gauge_max(name, value);
        }
    });
}

/// Sets a last-write-wins progress note on the thread's installed trace —
/// free-form current-state strings (the stage the driver is executing) read
/// back by the live `/progress` endpoint. A no-op when tracing is disabled.
pub fn note(key: &str, value: &str) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    CTX.with(|ctx| {
        if let Some(t) = ctx.borrow().as_ref() {
            t.collector.set_note(key, value);
        }
    });
}

/// Accumulates elapsed wall time into a `..._ns` counter when dropped.
/// Obtained from [`timer`]; inert when tracing is disabled.
pub struct TimerGuard {
    inner: Option<(Arc<Collector>, &'static str, Instant)>,
    _not_send: PhantomData<*const ()>,
}

impl Drop for TimerGuard {
    fn drop(&mut self) {
        if let Some((collector, name, start)) = self.inner.take() {
            collector.add_counter(name, start.elapsed().as_nanos() as u64);
        }
    }
}

/// Starts a timer that adds its elapsed nanoseconds to counter `name` when
/// dropped — for hot, flat costs (compression, prefetch waits) where a span
/// per call would drown the tree.
pub fn timer(name: &'static str) -> TimerGuard {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return TimerGuard {
            inner: None,
            _not_send: PhantomData,
        };
    }
    CTX.with(|ctx| TimerGuard {
        inner: ctx
            .borrow()
            .as_ref()
            .map(|t| (Arc::clone(&t.collector), name, Instant::now())),
        _not_send: PhantomData,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_records_nothing() {
        let handle = TraceHandle::disabled();
        let _guard = handle.install();
        {
            let mut s = span("never");
            s.attr_u64("x", 1);
        }
        counter("never.count", 3);
        gauge_max("never.gauge", 9);
        drop(timer("never.timer_ns"));
        assert!(!handle.is_enabled());
        assert!(handle.spans().is_empty());
        assert!(handle.counters().is_empty());
        assert!(handle.gauges().is_empty());
    }

    #[test]
    fn spans_nest_under_the_enclosing_guard() {
        let handle = TraceHandle::enabled();
        let _guard = handle.install();
        let root_id;
        {
            let root = span("root");
            root_id = root.id();
            {
                let mut child = span("child");
                child.attr_u64("rows", 42);
                let _grand = span("grandchild");
            }
            let _sibling = span("sibling");
        }
        let spans = handle.spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name("root").parent, 0);
        assert_eq!(by_name("child").parent, root_id);
        assert_eq!(by_name("grandchild").parent, by_name("child").id);
        assert_eq!(by_name("sibling").parent, root_id);
        assert_eq!(
            by_name("child").attrs,
            vec![("rows".to_string(), AttrValue::U64(42))]
        );
    }

    #[test]
    fn task_context_stitches_spans_across_threads() {
        let handle = TraceHandle::enabled();
        let _guard = handle.install();
        let parent_id;
        {
            let parent = span("submit");
            parent_id = parent.id();
            let ctx = TaskContext::capture();
            assert!(ctx.is_enabled());
            std::thread::scope(|scope| {
                for _ in 0..3 {
                    let ctx = ctx.clone();
                    scope.spawn(move || {
                        let _guard = ctx.install();
                        let _w = span("worker.task");
                        counter("tasks", 1);
                    });
                }
            });
        }
        let spans = handle.spans();
        let workers: Vec<_> = spans.iter().filter(|s| s.name == "worker.task").collect();
        assert_eq!(workers.len(), 3);
        for w in &workers {
            assert_eq!(w.parent, parent_id, "worker span stitches under submit");
        }
        let threads: std::collections::BTreeSet<u64> = workers.iter().map(|s| s.thread).collect();
        assert_eq!(threads.len(), 3, "each worker kept its own thread id");
        assert_eq!(handle.counters().get("tasks"), Some(&3));
    }

    #[test]
    fn counters_sum_and_gauges_max() {
        let handle = TraceHandle::enabled();
        let _guard = handle.install();
        counter("c", 2);
        counter("c", 5);
        gauge_max("g", 7);
        gauge_max("g", 3);
        handle.counter("c", 1);
        handle.gauge_max("g", 10);
        assert_eq!(handle.counters().get("c"), Some(&8));
        assert_eq!(handle.gauges().get("g"), Some(&10));
    }

    #[test]
    fn timers_accumulate_elapsed_nanoseconds() {
        let handle = TraceHandle::enabled();
        let _guard = handle.install();
        for _ in 0..2 {
            let _t = timer("work_ns");
        }
        let counters = handle.counters();
        assert!(counters.contains_key("work_ns"));
    }

    #[test]
    fn histogram_buckets_are_log_spaced_and_merge_is_bucketwise() {
        let mut a = Histogram::new();
        a.observe(1); // bucket 0 (≤ 1024)
        a.observe(1024); // bucket 0 boundary is inclusive
        a.observe(1025); // bucket 1
        a.observe(u64::MAX); // overflow bucket
        assert_eq!(a.count(), 4);
        assert_eq!(a.bucket_counts()[0], 2);
        assert_eq!(a.bucket_counts()[1], 1);
        assert_eq!(a.bucket_counts()[HISTOGRAM_BOUNDS], 1);

        let mut b = Histogram::new();
        b.observe(2048);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge is commutative");
        assert_eq!(ab.count(), 5);
        assert_eq!(ab.bucket_counts()[1], 2, "2048 lands in bucket 1 too");
    }

    #[test]
    fn histogram_quantiles_are_bucket_upper_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.observe(1000); // bucket 0 → bound 1024
        }
        h.observe(1 << 20); // bucket 10
        assert_eq!(h.quantile_ns(0.5), 1024);
        assert_eq!(h.quantile_ns(0.99), 1024);
        assert_eq!(h.quantile_ns(1.0), 1 << 20);
        assert_eq!(Histogram::new().quantile_ns(0.5), 0);
    }

    #[test]
    fn spans_feed_their_latency_histogram_automatically() {
        let handle = TraceHandle::enabled();
        {
            let _guard = handle.install();
            for _ in 0..3 {
                let _s = span("exec.join");
            }
            let _other = span("stage.final");
        }
        let histograms = handle.histograms();
        assert_eq!(histograms.get("exec.join").map(|h| h.count()), Some(3));
        assert_eq!(histograms.get("stage.final").map(|h| h.count()), Some(1));
    }

    #[test]
    fn notes_are_last_write_wins() {
        let handle = TraceHandle::enabled();
        {
            let _guard = handle.install();
            note("stage", "pushdown:part");
            note("stage", "reopt#1");
        }
        handle.note("extra", "x");
        assert_eq!(
            handle.notes().get("stage").map(String::as_str),
            Some("reopt#1")
        );
        assert_eq!(handle.notes().get("extra").map(String::as_str), Some("x"));
        let disabled = TraceHandle::disabled();
        disabled.note("stage", "ignored");
        assert!(disabled.notes().is_empty());
    }

    #[test]
    fn install_restores_the_previous_context() {
        let outer = TraceHandle::enabled();
        let inner = TraceHandle::enabled();
        let _outer_guard = outer.install();
        {
            let _inner_guard = inner.install();
            let _s = span("inner.only");
        }
        {
            let _s = span("outer.only");
        }
        assert_eq!(inner.spans().len(), 1);
        assert_eq!(inner.spans()[0].name, "inner.only");
        assert_eq!(outer.spans().len(), 1);
        assert_eq!(outer.spans()[0].name, "outer.only");
    }
}

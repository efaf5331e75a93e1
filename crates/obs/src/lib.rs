//! # snap-obs — kernel observability for SNAP
//!
//! Lightweight scoped spans (monotonic timers), thread-safe relaxed-atomic
//! counters/gauges, and a hierarchical [`RunReport`] that serializes to
//! JSON with a hand-rolled writer ([`json`]). The workspace is offline, so
//! everything is in-repo — no `tracing`, no `serde`.
//!
//! ## Model
//!
//! Collection is **per coordinating thread**: [`enable`] installs a fresh
//! report tree on the calling thread, and spans/counters opened by that
//! thread attach to it. **A unit records where its job was published**:
//! this crate registers one hook with `vendor/rayon`, so every parallel
//! call carries its caller's current span, and a worker installs it
//! around the units it runs. [`add`], [`record_max`], [`gauge`],
//! [`gauge_max`], [`hist()`] and [`meta`] from any unit land on that span,
//! so counts from 1, 4 or 8 rayon workers land in the same cell. Spans
//! opened on a worker (or on any thread without a context) are no-ops,
//! which keeps the tree well-formed: only the coordinator narrates.
//!
//! Repeated spans with the same name under the same parent **coalesce**
//! into a single node (durations and counters accumulate, `calls` counts
//! the activations), so round-based kernels produce bounded reports no
//! matter how many iterations they run.
//!
//! ## Profiling layer
//!
//! Beyond summed spans, three profiling facilities (see DESIGN.md §12):
//!
//! - **Latency histograms** ([`hist()`], [`hist::Histogram`]): log-bucketed
//!   (power-of-two) mergeable distributions attached to the current span
//!   — per-source, per-level, per-bucket, per-round kernel timings
//!   surface as p50/p90/p99/max in [`RunReport::render`] and JSON.
//! - **Event rings** ([`enable_tracing`], [`task`], [`ring`]): when
//!   tracing is on, spans and worker-side tasks append begin/end records
//!   to lock-free per-thread rings; `take_report` drains them into
//!   [`RunReport::trace`], exportable as Chrome trace-event JSON
//!   ([`RunReport::to_chrome_trace`]) for Perfetto.
//! - **Analysis** ([`diff`], [`analyze`]): span-tree-aligned
//!   wall-time/counter deltas between two reports (`snap-cli obs diff`),
//!   and one report explained as self time, self allocation, critical
//!   path and parallel efficiency (`snap-cli obs explain`).
//!
//! ## Memory layer
//!
//! With a [`TrackingAlloc`] installed as the binary's global allocator
//! and [`enable_mem_tracking`] on (see DESIGN.md §14), the span layer
//! attributes per-thread allocation deltas to the active span: each
//! span reports bytes allocated/freed, allocation count, and its
//! peak-live delta in [`RunReport`] (render, JSON, `obs diff`, `obs
//! explain`). When event tracing is also on, live-bytes samples are
//! recorded at span boundaries and exported as Perfetto counter events.
//! The [`telemetry`] module streams the same counters live (NDJSON +
//! OpenMetrics) for long-running processes.
//!
//! ## Zero cost when disabled
//!
//! Every entry point first checks a process-global atomic (`Relaxed`
//! load of the number of live contexts); with no context anywhere, a
//! span or counter call is one predictable branch — verified to be
//! within noise on the BFS hot path (see EXPERIMENTS.md).
//!
//! ```
//! let _ = snap_obs::take_report(); // ensure a clean slate
//! snap_obs::enable();
//! {
//!     let _span = snap_obs::span("bfs");
//!     snap_obs::add("edges_examined", 42);
//! }
//! let report = snap_obs::finish().unwrap();
//! let bfs = report.find("bfs").unwrap();
//! assert_eq!(bfs.counter("edges_examined"), Some(42));
//! ```

pub mod alloc;
pub mod analyze;
pub mod diff;
pub mod hist;
pub mod json;
pub mod report;
pub mod ring;
pub mod telemetry;

pub use alloc::{
    disable_mem_tracking, enable_mem_tracking, mem_snapshot, reset_peak_live, thread_mem,
    MemSnapshot, ThreadMem, TrackingAlloc,
};
pub use hist::{HistHandle, HistSnapshot, Histogram};
pub use json::{Json, JsonError};
pub use report::{MemSample, MemStats, ReportNode, RunReport};
pub use ring::{disable_tracing, enable_tracing, set_trace_capacity, trace_capacity, TraceEvent};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Number of threads with a live collection context. The global fast
/// path: zero means every observability call is a no-op branch.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CONTEXT: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    /// On a rayon worker running units: the span that was current where
    /// their job was published.
    static PUBLISHED: RefCell<Option<Arc<Node>>> = const { RefCell::new(None) };
}

/// The rayon hook's capture: this thread's current span, if collecting.
fn capture() -> Option<rayon::Context> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CONTEXT.with(|c| Some(Arc::clone(c.borrow().as_ref()?.current()) as rayon::Context))
}

/// The rayon hook's install: record on a published span, or on none.
fn install(ctx: Option<&rayon::Context>) {
    let node = ctx.and_then(|c| Arc::clone(c).downcast::<Node>().ok());
    PUBLISHED.with(|p| *p.borrow_mut() = node);
}

/// Shared cells of one kind, keyed by name in insertion order: a span's
/// counters, gauges and histograms, and the [`telemetry`] registry's
/// counters and gauges. A lookup is one mutex and one linear scan; the
/// order of first use is the order names appear in reports. Every update
/// is one push of a whole entry, so a lock poisoned by a panic elsewhere
/// still guards a valid table and is recovered.
pub(crate) struct Cells<T>(Mutex<Vec<(String, Arc<T>)>>);

impl<T: Default> Cells<T> {
    pub(crate) const fn new() -> Cells<T> {
        Cells(Mutex::new(Vec::new()))
    }

    /// The cell named `name`, created on first use.
    pub(crate) fn get(&self, name: &str) -> Arc<T> {
        let mut cells = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, cell)) = cells.iter().find(|(n, _)| n == name) {
            return Arc::clone(cell);
        }
        let cell = Arc::new(T::default());
        cells.push((name.to_string(), Arc::clone(&cell)));
        cell
    }

    /// `(name, value)` for every cell `value` maps to `Some`, in
    /// insertion order.
    pub(crate) fn snapshot<V>(&self, value: impl Fn(&T) -> Option<V>) -> Vec<(String, V)> {
        let cells = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        cells
            .iter()
            .filter_map(|(n, c)| Some((n.clone(), value(c)?)))
            .collect()
    }
}

/// Cheap cloneable handle to a relaxed-atomic counter in the
/// [`telemetry`] registry (or on a report node, inside this crate), or a
/// no-op when collection is disabled. A span counter needs no handle: a
/// unit records where its job was published, so a plain [`add`] works in
/// any unit of a parallel call.
#[derive(Clone, Debug, Default)]
pub struct CounterHandle(Option<Arc<AtomicU64>>);

impl CounterHandle {
    /// Add `delta` (no-op without a live context).
    #[inline]
    pub fn add(&self, delta: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Raise the value to at least `v`.
    #[inline]
    pub(crate) fn record_max(&self, v: u64) {
        if let Some(c) = &self.0 {
            c.fetch_max(v, Ordering::Relaxed);
        }
    }
}

/// An `f64` gauge stored as atomic bits. [`set`](Gauge::set) is
/// last-write-wins; [`set_max`](Gauge::set_max) only ever raises the
/// value (a CAS loop comparing as `f64`, because a bitwise `fetch_max`
/// orders negative floats wrong), so concurrent reporters of
/// peak-style gauges cannot regress the recorded peak.
#[derive(Debug, Default)]
struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Store `v` (last write wins).
    #[inline]
    fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the stored value to at least `v` (numeric max, correct for
    /// negative values too; NaN is ignored).
    fn set_max(&self, v: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.bits.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Cheap cloneable handle to a gauge on a report node (or in the
/// [`telemetry`] registry), or a no-op when collection is disabled.
#[derive(Clone, Debug, Default)]
pub struct GaugeHandle(Option<Arc<Gauge>>);

impl GaugeHandle {
    /// Store `v` (last write wins; no-op without a live context).
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }
}

/// One node of the live span tree.
struct Node {
    name: String,
    /// Microseconds from the context epoch to the first activation.
    start_us: u64,
    /// Completed activations.
    calls: AtomicU64,
    /// Total time spent inside, microseconds (summed over activations).
    duration_us: AtomicU64,
    counters: Cells<AtomicU64>,
    gauges: Cells<Gauge>,
    hists: Cells<Histogram>,
    meta: Mutex<Vec<(String, String)>>,
    children: Mutex<Vec<Arc<Node>>>,
    /// Memory attributed to this span by closed (or snapshot-folded)
    /// activations. `peak_delta` keeps the max over activations so
    /// coalesced spans report their worst case.
    mem_allocated: AtomicU64,
    mem_freed: AtomicU64,
    mem_allocs: AtomicU64,
    mem_peak_delta: AtomicU64,
}

impl Node {
    fn new(name: &str, start_us: u64) -> Arc<Node> {
        Arc::new(Node {
            name: name.to_string(),
            start_us,
            calls: AtomicU64::new(0),
            duration_us: AtomicU64::new(0),
            counters: Cells::new(),
            gauges: Cells::new(),
            hists: Cells::new(),
            meta: Mutex::new(Vec::new()),
            children: Mutex::new(Vec::new()),
            mem_allocated: AtomicU64::new(0),
            mem_freed: AtomicU64::new(0),
            mem_allocs: AtomicU64::new(0),
            mem_peak_delta: AtomicU64::new(0),
        })
    }

    /// Child with this name, created on first use (same-name children
    /// coalesce).
    fn child(&self, name: &str, start_us: u64) -> Arc<Node> {
        let mut children = self.children.lock().unwrap();
        if let Some(c) = children.iter().find(|c| c.name == name) {
            return Arc::clone(c);
        }
        let node = Node::new(name, start_us);
        children.push(Arc::clone(&node));
        node
    }

    fn apply_mem(&self, delta: alloc::MemDelta) {
        if delta.is_zero() {
            return;
        }
        self.mem_allocated
            .fetch_add(delta.allocated, Ordering::Relaxed);
        self.mem_freed.fetch_add(delta.freed, Ordering::Relaxed);
        self.mem_allocs.fetch_add(delta.allocs, Ordering::Relaxed);
        self.mem_peak_delta
            .fetch_max(delta.peak_delta, Ordering::Relaxed);
    }

    fn set_meta(&self, name: &str, value: String) {
        let mut meta = self.meta.lock().unwrap();
        match meta.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v = value,
            None => meta.push((name.to_string(), value)),
        }
    }

    fn snapshot(&self) -> ReportNode {
        let stats = MemStats {
            allocated: self.mem_allocated.load(Ordering::Relaxed),
            freed: self.mem_freed.load(Ordering::Relaxed),
            allocs: self.mem_allocs.load(Ordering::Relaxed),
            peak_delta: self.mem_peak_delta.load(Ordering::Relaxed),
        };
        ReportNode {
            name: self.name.clone(),
            start_us: self.start_us,
            duration_us: self.duration_us.load(Ordering::Relaxed),
            calls: self.calls.load(Ordering::Relaxed),
            counters: self.counters.snapshot(|c| Some(c.load(Ordering::Relaxed))),
            gauges: self.gauges.snapshot(|g| Some(g.get())),
            meta: self.meta.lock().unwrap().clone(),
            mem: (!stats.is_empty()).then_some(stats),
            hists: self
                .hists
                .snapshot(|h| (h.count() > 0).then(|| h.snapshot())),
            children: self
                .children
                .lock()
                .unwrap()
                .iter()
                .map(|c| c.snapshot())
                .collect(),
        }
    }
}

struct Ctx {
    epoch: Instant,
    /// Nesting depth of [`enable`] calls sharing this context. The tree is
    /// installed by the outermost enable and torn down only when the
    /// matching outermost [`disable`] brings the depth back to zero, so
    /// overlapping collection scopes (per-request guards on pooled worker
    /// threads) cannot have an inner scope kill the outer one's data.
    depth: usize,
    root: Arc<Node>,
    /// Open spans, innermost last, each with the entry time and memory
    /// scope of its current activation (used by [`take_report`] to
    /// snapshot in-progress spans consistently).
    stack: Vec<(Arc<Node>, Instant, Option<alloc::MemScope>)>,
    /// Thread memory scope opened with the context, folded into the
    /// root node at snapshot time. `None` when memory tracking was off
    /// when the context was created.
    mem: Option<alloc::MemScope>,
}

impl Ctx {
    fn new() -> Ctx {
        static HOOK: std::sync::Once = std::sync::Once::new();
        HOOK.call_once(|| rayon::set_context_hook(capture, install));
        ACTIVE.fetch_add(1, Ordering::SeqCst);
        Ctx {
            epoch: Instant::now(),
            depth: 1,
            root: Node::new("run", 0),
            stack: Vec::new(),
            mem: alloc::is_mem_tracking().then(alloc::begin_scope),
        }
    }

    /// The innermost open span, else the root: where counters, gauges,
    /// histograms, metadata and new child spans attach.
    fn current(&self) -> &Arc<Node> {
        self.stack.last().map_or(&self.root, |(node, _, _)| node)
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// `f` applied to this thread's current span, or on a rayon worker to the
/// span its job was published from; `None` without either.
fn with_current<R>(f: impl FnOnce(&Node) -> R) -> Option<R> {
    CONTEXT.with(|c| match c.borrow().as_ref() {
        Some(ctx) => Some(f(ctx.current())),
        None => PUBLISHED.with(|p| p.borrow().as_deref().map(f)),
    })
}

/// Start collecting on this thread. Subsequent [`span`]/[`add`]/[`gauge`]
/// calls from this thread — and from the units of its parallel calls —
/// record into the tree.
///
/// Enable/disable pairs are **depth-counted**: the outermost `enable`
/// installs a fresh tree, a nested `enable` joins it, and collection stops
/// only when every `enable` has been matched by a [`disable`]. This makes
/// overlapping RAII collection guards safe — an inner guard dropping no
/// longer silently kills the outer scope's collection.
pub fn enable() {
    CONTEXT.with(|c| {
        let mut slot = c.borrow_mut();
        match slot.as_mut() {
            Some(ctx) => ctx.depth += 1,
            None => *slot = Some(Ctx::new()),
        }
    });
}

/// Stop collecting on this thread, dropping any unreported data. With
/// nested [`enable`] calls outstanding this only pops one nesting level;
/// the context (and its tree) survives until the outermost disable.
pub fn disable() {
    CONTEXT.with(|c| {
        let mut slot = c.borrow_mut();
        match slot.as_mut() {
            Some(ctx) if ctx.depth > 1 => ctx.depth -= 1,
            _ => {
                slot.take();
            }
        }
    });
}

/// Whether this thread's records land in a report: it is collecting, or
/// it runs units of a job published by a thread that is.
#[inline]
pub fn is_enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0 && with_current(|_| ()).is_some()
}

/// Snapshot the tree collected so far and start a fresh one (collection
/// stays enabled). `None` when not collecting.
///
/// **Consistency contract:** spans that are still open when the report is
/// taken (guards not yet dropped — e.g. calling this from inside an
/// instrumented section) are included with their elapsed-so-far duration
/// and counted as one activation, so the snapshot is internally
/// consistent: every span on the open stack has `calls >= 1` and a
/// duration covering the time up to the snapshot. The guards keep
/// running and close against the *new* tree's bookkeeping (their late
/// durations land in discarded nodes, never in the returned report).
pub fn take_report() -> Option<RunReport> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    CONTEXT.with(|c| {
        let mut slot = c.borrow_mut();
        let ctx = slot.as_mut()?;
        // Fold the in-progress activations into the tree before
        // snapshotting; the old tree is discarded right after, so the
        // eventual guard drops can't double-count into the report.
        for (node, entered, mem) in &ctx.stack {
            node.duration_us
                .fetch_add(entered.elapsed().as_micros() as u64, Ordering::Relaxed);
            node.calls.fetch_add(1, Ordering::Relaxed);
            if let Some(scope) = mem {
                node.apply_mem(alloc::scope_delta(scope));
            }
        }
        if let Some(scope) = &ctx.mem {
            ctx.root.apply_mem(alloc::scope_delta(scope));
        }
        let mut root = ctx.root.snapshot();
        root.duration_us = ctx.epoch.elapsed().as_micros() as u64;
        root.calls = 1;
        let (trace, per_ring_dropped) = if ring::is_tracing() {
            ring::drain()
        } else {
            (Vec::new(), Vec::new())
        };
        let dropped: u64 = per_ring_dropped.iter().map(|&(_, d)| d).sum();
        if !trace.is_empty() || dropped > 0 {
            root.counters
                .push(("trace_events_dropped".to_string(), dropped));
        }
        // Per-thread overwrite counts, so a truncated timeline is
        // attributable to the ring (tid) that lost events rather than
        // hiding inside the global total.
        for (tid, d) in per_ring_dropped {
            root.counters
                .push((format!("trace_events_dropped.tid{tid}"), d));
        }
        let mem_samples = drain_mem_samples();
        let depth = ctx.depth;
        *ctx = Ctx::new();
        ctx.depth = depth;
        Some(RunReport {
            root,
            trace,
            mem_samples,
        })
    })
}

/// Snapshot the tree and stop collecting. `None` when not collecting.
pub fn finish() -> Option<RunReport> {
    let report = take_report();
    disable();
    report
}

/// Cap on buffered live-bytes samples per report window — span-boundary
/// sampling is bounded by trace volume anyway, but a runaway span loop
/// shouldn't grow an unbounded buffer.
const MEM_SAMPLE_CAPACITY: usize = 8192;

/// Live-bytes samples recorded at span boundaries while both tracing
/// and memory tracking are on; drained into [`RunReport::mem_samples`]
/// by [`take_report`] and exported as Perfetto counter events.
static MEM_SAMPLES: Mutex<Vec<MemSample>> = Mutex::new(Vec::new());

fn push_mem_sample() {
    let mut samples = MEM_SAMPLES.lock().unwrap();
    if samples.len() < MEM_SAMPLE_CAPACITY {
        samples.push(MemSample {
            ts_us: ring::now_us(),
            bytes_live: alloc::mem_snapshot().bytes_live,
        });
    }
}

fn drain_mem_samples() -> Vec<MemSample> {
    let mut samples = std::mem::take(&mut *MEM_SAMPLES.lock().unwrap());
    samples.sort_by_key(|s| s.ts_us);
    samples
}

/// RAII guard for a scoped span; the span closes (and its duration is
/// recorded) when the guard drops.
#[derive(Default)]
#[must_use = "a span closes when its guard drops; bind it with `let _span = ...`"]
pub struct SpanGuard {
    node: Option<(Arc<Node>, Instant)>,
    /// Ring + interned name for the matching end event when tracing.
    trace: Option<(Arc<ring::Ring>, u32)>,
    /// Thread memory scope opened with the span when tracking.
    mem: Option<alloc::MemScope>,
}

/// Open a span named `name` under the current span (or the root). No-op
/// without a live context on this thread — one relaxed atomic load on the
/// disabled path.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return SpanGuard::default();
    }
    span_slow(name)
}

fn span_slow(name: &str) -> SpanGuard {
    CONTEXT.with(|c| {
        let mut slot = c.borrow_mut();
        let Some(ctx) = slot.as_mut() else {
            return SpanGuard::default();
        };
        let start_us = ctx.epoch.elapsed().as_micros() as u64;
        let node = ctx.current().child(name, start_us);
        let mem = alloc::is_mem_tracking().then(alloc::begin_scope);
        ctx.stack.push((Arc::clone(&node), Instant::now(), mem));
        let trace = if ring::is_tracing() {
            let ring = ring::thread_ring();
            let id = ring::intern(name);
            ring.push(id, true);
            if mem.is_some() {
                push_mem_sample();
            }
            Some((ring, id))
        } else {
            None
        };
        SpanGuard {
            node: Some((node, Instant::now())),
            trace,
            mem,
        }
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((ring, id)) = self.trace.take() {
            ring.push(id, false);
            if self.mem.is_some() {
                push_mem_sample();
            }
        }
        let Some((node, started)) = self.node.take() else {
            return;
        };
        if let Some(scope) = self.mem.take() {
            node.apply_mem(alloc::end_scope(scope));
        }
        node.duration_us
            .fetch_add(started.elapsed().as_micros() as u64, Ordering::Relaxed);
        node.calls.fetch_add(1, Ordering::Relaxed);
        CONTEXT.with(|c| {
            if let Some(ctx) = c.borrow_mut().as_mut() {
                // Normal case: we are the top of the stack. Defensive
                // case (guards dropped out of order, or the tree was
                // taken mid-span): remove wherever we are, if present.
                if let Some(pos) = ctx
                    .stack
                    .iter()
                    .rposition(|(n, _, _)| Arc::ptr_eq(n, &node))
                {
                    ctx.stack.remove(pos);
                }
            }
        });
    }
}

/// RAII guard for a traced worker-side task (see [`task`]); the matching
/// end event is written into the originating ring when the guard drops.
#[must_use = "a task closes when its guard drops; bind it with `let _task = ...`"]
pub struct TaskGuard(Option<(Arc<ring::Ring>, u32)>);

impl Drop for TaskGuard {
    fn drop(&mut self) {
        if let Some((ring, id)) = self.0.take() {
            ring.push(id, false);
        }
    }
}

/// Record a begin/end event pair for a unit of work on *this* thread's
/// event ring — the worker-side counterpart of [`span`]. Unlike spans,
/// tasks attach to no report tree, so they are meaningful on rayon
/// workers; they surface only in the exported trace timeline. One relaxed
/// load when tracing is off.
#[inline]
pub fn task(name: &str) -> TaskGuard {
    if !ring::is_tracing() {
        return TaskGuard(None);
    }
    let ring = ring::thread_ring();
    let id = ring::intern(name);
    ring.push(id, true);
    TaskGuard(Some((ring, id)))
}

/// Handle to counter `name` on the current span (no-op when disabled).
#[inline]
fn counter(name: &str) -> CounterHandle {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return CounterHandle(None);
    }
    CounterHandle(with_current(|node| node.counters.get(name)))
}

/// Handle to latency histogram `name` on the current span (no-op when
/// disabled). Fetch once, then [`record`](HistHandle::record) /
/// [`start`](HistHandle::start) / [`stop_us`](HistHandle::stop_us)
/// freely; per-thread observations merge by relaxed bucket addition.
#[inline]
pub fn hist(name: &str) -> HistHandle {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return HistHandle(None);
    }
    HistHandle(with_current(|node| node.hists.get(name)))
}

/// Add `delta` to counter `name` on the current span.
#[inline]
pub fn add(name: &str, delta: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    counter(name).add(delta);
}

/// Raise counter `name` to at least `v` (peak-style counters survive span
/// coalescing as a max, where `add` would sum).
#[inline]
pub fn record_max(name: &str, v: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    counter(name).record_max(v);
}

/// The gauge `name` on the current span, if collecting.
#[inline]
fn current_gauge(name: &str) -> Option<Arc<Gauge>> {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return None;
    }
    with_current(|node| node.gauges.get(name))
}

/// Set gauge `name` on the current span (last write wins).
#[inline]
pub fn gauge(name: &str, value: f64) {
    if let Some(g) = current_gauge(name) {
        g.set(value);
    }
}

/// Raise gauge `name` on the current span to at least `value` —
/// `fetch_max` semantics, so peak-style gauges reported concurrently
/// from several threads (or several coalesced activations) keep their
/// true high-water mark where [`gauge`]'s last-write-wins could regress
/// it.
#[inline]
pub fn gauge_max(name: &str, value: f64) {
    if let Some(g) = current_gauge(name) {
        g.set_max(value);
    }
}

/// Attach string metadata `name = value` to the current span (last write
/// wins) — run parameters, seeds, instance names.
#[inline]
pub fn meta(name: &str, value: impl std::fmt::Display) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    with_current(|node| node.set_meta(name, value.to_string()));
}

/// Serializes tests that touch the global tracing state (rings, the
/// interner, the registry); span-tree tests are per-thread and don't
/// need it.
#[cfg(test)]
pub(crate) fn trace_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_inert() {
        disable();
        let _span = span("nothing");
        add("x", 1);
        gauge("g", 1.0);
        meta("m", "v");
        let h = counter("c");
        h.incr();
        assert!(h.0.is_none());
        let hh = hist("h");
        hh.record(1);
        assert!(hh.0.is_none());
        assert!(hh.start().is_none());
        assert!(take_report().is_none());
    }

    #[test]
    fn histograms_attach_to_spans_and_round_trip() {
        enable();
        {
            let _s = span("kernel");
            let h = hist("source_us");
            for v in [10u64, 20, 30, 40, 5000] {
                h.record(v);
            }
        }
        let report = finish().unwrap();
        let node = report.find("kernel").unwrap();
        let snap = node.hist("source_us").expect("histogram recorded");
        assert_eq!(snap.count, 5);
        assert_eq!(snap.max, 5000);
        assert!(snap.p50() >= 20 && snap.p50() <= 40, "{snap:?}");
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
        let rendered = report.render();
        assert!(rendered.contains("p50="), "{rendered}");
        assert!(rendered.contains("p99="), "{rendered}");
    }

    #[test]
    fn take_report_snapshots_live_spans_consistently() {
        enable();
        let guard = span("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let report = take_report().unwrap();
        // The still-open span appears with one activation and its
        // elapsed-so-far duration, not as a zero-duration stub.
        let outer = report.find("outer").expect("open span in snapshot");
        assert_eq!(outer.calls, 1);
        assert!(outer.duration_us >= 1_000, "{}", report.render());
        assert!(report.root.well_formed(), "{}", report.render());
        drop(guard);
        // The guard closed against the old (discarded) tree: the fresh
        // tree only records spans opened after the snapshot.
        let second = finish().unwrap();
        assert!(second.find("outer").is_none());
    }

    #[test]
    fn nested_enable_disable_is_depth_counted() {
        enable();
        {
            let _outer = span("outer.work");
            // An inner collection scope on the same thread (e.g. a
            // per-request guard on a pooled worker) joins the live tree...
            enable();
            add("inner.count", 3);
            // ...and its matching disable must NOT kill the outer scope.
            disable();
        }
        assert!(is_enabled(), "outer scope survived the inner disable");
        add("outer.count", 1);
        let report = finish().unwrap();
        assert!(!is_enabled());
        assert!(report.find("outer.work").is_some(), "{}", report.render());
        let counters: std::collections::HashMap<_, _> = report
            .root
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        assert_eq!(counters.get("outer.count"), Some(&1));
    }

    #[test]
    fn take_report_preserves_nesting_depth() {
        enable();
        enable();
        let _ = take_report().unwrap();
        // The fresh post-snapshot context keeps the depth: one disable
        // still leaves collection live for the outer scope.
        disable();
        assert!(is_enabled());
        assert!(finish().is_some());
        assert!(!is_enabled());
    }

    #[test]
    fn tracing_pairs_span_and_task_events() {
        let _l = trace_test_lock();
        enable();
        enable_tracing();
        {
            let _s = span("traced.kernel");
            let _t = task("traced.unit");
        }
        let report = finish().unwrap();
        disable_tracing();
        let kinds: Vec<_> = report
            .trace
            .iter()
            .filter(|e| e.name.starts_with("traced."))
            .map(|e| (e.name.as_str(), e.begin))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("traced.kernel", true),
                ("traced.unit", true),
                ("traced.unit", false),
                ("traced.kernel", false),
            ]
        );
        assert_eq!(report.root.counter("trace_events_dropped"), Some(0));
        let back = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn spans_nest_and_coalesce() {
        enable();
        for _ in 0..3 {
            let _outer = span("outer");
            add("rounds", 1);
            let _inner = span("inner");
            add("work", 2);
        }
        let report = finish().unwrap();
        let outer = report.find("outer").unwrap();
        assert_eq!(outer.calls, 3);
        assert_eq!(outer.counter("rounds"), Some(3));
        assert_eq!(outer.children.len(), 1);
        let inner = &outer.children[0];
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.calls, 3);
        assert_eq!(inner.counter("work"), Some(6));
        assert!(report.root.well_formed());
    }

    #[test]
    fn counter_handles_work_across_threads() {
        enable();
        let h = {
            let _s = span("parallel");
            counter("hits")
        };
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        h.incr();
                    }
                });
            }
        });
        let report = finish().unwrap();
        assert_eq!(report.find("parallel").unwrap().counter("hits"), Some(4000));
    }

    #[test]
    fn spans_on_foreign_threads_are_noops() {
        enable();
        std::thread::scope(|s| {
            s.spawn(|| {
                // This thread has no context: nothing records.
                let _sp = span("ghost");
                add("ghost_counter", 5);
            });
        });
        let report = finish().unwrap();
        assert!(report.find("ghost").is_none());
        assert_eq!(report.root.counter("ghost_counter"), None);
    }

    #[test]
    fn take_report_resets_but_keeps_collecting() {
        enable();
        add("a", 1);
        let first = take_report().unwrap();
        assert_eq!(first.root.counter("a"), Some(1));
        add("b", 2);
        let second = finish().unwrap();
        assert_eq!(second.root.counter("a"), None);
        assert_eq!(second.root.counter("b"), Some(2));
        assert!(take_report().is_none());
    }

    #[test]
    fn record_max_keeps_peak() {
        enable();
        record_max("peak", 10);
        record_max("peak", 3);
        record_max("peak", 12);
        let report = finish().unwrap();
        assert_eq!(report.root.counter("peak"), Some(12));
    }

    #[test]
    fn gauge_max_never_regresses_under_concurrent_reporters() {
        enable();
        let h = current_gauge("pool_peak").expect("collecting");
        // Eight threads race to report peaks in interleaved orders;
        // last-write-wins semantics would let a small late report
        // clobber the true maximum.
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let h = h.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.set_max((t * 1000 + i) as f64);
                    }
                    // Late small write after the big ones.
                    h.set_max(1.0);
                });
            }
        });
        gauge_max("pool_peak", 42.0);
        let report = finish().unwrap();
        assert_eq!(report.root.gauge("pool_peak"), Some(7999.0));
    }

    #[test]
    fn gauge_set_max_orders_negative_values_numerically() {
        // A bitwise u64 fetch_max would order negative floats wrong;
        // modularity-style gauges can be negative.
        let g = Gauge::default();
        g.set(-5.0);
        g.set_max(-2.0);
        assert_eq!(g.get(), -2.0);
        g.set_max(-9.0);
        assert_eq!(g.get(), -2.0);
        g.set_max(3.5);
        assert_eq!(g.get(), 3.5);
    }

    #[test]
    fn gauges_and_meta_last_write_wins() {
        enable();
        gauge("q", 0.1);
        gauge("q", 0.4);
        meta("seed", 7u64);
        meta("seed", 9u64);
        let report = finish().unwrap();
        assert_eq!(report.root.gauge("q"), Some(0.4));
        assert_eq!(report.root.meta_value("seed"), Some("9"));
    }
}

//! Span-attributed tracking allocator.
//!
//! [`TrackingAlloc`] wraps any [`GlobalAlloc`] and keeps relaxed-atomic
//! global totals (`bytes_live`, `peak_live`, `alloc_count`, …) plus
//! per-thread deltas that the span layer in `lib.rs` attributes to the
//! active span at guard boundaries. The design mirrors the `TRACING`
//! master switch in `ring.rs`:
//!
//! * **Disabled path** — a single relaxed load of `MEM_TRACK` per
//!   allocator call, then straight through to the inner allocator.
//! * **Enabled path** — relaxed `fetch_add`s on the global counters and
//!   plain `Cell` bumps on the per-thread counters. No locks, no
//!   allocation, no reentrancy: the hooks never touch the span tree
//!   (which allocates); instead `MemScope` snapshots the thread
//!   counters when a span opens and folds the delta into the span node
//!   when it closes.
//!
//! Per-thread peak tracking uses a *windowed* scheme so nested spans can
//! each report their own peak-live delta: opening a scope saves the
//! current window peak and restarts the window at the current live
//! value; closing it reports `max(window_peak - live_at_open, 0)` and
//! restores the outer window as `max(saved, inner_peak)`.

use std::alloc::{GlobalAlloc, Layout};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// Master switch. Mirrors `TRACING`: one relaxed load when off.
static MEM_TRACK: AtomicBool = AtomicBool::new(false);

// Global totals. Live/peak are signed so frees of blocks allocated
// before tracking was enabled cannot wrap; readers clamp at zero.
static G_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static G_FREED: AtomicU64 = AtomicU64::new(0);
static G_ALLOCS: AtomicU64 = AtomicU64::new(0);
static G_LIVE: AtomicI64 = AtomicI64::new(0);
static G_PEAK: AtomicI64 = AtomicI64::new(0);

thread_local! {
    // const-init Cells of Copy types: no Drop glue, no lazy
    // allocation, so the allocator hooks can bump them safely even
    // during TLS setup/teardown (guarded by `try_with`).
    static T_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static T_FREED: Cell<u64> = const { Cell::new(0) };
    static T_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static T_LIVE: Cell<i64> = const { Cell::new(0) };
    static T_PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Turn memory tracking on. Counters keep their values; call
/// [`reset_peak_live`] if you want a fresh peak window.
pub fn enable_mem_tracking() {
    MEM_TRACK.store(true, Ordering::Relaxed);
}

/// Turn memory tracking off. Allocator calls revert to a single
/// relaxed load of the master switch.
pub fn disable_mem_tracking() {
    MEM_TRACK.store(false, Ordering::Relaxed);
}

/// Is the tracking allocator currently recording?
///
/// Also `false` when no [`TrackingAlloc`] is installed as the global
/// allocator — the switch is only observed from inside the hooks.
#[inline]
pub(crate) fn is_mem_tracking() -> bool {
    MEM_TRACK.load(Ordering::Relaxed)
}

/// Restart the global peak-live window at the current live volume.
/// Benchmark harnesses call this between cases so each case reports
/// its own high-water mark.
pub fn reset_peak_live() {
    G_PEAK.store(G_LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// A point-in-time view of the global allocator counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemSnapshot {
    /// Total bytes handed out since tracking started.
    pub allocated: u64,
    /// Total bytes returned since tracking started.
    pub freed: u64,
    /// Number of allocation events (alloc + realloc).
    pub allocs: u64,
    /// Bytes currently live (clamped at zero).
    pub bytes_live: u64,
    /// High-water mark of `bytes_live` since the last
    /// [`reset_peak_live`] (clamped at zero).
    pub peak_live: u64,
}

/// Read the global counters.
pub fn mem_snapshot() -> MemSnapshot {
    MemSnapshot {
        allocated: G_ALLOCATED.load(Ordering::Relaxed),
        freed: G_FREED.load(Ordering::Relaxed),
        allocs: G_ALLOCS.load(Ordering::Relaxed),
        bytes_live: G_LIVE.load(Ordering::Relaxed).max(0) as u64,
        peak_live: G_PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// A point-in-time view of the calling thread's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadMem {
    /// Bytes this thread has allocated since tracking started.
    pub allocated: u64,
    /// Bytes this thread has freed since tracking started.
    pub freed: u64,
    /// Allocation events on this thread.
    pub allocs: u64,
    /// This thread's net live bytes (may be negative if it frees
    /// blocks other threads allocated).
    pub live: i64,
}

/// Read the calling thread's counters.
pub fn thread_mem() -> ThreadMem {
    ThreadMem {
        allocated: T_ALLOCATED.with(Cell::get),
        freed: T_FREED.with(Cell::get),
        allocs: T_ALLOCS.with(Cell::get),
        live: T_LIVE.with(Cell::get),
    }
}

/// Thread-counter snapshot taken when a span opens; the span layer
/// closes it to compute the span's memory delta.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemScope {
    allocated0: u64,
    freed0: u64,
    allocs0: u64,
    live0: i64,
    saved_peak: i64,
}

/// The memory delta a closed (or still-open) scope attributes to its
/// span node.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct MemDelta {
    pub allocated: u64,
    pub freed: u64,
    pub allocs: u64,
    pub peak_delta: u64,
}

impl MemDelta {
    pub(crate) fn is_zero(&self) -> bool {
        self.allocated == 0 && self.freed == 0 && self.allocs == 0 && self.peak_delta == 0
    }
}

/// Open a scope: snapshot the thread counters and restart the
/// thread-local peak window at the current live value.
pub(crate) fn begin_scope() -> MemScope {
    let live = T_LIVE.with(Cell::get);
    MemScope {
        allocated0: T_ALLOCATED.with(Cell::get),
        freed0: T_FREED.with(Cell::get),
        allocs0: T_ALLOCS.with(Cell::get),
        live0: live,
        saved_peak: T_PEAK.with(|p| p.replace(live)),
    }
}

/// Read a scope's delta without closing it — used by `take_report` to
/// fold spans that are still open. The window peak of an outer scope
/// understates while an inner scope is open (the inner scope holds the
/// outer window's high-water mark until it closes); that is an accepted
/// approximation for snapshot folding.
pub(crate) fn scope_delta(scope: &MemScope) -> MemDelta {
    let window_peak = T_PEAK.with(Cell::get).max(T_LIVE.with(Cell::get));
    MemDelta {
        allocated: T_ALLOCATED.with(Cell::get).wrapping_sub(scope.allocated0),
        freed: T_FREED.with(Cell::get).wrapping_sub(scope.freed0),
        allocs: T_ALLOCS.with(Cell::get).wrapping_sub(scope.allocs0),
        peak_delta: (window_peak - scope.live0).max(0) as u64,
    }
}

/// Close a scope: compute its delta and restore the outer peak window.
pub(crate) fn end_scope(scope: MemScope) -> MemDelta {
    let delta = scope_delta(&scope);
    T_PEAK.with(|p| p.set(p.get().max(scope.saved_peak)));
    delta
}

thread_local! {
    static T_EXEMPT: Cell<bool> = const { Cell::new(false) };
}

/// RAII guard making the current thread's allocations invisible to the
/// tracking counters while held. Strictly for observer-plane storage
/// that lives for the process lifetime (the per-thread trace-event
/// rings): the counters are asymmetric for exempt memory — a later
/// tracked free of an exempt allocation would drive `bytes_live`
/// negative — so nothing allocated under this guard may ever be freed.
/// Keeps the application's `peak_live` window untouched by how big the
/// observer's own buffers happen to be.
pub(crate) struct ExemptGuard(bool);

pub(crate) fn exempt_observer_alloc() -> ExemptGuard {
    ExemptGuard(T_EXEMPT.with(|c| c.replace(true)))
}

impl Drop for ExemptGuard {
    fn drop(&mut self) {
        let prev = self.0;
        let _ = T_EXEMPT.try_with(|c| c.set(prev));
    }
}

#[inline]
fn is_exempt() -> bool {
    T_EXEMPT.try_with(Cell::get).unwrap_or(false)
}

#[inline]
fn record_alloc(size: usize) {
    let size = size as u64;
    G_ALLOCATED.fetch_add(size, Ordering::Relaxed);
    G_ALLOCS.fetch_add(1, Ordering::Relaxed);
    let live = G_LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    G_PEAK.fetch_max(live, Ordering::Relaxed);
    // `try_with` so allocations during TLS teardown (after this
    // thread's Cells are gone) silently skip thread attribution.
    let _ = T_ALLOCATED.try_with(|c| c.set(c.get() + size));
    let _ = T_ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = T_LIVE.try_with(|c| {
        let live = c.get() + size as i64;
        c.set(live);
        let _ = T_PEAK.try_with(|p| p.set(p.get().max(live)));
    });
}

#[inline]
fn record_free(size: usize) {
    let size = size as u64;
    G_FREED.fetch_add(size, Ordering::Relaxed);
    G_LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    let _ = T_FREED.try_with(|c| c.set(c.get() + size));
    let _ = T_LIVE.try_with(|c| c.set(c.get() - size as i64));
}

/// A [`GlobalAlloc`] wrapper that feeds the counters above. Install it
/// in a binary with:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: snap_obs::TrackingAlloc<std::alloc::System> =
///     snap_obs::TrackingAlloc::new(std::alloc::System);
/// ```
///
/// and flip it on with [`enable_mem_tracking`]. Until then (and for
/// binaries that never install it) every hook is a relaxed load plus a
/// tail call into the inner allocator.
#[derive(Debug, Default)]
pub struct TrackingAlloc<A> {
    inner: A,
}

impl<A> TrackingAlloc<A> {
    /// Wrap an inner allocator. `const` so it can initialize a
    /// `#[global_allocator]` static.
    pub const fn new(inner: A) -> Self {
        TrackingAlloc { inner }
    }
}

// SAFETY: forwards every call verbatim to the inner allocator; the
// bookkeeping never allocates, never panics (Cell ops + relaxed
// atomics), and never observes the returned pointer beyond a null
// check.
unsafe impl<A: GlobalAlloc> GlobalAlloc for TrackingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = self.inner.alloc(layout);
        if MEM_TRACK.load(Ordering::Relaxed) && !p.is_null() && !is_exempt() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = self.inner.alloc_zeroed(layout);
        if MEM_TRACK.load(Ordering::Relaxed) && !p.is_null() && !is_exempt() {
            record_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if MEM_TRACK.load(Ordering::Relaxed) && !is_exempt() {
            record_free(layout.size());
        }
        self.inner.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = self.inner.realloc(ptr, layout, new_size);
        if MEM_TRACK.load(Ordering::Relaxed) && !p.is_null() && !is_exempt() {
            record_free(layout.size());
            record_alloc(new_size);
        }
        p
    }
}

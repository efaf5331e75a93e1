//! Epoch-stamped traversal workspaces: reusable scratch state for
//! multi-source graph kernels.
//!
//! SNAP's multi-source kernels (Brandes betweenness, closeness, sampled
//! path statistics, st-connectivity) run one traversal per source. A
//! naive implementation pays an allocator round-trip and an `O(n)` clear
//! per source — on a k-source sweep the reset cost is `O(k·n)` while the
//! useful work is proportional to the *touched* subgraph. GBBS and
//! NetworKit both attribute large constant-factor wins to flat, reused
//! scratch structures; this module is that layer.
//!
//! # Epoch stamping
//!
//! A [`TraversalWorkspace`] holds one slot per vertex. Each slot's
//! validity is tracked by an epoch stamp packed into the high 32 bits of
//! the `dist` word ([`TraversalWorkspace::dist`]): a slot is live iff its
//! stamp equals the workspace's current epoch. "Clearing" the workspace
//! for the next traversal is therefore a single epoch increment
//! ([`TraversalWorkspace::begin`]); stale slots are detected on read and
//! (re)initialized on first touch. A full `O(n)` clear happens only when
//!
//! * the epoch counter wraps (once per `u32::MAX - 1` traversals), or
//! * the workspace grows to fit a larger vertex set (only the new tail
//!   is zeroed).
//!
//! The auxiliary slots (`parent`, the σ/δ/cursor fields of a
//! [`BrandesSlot`]) carry **no stamps of their own**: they are only
//! meaningful for vertices stamped in the current epoch, and every
//! kernel initializes them at first touch. They are never cleared at
//! all.
//!
//! # The flat predecessor buffer
//!
//! Brandes' dependency accumulation needs, per vertex, the list of
//! shortest-path predecessor arcs. A `Vec<Vec<_>>` costs one heap
//! allocation per vertex plus a pointer chase per read. Because a vertex
//! can have at most `degree(v)` predecessors, one flat buffer sized by
//! the graph's arc count with CSR-style offsets ([`bind_preds`]) holds
//! every list with zero per-source allocation; the per-vertex end
//! cursors live in the packed [`BrandesSlot`]s and are epoch-reset like
//! every other slot.
//!
//! [`bind_preds`]: TraversalWorkspace::bind_preds
//!
//! # Contract
//!
//! Public kernel results must never depend on workspace history: a
//! kernel given a freshly allocated workspace and one reused across 50
//! unrelated graphs must produce bit-identical output. The regression
//! suite (`tests/workspace_reuse.rs`) enforces this, including across
//! filtered views whose vertex count differs from the previous binding.

use crate::traits::Graph;
use crate::VertexId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Mask selecting the distance half of a packed `dist` word.
pub const DIST_MASK: u64 = 0xFFFF_FFFF;

/// Whether a packed `dist` word is stamped with epoch tag `tag` (i.e. the
/// slot is live in the current traversal).
#[inline(always)]
pub fn stamped(word: u64, tag: u64) -> bool {
    word & !DIST_MASK == tag
}

/// Distance half of a packed `dist` word (only meaningful when
/// [`stamped`]).
#[inline(always)]
pub fn dist_of(word: u64) -> u32 {
    word as u32
}

/// Per-vertex Brandes bookkeeping — σ/δ accumulators and the
/// predecessor cursors — packed into one 24-byte record. A
/// shortest-path arc's handling (σ update, arc append, cursor bump, and
/// the dependency phase's σ read / δ accumulate) is random-access per
/// neighbor; parallel arrays cost up to three cache-line fetches per
/// arc where one packed slot costs one. The traversal's stamp word
/// deliberately stays *out* of the slot: every scanned arc probes it —
/// most arcs only it — and keeping those probes in the dense
/// [`TraversalWorkspace::dist`] array (8 B/vertex instead of a 24 B
/// stride) is worth far more than saving a line on the shortest-path
/// subset. Slots carry no stamp of their own: every field is written at
/// the owning vertex's first touch in the current traversal.
#[repr(C)]
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BrandesSlot {
    /// Shortest-path count σ from the current source.
    pub sigma: f64,
    /// Accumulated dependency δ.
    pub delta: f64,
    /// CSR start of this vertex's slots in the flat predecessor buffer
    /// (written by [`TraversalWorkspace::bind_preds`], stable across the
    /// kernel call).
    pub pred_off: u32,
    /// One past the last predecessor arc appended this traversal; valid
    /// only for vertices stamped in the current epoch.
    pub pred_end: u32,
}

/// One predecessor arc `(pred vertex, edge id)` in the flat buffer.
#[derive(Clone, Copy, Debug, Default)]
pub struct PredArc {
    /// Predecessor vertex.
    pub v: VertexId,
    /// Id of the arc from `v` to the slot's vertex.
    pub e: u32,
}

/// Lifetime counters for a workspace (or a pool of them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkspaceStats {
    /// Traversals that reused existing allocations (every
    /// [`TraversalWorkspace::begin`] that did not have to allocate).
    pub reuses: u64,
    /// Traversals cleared by a pure epoch bump (no memory written).
    pub epoch_resets: u64,
    /// Times slot memory was actually written wholesale: initial
    /// allocation, growth to a larger vertex set, or an epoch wrap.
    pub full_clears: u64,
}

impl WorkspaceStats {
    fn absorb(&mut self, other: WorkspaceStats) {
        self.reuses += other.reuses;
        self.epoch_resets += other.epoch_resets;
        self.full_clears += other.full_clears;
    }

    fn is_zero(&self) -> bool {
        *self == WorkspaceStats::default()
    }
}

/// Reusable epoch-stamped scratch state for one traversal at a time.
///
/// The slot arrays are public so kernels can run their hot loops on bare
/// slices; the epoch counter itself is private and only advances through
/// [`begin`](Self::begin). Invariants callers must uphold:
///
/// * call [`begin`](Self::begin) before each traversal and only read
///   slots whose `dist` word is [`stamped`] with the returned tag;
/// * initialize `parent` (or a [`BrandesSlot`]'s σ/δ/`pred_end` fields)
///   for a vertex when stamping its `dist` word — stale contents are
///   garbage, not zeroes;
/// * call [`bind_preds`](Self::bind_preds) (per kernel call, after any
///   graph change) before using the predecessor buffer.
#[derive(Debug, Default)]
pub struct TraversalWorkspace {
    /// Current epoch; `0` means "never begun" so fresh zeroed slots are
    /// always stale.
    epoch: u32,
    /// Allocated vertex capacity of the slot arrays.
    cap: usize,
    /// Per-vertex packed `(epoch_stamp << 32) | distance` words.
    pub dist: Vec<u64>,
    /// Per-vertex parent (BFS trees) or side marker (st-connectivity).
    /// Allocated lazily; valid only for stamped vertices.
    pub parent: Vec<VertexId>,
    /// Per-vertex packed Brandes slots ([`BrandesSlot`]). Allocated
    /// lazily by [`bind_preds`](Self::bind_preds); valid only for
    /// vertices whose `dist` word is stamped in the current epoch.
    pub bslot: Vec<BrandesSlot>,
    /// Vertices stamped by the current traversal, in discovery order
    /// (the Brandes "stack"). Level-synchronous kernels also use it as
    /// their FIFO queue: a head index chases the push end.
    pub order: Vec<VertexId>,
    /// Flat predecessor arc buffer, sized by the bound graph's arcs;
    /// vertex `v`'s slots are `pred[off .. end]` for its
    /// [`BrandesSlot`] cursors `off`/`end`.
    pub pred: Vec<PredArc>,
    /// Counters not yet absorbed by a pool / flushed to snap-obs.
    pending: WorkspaceStats,
    /// Lifetime totals (for tests and direct owners).
    totals: WorkspaceStats,
}

impl TraversalWorkspace {
    /// An empty workspace; slots are allocated on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a traversal over `n` vertices: grows the slot arrays if
    /// needed, advances the epoch, clears the discovery order, and
    /// returns the epoch tag to stamp `dist` words with.
    #[inline]
    pub fn begin(&mut self, n: usize) -> u64 {
        let mut allocated = false;
        if n > self.cap {
            self.dist.resize(n, 0);
            if !self.parent.is_empty() {
                self.parent.resize(n, 0);
            }
            if !self.bslot.is_empty() && self.bslot.len() < n {
                self.bslot.resize(n, BrandesSlot::default());
            }
            self.cap = n;
            self.pending.full_clears += 1;
            allocated = true;
        }
        if self.epoch == u32::MAX {
            // Epoch wrap: the one place reuse still pays an O(n) clear.
            // Only the stamp words are reset — a wrap can land mid
            // kernel call, between sources, and the `pred_off` fields
            // written by the call's `bind_preds` must survive it.
            self.dist.fill(0);
            self.epoch = 1;
            self.pending.full_clears += 1;
        } else {
            self.epoch += 1;
            if !allocated {
                self.pending.reuses += 1;
                self.pending.epoch_resets += 1;
            }
        }
        self.order.clear();
        (self.epoch as u64) << 32
    }

    /// The current epoch tag (as returned by the last [`begin`]).
    ///
    /// [`begin`]: Self::begin
    #[inline]
    pub fn tag(&self) -> u64 {
        (self.epoch as u64) << 32
    }

    /// Iterate the current traversal's discovery order as maximal
    /// `(depth, order-index range)` runs. A level-synchronous traversal
    /// stamps `order` in non-decreasing depth order, so run boundaries
    /// are found by binary search: `O(D log n)` dist reads for `D`
    /// levels instead of one read per touched vertex. Aggregations that
    /// only need counts per depth (closeness sums, distance histograms)
    /// never touch the dist words at all beyond the boundaries.
    ///
    /// Only meaningful after a level-ordered traversal (BFS kernels);
    /// do not use over an order filled by priority-driven searches.
    pub fn depth_runs(&self) -> impl Iterator<Item = (u32, std::ops::Range<usize>)> + '_ {
        let mut lo = 0usize;
        std::iter::from_fn(move || {
            if lo >= self.order.len() {
                return None;
            }
            let d = dist_of(self.dist[self.order[lo] as usize]);
            let len = self.order[lo..].partition_point(|&v| dist_of(self.dist[v as usize]) <= d);
            let run = lo..lo + len;
            lo += len;
            Some((d, run))
        })
    }

    /// Ensure the `parent` slots exist (BFS / st-connectivity kernels).
    #[inline]
    pub fn ensure_parent(&mut self) {
        if self.parent.len() < self.cap {
            self.parent.resize(self.cap, 0);
        }
    }

    /// Size the packed Brandes slots for `g`, write each vertex's CSR
    /// predecessor offset into its slot, and size the flat buffer to the
    /// graph's arc count. `O(n)` — call once per kernel call (the cost
    /// amortizes over that call's sources), and again whenever the
    /// kernel moves to a different graph or view.
    pub fn bind_preds<G: Graph>(&mut self, g: &G) {
        let n = g.num_vertices();
        if self.bslot.len() < n {
            self.bslot.resize(n, BrandesSlot::default());
        }
        let mut off = 0u32;
        for v in 0..n {
            self.bslot[v].pred_off = off;
            off += g.degree(v as VertexId) as u32;
        }
        if self.pred.len() < off as usize {
            self.pred.resize(off as usize, PredArc::default());
        }
    }

    /// Split borrows of every slot array for a kernel hot loop. The
    /// private epoch bookkeeping stays untouched behind the borrow, so
    /// kernels can destructure [`Slots`] into disjoint `&mut` slices.
    /// Slices span the allocated capacity; index only `0..n` of the
    /// graph passed to [`begin`](Self::begin), and only use slot
    /// families whose `ensure_*` / [`bind_preds`](Self::bind_preds)
    /// was called.
    #[inline]
    pub fn slots(&mut self) -> Slots<'_> {
        Slots {
            dist: &mut self.dist,
            parent: &mut self.parent,
            bslot: &mut self.bslot,
            order: &mut self.order,
            pred: &mut self.pred,
        }
    }

    /// Bytes currently held by the slot arrays.
    pub fn bytes(&self) -> usize {
        self.dist.capacity() * 8
            + self.parent.capacity() * 4
            + self.bslot.capacity() * std::mem::size_of::<BrandesSlot>()
            + self.order.capacity() * 4
            + self.pred.capacity() * 8
    }

    /// Lifetime counters for this workspace.
    pub fn stats(&self) -> WorkspaceStats {
        let mut s = self.totals;
        s.absorb(self.pending);
        s
    }

    /// Move the un-flushed counters out (they land in `totals` so
    /// [`stats`](Self::stats) stays cumulative).
    fn take_pending(&mut self) -> WorkspaceStats {
        let p = std::mem::take(&mut self.pending);
        self.totals.absorb(p);
        p
    }

    /// Emit pending counters to snap-obs on the *current thread* (they
    /// attach to the active span). Call from the thread that owns the
    /// kernel's span; worker threads should return workspaces to a
    /// [`WorkspacePool`] instead, and the kernel flushes the pool.
    pub fn flush_obs(&mut self) {
        let p = self.take_pending();
        emit(p, self.bytes() as f64);
    }
}

impl Drop for TraversalWorkspace {
    fn drop(&mut self) {
        self.flush_obs();
    }
}

fn emit(p: WorkspaceStats, bytes: f64) {
    if !snap_obs::is_enabled() {
        return;
    }
    if !p.is_zero() {
        snap_obs::add("workspace_reuses", p.reuses);
        snap_obs::add("epoch_resets", p.epoch_resets);
        snap_obs::add("full_clears", p.full_clears);
    }
    if bytes > 0.0 {
        // Peak semantics: several workspaces (or several flushes of the
        // same coalesced span) may report concurrently, and the gauge
        // should keep the largest footprint seen, not the last one.
        snap_obs::gauge_max("workspace_bytes", bytes);
    }
}

/// Disjoint mutable borrows of a workspace's slot arrays (see
/// [`TraversalWorkspace::slots`]).
#[derive(Debug)]
pub struct Slots<'w> {
    /// Packed `(stamp << 32) | distance` words.
    pub dist: &'w mut [u64],
    /// BFS parents / st-connectivity side markers.
    pub parent: &'w mut [VertexId],
    /// Packed per-vertex Brandes slots (own `dist` word, σ/δ,
    /// predecessor cursors).
    pub bslot: &'w mut [BrandesSlot],
    /// Discovery-order list of stamped vertices (doubles as the FIFO
    /// queue in level-synchronous kernels).
    pub order: &'w mut Vec<VertexId>,
    /// Flat predecessor arc buffer.
    pub pred: &'w mut [PredArc],
}

/// A checkout pool of [`TraversalWorkspace`]s for source-parallel
/// kernels: each source chunk acquires one workspace for its whole run,
/// so a k-source sweep allocates at most one workspace per concurrently
/// running chunk regardless of `k` — and a pool held across kernel calls
/// (pBD rounds, the `Network` session) allocates none at all after
/// warm-up. The bound is per chunk (up to 64), not per thread: the
/// runtime gives every chunk its own thread until ROADMAP item 1.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<TraversalWorkspace>>,
    // Counters absorbed from returned workspaces. Worker threads have no
    // snap-obs context, so the stats ride back on the pool and the
    // kernel's owning thread emits them from inside its span.
    reuses: AtomicU64,
    epoch_resets: AtomicU64,
    full_clears: AtomicU64,
    // Same totals, monotonic (never drained by flush) — for stats().
    total: [AtomicU64; 3],
    // Concurrency high-water mark: workspaces checked out right now, and
    // the peak since the last flush. The peak is the pool's actual memory
    // footprint driver (each outstanding checkout owns its slot arrays),
    // so it surfaces as the `workspace_pool_peak` gauge.
    outstanding: AtomicU64,
    peak: AtomicU64,
    // Traversals each returned checkout performed, drained into the
    // `checkout_traversals` histogram at flush: a skewed distribution
    // means chunked work is unbalanced across workers.
    checkout_begins: Mutex<Vec<u64>>,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check a workspace out (reusing a returned one when available).
    /// The guard returns it — and its counters — on drop.
    pub fn acquire(&self) -> PooledWorkspace<'_> {
        let ws = self
            .free
            .lock()
            .expect("workspace pool poisoned")
            .pop()
            .unwrap_or_default();
        let now = self.outstanding.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak.fetch_max(now, Ordering::Relaxed);
        PooledWorkspace {
            pool: self,
            ws: Some(ws),
        }
    }

    fn absorb(&self, p: WorkspaceStats) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        if let Ok(mut begins) = self.checkout_begins.lock() {
            begins.push(p.epoch_resets + p.full_clears);
        }
        self.reuses.fetch_add(p.reuses, Ordering::Relaxed);
        self.epoch_resets
            .fetch_add(p.epoch_resets, Ordering::Relaxed);
        self.full_clears.fetch_add(p.full_clears, Ordering::Relaxed);
        self.total[0].fetch_add(p.reuses, Ordering::Relaxed);
        self.total[1].fetch_add(p.epoch_resets, Ordering::Relaxed);
        self.total[2].fetch_add(p.full_clears, Ordering::Relaxed);
    }

    /// Counters absorbed over the pool's lifetime (checked-out
    /// workspaces contribute when returned).
    pub fn stats(&self) -> WorkspaceStats {
        WorkspaceStats {
            reuses: self.total[0].load(Ordering::Relaxed),
            epoch_resets: self.total[1].load(Ordering::Relaxed),
            full_clears: self.total[2].load(Ordering::Relaxed),
        }
    }

    /// Bytes held by the workspaces currently checked in.
    pub fn bytes_held(&self) -> usize {
        self.free
            .lock()
            .expect("workspace pool poisoned")
            .iter()
            .map(|w| w.bytes())
            .sum()
    }

    /// Emit the counters accumulated since the last flush to snap-obs on
    /// the current thread (no-op when nothing accumulated). Kernels call
    /// this after their parallel section, inside their span.
    pub fn flush_obs(&self) {
        let p = WorkspaceStats {
            reuses: self.reuses.swap(0, Ordering::Relaxed),
            epoch_resets: self.epoch_resets.swap(0, Ordering::Relaxed),
            full_clears: self.full_clears.swap(0, Ordering::Relaxed),
        };
        emit(p, self.bytes_held() as f64);
        let peak = self.peak.swap(0, Ordering::Relaxed);
        // Workspaces still checked out seed the next flush window.
        self.peak
            .fetch_max(self.outstanding.load(Ordering::Relaxed), Ordering::Relaxed);
        if !snap_obs::is_enabled() {
            // Reset the window anyway so a later enabled run does not
            // inherit stale checkout stats.
            if let Ok(mut begins) = self.checkout_begins.lock() {
                begins.clear();
            }
            return;
        }
        if peak > 0 {
            // fetch_max semantics: concurrent flushes (or repeated
            // flushes under a coalesced span) must never regress the
            // recorded concurrency high-water mark.
            snap_obs::gauge_max("workspace_pool_peak", peak as f64);
        }
        let begins = match self.checkout_begins.lock() {
            Ok(mut b) => std::mem::take(&mut *b),
            Err(_) => Vec::new(),
        };
        if !begins.is_empty() {
            let hist = snap_obs::hist("checkout_traversals");
            for b in begins {
                hist.record(b);
            }
        }
    }
}

/// A checkout pool of arbitrary per-thread scratch values — the
/// [`WorkspacePool`] shape generalized for scratch that is not a
/// traversal workspace (e.g. the decode buffers of the compressed CSR
/// backend). Each parallel chunk acquires one value for its whole run;
/// returned values keep their grown allocations, so a pool held across
/// sweeps allocates nothing after warm-up.
#[derive(Debug, Default)]
pub struct ScratchPool<T> {
    free: Mutex<Vec<T>>,
}

impl<T: Default> ScratchPool<T> {
    /// An empty pool.
    pub fn new() -> Self {
        ScratchPool {
            free: Mutex::new(Vec::new()),
        }
    }

    /// Check a value out (reusing a returned one when available). The
    /// guard returns it on drop.
    pub fn acquire(&self) -> PooledScratch<'_, T> {
        let item = self
            .free
            .lock()
            .expect("scratch pool poisoned")
            .pop()
            .unwrap_or_default();
        PooledScratch {
            pool: self,
            item: Some(item),
        }
    }

    /// How many values are currently checked in.
    pub fn available(&self) -> usize {
        self.free.lock().expect("scratch pool poisoned").len()
    }
}

/// Checkout guard for a pooled scratch value (see
/// [`ScratchPool::acquire`]).
#[derive(Debug)]
pub struct PooledScratch<'p, T> {
    pool: &'p ScratchPool<T>,
    item: Option<T>,
}

impl<T> std::ops::Deref for PooledScratch<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.item.as_ref().expect("scratch checked out")
    }
}

impl<T> std::ops::DerefMut for PooledScratch<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.item.as_mut().expect("scratch checked out")
    }
}

impl<T> Drop for PooledScratch<'_, T> {
    fn drop(&mut self) {
        if let Some(item) = self.item.take() {
            if let Ok(mut free) = self.pool.free.lock() {
                free.push(item);
            }
        }
    }
}

/// Checkout guard for a pooled workspace (see [`WorkspacePool::acquire`]).
#[derive(Debug)]
pub struct PooledWorkspace<'p> {
    pool: &'p WorkspacePool,
    ws: Option<TraversalWorkspace>,
}

impl std::ops::Deref for PooledWorkspace<'_> {
    type Target = TraversalWorkspace;

    fn deref(&self) -> &TraversalWorkspace {
        self.ws.as_ref().expect("workspace checked out")
    }
}

impl std::ops::DerefMut for PooledWorkspace<'_> {
    fn deref_mut(&mut self) -> &mut TraversalWorkspace {
        self.ws.as_mut().expect("workspace checked out")
    }
}

impl Drop for PooledWorkspace<'_> {
    fn drop(&mut self) {
        if let Some(mut ws) = self.ws.take() {
            self.pool.absorb(ws.take_pending());
            if let Ok(mut free) = self.pool.free.lock() {
                free.push(ws);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn epoch_bump_invalidates_slots() {
        let mut ws = TraversalWorkspace::new();
        let tag = ws.begin(4);
        ws.dist[2] = tag | 7;
        assert!(stamped(ws.dist[2], tag));
        assert_eq!(dist_of(ws.dist[2]), 7);
        assert!(!stamped(ws.dist[1], tag), "untouched slots are stale");
        let tag2 = ws.begin(4);
        assert_ne!(tag, tag2);
        assert!(!stamped(ws.dist[2], tag2), "old epoch's writes are stale");
    }

    #[test]
    fn growth_keeps_old_slots_stale() {
        let mut ws = TraversalWorkspace::new();
        let t1 = ws.begin(3);
        ws.dist[1] = t1 | 5;
        let t2 = ws.begin(10);
        for v in 0..10 {
            assert!(!stamped(ws.dist[v], t2), "v{v} must be stale after grow");
        }
        // Shrinking the active range needs no work at all.
        let t3 = ws.begin(2);
        assert!(!stamped(ws.dist[1], t3));
    }

    #[test]
    fn stats_count_reuse_and_allocation() {
        let mut ws = TraversalWorkspace::new();
        ws.begin(8);
        for _ in 0..5 {
            ws.begin(8);
        }
        let s = ws.stats();
        assert_eq!(s.reuses, 5);
        assert_eq!(s.epoch_resets, 5);
        assert_eq!(s.full_clears, 1);
        ws.begin(16); // growth: another full clear, not a reuse
        let s = ws.stats();
        assert_eq!(s.full_clears, 2);
        assert_eq!(s.reuses, 5);
    }

    #[test]
    fn pred_binding_matches_degrees() {
        let g = from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
        let mut ws = TraversalWorkspace::new();
        ws.begin(4);
        ws.bind_preds(&g);
        let offs: Vec<u32> = ws.bslot.iter().map(|s| s.pred_off).collect();
        assert_eq!(offs, vec![0, 1, 4, 5]);
        assert!(ws.pred.len() >= 6);
        assert_eq!(ws.bslot.len(), 4);
    }

    #[test]
    fn pool_round_trips_and_counts() {
        let pool = WorkspacePool::new();
        {
            let mut ws = pool.acquire();
            ws.begin(4);
            ws.begin(4);
        }
        {
            let mut ws = pool.acquire();
            ws.begin(4); // reused allocation from the pooled workspace
        }
        let s = pool.stats();
        assert_eq!(s.full_clears, 1);
        assert_eq!(s.reuses, 2);
        assert!(pool.bytes_held() > 0);
    }

    #[test]
    fn pool_tracks_checkout_high_water_mark() {
        let pool = WorkspacePool::new();
        {
            let _a = pool.acquire();
            let _b = pool.acquire();
            assert_eq!(pool.outstanding.load(Ordering::Relaxed), 2);
            assert_eq!(pool.peak.load(Ordering::Relaxed), 2);
        }
        assert_eq!(pool.outstanding.load(Ordering::Relaxed), 0);
        // Peak survives the returns until a flush drains the window.
        assert_eq!(pool.peak.load(Ordering::Relaxed), 2);
        pool.flush_obs();
        assert_eq!(pool.peak.load(Ordering::Relaxed), 0);
        let _c = pool.acquire();
        assert_eq!(pool.peak.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pool_records_traversals_per_checkout() {
        let pool = WorkspacePool::new();
        {
            let mut ws = pool.acquire();
            ws.begin(4);
            ws.begin(4);
            ws.begin(4);
        }
        {
            let mut ws = pool.acquire();
            ws.begin(4);
        }
        let begins = pool.checkout_begins.lock().unwrap();
        assert_eq!(*begins, vec![3, 1]);
    }

    #[test]
    fn order_resets_per_begin() {
        let mut ws = TraversalWorkspace::new();
        ws.begin(4);
        ws.order.push(3);
        ws.begin(4);
        assert!(ws.order.is_empty());
    }

    #[test]
    fn depth_runs_partition_the_order() {
        // Star + tail: depths 0 (source), 1 x3, 2 x1.
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]);
        let mut ws = TraversalWorkspace::new();
        let tag = ws.begin(5);
        // Simulate a level-ordered traversal result.
        let depths = [0u64, 1, 1, 1, 2];
        for (v, &d) in depths.iter().enumerate() {
            ws.dist[v] = tag | d;
        }
        ws.order.extend([0u32, 1, 2, 3, 4]);
        let runs: Vec<_> = ws.depth_runs().collect();
        assert_eq!(runs, vec![(0, 0..1), (1, 1..4), (2, 4..5)]);
        let total: usize = runs.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total, ws.order.len());
        let _ = g;
    }
}

//! Lock-free per-thread event rings for trace-event timelines.
//!
//! When tracing is enabled (see [`crate::enable_tracing`]), every span on
//! the coordinating thread and every [`crate::task`] on a rayon worker
//! appends fixed-size begin/end records to a per-thread ring buffer. Rings
//! register themselves lazily in a global registry the first time a thread
//! records an event, and are drained into the [`crate::RunReport`] by
//! `take_report`.
//!
//! ## Memory model
//!
//! Each ring has exactly **one writer at a time**: its owning thread. The
//! rayon shim's workers live for the process and run each work unit
//! start to finish, so a [`crate::TaskGuard`] opened in a unit is closed
//! on the thread whose ring it writes. A write loads
//! `head` with `Acquire`, fills the slot with `Relaxed` stores, and
//! publishes with a `Release` store of `head + 1`; the handoff between
//! successive writers and between writer and drainer goes through that
//! acquire/release pair, so a drainer that observes `head == h` also
//! observes every slot write up to `h`. Event names are interned once into
//! a global table (a `Mutex` taken only on first use of a name), so a slot
//! is just two `u64` words: the timestamp and `(name_id << 1) | is_begin`.
//!
//! On overflow the ring wraps and overwrites the **oldest** events; the
//! drainer reports how many were lost (`trace_events_dropped`) by
//! comparing its high-water mark against the live window.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default events per thread ring. At 16 bytes per slot this is 128 KiB
/// per worker thread; a drain resets the window, so only events between
/// two `take_report` calls compete for capacity. Override with
/// [`set_trace_capacity`] (CLI `--trace-buf`).
pub(crate) const RING_CAPACITY: usize = 8192;

/// Floor for configured capacities: a ring must hold at least one
/// plausible span nest, and a zero capacity would divide by zero in the
/// wraparound index math.
const MIN_RING_CAPACITY: usize = 16;

/// Capacity applied to rings created from now on. Existing rings keep
/// the capacity they were built with (each ring's slot array is fixed at
/// creation), so configure this before enabling tracing.
static CAPACITY: AtomicUsize = AtomicUsize::new(RING_CAPACITY);

/// Set the per-thread event-ring capacity (in events) for rings created
/// after this call. Values below a small floor are clamped. Rings that
/// already exist are unaffected, so call this before [`enable_tracing`] /
/// before the traced workload spawns its workers.
pub fn set_trace_capacity(events: usize) {
    CAPACITY.store(events.max(MIN_RING_CAPACITY), Ordering::Relaxed);
}

/// The capacity new per-thread rings will be created with.
pub fn trace_capacity() -> usize {
    CAPACITY.load(Ordering::Relaxed)
}

/// Process-global tracing switch, independent of span collection so the
/// span fast path stays a single `ACTIVE` load.
static TRACING: AtomicBool = AtomicBool::new(false);

/// Monotonic thread-id source for trace events (0 is never handed out, so
/// tid 0 can't collide with a real ring).
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Common timebase for every ring: timestamps are microseconds since this
/// process-wide epoch, fixed the first time tracing is enabled.
static EPOCH: OnceLock<Instant> = OnceLock::new();

fn epoch() -> Instant {
    *EPOCH.get_or_init(Instant::now)
}

/// Microseconds since the trace epoch. Shared with the memory-sample
/// buffer in `lib.rs` so mem counter events land on the same timebase
/// as span begin/end events in the exported trace.
#[inline]
pub(crate) fn now_us() -> u64 {
    epoch().elapsed().as_micros() as u64
}

/// Turn event recording on. Spans and [`crate::task`]s start appending to
/// per-thread rings; the events ride back on the next `take_report`.
pub fn enable_tracing() {
    epoch();
    TRACING.store(true, Ordering::SeqCst);
}

/// Turn event recording off (rings keep their undrained contents).
pub fn disable_tracing() {
    TRACING.store(false, Ordering::SeqCst);
}

/// Whether event recording is on (one relaxed load).
#[inline]
pub(crate) fn is_tracing() -> bool {
    TRACING.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------
// Name interning
// ---------------------------------------------------------------------

struct Interner {
    ids: HashMap<&'static str, u32>,
    names: Vec<&'static str>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            ids: HashMap::new(),
            names: Vec::new(),
        })
    })
}

/// Intern `name`, returning its stable id. Span and task names are a
/// small fixed set of string literals, so the table stays tiny and the
/// leak of one allocation per distinct dynamic name is bounded.
pub(crate) fn intern(name: &str) -> u32 {
    let mut it = interner().lock().unwrap();
    if let Some(&id) = it.ids.get(name) {
        return id;
    }
    let id = it.names.len() as u32;
    let owned: &'static str = Box::leak(name.to_string().into_boxed_str());
    it.names.push(owned);
    it.ids.insert(owned, id);
    id
}

fn resolve_names() -> Vec<&'static str> {
    interner().lock().unwrap().names.clone()
}

// ---------------------------------------------------------------------
// Rings
// ---------------------------------------------------------------------

struct Slot {
    ts_us: AtomicU64,
    /// `(name_id << 1) | is_begin`.
    word: AtomicU64,
}

pub(crate) struct Ring {
    tid: u32,
    slots: Box<[Slot]>,
    /// Total events ever written (published with `Release`).
    head: AtomicU64,
    /// Events consumed by the drainer (written only under the registry
    /// lock).
    drained: AtomicU64,
}

impl Ring {
    fn new() -> Ring {
        Ring {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            slots: (0..trace_capacity())
                .map(|_| Slot {
                    ts_us: AtomicU64::new(0),
                    word: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            drained: AtomicU64::new(0),
        }
    }

    /// Append one event. Caller must be the ring's current single writer
    /// (see the module docs for the handoff argument).
    pub(crate) fn push(&self, name_id: u32, is_begin: bool) {
        let h = self.head.load(Ordering::Acquire);
        let slot = &self.slots[(h % self.slots.len() as u64) as usize];
        slot.ts_us.store(now_us(), Ordering::Relaxed);
        slot.word
            .store(((name_id as u64) << 1) | is_begin as u64, Ordering::Relaxed);
        self.head.store(h + 1, Ordering::Release);
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Ring>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<Ring>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static THREAD_RING: RefCell<Option<Arc<Ring>>> = const { RefCell::new(None) };
}

/// The calling thread's ring, creating and registering it on first use.
pub(crate) fn thread_ring() -> Arc<Ring> {
    THREAD_RING.with(|r| {
        let mut slot = r.borrow_mut();
        if let Some(ring) = slot.as_ref() {
            return Arc::clone(ring);
        }
        // The ring is observer-plane storage with process lifetime (the
        // registry never drops it): exempt it from the tracking
        // allocator so enabling tracing cannot shift the application's
        // peak_live window by the ring capacity.
        let _exempt = crate::alloc::exempt_observer_alloc();
        let ring = Arc::new(Ring::new());
        registry().lock().unwrap().push(Arc::clone(&ring));
        *slot = Some(Arc::clone(&ring));
        ring
    })
}

// ---------------------------------------------------------------------
// Draining
// ---------------------------------------------------------------------

/// One begin/end record from a ring, resolved to its name.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    pub name: String,
    /// Trace-local thread id (dense, not the OS tid).
    pub tid: u32,
    /// `true` for a begin (`"B"`) record, `false` for an end (`"E"`).
    pub begin: bool,
    /// Microseconds since the trace epoch.
    pub ts_us: u64,
}

/// Drain every registered ring: returns the sanitized events (every `B`
/// paired with an `E`, per-ring order preserved) plus, per ring that lost
/// anything, the `(tid, count)` of records lost to wraparound or broken
/// pairs. Rings whose owning threads are gone stay registered but empty
/// after a drain, so repeated drains are cheap; the shim's scoped workers
/// are joined before their results (and guards) reach the caller, so a
/// drain on the coordinator never races a live writer beyond the
/// published `head`.
pub(crate) fn drain() -> (Vec<TraceEvent>, Vec<(u32, u64)>) {
    let names = resolve_names();
    let mut events = Vec::new();
    let mut per_ring_dropped: Vec<(u32, u64)> = Vec::new();
    let rings: Vec<Arc<Ring>> = registry().lock().unwrap().clone();
    for ring in rings {
        let mut dropped = 0u64;
        let head = ring.head.load(Ordering::Acquire);
        let live_start = head.saturating_sub(ring.slots.len() as u64);
        let drained_to = ring.drained.load(Ordering::Relaxed);
        if drained_to >= head {
            continue;
        }
        // Events overwritten before we got to them.
        dropped += live_start.saturating_sub(drained_to);
        let start = live_start.max(drained_to);
        // Per-ring B/E matching: a B whose E was never written (or an E
        // whose B was overwritten) is dropped so the exported trace is
        // always well-formed.
        let mut open: Vec<usize> = Vec::new(); // indices into `pending`
        let mut pending: Vec<(TraceEvent, bool)> = Vec::new(); // (event, keep)
        for i in start..head {
            let slot = &ring.slots[(i % ring.slots.len() as u64) as usize];
            let word = slot.word.load(Ordering::Relaxed);
            let ts_us = slot.ts_us.load(Ordering::Relaxed);
            let is_begin = word & 1 == 1;
            let name_id = (word >> 1) as usize;
            let name = names
                .get(name_id)
                .copied()
                .unwrap_or("<unknown>")
                .to_string();
            let idx = pending.len();
            pending.push((
                TraceEvent {
                    name,
                    tid: ring.tid,
                    begin: is_begin,
                    ts_us,
                },
                false,
            ));
            if is_begin {
                open.push(idx);
            } else {
                // Match the innermost open B with the same name; an E
                // with no matching B stays unkept.
                if let Some(pos) = open
                    .iter()
                    .rposition(|&b| pending[b].0.name == pending[idx].0.name)
                {
                    let b = open.remove(pos);
                    pending[b].1 = true;
                    pending[idx].1 = true;
                }
            }
        }
        ring.drained.store(head, Ordering::Relaxed);
        for (ev, keep) in pending {
            if keep {
                events.push(ev);
            } else {
                dropped += 1;
            }
        }
        if dropped > 0 {
            per_ring_dropped.push((ring.tid, dropped));
        }
    }
    (events, per_ring_dropped)
}

#[cfg(test)]
pub(crate) fn reset_for_tests() {
    let _ = drain();
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::trace_test_lock as lock;

    /// Records lost by the ring with this `tid`, per the drain's
    /// per-ring accounting.
    fn dropped_for(tid: u32, drops: &[(u32, u64)]) -> u64 {
        drops
            .iter()
            .filter(|&&(t, _)| t == tid)
            .map(|&(_, d)| d)
            .sum()
    }

    #[test]
    fn events_drain_in_order_with_pairs_matched() {
        let _l = lock();
        reset_for_tests();
        let ring = thread_ring();
        let a = intern("alpha");
        let b = intern("beta");
        ring.push(a, true);
        ring.push(b, true);
        ring.push(b, false);
        ring.push(a, false);
        let (events, drops) = drain();
        let mine: Vec<_> = events.iter().filter(|e| e.tid == ring.tid).collect();
        assert_eq!(dropped_for(ring.tid, &drops), 0);
        assert_eq!(
            mine.iter()
                .map(|e| (e.name.as_str(), e.begin))
                .collect::<Vec<_>>(),
            vec![
                ("alpha", true),
                ("beta", true),
                ("beta", false),
                ("alpha", false)
            ]
        );
        // Timestamps are monotone within the ring.
        assert!(mine.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
    }

    #[test]
    fn wraparound_drops_oldest_and_counts_them_per_ring() {
        let _l = lock();
        reset_for_tests();
        let ring = thread_ring();
        let cap = ring.slots.len() as u64;
        let name = intern("spin");
        let total = cap + 100;
        for _ in 0..total / 2 {
            ring.push(name, true);
            ring.push(name, false);
        }
        let (events, drops) = drain();
        let mine: Vec<_> = events.into_iter().filter(|e| e.tid == ring.tid).collect();
        let dropped = dropped_for(ring.tid, &drops);
        // The newest full window survives; everything older was
        // overwritten, and the loss is attributed to *this* ring's tid.
        assert_eq!(mine.len() as u64 + dropped, total);
        assert_eq!(dropped, total - cap);
        // The survivors are the *newest* events: their pair structure is
        // intact (the window starts on a B because events were written in
        // B,E,B,E order and the capacity is even).
        assert!(mine[0].begin);
        assert_eq!(mine.len() as u64, cap);
    }

    #[test]
    fn unmatched_begin_is_dropped_not_exported() {
        let _l = lock();
        reset_for_tests();
        let ring = thread_ring();
        let name = intern("dangling");
        ring.push(name, true); // no matching E
        let (events, drops) = drain();
        assert!(events.iter().all(|e| e.tid != ring.tid));
        assert_eq!(dropped_for(ring.tid, &drops), 1);
    }

    #[test]
    fn drain_resets_the_window() {
        let _l = lock();
        reset_for_tests();
        let ring = thread_ring();
        let name = intern("once");
        ring.push(name, true);
        ring.push(name, false);
        let (first, _) = drain();
        assert_eq!(first.iter().filter(|e| e.tid == ring.tid).count(), 2);
        let (second, drops) = drain();
        assert_eq!(second.iter().filter(|e| e.tid == ring.tid).count(), 0);
        assert_eq!(dropped_for(ring.tid, &drops), 0);
    }

    #[test]
    fn configured_capacity_applies_to_new_rings() {
        let _l = lock();
        reset_for_tests();
        // Existing rings keep their size; a ring born on a fresh thread
        // after the set call gets the configured (clamped) capacity.
        set_trace_capacity(1); // clamps up to the floor
        assert_eq!(trace_capacity(), MIN_RING_CAPACITY);
        set_trace_capacity(64);
        let (tid, seen_cap, survivors) = std::thread::spawn(|| {
            let ring = thread_ring();
            let name = intern("tiny");
            for _ in 0..64 {
                ring.push(name, true);
                ring.push(name, false);
            }
            (ring.tid, ring.slots.len(), 64usize)
        })
        .join()
        .unwrap();
        assert_eq!(seen_cap, 64);
        let (events, drops) = drain();
        let mine = events.iter().filter(|e| e.tid == tid).count();
        // 128 events were written into 64 slots: the newest 64 survive.
        assert_eq!(mine, seen_cap);
        assert_eq!(dropped_for(tid, &drops), (2 * survivors - seen_cap) as u64);
        // Restore the default so later tests (and rings) are unaffected.
        set_trace_capacity(RING_CAPACITY);
    }
}

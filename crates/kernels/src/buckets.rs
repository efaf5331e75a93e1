//! Julienne-style bucketing: the shared priority structure under
//! Δ-stepping SSSP and k-core peeling.
//!
//! Dhulipala, Blelloch & Shun's Julienne framework observes that a
//! family of "priority-driven" graph kernels — Δ-stepping, k-core,
//! weighted BFS, approximate set cover — share one data structure: an
//! array of vertex buckets processed in increasing bucket order, where a
//! vertex's bucket can only move *forward* (or pin at the bucket being
//! processed), and moves are **lazy**: the old entry is left in place
//! and filtered out when its bucket is popped, because eagerly deleting
//! from a bucket would serialize the parallel relaxation loop.
//!
//! [`Buckets`] is that structure extracted from the Δ-stepping kernel
//! (whose `buckets` + `bucket_of` + stale-skip shape it preserves
//! exactly — the refactor is A/B-tested bit-identical):
//!
//! * [`insert`](Buckets::insert) / [`update`](Buckets::update) place a
//!   vertex, clamping to the bucket currently being processed (a
//!   relaxation inside bucket `i` can't schedule work before `i`);
//! * [`pop_current`](Buckets::pop_current) takes the pending entries of
//!   the current bucket; [`is_pending`](Buckets::is_pending) is the
//!   stale-entry filter callers apply (kept separate so the filter can
//!   run inside a parallel iterator over the popped slice);
//! * [`next_bucket`](Buckets::next_bucket) advances to the next
//!   non-empty bucket.
//!
//! Relocations (an `update` that actually moved a vertex) land on the
//! `bucket_relaxations` obs counter via [`Buckets::flush_obs`].

use snap_graph::VertexId;

/// Bucket id of a vertex that is settled (or was never inserted).
pub(crate) const UNBUCKETED: usize = usize::MAX;

/// An array of vertex buckets processed in increasing order, with lazy
/// deletion (see the [module docs](self)).
#[derive(Clone, Debug)]
pub(crate) struct Buckets {
    /// Pending entries per bucket; may contain stale entries for
    /// vertices that have since moved or settled.
    buckets: Vec<Vec<VertexId>>,
    /// Authoritative bucket of each vertex ([`UNBUCKETED`] = none).
    bucket_of: Vec<usize>,
    /// The bucket currently being processed.
    current: usize,
    /// Updates that actually relocated a vertex since the last flush.
    relocations: u64,
}

impl Buckets {
    /// Empty structure over `n` vertices, positioned at bucket 0.
    pub(crate) fn new(n: usize) -> Buckets {
        Buckets {
            buckets: vec![Vec::new()],
            bucket_of: vec![UNBUCKETED; n],
            current: 0,
            relocations: 0,
        }
    }

    /// The bucket `v` is pending in, or `None` if settled / never
    /// inserted.
    #[inline]
    pub(crate) fn bucket_of(&self, v: VertexId) -> Option<usize> {
        match self.bucket_of[v as usize] {
            UNBUCKETED => None,
            b => Some(b),
        }
    }

    /// Whether `v` is a live (non-stale) entry of the current bucket —
    /// the filter callers apply to a [`pop_current`](Self::pop_current)
    /// batch, including from inside a parallel iterator.
    #[inline]
    pub(crate) fn is_pending(&self, v: VertexId) -> bool {
        self.bucket_of[v as usize] == self.current
    }

    /// First placement of `v` into bucket `b` (no clamping — used for
    /// initial priorities before processing starts).
    pub(crate) fn insert(&mut self, v: VertexId, b: usize) {
        debug_assert_eq!(
            self.bucket_of[v as usize], UNBUCKETED,
            "insert of a bucketed vertex"
        );
        self.grow_to(b);
        self.buckets[b].push(v);
        self.bucket_of[v as usize] = b;
    }

    /// Move `v` to bucket `b`, clamped to the current bucket (priority
    /// work never schedules behind the cursor). Lazy: a previous entry
    /// stays where it is and is skipped on pop. No-op when the clamped
    /// target equals `v`'s bucket.
    pub(crate) fn update(&mut self, v: VertexId, b: usize) {
        let b = b.max(self.current);
        if self.bucket_of[v as usize] == b {
            return;
        }
        self.grow_to(b);
        self.buckets[b].push(v);
        self.bucket_of[v as usize] = b;
        self.relocations += 1;
    }

    /// Mark `v` settled: it no longer belongs to any bucket, and any
    /// remaining entries for it are stale. (A later
    /// [`update`](Self::update) may re-bucket it — Δ-stepping re-opens a
    /// settled vertex whose tentative distance improves within the
    /// current bucket's range.)
    #[inline]
    pub(crate) fn settle(&mut self, v: VertexId) {
        self.bucket_of[v as usize] = UNBUCKETED;
    }

    /// Take the pending entries of the current bucket (possibly
    /// containing stale entries — filter with
    /// [`is_pending`](Self::is_pending)). Empty when the bucket is
    /// drained.
    #[inline]
    pub(crate) fn pop_current(&mut self) -> Vec<VertexId> {
        std::mem::take(&mut self.buckets[self.current])
    }

    /// Advance to the next non-empty bucket (starting from the current
    /// one) and return its id; `None` when every bucket is empty.
    pub(crate) fn next_bucket(&mut self) -> Option<usize> {
        while self.current < self.buckets.len() {
            if !self.buckets[self.current].is_empty() {
                return Some(self.current);
            }
            self.current += 1;
        }
        None
    }

    /// Emit the relocation count as the `bucket_relaxations` obs
    /// counter (on the calling thread's active span) and reset it.
    pub(crate) fn flush_obs(&mut self) {
        if self.relocations > 0 && snap_obs::is_enabled() {
            snap_obs::add("bucket_relaxations", self.relocations);
        }
        self.relocations = 0;
    }

    fn grow_to(&mut self, b: usize) {
        if b >= self.buckets.len() {
            self.buckets.resize_with(b + 1, Vec::new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processes_buckets_in_order_with_lazy_deletion() {
        let mut bk = Buckets::new(4);
        bk.insert(0, 0);
        bk.insert(1, 2);
        bk.insert(2, 2);
        bk.insert(3, 5);

        assert_eq!(bk.next_bucket(), Some(0));
        let batch = bk.pop_current();
        assert_eq!(batch, vec![0]);
        assert!(bk.is_pending(0));
        bk.settle(0);
        assert!(!bk.is_pending(0));

        // Move 2 forward before its bucket is reached: the old entry
        // goes stale in bucket 2.
        bk.update(2, 4);
        assert_eq!(bk.next_bucket(), Some(2));
        let batch = bk.pop_current();
        let live: Vec<_> = batch.into_iter().filter(|&v| bk.is_pending(v)).collect();
        assert_eq!(live, vec![1]);
        bk.settle(1);

        assert_eq!(bk.next_bucket(), Some(4));
        assert_eq!(bk.bucket_of(2), Some(4));
        assert_eq!(bk.relocations, 1);
    }

    #[test]
    fn update_clamps_to_current_bucket() {
        let mut bk = Buckets::new(2);
        bk.insert(0, 3);
        assert_eq!(bk.next_bucket(), Some(3));
        // An update aiming behind the cursor pins at the cursor.
        bk.update(1, 1);
        assert_eq!(bk.bucket_of(1), Some(3));
        // Updating to the bucket a vertex is already in is a no-op.
        let before = bk.relocations;
        bk.update(1, 0);
        assert_eq!(bk.relocations, before);
    }

    #[test]
    fn settled_vertex_can_reopen() {
        let mut bk = Buckets::new(1);
        bk.insert(0, 0);
        assert_eq!(bk.next_bucket(), Some(0));
        bk.pop_current();
        bk.settle(0);
        bk.update(0, 0); // re-opened within the current bucket
        assert!(bk.is_pending(0));
        assert_eq!(bk.pop_current(), vec![0]);
    }

    #[test]
    fn empty_buckets_are_skipped() {
        let mut bk = Buckets::new(2);
        bk.insert(0, 7);
        assert_eq!(bk.next_bucket(), Some(7));
        bk.pop_current();
        bk.settle(0);
        assert_eq!(bk.next_bucket(), None);
        assert_eq!(Buckets::new(0).next_bucket(), None);
    }
}

//! Streaming graph engine: batched mutations with epoch-versioned
//! immutable CSR snapshots.
//!
//! The paper lists dynamic-network analysis as ongoing work; this module
//! is the mutation path that makes it real. A [`StreamingGraph`] is the
//! last published [`CsrGraph`] snapshot plus a *net delta*: the edges
//! whose liveness differs from that snapshot. It ingests edge
//! insert/delete ops ([`EdgeOp`]) into the delta and periodically
//! *delta-merges* it into a new immutable snapshot published behind an
//! `Arc`. The design generalizes the epoch-stamp idiom of
//! [`crate::scratch`] from per-traversal scratch to whole-graph versions,
//! and follows the snapshot/compaction discipline of
//! Dhulipala–Blelloch–Shun (PLDI 2019) and the wait-free-snapshot model
//! of arXiv 2310.02380:
//!
//! * **One live graph.** The snapshot's sorted rows answer "is this edge
//!   live?" by binary search unless the delta says otherwise; no second
//!   copy of the graph is kept. An edge toggled back to its snapshot
//!   state leaves the delta, so a batch whose ops cancel out merges to
//!   nothing.
//! * **Writers never rebuild from scratch.** [`StreamingGraph::merge`]
//!   produces the next CSR by a linear merge-walk of the previous
//!   snapshot's (sorted) edge list against the sorted net delta —
//!   `O(m + n + d log d)` for `d` net-changed edges.
//! * **Readers never block writers.** A published [`Snapshot`] is an
//!   `Arc<CsrGraph>` behind a pointer-sized swap; readers clone the `Arc`
//!   (a [`SnapshotReader`] can do so from any thread) and keep analyzing
//!   a complete, immutable epoch while the writer ingests and publishes
//!   the next one. There are no torn reads: an epoch is visible only
//!   after its CSR is fully built.
//! * **Epochs are the cache/invalidations key.** Every snapshot carries a
//!   monotonically increasing epoch number; downstream results keyed by
//!   `(epoch, query)` stay valid exactly as long as the epoch is current.
//!
//! Ops that do not change the graph (duplicate inserts, deletes of absent
//! edges, self-loops) are counted as `rejected` but are otherwise
//! harmless, so a noisy external stream can be replayed verbatim.
//! Previously unseen vertex ids grow the vertex set automatically.
//!
//! ```
//! use snap_graph::stream::{EdgeOp, StreamingGraph};
//! use snap_graph::Graph;
//!
//! let mut sg = StreamingGraph::new(0);
//! sg.apply_batch(&[
//!     EdgeOp::Insert(0, 1),
//!     EdgeOp::Insert(1, 2),
//!     EdgeOp::Delete(0, 1),
//! ]);
//! let snap = sg.merge();
//! assert_eq!(snap.epoch, 1);
//! assert_eq!(snap.graph.num_edges(), 1);
//! ```

use crate::csr::CsrGraph;
use crate::traits::{Graph, WeightedGraph};
use crate::{VertexId, Weight};
use std::collections::hash_map::{Entry, HashMap};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Read the published snapshot, recovering from lock poisoning.
///
/// A panicking thread that held the write guard (say a merge unwinding
/// out of an instrumentation callback) poisons the `RwLock`, but the
/// protected [`Snapshot`] can never be left torn: it is only ever
/// replaced wholesale with a fully-built value, and its payload is
/// immutable `Arc` data. In a resident process the readers must outlive
/// one writer crash, so poisoning is explicitly not propagated.
fn read_published(lock: &RwLock<Snapshot>) -> RwLockReadGuard<'_, Snapshot> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Write-lock the published snapshot; see [`read_published`] for why
/// poisoning is recovered rather than propagated.
fn write_published(lock: &RwLock<Snapshot>) -> RwLockWriteGuard<'_, Snapshot> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// One edge mutation in the stream. Endpoint order is irrelevant (the
/// graph is undirected); self-loops are rejected at ingestion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeOp {
    /// Insert edge `{u, v}`.
    Insert(VertexId, VertexId),
    /// Delete edge `{u, v}`.
    Delete(VertexId, VertexId),
}

/// The op-file spelling: `+ u v` inserts, `- u v` deletes, a bare `u v`
/// inserts. Comments and blank lines are the caller's to strip.
impl std::str::FromStr for EdgeOp {
    type Err = String;

    fn from_str(line: &str) -> Result<EdgeOp, String> {
        let mut fields = line.split_whitespace().peekable();
        let op = match fields.peek() {
            Some(&"+") | Some(&"-") => fields.next(),
            _ => None,
        };
        let mut id = || fields.next().and_then(|f| f.parse::<VertexId>().ok());
        match (id(), id(), fields.next()) {
            (Some(u), Some(v), None) if op == Some("-") => Ok(EdgeOp::Delete(u, v)),
            (Some(u), Some(v), None) => Ok(EdgeOp::Insert(u, v)),
            _ => Err(format!("bad op line: {line:?}")),
        }
    }
}

/// An immutable, complete version of the graph. Cheap to clone (the
/// graph is shared behind an `Arc`); cloning is how readers detach from
/// the writer.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// Version number: 0 for the initial graph, +1 per [`StreamingGraph::merge`].
    pub epoch: u64,
    /// The frozen CSR for this epoch.
    pub graph: Arc<CsrGraph>,
}

/// A cloneable, thread-safe handle for observing published snapshots.
///
/// Readers call [`SnapshotReader::snapshot`] and work on the returned
/// `Arc` without holding any lock; the writer's publish is a single
/// pointer swap under the hood, so neither side waits for the other's
/// compute.
#[derive(Clone, Debug)]
pub struct SnapshotReader(Arc<RwLock<Snapshot>>);

impl SnapshotReader {
    /// The most recently published complete epoch. Survives writer
    /// panics: a poisoned lock still holds a complete snapshot (the
    /// payload is only ever replaced whole), so readers recover via
    /// `PoisonError::into_inner` instead of crashing.
    pub fn snapshot(&self) -> Snapshot {
        read_published(&self.0).clone()
    }

    /// Epoch of the most recently published snapshot.
    pub fn epoch(&self) -> u64 {
        read_published(&self.0).epoch
    }
}

/// Outcome of one [`StreamingGraph::apply_batch`] call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Ops ingested (applied + rejected).
    pub ops: u64,
    /// Inserts that added a new edge.
    pub inserted: u64,
    /// Deletes that removed a present edge.
    pub deleted: u64,
    /// No-op mutations: duplicate inserts, deletes of absent edges,
    /// self-loops.
    pub rejected: u64,
}

impl BatchStats {
    /// Tally one op and its [`StreamingGraph::apply`] outcome.
    pub fn note(&mut self, op: EdgeOp, changed: bool) {
        self.ops += 1;
        match (changed, op) {
            (true, EdgeOp::Insert(..)) => self.inserted += 1,
            (true, EdgeOp::Delete(..)) => self.deleted += 1,
            (false, _) => self.rejected += 1,
        }
    }
}

/// Streaming mutation engine: the last published CSR snapshot plus the
/// net delta since it. See the [module docs](self).
#[derive(Debug)]
pub struct StreamingGraph {
    /// The last published graph, which the delta is relative to.
    base: Arc<CsrGraph>,
    /// Edges whose liveness differs from `base`: canonical `(u, v)` (with
    /// `u < v`) mapped to whether the edge is live now. An edge that
    /// returns to its `base` state leaves the map.
    pending: HashMap<(VertexId, VertexId), bool>,
    /// Vertices of the live graph: `base`'s, grown by inserts.
    num_vertices: usize,
    /// Edges of the live graph.
    num_edges: usize,
    published: Arc<RwLock<Snapshot>>,
}

#[inline]
fn canon(u: VertexId, v: VertexId) -> (VertexId, VertexId) {
    if u <= v {
        (u, v)
    } else {
        (v, u)
    }
}

impl StreamingGraph {
    /// Empty streaming graph on `n` vertices at epoch 0.
    pub fn new(n: usize) -> Self {
        Self::seeded(CsrGraph::empty(n, false))
    }

    /// Adopt `graph`, which holds no self-loop, as epoch 0.
    fn seeded(graph: CsrGraph) -> Self {
        let base = Arc::new(graph);
        StreamingGraph {
            num_vertices: base.num_vertices(),
            num_edges: base.num_edges(),
            pending: HashMap::new(),
            published: Arc::new(RwLock::new(Snapshot {
                epoch: 0,
                graph: Arc::clone(&base),
            })),
            base,
        }
    }

    /// Seed the stream from a static undirected graph, which becomes the
    /// epoch-0 snapshot. The stream holds a simple graph, so the seed's
    /// self-loops are dropped (weights of the other edges are kept); the
    /// returned count is how many were.
    pub fn from_csr(g: &CsrGraph) -> (Self, usize) {
        assert!(!g.is_directed(), "the stream is undirected");
        let loops = g.edges().filter(|&(_, u, v)| u == v).count();
        if loops == 0 {
            return (Self::seeded(g.clone()), 0);
        }
        let edges = g
            .edges()
            .filter(|&(_, u, v)| u != v)
            .map(|(e, u, v)| (u, v, g.edge_weight(e)))
            .collect();
        let graph = CsrGraph::fill(g.num_vertices(), false, edges, g.is_weighted());
        (Self::seeded(graph), loops)
    }

    /// Vertices in the live graph.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Edges in the live graph.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Epoch of the latest published snapshot.
    pub fn epoch(&self) -> u64 {
        read_published(&self.published).epoch
    }

    /// Latest published snapshot (clones the `Arc`, not the graph).
    pub fn snapshot(&self) -> Snapshot {
        read_published(&self.published).clone()
    }

    /// A cloneable handle other threads can use to follow published
    /// epochs while this writer keeps ingesting.
    pub fn reader(&self) -> SnapshotReader {
        SnapshotReader(Arc::clone(&self.published))
    }

    /// Whether canonical edge `(u, v)` is live: the delta's word if it
    /// has one, else a binary search of `u`'s row in the snapshot.
    fn is_live(&self, (u, v): (VertexId, VertexId)) -> bool {
        match self.pending.get(&(u, v)) {
            Some(&live) => live,
            None => {
                (v as usize) < self.base.num_vertices()
                    && self.base.neighbor_slice(u).binary_search(&v).is_ok()
            }
        }
    }

    /// Apply one op to the live graph. Returns `true` when the graph
    /// changed (the op was not a duplicate insert / absent delete /
    /// self-loop). Unknown vertex ids grow the vertex set.
    pub fn apply(&mut self, op: EdgeOp) -> bool {
        let (u, v, insert) = match op {
            EdgeOp::Insert(u, v) => (u, v, true),
            EdgeOp::Delete(u, v) => (u, v, false),
        };
        let edge = canon(u, v);
        if u == v || self.is_live(edge) == insert {
            return false;
        }
        // The edge's liveness flips: into the delta if it matched the
        // snapshot, out of it if it now matches again.
        match self.pending.entry(edge) {
            Entry::Occupied(back) => {
                back.remove();
            }
            Entry::Vacant(changed) => {
                changed.insert(insert);
            }
        }
        if insert {
            self.num_vertices = self.num_vertices.max(edge.1 as usize + 1);
            self.num_edges += 1;
        } else {
            self.num_edges -= 1;
        }
        true
    }

    /// Ingest a batch of ops. Nothing is published until [`Self::merge`].
    pub fn apply_batch(&mut self, ops: &[EdgeOp]) -> BatchStats {
        let mut stats = BatchStats::default();
        for &op in ops {
            let changed = self.apply(op);
            stats.note(op, changed);
        }
        stats
    }

    /// Delta-merge the pending changes into a new immutable snapshot and
    /// publish it as the next epoch. With an empty net delta (and no
    /// vertex growth) this is a no-op that returns the current snapshot
    /// without bumping the epoch.
    ///
    /// Cost: `O(d log d)` to sort the net delta of `d` edges plus one
    /// linear merge-walk over the previous snapshot's sorted edge list.
    /// Counters (`delta_edges`, `merge_edges_out`), the `merge_us`
    /// histogram, and the `snapshot_epoch` gauge ride on the enclosing
    /// snap-obs span when collection is enabled.
    pub fn merge(&mut self) -> Snapshot {
        let merge_us = snap_obs::hist("merge_us");
        let timer = merge_us.start();
        let prev_epoch = read_published(&self.published).epoch;
        if self.pending.is_empty() && self.num_vertices == self.base.num_vertices() {
            merge_us.stop_us(timer);
            return Snapshot {
                epoch: prev_epoch,
                graph: Arc::clone(&self.base),
            };
        }

        let mut added = Vec::new();
        let mut removed = Vec::new();
        for (&edge, &live) in &self.pending {
            match live {
                true => added.push(edge),
                false => removed.push(edge),
            }
        }
        // Comparison sorts: a counting sort would cost O(n) per merge for d ≪ n.
        added.sort_unstable();
        removed.sort_unstable();
        let delta = (added.len() + removed.len()) as u64;
        snap_obs::add("delta_edges", delta);

        let graph = Arc::new(merge_csr(&self.base, self.num_vertices, &added, &removed));
        debug_assert_eq!(graph.num_edges(), self.num_edges);
        snap_obs::add("merge_edges_out", graph.num_edges() as u64);
        let epoch = prev_epoch + 1;
        snap_obs::gauge("snapshot_epoch", epoch as f64);
        // Live telemetry: the same facts, but on the process-global
        // export registry so a running sampler (`--metrics-out`) can
        // stream them mid-ingest, span context or not.
        snap_obs::telemetry::export_gauge("snapshot_epoch").set(epoch as f64);
        snap_obs::telemetry::export_gauge("live_edges").set(graph.num_edges() as f64);
        snap_obs::telemetry::export_counter("merges").incr();
        snap_obs::telemetry::export_counter("delta_edges").add(delta);
        let snap = Snapshot {
            epoch,
            graph: Arc::clone(&graph),
        };
        // Publish: readers see either the old complete epoch or the new
        // one — never an intermediate state — because the swap is of one
        // pointer-sized value under the lock.
        *write_published(&self.published) = snap.clone();
        self.base = graph;
        self.pending.clear();
        merge_us.stop_us(timer);
        snap
    }
}

/// Build the successor CSR from `base` by a linear merge-walk against the
/// sorted `added` / `removed` edge deltas (all canonical `u <= v`,
/// strictly ascending), then the one fill (`CsrGraph::fill`). Weights
/// of surviving edges are preserved; added edges get weight 1.
fn merge_csr(
    base: &CsrGraph,
    n: usize,
    added: &[(VertexId, VertexId)],
    removed: &[(VertexId, VertexId)],
) -> CsrGraph {
    let m_new = base.num_edges() + added.len() - removed.len();
    let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::with_capacity(m_new);

    // Merge two sorted runs: the base edge list (minus `removed`) and
    // `added`. Both are duplicate-free and disjoint by construction.
    let mut added = added.iter().map(|&(u, v)| (u, v, 1)).peekable();
    let mut ri = 0usize;
    for (e, u, v) in base.edges() {
        while let Some(edge) = added.next_if(|&(a, b, _)| (a, b) < (u, v)) {
            edges.push(edge);
        }
        if ri < removed.len() && removed[ri] == (u, v) {
            ri += 1;
            continue;
        }
        edges.push((u, v, base.edge_weight(e)));
    }
    edges.extend(added);
    debug_assert_eq!(ri, removed.len(), "every removed edge was in the base");
    debug_assert_eq!(edges.len(), m_new);
    CsrGraph::fill(n, false, edges, base.is_weighted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::{DynGraph, GraphBuilder};

    /// The oracle: `seed`'s simple edges in a `DynGraph`, into which a
    /// test replays the ops it streams.
    fn oracle(seed: &CsrGraph) -> DynGraph {
        let mut live = DynGraph::new(seed.num_vertices());
        for (_, u, v) in seed.edges() {
            live.insert_edge(u, v);
        }
        live
    }

    fn replay(live: &mut DynGraph, ops: &[EdgeOp]) {
        for &op in ops {
            match op {
                EdgeOp::Insert(u, v) => live.insert_edge(u, v),
                EdgeOp::Delete(u, v) => live.delete_edge(u, v),
            };
        }
    }

    fn assert_same(a: &CsrGraph, b: &CsrGraph) {
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
        let ea: Vec<_> = a.edges().map(|(_, u, v)| (u, v)).collect();
        let eb: Vec<_> = b.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(ea, eb);
    }

    #[test]
    fn edge_ops_parse_from_their_op_file_spelling() {
        assert_eq!("+ 3 4".parse(), Ok(EdgeOp::Insert(3, 4)));
        assert_eq!("  -\t3   4 ".parse(), Ok(EdgeOp::Delete(3, 4)));
        assert_eq!("7 0".parse(), Ok(EdgeOp::Insert(7, 0)));
        for bad in [
            "",
            "+",
            "+ 1",
            "1",
            "+ 1 2 3",
            "1 2 3",
            "+ nope 2",
            "+ 1 -2",
            "* 1 2",
            "+ 1 4294967296",
        ] {
            let err = bad.parse::<EdgeOp>().unwrap_err();
            assert_eq!(err, format!("bad op line: {bad:?}"));
        }
    }

    #[test]
    fn merge_equals_full_rebuild() {
        let g0 = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        let (mut sg, dropped) = StreamingGraph::from_csr(&g0);
        assert_eq!(dropped, 0);
        let ops = [
            EdgeOp::Insert(0, 3),
            EdgeOp::Delete(1, 2),
            EdgeOp::Insert(5, 0),
            EdgeOp::Insert(0, 3), // duplicate: rejected
            EdgeOp::Delete(2, 5), // absent: rejected
        ];
        sg.apply_batch(&ops);
        let snap = sg.merge();
        assert_eq!(snap.epoch, 1);
        snap.graph.validate().unwrap();
        let mut live = oracle(&g0);
        replay(&mut live, &ops);
        assert_same(&snap.graph, &live.to_csr());
    }

    #[test]
    fn toggled_edges_cancel_in_the_delta() {
        let g0 = from_edges(4, &[(0, 1), (1, 2)]);
        let (mut sg, _) = StreamingGraph::from_csr(&g0);
        let s0 = sg.snapshot();
        let ops = [
            EdgeOp::Insert(2, 3),
            EdgeOp::Delete(2, 3), // cancels the insert
            EdgeOp::Delete(0, 1),
            EdgeOp::Insert(0, 1), // cancels the delete
        ];
        sg.apply_batch(&ops);
        // Nothing net changed: zero delta edges survive to the merge, so
        // it publishes nothing.
        let snap = sg.merge();
        assert_eq!(snap.epoch, 0);
        assert!(Arc::ptr_eq(&s0.graph, &snap.graph));
        let mut live = oracle(&g0);
        replay(&mut live, &ops);
        assert_same(&snap.graph, &live.to_csr());
        assert_eq!(snap.graph.num_edges(), 2);
    }

    #[test]
    fn empty_delta_merge_is_a_no_op() {
        let (mut sg, _) = StreamingGraph::from_csr(&from_edges(3, &[(0, 1)]));
        let s0 = sg.snapshot();
        let s1 = sg.merge();
        assert_eq!(s1.epoch, 0);
        assert!(Arc::ptr_eq(&s0.graph, &s1.graph));
    }

    #[test]
    fn vertex_growth_forces_an_epoch() {
        let mut sg = StreamingGraph::new(2);
        let ops = [EdgeOp::Insert(0, 1), EdgeOp::Insert(7, 1)];
        sg.apply(ops[0]);
        sg.merge();
        assert_eq!(sg.snapshot().graph.num_vertices(), 2);
        sg.apply(ops[1]);
        let snap = sg.merge();
        assert_eq!(snap.epoch, 2);
        assert_eq!(snap.graph.num_vertices(), 8);
        let mut live = DynGraph::new(2);
        replay(&mut live, &ops);
        assert_same(&snap.graph, &live.to_csr());
    }

    #[test]
    fn weights_survive_the_merge() {
        let g0 = GraphBuilder::undirected(4)
            .add_weighted_edges([(0, 1, 5), (1, 2, 7), (2, 3, 9)])
            .build();
        let (mut sg, _) = StreamingGraph::from_csr(&g0);
        sg.apply_batch(&[EdgeOp::Delete(1, 2), EdgeOp::Insert(0, 3)]);
        let snap = sg.merge();
        use crate::traits::WeightedGraph;
        let w: Vec<(VertexId, VertexId, Weight)> = snap
            .graph
            .edges()
            .map(|(e, u, v)| (u, v, snap.graph.edge_weight(e)))
            .collect();
        assert_eq!(w, vec![(0, 1, 5), (0, 3, 1), (2, 3, 9)]);
    }

    #[test]
    fn batch_stats_classify_ops() {
        let mut sg = StreamingGraph::new(3);
        let st = sg.apply_batch(&[
            EdgeOp::Insert(0, 1),
            EdgeOp::Insert(0, 1),
            EdgeOp::Insert(1, 1),
            EdgeOp::Delete(0, 1),
            EdgeOp::Delete(0, 2),
        ]);
        assert_eq!((st.inserted, st.deleted, st.rejected), (1, 1, 3));
        assert_eq!(st.ops, 5);
    }

    #[test]
    fn self_loops_in_seed_survive_until_snapshot_refreeze() {
        let g0 = GraphBuilder::undirected(3)
            .with_self_loops()
            .add_edges([(0, 0), (0, 1)])
            .build();
        let (sg, dropped) = StreamingGraph::from_csr(&g0);
        assert_eq!(dropped, 1);
        // The epoch-0 snapshot was re-frozen to agree with the delta layer.
        assert_eq!(sg.snapshot().graph.num_edges(), 1);
        assert_eq!(sg.num_edges(), 1);
    }

    #[test]
    fn weighted_seed_with_a_self_loop_keeps_its_weights() {
        let g0 = GraphBuilder::undirected(3)
            .with_self_loops()
            .add_weighted_edges([(0, 0, 4), (0, 1, 5), (1, 2, 7)])
            .build();
        let (sg, dropped) = StreamingGraph::from_csr(&g0);
        assert_eq!(dropped, 1);
        let g = sg.snapshot().graph;
        assert!(g.is_weighted());
        let w: Vec<(VertexId, VertexId, Weight)> = g
            .edges()
            .map(|(e, u, v)| (u, v, g.edge_weight(e)))
            .collect();
        assert_eq!(w, vec![(0, 1, 5), (1, 2, 7)]);
    }

    #[test]
    fn seed_self_loops_are_dropped_and_counted() {
        // A seed with self-loops: the builder keeps them when asked to;
        // the stream holds a simple graph, strips them *deliberately* and
        // says so.
        let g0 = GraphBuilder::undirected(4)
            .with_self_loops()
            .add_edges([(0, 0), (0, 1), (1, 2), (2, 2), (2, 3)])
            .build();
        assert_eq!(g0.num_edges(), 5);
        let (sg, dropped) = StreamingGraph::from_csr(&g0);
        assert_eq!(dropped, 2, "both self-loops stripped");
        assert_eq!(sg.num_edges(), g0.num_edges() - dropped);
        // The simple part of the graph survives exactly.
        let g1 = sg.snapshot().graph;
        assert_eq!(g1.num_edges(), 3);
        for v in 0..4u32 {
            let mut a: Vec<_> = g0.neighbors(v).filter(|&w| w != v).collect();
            let mut b: Vec<_> = g1.neighbors(v).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "vertex {v}");
        }
    }

    #[test]
    fn readers_and_merges_survive_a_poisoned_writer() {
        let g0 = from_edges(4, &[(0, 1), (1, 2)]);
        let (mut sg, _) = StreamingGraph::from_csr(&g0);
        let reader = sg.reader();

        // A writer thread takes the write guard and panics while holding
        // it — before this fix the RwLock stayed poisoned and every later
        // reader (and merge) crashed the resident process.
        let lock = Arc::clone(&reader.0);
        let writer = std::thread::spawn(move || {
            let _guard = lock.write().unwrap();
            panic!("writer dies mid-publish");
        });
        assert!(writer.join().is_err(), "writer panicked as arranged");
        assert!(reader.0.is_poisoned(), "lock really was poisoned");

        // Readers recover: the protected snapshot is complete Arc data.
        assert_eq!(reader.epoch(), 0);
        assert_eq!(reader.snapshot().graph.num_edges(), 2);
        assert_eq!(sg.epoch(), 0);

        // The writer path recovers too: the next merge publishes through
        // the poisoned lock and readers observe the new epoch.
        sg.apply(EdgeOp::Insert(2, 3));
        let snap = sg.merge();
        assert_eq!(snap.epoch, 1);
        assert_eq!(reader.epoch(), 1);
        assert_eq!(reader.snapshot().graph.num_edges(), 3);
        let mut live = oracle(&g0);
        replay(&mut live, &[EdgeOp::Insert(2, 3)]);
        assert_same(&reader.snapshot().graph, &live.to_csr());
    }

    #[test]
    fn reader_handle_tracks_epochs() {
        let mut sg = StreamingGraph::new(3);
        let reader = sg.reader();
        assert_eq!(reader.epoch(), 0);
        sg.apply(EdgeOp::Insert(0, 1));
        sg.merge();
        assert_eq!(reader.epoch(), 1);
        assert_eq!(reader.snapshot().graph.num_edges(), 1);
    }
}

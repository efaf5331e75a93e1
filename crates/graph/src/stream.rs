//! Streaming graph engine: batched mutations with epoch-versioned
//! immutable CSR snapshots.
//!
//! The paper lists dynamic-network analysis as ongoing work; this module
//! is the mutation path that makes it real. A [`StreamingGraph`] ingests
//! edge insert/delete ops ([`EdgeOp`]) into the [`DynGraph`] delta layer
//! and periodically *delta-merges* into a new immutable [`CsrGraph`]
//! snapshot published behind an `Arc`. The design generalizes the
//! epoch-stamp idiom of [`crate::scratch`] from per-traversal scratch to
//! whole-graph versions, and follows the snapshot/compaction discipline
//! of Dhulipala–Blelloch–Shun (PLDI 2019) and the wait-free-snapshot
//! model of arXiv 2310.02380:
//!
//! * **Writers never rebuild from scratch.** [`StreamingGraph::merge`]
//!   produces the next CSR by a linear merge-walk of the previous
//!   snapshot's (sorted) edge list against the sorted *net* delta —
//!   `O(m + n + d log d)` for `d` net-changed edges; a full
//!   [`DynGraph::to_csr`] rebuild gathers and counting-sorts all `m`.
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
use crate::dynamic::DynGraph;
use crate::traits::{Graph, WeightedGraph};
use crate::{VertexId, Weight};
use std::collections::HashMap;
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

/// Streaming mutation engine over a [`DynGraph`] delta layer with
/// epoch-versioned immutable CSR snapshots. See the [module docs](self).
#[derive(Debug)]
pub struct StreamingGraph {
    /// The live graph: last snapshot plus every op since.
    live: DynGraph,
    /// Net per-edge change since the last merge: canonical `(u, v)` (with
    /// `u < v`) mapped to its current liveness. An edge inserted and then
    /// deleted within one epoch settles back to a no-op at merge time.
    pending: HashMap<(VertexId, VertexId), bool>,
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
        Self::from_dyn(DynGraph::new(n))
    }

    /// Adopt an existing dynamic graph as epoch 0 (snapshotting it once).
    fn from_dyn(live: DynGraph) -> Self {
        let graph = Arc::new(live.to_csr());
        StreamingGraph {
            live,
            pending: HashMap::new(),
            published: Arc::new(RwLock::new(Snapshot { epoch: 0, graph })),
        }
    }

    /// Seed the stream from a static graph. The CSR becomes the epoch-0
    /// snapshot; the returned count is the number of source edges the
    /// simple-graph delta layer deliberately stripped (self-loops — see
    /// `DynGraph::from_csr_counted`). When it is non-zero the epoch-0
    /// snapshot is re-frozen from the stripped graph so that snapshot and
    /// delta layer always agree.
    pub fn from_csr(g: &CsrGraph) -> (Self, usize) {
        let (live, dropped) = DynGraph::from_csr_counted(g);
        let graph = if dropped == 0 {
            Arc::new(g.clone())
        } else {
            Arc::new(live.to_csr())
        };
        (
            StreamingGraph {
                live,
                pending: HashMap::new(),
                published: Arc::new(RwLock::new(Snapshot { epoch: 0, graph })),
            },
            dropped,
        )
    }

    /// The live (not yet snapshotted) graph.
    pub fn live(&self) -> &DynGraph {
        &self.live
    }

    /// Vertices in the live graph.
    pub fn num_vertices(&self) -> usize {
        self.live.num_vertices()
    }

    /// Edges in the live graph.
    pub fn num_edges(&self) -> usize {
        self.live.num_edges()
    }

    /// Net-changed edges (the delta) since the last published epoch.
    pub fn delta_edges(&self) -> usize {
        self.pending.len()
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

    /// Apply one op to the live graph. Returns `true` when the graph
    /// changed (the op was not a duplicate insert / absent delete /
    /// self-loop). Unknown vertex ids grow the vertex set.
    pub fn apply(&mut self, op: EdgeOp) -> bool {
        match op {
            EdgeOp::Insert(u, v) => {
                if u == v {
                    return false;
                }
                self.live.ensure_vertex(u.max(v));
                if self.live.insert_edge(u, v) {
                    self.note(u, v, true);
                    true
                } else {
                    false
                }
            }
            EdgeOp::Delete(u, v) => {
                let n = self.live.num_vertices();
                if u == v || u as usize >= n || v as usize >= n {
                    return false;
                }
                if self.live.delete_edge(u, v) {
                    self.note(u, v, false);
                    true
                } else {
                    false
                }
            }
        }
    }

    fn note(&mut self, u: VertexId, v: VertexId, present: bool) {
        self.pending.insert(canon(u, v), present);
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
    /// publish it as the next epoch. With an empty delta (and no vertex
    /// growth) this is a no-op that returns the current snapshot without
    /// bumping the epoch.
    ///
    /// Cost: `O(d log d)` to sort the net delta of `d` edges plus one
    /// linear merge-walk over the previous snapshot's sorted edge list,
    /// where [`DynGraph::to_csr`] sorts all `m`. Counters (`delta_edges`,
    /// `merge_edges_out`), the `merge_us` histogram, and the
    /// `snapshot_epoch` gauge ride on the enclosing snap-obs span when
    /// collection is enabled.
    pub fn merge(&mut self) -> Snapshot {
        let merge_us = snap_obs::hist("merge_us");
        let timer = merge_us.start();
        let (prev_epoch, base) = {
            let cur = read_published(&self.published);
            (cur.epoch, Arc::clone(&cur.graph))
        };

        let n = self.live.num_vertices().max(base.num_vertices());
        if self.pending.is_empty() && n == base.num_vertices() {
            merge_us.stop_us(timer);
            return Snapshot {
                epoch: prev_epoch,
                graph: base,
            };
        }

        // Net delta relative to the base snapshot. `pending` records
        // liveness in the *live* graph, so an edge toggled back to its
        // base state drops out here.
        let mut added: Vec<(VertexId, VertexId)> = Vec::new();
        let mut removed: Vec<(VertexId, VertexId)> = Vec::new();
        for (&(u, v), &present) in &self.pending {
            let in_base = (u as usize) < base.num_vertices()
                && base.neighbor_slice(u).binary_search(&v).is_ok();
            match (in_base, present) {
                (false, true) => added.push((u, v)),
                (true, false) => removed.push((u, v)),
                _ => {}
            }
        }
        // Comparison sorts: a counting sort would cost O(n) per merge for d ≪ n.
        added.sort_unstable();
        removed.sort_unstable();
        snap_obs::add("delta_edges", (added.len() + removed.len()) as u64);

        let graph = Arc::new(merge_csr(&base, n, &added, &removed));
        snap_obs::add("merge_edges_out", graph.num_edges() as u64);
        let epoch = prev_epoch + 1;
        snap_obs::gauge("snapshot_epoch", epoch as f64);
        // Live telemetry: the same facts, but on the process-global
        // export registry so a running sampler (`--metrics-out`) can
        // stream them mid-ingest, span context or not.
        snap_obs::telemetry::export_gauge("snapshot_epoch").set(epoch as f64);
        snap_obs::telemetry::export_gauge("live_edges").set(graph.num_edges() as f64);
        snap_obs::telemetry::export_counter("merges").incr();
        snap_obs::telemetry::export_counter("delta_edges")
            .add((added.len() + removed.len()) as u64);
        let snap = Snapshot {
            epoch,
            graph: Arc::clone(&graph),
        };
        // Publish: readers see either the old complete epoch or the new
        // one — never an intermediate state — because the swap is of one
        // pointer-sized value under the lock.
        *write_published(&self.published) = snap.clone();
        self.pending.clear();
        merge_us.stop_us(timer);
        snap
    }
}

/// Build the successor CSR from `base` by a linear merge-walk against the
/// sorted `added` / `removed` edge deltas (all canonical `u <= v`,
/// strictly ascending), then the one fill (`CsrGraph::fill`). Weights
/// of surviving edges are preserved; added edges get weight 1. The delta
/// layer holds no self-loops, but the base snapshot may (a seed CSR built
/// `with_self_loops` that dropped nothing); the fill gives each one arc.
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
    use crate::GraphBuilder;

    fn ref_csr(sg: &StreamingGraph) -> CsrGraph {
        sg.live().to_csr()
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
        sg.apply_batch(&[
            EdgeOp::Insert(0, 3),
            EdgeOp::Delete(1, 2),
            EdgeOp::Insert(5, 0),
            EdgeOp::Insert(0, 3), // duplicate: rejected
            EdgeOp::Delete(2, 5), // absent: rejected
        ]);
        let snap = sg.merge();
        assert_eq!(snap.epoch, 1);
        snap.graph.validate().unwrap();
        assert_same(&snap.graph, &ref_csr(&sg));
    }

    #[test]
    fn toggled_edges_cancel_in_the_delta() {
        let g0 = from_edges(4, &[(0, 1), (1, 2)]);
        let (mut sg, _) = StreamingGraph::from_csr(&g0);
        sg.apply_batch(&[
            EdgeOp::Insert(2, 3),
            EdgeOp::Delete(2, 3), // cancels the insert
            EdgeOp::Delete(0, 1),
            EdgeOp::Insert(0, 1), // cancels the delete
        ]);
        // Nothing net changed: zero delta edges survive to the merge.
        let snap = sg.merge();
        assert_eq!(snap.epoch, 1);
        assert_same(&snap.graph, &ref_csr(&sg));
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
        sg.apply(EdgeOp::Insert(0, 1));
        sg.merge();
        assert_eq!(sg.snapshot().graph.num_vertices(), 2);
        sg.apply(EdgeOp::Insert(7, 1));
        let snap = sg.merge();
        assert_eq!(snap.epoch, 2);
        assert_eq!(snap.graph.num_vertices(), 8);
        assert_same(&snap.graph, &ref_csr(&sg));
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
        assert_same(&reader.snapshot().graph, &ref_csr(&sg));
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

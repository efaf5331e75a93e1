//! Incremental connected components over a stream of edge insertions —
//! part of the dynamic-network support the paper lists as ongoing work
//! ("we intend to extend SNAP to support the topological analysis of
//! dynamic networks").
//!
//! Insertions are `O(α(n))` amortized via union-find; deletions are not
//! supported incrementally (fully dynamic connectivity needs heavier
//! machinery). [`DynamicComponents`] wraps the union-find with the
//! repair-don't-recompute policy the streaming engine needs: insertions
//! update in place, a deletion of a real edge marks the structure stale,
//! and [`DynamicComponents::end_batch`] rebuilds from the live
//! [`snap_graph::DynGraph`] only when a batch actually contained such a
//! deletion — which matches the paper's stream model of mostly accreting
//! interaction data.
//!
//! Vertex ids beyond the tracked range grow the structure on demand
//! ([`IncrementalComponents::ensure_vertex`]), so a stream over a vertex
//! universe discovered on the fly never indexes out of bounds.

use snap_graph::stream::EdgeOp;
use snap_graph::{DynGraph, VertexId};

/// Union-find connectivity over a growing edge stream.
#[derive(Clone, Debug)]
pub struct IncrementalComponents {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
}

impl IncrementalComponents {
    /// `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        IncrementalComponents {
            parent: (0..n as u32).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of vertices tracked.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when no vertices are tracked.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Current number of components.
    pub fn count(&self) -> usize {
        self.components
    }

    /// Grow the tracked vertex set so that `v` is a valid id; new
    /// vertices arrive as isolated singleton components. No-op when `v`
    /// is already tracked. Called automatically by
    /// [`Self::insert_edge`] / [`Self::connected`], so a stream of
    /// previously unseen vertex ids is safe.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        let need = v as usize + 1;
        if need > self.parent.len() {
            let old = self.parent.len();
            self.parent.extend(old as u32..need as u32);
            self.rank.resize(need, 0);
            self.components += need - old;
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    /// Record edge `{u, v}`; returns `true` if it merged two components.
    /// Ids beyond the tracked range grow the structure first.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        self.ensure_vertex(u.max(v));
        let (ru, rv) = (self.find(u), self.find(v));
        if ru == rv {
            return false;
        }
        let (hi, lo) = if self.rank[ru as usize] >= self.rank[rv as usize] {
            (ru, rv)
        } else {
            (rv, ru)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        self.components -= 1;
        true
    }

    /// Are `u` and `v` currently connected? Ids beyond the tracked range
    /// grow the structure (and are trivially disconnected singletons).
    pub fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        self.ensure_vertex(u.max(v));
        self.find(u) == self.find(v)
    }

    /// Materialize consecutive component labels.
    pub fn labels(&mut self) -> crate::components::Components {
        let n = self.len();
        let raw: Vec<u32> = (0..n as u32).map(|v| self.find(v)).collect();
        let mut remap = std::collections::HashMap::new();
        let mut next = 0u32;
        let comp: Vec<u32> = raw
            .into_iter()
            .map(|r| {
                *remap.entry(r).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect();
        crate::components::Components {
            comp,
            count: next as usize,
        }
    }
}

/// Batch-aware incremental connected components for the streaming
/// engine: repairs on insertion, recomputes only when a deletion
/// invalidates the union-find.
///
/// Drive it alongside a [`DynGraph`] (typically the live layer of a
/// [`snap_graph::StreamingGraph`]): feed every op through
/// [`Self::apply`], then call [`Self::end_batch`] with the post-batch
/// graph. Between `end_batch` calls the labels may over-merge (union-find
/// cannot split), so queries go through `end_batch`'s repaired state.
#[derive(Clone, Debug)]
pub struct DynamicComponents {
    inc: IncrementalComponents,
    /// A real edge left the graph since the last rebuild: components may
    /// have split, so the union-find is an over-approximation.
    stale: bool,
    rebuilds: u64,
}

impl DynamicComponents {
    /// Track `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        DynamicComponents {
            inc: IncrementalComponents::new(n),
            stale: false,
            rebuilds: 0,
        }
    }

    /// Full recomputes performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Record one applied stream op. `changed` is the op's effect on the
    /// graph (the return of [`snap_graph::StreamingGraph::apply`] /
    /// [`DynGraph::insert_edge`] / [`DynGraph::delete_edge`]); no-op
    /// mutations cost nothing here either.
    pub fn apply(&mut self, op: EdgeOp, changed: bool) {
        if !changed {
            return;
        }
        match op {
            EdgeOp::Insert(u, v) => {
                self.inc.insert_edge(u, v);
            }
            // The deleted edge was intra-component by definition; whether
            // an alternative path survives is exactly the question
            // union-find cannot answer, so flag for rebuild.
            EdgeOp::Delete(..) => self.stale = true,
        }
    }

    /// Repair after a batch: rebuild from `g` iff a deletion invalidated
    /// the structure. Returns `true` when a full recompute ran.
    pub fn end_batch(&mut self, g: &DynGraph) -> bool {
        if !self.stale {
            // Pure-insertion batches still need the vertex set to track
            // graph growth so `labels()` covers every vertex.
            if g.num_vertices() > 0 {
                self.inc.ensure_vertex(g.num_vertices() as u32 - 1);
            }
            return false;
        }
        let mut inc = IncrementalComponents::new(g.num_vertices());
        for u in 0..g.num_vertices() as VertexId {
            for v in g.neighbors(u) {
                if u < v {
                    inc.insert_edge(u, v);
                }
            }
        }
        self.inc = inc;
        self.stale = false;
        self.rebuilds += 1;
        snap_obs::add("cc_rebuilds", 1);
        true
    }

    /// Number of components (valid after [`Self::end_batch`]).
    pub fn count(&self) -> usize {
        self.inc.count()
    }

    /// Connectivity query (valid after [`Self::end_batch`]).
    pub fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        self.inc.connected(u, v)
    }

    /// Materialize consecutive component labels (valid after
    /// [`Self::end_batch`]).
    pub fn labels(&mut self) -> crate::components::Components {
        self.inc.labels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;
    use snap_graph::builder::from_edges;
    use snap_graph::Graph;

    #[test]
    fn insertions_merge_components() {
        let mut cc = IncrementalComponents::new(5);
        assert_eq!(cc.count(), 5);
        assert!(cc.insert_edge(0, 1));
        assert!(cc.insert_edge(1, 2));
        assert!(!cc.insert_edge(0, 2)); // already connected
        assert_eq!(cc.count(), 3);
        assert!(cc.connected(0, 2));
        assert!(!cc.connected(0, 3));
    }

    #[test]
    fn matches_batch_components() {
        let edges = [(0u32, 1u32), (2, 3), (4, 5), (1, 2), (6, 7)];
        let g = from_edges(9, &edges);
        let mut cc = IncrementalComponents::new(9);
        for &(u, v) in &edges {
            cc.insert_edge(u, v);
        }
        let batch = connected_components(&g);
        let inc = cc.labels();
        assert_eq!(batch.count, inc.count);
        for u in 0..g.num_vertices() {
            for v in 0..g.num_vertices() {
                assert_eq!(
                    batch.comp[u] == batch.comp[v],
                    inc.comp[u] == inc.comp[v],
                    "({u}, {v})"
                );
            }
        }
    }

    #[test]
    fn merge_count_identity() {
        // #merges = n - #components at all times.
        let mut cc = IncrementalComponents::new(10);
        let mut merges = 0;
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (6, 5), (4, 3)] {
            if cc.insert_edge(u, v) {
                merges += 1;
            }
            assert_eq!(merges, 10 - cc.count());
        }
    }

    #[test]
    fn empty_tracker() {
        let mut cc = IncrementalComponents::new(0);
        assert_eq!(cc.count(), 0);
        assert!(cc.is_empty());
        assert_eq!(cc.labels().count, 0);
    }

    #[test]
    fn empty_then_grow_on_unseen_vertices() {
        // The fixed-capacity bug: a stream of previously unseen ids used
        // to panic with index-out-of-bounds. Now it grows.
        let mut cc = IncrementalComponents::new(0);
        assert!(cc.insert_edge(3, 7));
        assert_eq!(cc.len(), 8);
        assert_eq!(cc.count(), 7, "6 singletons + {{3,7}}");
        assert!(cc.connected(3, 7));
        assert!(!cc.connected(0, 3));
        // `connected` on a fresh id also grows (to a singleton).
        assert!(!cc.connected(7, 11));
        assert_eq!(cc.len(), 12);
        assert!(cc.insert_edge(11, 3));
        assert!(cc.connected(7, 11));
        assert_eq!(cc.labels().comp.len(), 12);
    }

    #[test]
    fn dynamic_components_rebuild_only_after_real_deletions() {
        let mut g = DynGraph::new(5);
        let mut cc = DynamicComponents::new(5);
        for (u, v) in [(0, 1), (1, 2), (3, 4)] {
            let changed = g.insert_edge(u, v);
            cc.apply(EdgeOp::Insert(u, v), changed);
        }
        assert!(!cc.end_batch(&g), "insert-only batch needs no rebuild");
        assert_eq!(cc.count(), 2);

        // Deleting an absent edge is a no-op and must not force a rebuild.
        let changed = g.delete_edge(0, 4);
        cc.apply(EdgeOp::Delete(0, 4), changed);
        assert!(!cc.end_batch(&g));

        // A real deletion splits {0,1,2}: the wrapper must recompute.
        let changed = g.delete_edge(1, 2);
        cc.apply(EdgeOp::Delete(1, 2), changed);
        assert!(cc.stale);
        assert!(cc.end_batch(&g));
        assert_eq!(cc.count(), 3);
        assert!(!cc.connected(0, 2));
        assert_eq!(cc.rebuilds(), 1);
    }

    #[test]
    fn dynamic_components_match_batch_recompute() {
        let mut g = DynGraph::new(0);
        let mut cc = DynamicComponents::new(0);
        let ops = [
            EdgeOp::Insert(0, 1),
            EdgeOp::Insert(2, 3),
            EdgeOp::Insert(1, 2),
            EdgeOp::Delete(1, 2),
            EdgeOp::Insert(4, 5),
            EdgeOp::Delete(0, 1),
            EdgeOp::Insert(0, 2),
        ];
        for op in ops {
            let changed = match op {
                EdgeOp::Insert(u, v) => {
                    g.ensure_vertex(u.max(v));
                    g.insert_edge(u, v)
                }
                EdgeOp::Delete(u, v) => g.delete_edge(u, v),
            };
            cc.apply(op, changed);
            cc.end_batch(&g); // batch size 1: repair after every op
            let expect = connected_components(&g.to_csr());
            assert_eq!(cc.count(), expect.count, "after {op:?}");
        }
    }
}

//! Incremental connected components over a stream of edge insertions —
//! part of the dynamic-network support the paper lists as ongoing work
//! ("we intend to extend SNAP to support the topological analysis of
//! dynamic networks").
//!
//! Insertions are `O(α(n))` amortized via union-find; deletions are not
//! supported incrementally (fully dynamic connectivity needs heavier
//! machinery). [`DynamicComponents`] pairs the union-find with the
//! repair-don't-recompute policy the streaming engine needs: insertions
//! update in place, a deletion of a real edge marks the structure stale,
//! and [`DynamicComponents::end_batch`] rebuilds from the published
//! snapshot only when a batch actually contained such a deletion — which
//! matches the paper's stream model of mostly accreting interaction data.
//!
//! Vertex ids beyond the tracked range grow the structure on demand, so
//! a stream over a vertex universe discovered on the fly never indexes
//! out of bounds.

use snap_graph::stream::EdgeOp;
use snap_graph::{CsrGraph, Graph, VertexId};

/// Batch-aware incremental connected components for the streaming
/// engine: a union-find that repairs on insertion and rebuilds only when
/// a deletion invalidates it.
///
/// Drive it alongside a [`snap_graph::StreamingGraph`]: build it from a
/// published snapshot, feed every op through [`Self::apply`], then call
/// [`Self::end_batch`] with the snapshot the batch merged into. Between
/// `end_batch` calls the labels may over-merge (union-find cannot
/// split), so queries go through `end_batch`'s repaired state.
#[derive(Clone, Debug)]
pub struct DynamicComponents {
    parent: Vec<u32>,
    rank: Vec<u8>,
    components: usize,
    /// A real edge left the graph since the last rebuild: components may
    /// have split, so the union-find is an over-approximation.
    stale: bool,
    rebuilds: u64,
}

impl DynamicComponents {
    /// The components of `g`.
    pub fn new(g: &CsrGraph) -> Self {
        let mut cc = DynamicComponents {
            parent: Vec::new(),
            rank: Vec::new(),
            components: 0,
            stale: false,
            rebuilds: 0,
        };
        cc.rebuild(g);
        cc
    }

    /// Union-find over `g`'s edges, from scratch.
    fn rebuild(&mut self, g: &CsrGraph) {
        let n = g.num_vertices();
        self.parent = (0..n as u32).collect();
        self.rank = vec![0; n];
        self.components = n;
        for (_, u, v) in g.edges() {
            self.union(u, v);
        }
        self.stale = false;
    }

    /// Full recomputes performed so far.
    pub fn rebuilds(&self) -> u64 {
        self.rebuilds
    }

    /// Grow the tracked vertex set so that `v` is a valid id; new
    /// vertices arrive as isolated singleton components. No-op when `v`
    /// is already tracked.
    fn ensure_vertex(&mut self, v: VertexId) {
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
    fn union(&mut self, u: VertexId, v: VertexId) -> bool {
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

    /// Record one applied stream op. `changed` is the op's effect on the
    /// graph (the return of [`snap_graph::StreamingGraph::apply`]); no-op
    /// mutations cost nothing here either.
    pub fn apply(&mut self, op: EdgeOp, changed: bool) {
        if !changed {
            return;
        }
        match op {
            EdgeOp::Insert(u, v) => {
                self.union(u, v);
            }
            // The deleted edge was intra-component by definition; whether
            // an alternative path survives is exactly the question
            // union-find cannot answer, so flag for rebuild.
            EdgeOp::Delete(..) => self.stale = true,
        }
    }

    /// Repair after a batch: rebuild from `g`, the snapshot the batch
    /// merged into, iff a deletion invalidated the structure. Returns
    /// `true` when a full recompute ran.
    pub fn end_batch(&mut self, g: &CsrGraph) -> bool {
        if !self.stale {
            // Pure-insertion batches still need the vertex set to track
            // graph growth so every vertex is counted.
            if g.num_vertices() > 0 {
                self.ensure_vertex(g.num_vertices() as u32 - 1);
            }
            return false;
        }
        self.rebuild(g);
        self.rebuilds += 1;
        snap_obs::add("cc_rebuilds", 1);
        true
    }

    /// Number of components (valid after [`Self::end_batch`]).
    pub fn count(&self) -> usize {
        self.components
    }

    /// Connectivity query (valid after [`Self::end_batch`]). Ids beyond
    /// the tracked range grow the structure (and are trivially
    /// disconnected singletons).
    pub fn connected(&mut self, u: VertexId, v: VertexId) -> bool {
        self.ensure_vertex(u.max(v));
        self.find(u) == self.find(v)
    }

    /// Materialize consecutive component labels.
    #[cfg(test)]
    fn labels(&mut self) -> crate::components::Components {
        let n = self.parent.len();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components::connected_components;
    use snap_graph::builder::from_edges;
    use snap_graph::DynGraph;

    /// `n` isolated vertices.
    fn isolated(n: usize) -> DynamicComponents {
        DynamicComponents::new(&CsrGraph::empty(n, false))
    }

    #[test]
    fn insertions_merge_components() {
        let mut cc = isolated(5);
        assert_eq!(cc.count(), 5);
        assert!(cc.union(0, 1));
        assert!(cc.union(1, 2));
        assert!(!cc.union(0, 2)); // already connected
        assert_eq!(cc.count(), 3);
        assert!(cc.connected(0, 2));
        assert!(!cc.connected(0, 3));
    }

    #[test]
    fn matches_batch_components() {
        let edges = [(0u32, 1u32), (2, 3), (4, 5), (1, 2), (6, 7)];
        let g = from_edges(9, &edges);
        let mut cc = isolated(9);
        for &(u, v) in &edges {
            cc.union(u, v);
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
        let mut cc = isolated(10);
        let mut merges = 0;
        for (u, v) in [(0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (6, 5), (4, 3)] {
            if cc.union(u, v) {
                merges += 1;
            }
            assert_eq!(merges, 10 - cc.count());
        }
    }

    #[test]
    fn empty_tracker() {
        let mut cc = isolated(0);
        assert_eq!(cc.count(), 0);
        assert!(cc.parent.is_empty());
        assert_eq!(cc.labels().count, 0);
    }

    #[test]
    fn empty_then_grow_on_unseen_vertices() {
        // The fixed-capacity bug: a stream of previously unseen ids used
        // to panic with index-out-of-bounds. Now it grows.
        let mut cc = isolated(0);
        assert!(cc.union(3, 7));
        assert_eq!(cc.parent.len(), 8);
        assert_eq!(cc.count(), 7, "6 singletons + {{3,7}}");
        assert!(cc.connected(3, 7));
        assert!(!cc.connected(0, 3));
        // `connected` on a fresh id also grows (to a singleton).
        assert!(!cc.connected(7, 11));
        assert_eq!(cc.parent.len(), 12);
        assert!(cc.union(11, 3));
        assert!(cc.connected(7, 11));
        assert_eq!(cc.labels().comp.len(), 12);
    }

    #[test]
    fn dynamic_components_rebuild_only_after_real_deletions() {
        let mut g = DynGraph::new(5);
        let mut cc = DynamicComponents::new(&g.to_csr());
        for (u, v) in [(0, 1), (1, 2), (3, 4)] {
            let changed = g.insert_edge(u, v);
            cc.apply(EdgeOp::Insert(u, v), changed);
        }
        assert!(
            !cc.end_batch(&g.to_csr()),
            "insert-only batch needs no rebuild"
        );
        assert_eq!(cc.count(), 2);

        // Deleting an absent edge is a no-op and must not force a rebuild.
        let changed = g.delete_edge(0, 4);
        cc.apply(EdgeOp::Delete(0, 4), changed);
        assert!(!cc.end_batch(&g.to_csr()));

        // A real deletion splits {0,1,2}: the wrapper must recompute.
        let changed = g.delete_edge(1, 2);
        cc.apply(EdgeOp::Delete(1, 2), changed);
        assert!(cc.stale);
        assert!(cc.end_batch(&g.to_csr()));
        assert_eq!(cc.count(), 3);
        assert!(!cc.connected(0, 2));
        assert_eq!(cc.rebuilds(), 1);
    }

    #[test]
    fn dynamic_components_match_batch_recompute() {
        let mut g = DynGraph::new(0);
        let mut cc = DynamicComponents::new(&g.to_csr());
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
                EdgeOp::Insert(u, v) => g.insert_edge(u, v),
                EdgeOp::Delete(u, v) => g.delete_edge(u, v),
            };
            cc.apply(op, changed);
            cc.end_batch(&g.to_csr()); // batch size 1: repair after every op
            let expect = connected_components(&g.to_csr());
            assert_eq!(cc.count(), expect.count, "after {op:?}");
        }
    }
}

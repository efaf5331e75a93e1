//! Incremental BFS: repair single-source distances under a stream of
//! edge insertions, falling back to full recompute only when a deletion
//! invalidates the shortest-path tree.
//!
//! The structure follows the streaming engine's published snapshots: it
//! is built from one, [`IncrementalBfs::apply`] records each effective op
//! of a batch without looking at any graph, and
//! [`IncrementalBfs::end_batch`] repairs against the snapshot the batch
//! merged into. `dist` and `parent` are valid after `end_batch`.
//!
//! The repair rule for an inserted edge `{u, v}` is the classic dynamic
//! relaxation: if `dist[u] + 1 < dist[v]` the edge opens a shorter path,
//! so `v` is re-labeled and the improvement is propagated by a BFS
//! restricted to vertices that actually improve — `O(affected)` instead
//! of `O(n + m)`. Only the inserts the snapshot still holds are relaxed:
//! one deleted again in the same batch never existed for the labels.
//! Deletions are asymmetric: removing a *non-tree* edge can only remove
//! alternative shortest paths, never shorten or lengthen the tree paths
//! the labels were derived from, so distances stay valid; removing a
//! **tree** edge orphans a subtree, and the structure marks itself stale
//! and recomputes at the next `end_batch`. That split matches the
//! streaming engine's accrete-mostly workload: batches without tree-edge
//! deletions repair in place.

use snap_graph::stream::EdgeOp;
use snap_graph::{CsrGraph, Graph, VertexId};
use std::collections::VecDeque;

use crate::bfs::{NO_PARENT, UNREACHABLE};

/// Single-source BFS distances maintained under edge churn.
#[derive(Clone, Debug)]
pub struct IncrementalBfs {
    source: VertexId,
    /// Hop distance from the source (`UNREACHABLE` if not reached).
    pub dist: Vec<u32>,
    /// BFS-tree parent (`NO_PARENT` for the source and unreached
    /// vertices).
    pub parent: Vec<VertexId>,
    /// Effective inserts since the last `end_batch`, to relax then.
    inserted: Vec<(VertexId, VertexId)>,
    stale: bool,
    recomputes: u64,
}

impl IncrementalBfs {
    /// Run the initial traversal of `g` from `source`.
    pub fn new(g: &CsrGraph, source: VertexId) -> Self {
        let mut b = IncrementalBfs {
            source,
            dist: Vec::new(),
            parent: Vec::new(),
            inserted: Vec::new(),
            stale: false,
            recomputes: 0,
        };
        b.recompute(g);
        b
    }

    /// Full recomputes performed so far (initial construction excluded).
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Vertices currently reached, including the source.
    pub fn reached(&self) -> usize {
        self.dist.iter().filter(|&&d| d != UNREACHABLE).count()
    }

    fn grow(&mut self, n: usize) {
        if n > self.dist.len() {
            let old = self.dist.len();
            self.dist.resize(n, UNREACHABLE);
            self.parent.resize(n, NO_PARENT);
            // The source may only now have come into range (streams that
            // start from an empty graph): it is at distance 0 of itself
            // the moment it exists.
            let s = self.source as usize;
            if s >= old && s < n {
                self.dist[s] = 0;
            }
        }
    }

    /// Record one applied stream op. `changed` is the op's effect on the
    /// graph (see [`snap_graph::StreamingGraph::apply`]).
    pub fn apply(&mut self, op: EdgeOp, changed: bool) {
        if !changed || self.stale {
            return;
        }
        match op {
            EdgeOp::Insert(u, v) => self.inserted.push((u, v)),
            EdgeOp::Delete(u, v) => {
                // Tree edge iff one endpoint is the other's BFS parent.
                let parent = |x: VertexId| self.parent.get(x as usize).copied();
                if parent(v) == Some(u) || parent(u) == Some(v) {
                    self.stale = true;
                }
            }
        }
    }

    /// If `{u, v}` improves `v`, propagate the improvement through every
    /// vertex whose distance drops.
    fn relax(&mut self, g: &CsrGraph, u: VertexId, v: VertexId) {
        let du = self.dist[u as usize];
        if du == UNREACHABLE || du + 1 >= self.dist[v as usize] {
            return;
        }
        self.dist[v as usize] = du + 1;
        self.parent[v as usize] = u;
        let mut queue = VecDeque::new();
        queue.push_back(v);
        while let Some(x) = queue.pop_front() {
            let dx = self.dist[x as usize];
            for &y in g.neighbor_slice(x) {
                if dx + 1 < self.dist[y as usize] {
                    self.dist[y as usize] = dx + 1;
                    self.parent[y as usize] = x;
                    queue.push_back(y);
                }
            }
        }
    }

    /// Repair after a batch against `g`, the snapshot the batch merged
    /// into: recompute from scratch iff a tree-edge deletion invalidated
    /// the labels, else relax the batch's inserts that `g` holds.
    /// Returns `true` when a full recompute ran.
    pub fn end_batch(&mut self, g: &CsrGraph) -> bool {
        let inserted = std::mem::take(&mut self.inserted);
        if self.stale {
            self.recompute(g);
            self.recomputes += 1;
            snap_obs::add("bfs_recomputes", 1);
            return true;
        }
        self.grow(g.num_vertices());
        for (u, v) in inserted {
            if g.neighbor_slice(u).binary_search(&v).is_ok() {
                self.relax(g, u, v);
                self.relax(g, v, u);
            }
        }
        false
    }

    fn recompute(&mut self, g: &CsrGraph) {
        let n = g.num_vertices();
        self.dist = vec![UNREACHABLE; n];
        self.parent = vec![NO_PARENT; n];
        self.stale = false;
        if (self.source as usize) >= n {
            return;
        }
        self.dist[self.source as usize] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(self.source);
        while let Some(x) = queue.pop_front() {
            let dx = self.dist[x as usize];
            for &y in g.neighbor_slice(x) {
                if self.dist[y as usize] == UNREACHABLE {
                    self.dist[y as usize] = dx + 1;
                    self.parent[y as usize] = x;
                    queue.push_back(y);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::DynGraph;

    /// Reference: fresh sequential BFS over the dynamic graph.
    fn full_bfs(g: &DynGraph, source: VertexId) -> Vec<u32> {
        let mut b = IncrementalBfs {
            source,
            dist: Vec::new(),
            parent: Vec::new(),
            inserted: Vec::new(),
            stale: false,
            recomputes: 0,
        };
        b.recompute(&g.to_csr());
        b.dist
    }

    fn check_parents(b: &IncrementalBfs, g: &DynGraph) {
        for v in 0..g.num_vertices() as VertexId {
            let p = b.parent[v as usize];
            if v == b.source || b.dist[v as usize] == UNREACHABLE {
                assert_eq!(p, NO_PARENT);
            } else {
                assert!(g.has_edge(p, v), "parent edge {p}-{v} must exist");
                assert_eq!(b.dist[p as usize] + 1, b.dist[v as usize]);
            }
        }
    }

    #[test]
    fn insertions_repair_distances() {
        let mut g = DynGraph::new(6);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            g.insert_edge(u, v);
        }
        let mut b = IncrementalBfs::new(&g.to_csr(), 0);
        assert_eq!(b.dist, vec![0, 1, 2, 3, 4, UNREACHABLE]);

        // A shortcut: 0-4 directly.
        g.insert_edge(0, 4);
        b.apply(EdgeOp::Insert(0, 4), true);
        assert!(!b.end_batch(&g.to_csr()), "insertion repaired in place");
        assert_eq!(b.dist, vec![0, 1, 2, 2, 1, UNREACHABLE]);
        check_parents(&b, &g);

        // Reaching an unreached vertex.
        g.insert_edge(4, 5);
        b.apply(EdgeOp::Insert(4, 5), true);
        b.end_batch(&g.to_csr());
        assert_eq!(b.dist[5], 2);
        assert_eq!(b.recomputes(), 0);
    }

    #[test]
    fn non_tree_deletion_keeps_labels() {
        let mut g = DynGraph::new(4);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.insert_edge(u, v);
        }
        let mut b = IncrementalBfs::new(&g.to_csr(), 0);
        // 3's parent is one of {1, 2}; deleting the *other* path's edge is
        // a non-tree deletion.
        let non_tree = if b.parent[3] == 1 { (2, 3) } else { (1, 3) };
        g.delete_edge(non_tree.0, non_tree.1);
        b.apply(EdgeOp::Delete(non_tree.0, non_tree.1), true);
        assert!(!b.stale);
        assert!(!b.end_batch(&g.to_csr()));
        assert_eq!(b.dist, full_bfs(&g, 0));
        check_parents(&b, &g);
    }

    #[test]
    fn tree_deletion_forces_recompute() {
        let mut g = DynGraph::new(4);
        for (u, v) in [(0, 1), (1, 2), (2, 3), (0, 3)] {
            g.insert_edge(u, v);
        }
        let mut b = IncrementalBfs::new(&g.to_csr(), 0);
        // (0, 1) is certainly a tree edge (dist[1] == 1).
        g.delete_edge(0, 1);
        b.apply(EdgeOp::Delete(0, 1), true);
        assert!(b.stale);
        assert!(b.end_batch(&g.to_csr()));
        assert_eq!(b.dist, full_bfs(&g, 0));
        assert_eq!(b.dist, vec![0, 3, 2, 1]);
        check_parents(&b, &g);
        assert_eq!(b.recomputes(), 1);
    }

    #[test]
    fn unseen_vertices_grow_unreachable() {
        let mut g = DynGraph::new(2);
        g.insert_edge(0, 1);
        let mut b = IncrementalBfs::new(&g.to_csr(), 0);
        g.insert_edge(4, 5);
        b.apply(EdgeOp::Insert(4, 5), true);
        b.end_batch(&g.to_csr());
        assert_eq!(b.dist.len(), 6);
        assert_eq!(b.dist[5], UNREACHABLE);
        // Later the island connects.
        g.insert_edge(1, 4);
        b.apply(EdgeOp::Insert(1, 4), true);
        b.end_batch(&g.to_csr());
        assert_eq!(b.dist, vec![0, 1, UNREACHABLE, UNREACHABLE, 2, 3]);
    }

    #[test]
    fn source_appearing_after_growth_gets_distance_zero() {
        // Stream starting from an *empty* graph: the source does not
        // exist yet at construction time.
        let mut g = DynGraph::new(0);
        let mut b = IncrementalBfs::new(&g.to_csr(), 0);
        assert_eq!(b.reached(), 0);
        g.insert_edge(0, 1);
        b.apply(EdgeOp::Insert(0, 1), true);
        assert!(!b.end_batch(&g.to_csr()));
        assert_eq!(b.dist, vec![0, 1]);
        check_parents(&b, &g);
    }

    #[test]
    fn source_beyond_graph_is_all_unreachable() {
        let g = DynGraph::new(2);
        let b = IncrementalBfs::new(&g.to_csr(), 9);
        assert_eq!(b.reached(), 0);
    }
}

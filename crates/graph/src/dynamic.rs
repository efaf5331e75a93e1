//! Dynamic graph with degree-adaptive adjacency storage.
//!
//! The paper's auxiliary representation: low-degree vertices keep their
//! adjacencies in simple unsorted resizable arrays (cheap insertion, linear
//! deletion over a short list), while the few very high-degree vertices of
//! a small-world network switch to treaps, keeping updates and membership
//! queries logarithmic. The crossover degree is configurable.

use crate::csr::CsrGraph;
use crate::traits::Graph;
use crate::treap::Treap;
use crate::{GraphBuilder, VertexId};

/// Default degree at which an adjacency list is promoted to a treap.
/// Small-world degree distributions are heavily skewed, so nearly all
/// vertices stay below this and pay zero tree overhead.
pub const DEFAULT_TREAP_THRESHOLD: usize = 128;

#[derive(Clone, Debug)]
enum Adjacency {
    /// Unsorted resizable array; the common case for low-degree vertices.
    Array(Vec<VertexId>),
    /// Randomized search tree for high-degree vertices.
    Tree(Treap<VertexId>),
}

impl Adjacency {
    fn len(&self) -> usize {
        match self {
            Adjacency::Array(v) => v.len(),
            Adjacency::Tree(t) => t.len(),
        }
    }

    fn contains(&self, u: VertexId) -> bool {
        match self {
            Adjacency::Array(v) => v.contains(&u),
            Adjacency::Tree(t) => t.contains(&u),
        }
    }
}

/// Mutable graph supporting edge insertion and deletion.
///
/// Undirected only (the dynamic algorithms in the paper operate on
/// undirected interaction graphs); each edge is mirrored in both endpoint
/// adjacencies.
#[derive(Clone, Debug)]
pub struct DynGraph {
    adj: Vec<Adjacency>,
    num_edges: usize,
    threshold: usize,
}

impl DynGraph {
    /// Empty dynamic graph on `n` vertices with the default treap threshold.
    pub fn new(n: usize) -> Self {
        Self::with_threshold(n, DEFAULT_TREAP_THRESHOLD)
    }

    /// Empty dynamic graph with an explicit array→treap crossover degree.
    /// `threshold == usize::MAX` disables treaps entirely (pure arrays),
    /// `threshold == 0` forces treaps everywhere; both are useful for the
    /// ablation benchmarks.
    pub fn with_threshold(n: usize, threshold: usize) -> Self {
        DynGraph {
            adj: (0..n).map(|_| Adjacency::Array(Vec::new())).collect(),
            num_edges: 0,
            threshold,
        }
    }

    /// Import a static graph into the dynamic representation.
    ///
    /// `DynGraph` models a *simple* graph: self-loops and parallel edges of
    /// the source CSR are stripped. This convenience wrapper discards the
    /// drop count; use [`Self::from_csr_counted`] when the caller must
    /// know whether `num_edges()` can disagree with the source.
    pub fn from_csr(g: &CsrGraph) -> Self {
        Self::from_csr_counted(g).0
    }

    /// Import a static graph, reporting how many source edges were
    /// deliberately stripped (self-loops, and duplicates of an edge already
    /// inserted) because the dynamic representation is a simple graph.
    /// `from_csr(g).num_edges() == g.num_edges() - dropped` always holds.
    pub fn from_csr_counted(g: &CsrGraph) -> (Self, usize) {
        assert!(!g.is_directed(), "DynGraph is undirected");
        let mut d = DynGraph::new(g.num_vertices());
        let mut dropped = 0usize;
        for (_, u, v) in g.edges() {
            if !d.insert_edge(u, v) {
                dropped += 1;
            }
        }
        (d, dropped)
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Grow the vertex set so that `v` is a valid vertex id. New vertices
    /// start isolated. No-op when `v` is already in range — safe to call
    /// on every op of a stream whose vertex universe is discovered as it
    /// arrives.
    pub fn ensure_vertex(&mut self, v: VertexId) {
        if v as usize >= self.adj.len() {
            self.adj
                .resize_with(v as usize + 1, || Adjacency::Array(Vec::new()));
        }
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Degree of `v`.
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v as usize].len()
    }

    /// Membership test; `O(deg)` for array vertices, `O(log deg)` for
    /// treap vertices.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize].contains(b)
    }

    /// Insert edge `{u, v}`; returns `false` if it already existed or is a
    /// self-loop.
    pub fn insert_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if u == v || self.has_edge(u, v) {
            return false;
        }
        self.push_arc(u, v);
        self.push_arc(v, u);
        self.num_edges += 1;
        true
    }

    /// Delete edge `{u, v}`; returns `false` if it was absent.
    pub fn delete_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        if !self.has_edge(u, v) {
            return false;
        }
        self.remove_arc(u, v);
        self.remove_arc(v, u);
        self.num_edges -= 1;
        true
    }

    fn push_arc(&mut self, u: VertexId, v: VertexId) {
        let slot = &mut self.adj[u as usize];
        match slot {
            Adjacency::Array(vec) => {
                vec.push(v);
                if vec.len() > self.threshold {
                    let treap: Treap<VertexId> =
                        Treap::with_seed(0xD1B5_4A32 ^ u as u64).union(vec.drain(..).collect());
                    *slot = Adjacency::Tree(treap);
                }
            }
            Adjacency::Tree(t) => {
                t.insert(v);
            }
        }
    }

    fn remove_arc(&mut self, u: VertexId, v: VertexId) {
        let slot = &mut self.adj[u as usize];
        match slot {
            Adjacency::Array(vec) => {
                if let Some(pos) = vec.iter().position(|&x| x == v) {
                    vec.swap_remove(pos);
                }
            }
            Adjacency::Tree(t) => {
                t.remove(&v);
                // Demote back to an array once the degree collapses well
                // below the promotion point (hysteresis at threshold / 2,
                // so an adjacency oscillating around the crossover does
                // not thrash between representations). `threshold == 0`
                // pins every adjacency to a treap, so it never demotes.
                if t.len() < self.threshold / 2 {
                    *slot = Adjacency::Array(t.iter().copied().collect());
                }
            }
        }
    }

    /// Iterate over the neighbors of `v` (unspecified order for array
    /// vertices, sorted for treap vertices).
    pub fn neighbors(&self, v: VertexId) -> Box<dyn Iterator<Item = VertexId> + '_> {
        match &self.adj[v as usize] {
            Adjacency::Array(vec) => Box::new(vec.iter().copied()),
            Adjacency::Tree(t) => Box::new(t.iter().copied()),
        }
    }

    /// True if `v`'s adjacency has been promoted to a treap.
    pub fn is_treap_backed(&self, v: VertexId) -> bool {
        matches!(self.adj[v as usize], Adjacency::Tree(_))
    }

    /// Freeze into the static CSR representation.
    pub fn to_csr(&self) -> CsrGraph {
        let mut edges = Vec::with_capacity(self.num_edges);
        for u in 0..self.num_vertices() as VertexId {
            edges.extend(self.neighbors(u).filter(|&v| u <= v).map(|v| (u, v, 1)));
        }
        GraphBuilder::undirected(self.num_vertices())
            .with_edges(edges)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn insert_and_query() {
        let mut g = DynGraph::new(4);
        assert!(g.insert_edge(0, 1));
        assert!(!g.insert_edge(1, 0));
        assert!(!g.insert_edge(2, 2));
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 1);
    }

    #[test]
    fn delete_edge_updates_both_sides() {
        let mut g = DynGraph::new(3);
        g.insert_edge(0, 1);
        g.insert_edge(1, 2);
        assert!(g.delete_edge(0, 1));
        assert!(!g.delete_edge(0, 1));
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn promotes_to_treap_past_threshold() {
        let mut g = DynGraph::with_threshold(100, 8);
        for v in 1..20 {
            g.insert_edge(0, v);
        }
        assert!(g.is_treap_backed(0));
        assert!(!g.is_treap_backed(1));
        assert_eq!(g.degree(0), 19);
        // Treap-backed adjacency still answers queries.
        assert!(g.has_edge(0, 15));
        g.delete_edge(0, 15);
        assert!(!g.has_edge(0, 15));
        assert_eq!(g.degree(0), 18);
    }

    #[test]
    fn treap_neighbors_sorted() {
        let mut g = DynGraph::with_threshold(50, 4);
        for v in [9, 3, 7, 1, 5, 2] {
            g.insert_edge(0, v);
        }
        assert!(g.is_treap_backed(0));
        let ns: Vec<VertexId> = g.neighbors(0).collect();
        assert_eq!(ns, vec![1, 2, 3, 5, 7, 9]);
    }

    #[test]
    fn csr_round_trip() {
        let g0 = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]);
        let dynamic = DynGraph::from_csr(&g0);
        let g1 = dynamic.to_csr();
        assert_eq!(g0.num_edges(), g1.num_edges());
        for v in g0.vertices() {
            let mut a: Vec<_> = g0.neighbors(v).collect();
            let mut b: Vec<_> = g1.neighbors(v).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn threshold_zero_forces_treaps() {
        let mut g = DynGraph::with_threshold(4, 0);
        g.insert_edge(0, 1);
        assert!(g.is_treap_backed(0));
        // With threshold 0 there is no array representation to demote to.
        g.delete_edge(0, 1);
        assert!(g.is_treap_backed(0));
    }

    #[test]
    fn demotes_below_half_threshold() {
        let mut g = DynGraph::with_threshold(100, 8);
        for v in 1..=9 {
            g.insert_edge(0, v);
        }
        assert!(g.is_treap_backed(0));
        // Deleting down into the hysteresis band [threshold/2, threshold]
        // keeps the treap; crossing below threshold/2 demotes.
        for v in 1..=5 {
            g.delete_edge(0, v);
        }
        assert!(g.is_treap_backed(0), "degree 4 is still in the band");
        g.delete_edge(0, 6);
        assert!(!g.is_treap_backed(0), "degree 3 < 8/2 must demote");
        // The demoted adjacency still answers queries and can re-promote.
        assert!(g.has_edge(0, 7) && g.has_edge(0, 8) && g.has_edge(0, 9));
        assert_eq!(g.degree(0), 3);
        for v in 10..=17 {
            g.insert_edge(0, v);
        }
        assert!(g.is_treap_backed(0), "re-promotes past the threshold");
        assert_eq!(g.degree(0), 11);
    }

    #[test]
    fn insert_delete_churn_across_crossover() {
        // Drive one hub repeatedly across the promotion/demotion boundary
        // and check membership against a model set the whole way.
        let mut g = DynGraph::with_threshold(64, 8);
        let mut model = std::collections::HashSet::new();
        for round in 0..6 {
            for v in 1..=12u32 {
                assert_eq!(g.insert_edge(0, v), model.insert(v), "round {round}");
            }
            assert!(g.is_treap_backed(0));
            for v in 1..=10u32 {
                assert_eq!(g.delete_edge(0, v), model.remove(&v), "round {round}");
            }
            assert!(!g.is_treap_backed(0));
            for v in 1..=12u32 {
                assert_eq!(g.has_edge(0, v), model.contains(&v));
            }
            for v in 11..=12u32 {
                g.delete_edge(0, v);
                model.remove(&v);
            }
        }
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn from_csr_counted_reports_dropped_self_loops() {
        // A multigraph fixture: self-loops survive the builder when asked
        // for; the dynamic representation strips them *deliberately* and
        // says so.
        let g0 = crate::GraphBuilder::undirected(4)
            .with_self_loops()
            .add_edges([(0, 0), (0, 1), (1, 2), (2, 2), (2, 3)])
            .build();
        assert_eq!(g0.num_edges(), 5);
        let (d, dropped) = DynGraph::from_csr_counted(&g0);
        assert_eq!(dropped, 2, "both self-loops stripped");
        assert_eq!(d.num_edges(), g0.num_edges() - dropped);
        // Round trip: the simple part of the graph survives exactly.
        let g1 = d.to_csr();
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
    fn ensure_vertex_grows() {
        let mut g = DynGraph::new(0);
        assert_eq!(g.num_vertices(), 0);
        g.ensure_vertex(5);
        assert_eq!(g.num_vertices(), 6);
        assert!(g.insert_edge(5, 3));
        g.ensure_vertex(2); // already in range: no-op
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.degree(5), 1);
    }
}

//! Edge-list accumulator that produces a validated [`CsrGraph`].

use crate::csr::CsrGraph;
use crate::{VertexId, Weight};

/// Accumulates edges and builds a [`CsrGraph`].
///
/// Duplicate edges are merged (weights summed), self-loops are dropped by
/// default (none of the paper's algorithms use them; modularity in
/// particular assumes simple graphs), and undirected edges are
/// canonicalized to `u <= v` before being expanded into two arcs.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    directed: bool,
    keep_self_loops: bool,
    edges: Vec<(VertexId, VertexId, Weight)>,
    weighted: bool,
}

impl GraphBuilder {
    /// Builder for an undirected graph on `n` vertices.
    pub fn undirected(n: usize) -> Self {
        Self::new(n, false)
    }

    /// Builder for a directed graph on `n` vertices.
    pub fn directed(n: usize) -> Self {
        Self::new(n, true)
    }

    fn new(n: usize, directed: bool) -> Self {
        assert!(n <= u32::MAX as usize, "vertex ids must fit in u32");
        GraphBuilder {
            n,
            directed,
            keep_self_loops: false,
            edges: Vec::new(),
            weighted: false,
        }
    }

    /// Keep self-loops instead of silently dropping them.
    pub fn with_self_loops(mut self) -> Self {
        self.keep_self_loops = true;
        self
    }

    /// Add a vector of weighted edges, taking it over rather than copying
    /// it: a reader or generator that collected its edges hands them in
    /// here.
    pub fn with_edges(mut self, mut edges: Vec<(VertexId, VertexId, Weight)>) -> Self {
        for edge in &mut edges {
            *edge = self.admit(*edge);
        }
        if self.edges.is_empty() {
            self.edges = edges;
        } else {
            self.edges.append(&mut edges);
        }
        self
    }

    /// Add an unweighted edge.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.add_weighted_edge(u, v, 1)
    }

    /// Add a weighted edge. Duplicate edges accumulate weight.
    pub fn add_weighted_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> &mut Self {
        let edge = self.admit((u, v, w));
        self.edges.push(edge);
        self
    }

    /// Range-check one edge, note a non-unit weight, and canonicalize it.
    #[inline]
    fn admit(&mut self, (u, v, w): (VertexId, VertexId, Weight)) -> (VertexId, VertexId, Weight) {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        self.weighted |= w != 1;
        if self.directed || u <= v {
            (u, v, w)
        } else {
            (v, u, w)
        }
    }

    /// Add a batch of unweighted edges.
    pub fn add_edges<I>(self, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        self.add_weighted_edges(edges.into_iter().map(|(u, v)| (u, v, 1)))
    }

    /// Add a batch of weighted edges.
    pub fn add_weighted_edges<I>(self, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
    {
        self.with_edges(edges.into_iter().collect())
    }

    /// Build the CSR graph: sort unless already sorted, drop self-loops,
    /// merge duplicates, then hand the edges to `CsrGraph::fill`.
    pub fn build(self) -> CsrGraph {
        let _span = snap_obs::span("csr.build");
        let GraphBuilder {
            n,
            directed,
            keep_self_loops,
            mut edges,
            mut weighted,
        } = self;
        snap_obs::add("build_edges_in", edges.len() as u64);

        // Canonical order so duplicates become adjacent. Files snap-io
        // wrote, METIS rows, subgraphs and view rebuilds arrive in it.
        let sorted = edges.is_sorted_by_key(|&(u, v, _)| (u, v));
        if !sorted {
            edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        }
        snap_obs::add("build_sorted_input", sorted as u64);

        // Drop self-loops unless kept, then deduplicate in place, merging
        // weights. Any merge makes the graph weighted even if every input
        // weight was 1 (parallel unit edges collapse to a weight-2 edge —
        // the coarse graphs of the multilevel partitioner rely on this).
        if !keep_self_loops {
            edges.retain(|&(u, v, _)| u != v);
        }
        edges.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 = kept.2.saturating_add(next.2);
                weighted = true;
            }
            same
        });
        snap_obs::add("build_edges_kept", edges.len() as u64);
        CsrGraph::fill(n, directed, edges, weighted)
    }
}

/// Convenience: build an undirected graph straight from an edge list.
pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> CsrGraph {
    GraphBuilder::undirected(n)
        .add_edges(edges.iter().copied())
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::{Graph, WeightedGraph};
    use crate::EdgeId;

    #[test]
    fn dedup_merges_weights() {
        let g = GraphBuilder::undirected(2)
            .add_weighted_edges([(0, 1, 2), (1, 0, 3)])
            .build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_weight(0), 5);
    }

    /// `(edge id, u, v, weight)` in edge-id order.
    fn edge_rows(g: &CsrGraph) -> Vec<(EdgeId, VertexId, VertexId, Weight)> {
        g.edges()
            .map(|(e, u, v)| (e, u, v, g.edge_weight(e)))
            .collect()
    }

    #[test]
    fn merged_weights_saturate() {
        let g = GraphBuilder::undirected(2)
            .add_weighted_edges([(0, 1, Weight::MAX), (1, 0, 5), (0, 1, 7)])
            .build();
        assert_eq!(edge_rows(&g), [(0, 0, 1, Weight::MAX)]);
    }

    #[test]
    fn any_merge_makes_the_graph_weighted() {
        let merged = from_edges(3, &[(1, 2), (0, 1), (1, 0)]);
        assert!(merged.is_weighted());
        assert_eq!(edge_rows(&merged), [(0, 0, 1, 2), (1, 1, 2, 1)]);
        assert!(!from_edges(3, &[(1, 2), (0, 1)]).is_weighted());
    }

    #[test]
    fn dedup_skips_self_loops_between_duplicates_and_keeps_id_order() {
        // Sorted, the input reads (0,0) (0,1) (0,1) (1,1) (1,2) (1,2) (2,2):
        // every kept edge sits behind a dropped one.
        let edges = [(2, 1), (1, 1), (0, 1), (2, 2), (1, 0), (1, 2), (0, 0)];
        let g = from_edges(3, &edges);
        assert_eq!(edge_rows(&g), [(0, 0, 1, 2), (1, 1, 2, 2)]);
        assert_eq!(g.neighbor_slice(1), &[0, 2]);
        assert_eq!(g.eid_slice(1), &[0, 1]);
        let kept = GraphBuilder::undirected(3)
            .with_self_loops()
            .add_edges(edges)
            .build();
        let want = [(0, 0, 1), (0, 1, 2), (1, 1, 1), (1, 2, 2), (2, 2, 1)];
        let want: Vec<_> = (0..).zip(want).map(|(e, (u, v, w))| (e, u, v, w)).collect();
        assert_eq!(edge_rows(&kept), want);
        kept.validate().unwrap();
        let directed = GraphBuilder::directed(3).add_edges(edges).build();
        let pairs: Vec<_> = directed.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(pairs, [(0, 1), (1, 0), (1, 2), (2, 1)]);
        assert!(!directed.is_weighted());
    }

    #[test]
    fn self_loops_dropped_by_default() {
        let g = GraphBuilder::undirected(2)
            .add_edges([(0, 0), (0, 1)])
            .build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn self_loops_kept_on_request() {
        let g = GraphBuilder::undirected(2)
            .with_self_loops()
            .add_edges([(0, 0), (0, 1)])
            .build();
        assert_eq!(g.num_edges(), 2);
        // An undirected self-loop contributes one arc.
        assert_eq!(g.num_arcs(), 3);
        g.validate().unwrap();
    }

    #[test]
    fn directed_preserves_orientation() {
        let g = GraphBuilder::directed(3)
            .add_edges([(2, 0), (0, 1)])
            .build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_arcs(), 2);
        assert_eq!(g.neighbor_slice(2), &[0]);
        assert_eq!(g.neighbor_slice(0), &[1]);
        assert_eq!(g.neighbor_slice(1), &[] as &[VertexId]);
    }

    #[test]
    fn adjacency_sorted_by_construction() {
        let g = from_edges(5, &[(0, 4), (0, 1), (0, 3), (0, 2)]);
        assert_eq!(g.neighbor_slice(0), &[1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut b = GraphBuilder::undirected(2);
        b.add_edge(0, 2);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = from_edges(10, &[(0, 1)]);
        assert_eq!(g.num_vertices(), 10);
        assert_eq!(g.degree(9), 0);
    }
}

//! Edge-list accumulator that produces a validated [`CsrGraph`].

use crate::csr::CsrGraph;
use crate::{EdgeId, VertexId, Weight};

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

    /// Pre-allocate for `m` edges.
    pub fn with_capacity(mut self, m: usize) -> Self {
        self.edges.reserve(m);
        self
    }

    /// Add an unweighted edge.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> &mut Self {
        self.add_weighted_edge(u, v, 1)
    }

    /// Add a weighted edge. Duplicate edges accumulate weight.
    pub fn add_weighted_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> &mut Self {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) out of range for n = {}",
            self.n
        );
        if w != 1 {
            self.weighted = true;
        }
        let (a, b) = if self.directed || u <= v {
            (u, v)
        } else {
            (v, u)
        };
        self.edges.push((a, b, w));
        self
    }

    /// Add a batch of unweighted edges.
    pub fn add_edges<I>(self, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        self.add_weighted_edges(edges.into_iter().map(|(u, v)| (u, v, 1)))
    }

    /// Add a batch of weighted edges.
    pub fn add_weighted_edges<I>(mut self, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
    {
        let edges = edges.into_iter();
        self.edges.reserve(edges.size_hint().0);
        for (u, v, w) in edges {
            self.add_weighted_edge(u, v, w);
        }
        self
    }

    /// Build the CSR graph: sort, deduplicate, expand arcs, prefix-sum.
    pub fn build(mut self) -> CsrGraph {
        let n = self.n;

        // Canonical order so duplicates become adjacent.
        self.edges.sort_unstable_by_key(|&(u, v, _)| (u, v));

        // Drop self-loops unless kept, then deduplicate in place, merging
        // weights. Any merge makes the graph weighted even if every input
        // weight was 1 (parallel unit edges collapse to a weight-2 edge —
        // the coarse graphs of the multilevel partitioner rely on this).
        if !self.keep_self_loops {
            self.edges.retain(|&(u, v, _)| u != v);
        }
        let mut merged = false;
        self.edges.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 = kept.2.saturating_add(next.2);
                merged = true;
            }
            same
        });
        self.weighted |= merged;
        let uniq = self.edges;
        assert!(uniq.len() <= u32::MAX as usize, "edge ids must fit in u32");

        // Count arcs per vertex.
        let mut counts = vec![0usize; n + 1];
        for &(u, v, _) in &uniq {
            counts[u as usize + 1] += 1;
            if !self.directed && u != v {
                counts[v as usize + 1] += 1;
            }
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let num_arcs = offsets[n];

        // Fill arcs.
        let mut cursor = offsets.clone();
        let mut targets = vec![0 as VertexId; num_arcs];
        let mut arc_edge_ids = vec![0 as EdgeId; num_arcs];
        let mut endpoints = Vec::with_capacity(uniq.len());
        let mut weights = Vec::new();
        if self.weighted {
            weights.reserve(uniq.len());
        }
        for (eid, &(u, v, w)) in uniq.iter().enumerate() {
            let e = eid as EdgeId;
            endpoints.push((u, v));
            if self.weighted {
                weights.push(w);
            }
            let cu = &mut cursor[u as usize];
            targets[*cu] = v;
            arc_edge_ids[*cu] = e;
            *cu += 1;
            if !self.directed && u != v {
                let cv = &mut cursor[v as usize];
                targets[*cv] = u;
                arc_edge_ids[*cv] = e;
                *cv += 1;
            }
        }

        let g = CsrGraph {
            offsets,
            targets,
            arc_edge_ids,
            endpoints,
            weights,
            directed: self.directed,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
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
        // every kept edge sits behind a dropped one, so the write index
        // trails the read index from the first element on.
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

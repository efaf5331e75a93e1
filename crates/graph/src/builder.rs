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
    pub fn add_edges<I>(mut self, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
        self
    }

    /// Add a batch of weighted edges.
    pub fn add_weighted_edges<I>(mut self, edges: I) -> Self
    where
        I: IntoIterator<Item = (VertexId, VertexId, Weight)>,
    {
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

        // Deduplicate, merging weights; drop self-loops unless kept. Any
        // merge makes the graph weighted even if every input weight was 1
        // (parallel unit edges collapse to a weight-2 edge — the coarse
        // graphs of the multilevel partitioner rely on this).
        let mut uniq: Vec<(VertexId, VertexId, Weight)> = Vec::with_capacity(self.edges.len());
        for (u, v, w) in self.edges {
            if u == v && !self.keep_self_loops {
                continue;
            }
            match uniq.last_mut() {
                Some(last) if last.0 == u && last.1 == v => {
                    last.2 = last.2.saturating_add(w);
                    self.weighted = true;
                }
                _ => uniq.push((u, v, w)),
            }
        }
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

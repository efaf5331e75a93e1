//! Graph contraction along a matching (the multilevel "coarsen" step).

use crate::matching::heavy_edge_matching;
use snap_graph::{CsrGraph, Graph, GraphBuilder, VertexId, WeightedGraph};

/// One level of the multilevel hierarchy.
#[derive(Clone, Debug)]
pub struct CoarseLevel {
    /// The contracted graph (edge weights = summed multi-edge weights).
    pub graph: CsrGraph,
    /// Vertex weights of the contracted graph (= total fine vertices
    /// represented).
    pub vwgt: Vec<u32>,
    /// `map[fine_vertex] = coarse_vertex`.
    pub map: Vec<VertexId>,
}

/// Contract `g` along a heavy-edge matching. `vwgt` are the current
/// vertex weights (unit at the finest level).
pub fn coarsen(g: &CsrGraph, vwgt: &[u32], seed: u64) -> CoarseLevel {
    let _span = snap_obs::span("partition.coarsen");
    snap_obs::add("coarsen_levels", 1);
    let n = g.num_vertices();
    let mate = heavy_edge_matching(g, seed);

    // Assign coarse ids: one per matched pair / unmatched vertex.
    let mut map = vec![VertexId::MAX; n];
    let mut next = 0 as VertexId;
    for v in 0..n as VertexId {
        if map[v as usize] != VertexId::MAX {
            continue;
        }
        map[v as usize] = next;
        let m = mate[v as usize];
        if m != v {
            map[m as usize] = next;
        }
        next += 1;
    }
    let cn = next as usize;

    let mut cw = vec![0u32; cn];
    for v in 0..n {
        cw[map[v] as usize] += vwgt[v];
    }

    // Surviving edges as canonical (cu, cv, w), cu < cv; the builder sorts.
    let mut edges = Vec::with_capacity(g.num_edges());
    for (e, u, v) in g.edges() {
        let (cu, cv) = (map[u as usize], map[v as usize]);
        if cu != cv {
            edges.push((cu.min(cv), cu.max(cv), g.edge_weight(e)));
        }
    }
    CoarseLevel {
        graph: GraphBuilder::undirected(cn).with_edges(edges).build(),
        vwgt: cw,
        map,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn coarsening_shrinks_graph() {
        let g = from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 0),
            ],
        );
        let level = coarsen(&g, &[1; 8], 3);
        assert!(level.graph.num_vertices() < 8);
        assert!(level.graph.num_vertices() >= 4);
        // Total vertex weight preserved.
        assert_eq!(level.vwgt.iter().sum::<u32>(), 8);
    }

    #[test]
    fn parallel_edges_merge_weights() {
        // Square: matching (0,1) and (2,3) makes a coarse double edge.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        for seed in 0..5 {
            let level = coarsen(&g, &[1; 4], seed);
            let cm: u64 = level
                .graph
                .edge_ids()
                .map(|e| level.graph.edge_weight(e) as u64)
                .sum();
            // Cut edges' weights are all preserved.
            let contracted: u64 = 4 - cm;
            assert!(contracted <= 2, "at most one edge contracted per pair");
        }
    }

    #[test]
    fn map_is_total_and_in_range() {
        let g = from_edges(6, &[(0, 1), (2, 3), (4, 5), (1, 2)]);
        let level = coarsen(&g, &[1; 6], 0);
        for &c in &level.map {
            assert!((c as usize) < level.graph.num_vertices());
        }
    }
}

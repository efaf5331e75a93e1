//! Induced subgraph extraction.
//!
//! Once the divisive algorithms have split the network into isolated
//! components, SNAP switches to coarse-grained parallelism: each component
//! is extracted as a compact graph with relabeled vertices and processed
//! independently. [`InducedSubgraph`] carries the local graph plus the
//! local→global vertex and edge mappings needed to report results in the
//! original id space.

use crate::builder::{sort_edges, GraphBuilder};
use crate::csr::CsrGraph;
use crate::traits::{Graph, WeightedGraph};
use crate::{EdgeId, VertexId};

/// A compact copy of the subgraph induced by a vertex subset.
#[derive(Clone, Debug)]
pub struct InducedSubgraph {
    /// The extracted graph over local ids `0..k`.
    pub graph: CsrGraph,
    /// `to_global[local] = global` vertex id.
    pub to_global: Vec<VertexId>,
    /// `edge_to_global[local_edge] = global_edge` id in the source graph.
    pub edge_to_global: Vec<EdgeId>,
}

impl InducedSubgraph {
    /// Extract the subgraph of `g` induced by `vertices` (global ids;
    /// duplicates are ignored). Edges are kept when both endpoints are in
    /// the subset and, for filtered sources, live.
    pub fn extract<G: Graph + WeightedGraph>(g: &G, vertices: &[VertexId]) -> Self {
        let n = g.num_vertices();
        // usize::MAX sentinel marks "not in subset".
        let mut local_of = vec![u32::MAX; n];
        let mut to_global = Vec::with_capacity(vertices.len());
        for &v in vertices {
            if local_of[v as usize] == u32::MAX {
                local_of[v as usize] = to_global.len() as u32;
                to_global.push(v);
            }
        }

        let mut edge_keys: Vec<(VertexId, VertexId, EdgeId)> = Vec::new();
        for (lu, &gu) in to_global.iter().enumerate() {
            let lu = lu as VertexId;
            for (gv, e) in g.neighbors_with_eid(gu) {
                let lv = local_of[gv as usize];
                // Skip vertices outside the subset and self-loops (the
                // builder drops them, directed or not), and emit each
                // undirected edge once, from its canonical side.
                if lv == u32::MAX || lu == lv || (!g.is_directed() && lu > lv) {
                    continue;
                }
                edge_keys.push((lu, lv, e));
            }
        }
        // Local edge ids follow (u, v) order, so sort the keys the builder's
        // way to align them with `edge_to_global`; it then skips its sort.
        sort_edges(&mut edge_keys, to_global.len());
        edge_keys.dedup_by_key(|&mut (u, v, _)| (u, v));
        let edge_to_global = edge_keys.iter().map(|&(_, _, e)| e).collect();
        let edges = edge_keys.iter().map(|&(u, v, e)| (u, v, g.edge_weight(e)));
        let builder = if g.is_directed() {
            GraphBuilder::directed(to_global.len())
        } else {
            GraphBuilder::undirected(to_global.len())
        };
        InducedSubgraph {
            graph: builder.add_weighted_edges(edges).build(),
            to_global,
            edge_to_global,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;
    use crate::view::FilteredGraph;

    #[test]
    fn extracts_triangle_from_larger_graph() {
        // Two triangles joined by a bridge: {0,1,2} - {3,4,5}.
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let sub = InducedSubgraph::extract(&g, &[3, 4, 5]);
        assert_eq!(sub.graph.num_vertices(), 3);
        assert_eq!(sub.graph.num_edges(), 3);
        assert_eq!(sub.to_global, vec![3, 4, 5]);
        // Local edges map back to global edges among {3,4,5}.
        for (le, &ge) in sub.edge_to_global.iter().enumerate() {
            let (lu, lv) = sub.graph.edge_endpoints(le as EdgeId);
            let (gu, gv) = g.edge_endpoints(ge);
            let mapped = (sub.to_global[lu as usize], sub.to_global[lv as usize]);
            assert_eq!((mapped.0.min(mapped.1), mapped.0.max(mapped.1)), (gu, gv));
        }
    }

    #[test]
    fn directed_self_loops_keep_edge_ids_aligned() {
        let g = GraphBuilder::directed(3)
            .with_self_loops()
            .add_edges([(0, 0), (0, 1), (1, 2)])
            .build();
        let sub = InducedSubgraph::extract(&g, &[0, 1, 2]);
        assert_eq!(sub.edge_to_global.len(), sub.graph.num_edges());
        for (le, &ge) in sub.edge_to_global.iter().enumerate() {
            let (lu, lv) = sub.graph.edge_endpoints(le as EdgeId);
            let mapped = (sub.to_global[lu as usize], sub.to_global[lv as usize]);
            assert_eq!(mapped, g.edge_endpoints(ge), "local edge {le}");
        }
        assert_eq!(sub.edge_to_global, [1, 2]);
    }

    #[test]
    fn respects_filtered_deletions() {
        let g = from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let mut f = FilteredGraph::new(&g);
        // Delete edge (0,1) — edge id 0.
        f.delete_edge(0);
        let sub = InducedSubgraph::extract(&f, &[0, 1, 2]);
        assert_eq!(sub.graph.num_edges(), 2);
    }

    #[test]
    fn duplicate_vertices_ignored() {
        let g = from_edges(3, &[(0, 1)]);
        let sub = InducedSubgraph::extract(&g, &[0, 0, 1, 1]);
        assert_eq!(sub.graph.num_vertices(), 2);
        assert_eq!(sub.graph.num_edges(), 1);
    }

    #[test]
    fn empty_subset() {
        let g = from_edges(3, &[(0, 1)]);
        let sub = InducedSubgraph::extract(&g, &[]);
        assert_eq!(sub.graph.num_vertices(), 0);
        assert_eq!(sub.graph.num_edges(), 0);
    }

    #[test]
    fn weights_carried_over() {
        use crate::GraphBuilder;
        let g = GraphBuilder::undirected(3)
            .add_weighted_edges([(0, 1, 5), (1, 2, 7)])
            .build();
        let sub = InducedSubgraph::extract(&g, &[1, 2]);
        assert_eq!(sub.graph.num_edges(), 1);
        assert_eq!(sub.graph.edge_weight(0), 7);
    }
}

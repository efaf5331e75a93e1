//! Filtered graph views: cheap edge deletion over a frozen CSR graph.
//!
//! The divisive community-detection algorithms (Girvan–Newman and the
//! paper's pBD) repeatedly "delete" the highest-betweenness edge and re-run
//! connected components. Rebuilding a CSR graph per deletion would cost
//! `O(m)` each time; instead [`FilteredGraph`] keeps an edge-liveness
//! bitmap — deletion is a single bit write and traversals skip dead arcs.

use crate::bitset::Bitmap;
use crate::csr::CsrGraph;
use crate::traits::{Graph, WeightedGraph};
use crate::{EdgeId, VertexId, Weight};

/// A view of a frozen graph in which edges can be switched off.
///
/// Generic over the backend (default [`CsrGraph`]): the divisive
/// algorithms cut edges over the flat representation, and the same view
/// works unchanged over a [`crate::CompressedCsrGraph`].
#[derive(Clone, Debug)]
pub struct FilteredGraph<'g, G = CsrGraph> {
    base: &'g G,
    live: Bitmap,
    degrees: Vec<u32>,
    live_edges: usize,
}

impl<'g, G: WeightedGraph> FilteredGraph<'g, G> {
    /// A view with every edge live.
    pub fn new(base: &'g G) -> Self {
        let degrees = (0..base.num_vertices())
            .map(|v| base.degree(v as VertexId) as u32)
            .collect();
        FilteredGraph {
            live: Bitmap::ones(base.edge_id_bound()),
            degrees,
            live_edges: base.num_edges(),
            base,
        }
    }

    /// The underlying frozen graph.
    pub fn base(&self) -> &'g G {
        self.base
    }

    /// Is edge `e` still live?
    #[inline]
    pub fn is_live(&self, e: EdgeId) -> bool {
        self.live.get(e as usize)
    }

    /// Delete edge `e`; returns `false` if it was already deleted.
    pub fn delete_edge(&mut self, e: EdgeId) -> bool {
        if !self.live.get(e as usize) {
            return false;
        }
        self.live.clear(e as usize);
        let (u, v) = self.base.edge_endpoints(e);
        self.degrees[u as usize] -= 1;
        if u != v && !self.base.is_directed() {
            self.degrees[v as usize] -= 1;
        }
        self.live_edges -= 1;
        true
    }

    /// Restore a previously deleted edge; returns `false` if it was live.
    pub fn restore_edge(&mut self, e: EdgeId) -> bool {
        if self.live.get(e as usize) {
            return false;
        }
        self.live.set(e as usize);
        let (u, v) = self.base.edge_endpoints(e);
        self.degrees[u as usize] += 1;
        if u != v && !self.base.is_directed() {
            self.degrees[v as usize] += 1;
        }
        self.live_edges += 1;
        true
    }

    /// Iterate over the ids of live edges.
    pub fn live_edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.live.iter_ones().map(|e| e as EdgeId)
    }

    /// Compact the view into a standalone [`CsrGraph`] containing only the
    /// live edges (weights preserved, edge ids renumbered densely). The
    /// reference implementation the filtered-view regression tests compare
    /// against; also useful when a long-lived result should not pin the base.
    pub fn rebuild(&self) -> CsrGraph {
        let edges = self.live_edge_ids().map(|e| {
            let (u, v) = self.base.edge_endpoints(e);
            (u, v, self.base.edge_weight(e))
        });
        let b = if self.base.is_directed() {
            crate::builder::GraphBuilder::directed(self.base.num_vertices())
        } else {
            crate::builder::GraphBuilder::undirected(self.base.num_vertices())
        };
        b.with_self_loops().add_weighted_edges(edges).build()
    }
}

impl<G: WeightedGraph> Graph for FilteredGraph<'_, G> {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.base.num_vertices()
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.live_edges
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        if self.base.is_directed() {
            self.live_edges
        } else {
            2 * self.live_edges
        }
    }

    #[inline]
    fn is_directed(&self) -> bool {
        self.base.is_directed()
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.degrees[v as usize] as usize
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbors_with_eid(v).map(|(u, _)| u)
    }

    #[inline]
    fn neighbors_with_eid(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.base
            .neighbors_with_eid(v)
            .filter(|&(_, e)| self.live.get(e as usize))
    }

    #[inline]
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.base.edge_endpoints(e)
    }

    #[inline]
    fn edge_id_bound(&self) -> usize {
        self.base.edge_id_bound()
    }

    #[inline]
    fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        self.live_edge_ids()
    }
}

impl<G: WeightedGraph> WeightedGraph for FilteredGraph<'_, G> {
    #[inline]
    fn edge_weight(&self, e: EdgeId) -> Weight {
        self.base.edge_weight(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    fn square() -> CsrGraph {
        from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)])
    }

    #[test]
    fn fresh_view_matches_base() {
        let g = square();
        let f = FilteredGraph::new(&g);
        assert_eq!(f.num_edges(), 4);
        assert_eq!(f.num_arcs(), 8);
        for v in g.vertices() {
            assert_eq!(f.degree(v), g.degree(v));
            let a: Vec<_> = f.neighbors(v).collect();
            let b: Vec<_> = g.neighbors(v).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn delete_hides_both_arcs() {
        let g = square();
        let mut f = FilteredGraph::new(&g);
        // Edge 0 is (0, 1).
        assert!(f.delete_edge(0));
        assert!(!f.delete_edge(0));
        assert_eq!(f.num_edges(), 3);
        assert_eq!(f.degree(0), 1);
        assert_eq!(f.degree(1), 1);
        assert!(!f.neighbors(0).any(|u| u == 1));
        assert!(!f.neighbors(1).any(|u| u == 0));
    }

    #[test]
    fn restore_brings_edge_back() {
        let g = square();
        let mut f = FilteredGraph::new(&g);
        f.delete_edge(2);
        assert!(f.restore_edge(2));
        assert!(!f.restore_edge(2));
        assert_eq!(f.num_edges(), 4);
        assert_eq!(f.degree(2), 2);
    }

    #[test]
    fn live_edge_ids_tracks_deletions() {
        let g = square();
        let mut f = FilteredGraph::new(&g);
        f.delete_edge(1);
        f.delete_edge(3);
        let live: Vec<EdgeId> = f.live_edge_ids().collect();
        assert_eq!(live, vec![0, 2]);
    }
}

//! Static compressed-sparse-row (adjacency array) graph.
//!
//! This is SNAP's primary representation: one offsets array of length
//! `n + 1` and flat arrays of arc targets / edge ids, giving cache-friendly
//! sequential scans over adjacencies and O(1) degree queries.

use crate::traits::{Graph, WeightedGraph};
use crate::{EdgeId, VertexId, Weight};

/// Immutable adjacency-array graph.
///
/// Construct via [`crate::GraphBuilder`]; direct field construction is not
/// exposed, and every constructor ends in one fill (`CsrGraph::fill`),
/// so the invariants below always hold:
///
/// * `offsets.len() == n + 1`, monotonically non-decreasing,
///   `offsets[n] == targets.len()`;
/// * for undirected graphs every edge `{u, v}` appears as two arcs
///   `u -> v` and `v -> u` sharing one [`EdgeId`];
/// * `endpoints[e]` stores the canonical endpoints of edge `e`
///   (`u <= v` for undirected graphs);
/// * `weights` is either empty (unweighted, all weights 1) or has one entry
///   per edge id.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    pub(crate) offsets: Vec<usize>,
    pub(crate) targets: Vec<VertexId>,
    pub(crate) arc_edge_ids: Vec<EdgeId>,
    pub(crate) endpoints: Vec<(VertexId, VertexId)>,
    pub(crate) weights: Vec<Weight>,
    pub(crate) directed: bool,
}

/// Reverse arcs are staged by blocks of `1 << FILL_BLOCK_SHIFT` target
/// vertices, so their scatter stays inside one block's rows (a few tens of
/// KiB of `targets` and `arc_edge_ids`) instead of writing at random
/// across both arrays.
const FILL_BLOCK_SHIFT: u32 = 9;

impl CsrGraph {
    /// An empty graph with `n` isolated vertices.
    pub fn empty(n: usize, directed: bool) -> Self {
        Self::fill(n, directed, Vec::new(), false)
    }

    /// The one CSR fill: every graph is made here. `edges` must be
    /// strictly ascending in `(u, v)` (sorted, duplicate-free, `u <= v`
    /// when undirected); edge `e` is `edges[e]`, and its weight is kept
    /// when `weighted`.
    ///
    /// Endpoints and weights are split out once. A vertex's row is then
    /// its reverse arcs (edges `(u, x)`, `u < x`, of an undirected graph)
    /// followed by its forward arcs (edges `(x, v)`), each in edge-id
    /// order, so rows come out ascending. Forward arcs are written in edge
    /// order, which is row order. Reverse arcs are first bucketed by
    /// target block into `edges`' own buffer, then scattered block by
    /// block.
    pub(crate) fn fill(
        n: usize,
        directed: bool,
        edges: Vec<(VertexId, VertexId, Weight)>,
        weighted: bool,
    ) -> Self {
        assert!(edges.len() <= u32::MAX as usize, "edge ids must fit in u32");
        debug_assert!(
            edges
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "sorted, unique"
        );
        let endpoints: Vec<_> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let weights = match weighted {
            true => edges.iter().map(|&(_, _, w)| w).collect(),
            false => Vec::new(),
        };
        let reverse = |u: VertexId, v: VertexId| !directed && u != v;
        let block = |v: VertexId| (v >> FILL_BLOCK_SHIFT) as usize;

        // Row lengths, and reverse arcs per target block, as prefix sums.
        let mut offsets = vec![0usize; n + 1];
        let mut block_starts = vec![0usize; (n >> FILL_BLOCK_SHIFT) + 2];
        for &(u, v) in &endpoints {
            offsets[u as usize + 1] += 1;
            if reverse(u, v) {
                offsets[v as usize + 1] += 1;
                block_starts[block(v) + 1] += 1;
            }
        }
        for counts in [&mut offsets, &mut block_starts] {
            let mut sum = 0;
            for c in counts.iter_mut() {
                sum += *c;
                *c = sum;
            }
        }

        // Bucket `(target, source, edge id)` into the input's buffer, whose
        // pages are already touched: edge-id order within a block.
        let mut staged = edges;
        staged.truncate(*block_starts.last().unwrap());
        for (e, &(u, v)) in (0..).zip(&endpoints) {
            if reverse(u, v) {
                let slot = &mut block_starts[block(v)];
                staged[*slot] = (v, u, e);
                *slot += 1;
            }
        }

        // Scatter: reverse arcs open each row, forward arcs close it.
        let num_arcs = offsets[n];
        let mut targets = vec![0 as VertexId; num_arcs];
        let mut arc_edge_ids = vec![0 as EdgeId; num_arcs];
        let mut cursor = offsets.clone();
        let mut place = |row: VertexId, target: VertexId, e: EdgeId| {
            let slot = &mut cursor[row as usize];
            targets[*slot] = target;
            arc_edge_ids[*slot] = e;
            *slot += 1;
        };
        for (v, u, e) in staged {
            place(v, u, e);
        }
        for (e, &(u, v)) in (0..).zip(&endpoints) {
            place(u, v, e);
        }

        let g = CsrGraph {
            offsets,
            targets,
            arc_edge_ids,
            endpoints,
            weights,
            directed,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        g
    }

    /// Slice of out-neighbors of `v` (fast path used by the kernels when the
    /// concrete type is known).
    #[inline]
    pub fn neighbor_slice(&self, v: VertexId) -> &[VertexId] {
        &self.targets[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Slice of edge ids of the out-arcs of `v`, parallel to
    /// [`Self::neighbor_slice`].
    #[inline]
    pub fn eid_slice(&self, v: VertexId) -> &[EdgeId] {
        &self.arc_edge_ids[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// True if the graph carries non-unit weights.
    pub fn is_weighted(&self) -> bool {
        !self.weights.is_empty()
    }

    /// Bytes resident for the adjacency structure (offsets + targets +
    /// per-arc edge ids). The flat-backend counterpart of
    /// [`crate::CompressedCsrGraph::adjacency_bytes`]; edge payload
    /// (endpoints, weights) is identical across backends and excluded.
    pub fn adjacency_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * 4
            + self.arc_edge_ids.len() * 4
    }

    /// Iterate over all edges as `(edge_id, u, v)` with canonical endpoints.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId)> + '_ {
        self.endpoints
            .iter()
            .enumerate()
            .map(|(e, &(u, v))| (e as EdgeId, u, v))
    }

    /// Maximum out-degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as VertexId))
            .max()
            .unwrap_or(0)
    }

    /// Check structural invariants. Used by tests and debug assertions; cost
    /// is O(n + m).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.offsets.len() != n + 1 {
            return Err("offsets length mismatch".into());
        }
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets not monotone".into());
        }
        if *self.offsets.last().unwrap() != self.targets.len() {
            return Err("final offset != targets.len()".into());
        }
        if self.targets.len() != self.arc_edge_ids.len() {
            return Err("targets/arc_edge_ids length mismatch".into());
        }
        if !self.weights.is_empty() && self.weights.len() != self.endpoints.len() {
            return Err("weights length != edge count".into());
        }
        for &t in &self.targets {
            if (t as usize) >= n {
                return Err(format!("arc target {t} out of range"));
            }
        }
        for &e in &self.arc_edge_ids {
            if (e as usize) >= self.endpoints.len() {
                return Err(format!("edge id {e} out of range"));
            }
        }
        // Every undirected edge must appear as exactly two arcs with the
        // same id; every directed edge as exactly one.
        let mut arc_count = vec![0u8; self.endpoints.len()];
        for &e in &self.arc_edge_ids {
            arc_count[e as usize] = arc_count[e as usize].saturating_add(1);
        }
        let expected = if self.directed { 1 } else { 2 };
        for (e, &c) in arc_count.iter().enumerate() {
            // Self-loops in undirected graphs are stored as a single arc.
            let (u, v) = self.endpoints[e];
            let exp = if !self.directed && u == v {
                1
            } else {
                expected
            };
            if c != exp {
                return Err(format!("edge {e} has {c} arcs, expected {exp}"));
            }
        }
        Ok(())
    }
}

impl Graph for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    #[inline]
    fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    #[inline]
    fn is_directed(&self) -> bool {
        self.directed
    }

    #[inline]
    fn degree(&self, v: VertexId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    #[inline]
    fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.neighbor_slice(v).iter().copied()
    }

    #[inline]
    fn neighbors_with_eid(&self, v: VertexId) -> impl Iterator<Item = (VertexId, EdgeId)> + '_ {
        self.neighbor_slice(v)
            .iter()
            .copied()
            .zip(self.eid_slice(v).iter().copied())
    }

    #[inline]
    fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.endpoints[e as usize]
    }
}

impl WeightedGraph for CsrGraph {
    #[inline]
    fn edge_weight(&self, e: EdgeId) -> Weight {
        if self.weights.is_empty() {
            1
        } else {
            self.weights[e as usize]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn triangle() -> CsrGraph {
        GraphBuilder::undirected(3)
            .add_edges([(0, 1), (1, 2), (0, 2)])
            .build()
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(5, false);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.num_arcs(), 0);
        assert_eq!(g.degree(0), 0);
        assert_eq!(g.max_degree(), 0);
        g.validate().unwrap();
    }

    #[test]
    fn triangle_structure() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_arcs(), 6);
        for v in 0..3 {
            assert_eq!(g.degree(v), 2);
        }
        g.validate().unwrap();
    }

    #[test]
    fn shared_edge_ids_on_both_arcs() {
        let g = triangle();
        // The edge id seen from u for neighbor v must equal the id seen
        // from v for neighbor u.
        for u in g.vertices() {
            for (v, e) in g.neighbors_with_eid(u) {
                let back = g
                    .neighbors_with_eid(v)
                    .find(|&(w, _)| w == u)
                    .expect("reverse arc");
                assert_eq!(back.1, e);
                let (a, b) = g.edge_endpoints(e);
                assert_eq!((a.min(b), a.max(b)), (u.min(v), u.max(v)));
            }
        }
    }

    #[test]
    fn unit_weights_by_default() {
        let g = triangle();
        assert!(!g.is_weighted());
        for e in 0..g.num_edges() as EdgeId {
            assert_eq!(g.edge_weight(e), 1);
        }
    }

    #[test]
    fn total_degree_matches_arcs() {
        let g = triangle();
        assert_eq!(g.total_degree(), g.num_arcs());
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = triangle();
        let edges: Vec<_> = g.edges().map(|(_, u, v)| (u, v)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2)]);
    }
}

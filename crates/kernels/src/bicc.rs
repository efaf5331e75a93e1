//! Biconnected components, articulation points, and bridges
//! (Hopcroft–Tarjan, implemented iteratively so million-vertex graphs do
//! not overflow the call stack).
//!
//! This kernel is SNAP's key *preprocessing* step: the paper observes that
//! bridges are likely to have high edge betweenness (seeding pBD's
//! candidate set), that removing bridges decomposes the graph for pLA's
//! concurrent per-component clustering, and that low-degree articulation
//! points in protein networks are biologically meaningful.

use snap_graph::{EdgeId, Graph, VertexId};

/// Result of biconnected-component decomposition.
#[derive(Clone, Debug)]
pub struct Bicc {
    /// `true` for articulation (cut) vertices.
    pub articulation: Vec<bool>,
    /// Edge ids of bridges (cut edges).
    pub bridges: Vec<EdgeId>,
    /// Biconnected-component label per edge, indexed by base edge id
    /// (length `edge_id_bound()`; `u32::MAX` for ids not reached —
    /// deleted edges of a filtered view, or edges in untraversed chaff).
    pub edge_comp: Vec<u32>,
    /// Number of biconnected components.
    pub count: usize,
}

impl Bicc {
    /// Is edge `e` a bridge? (`O(log b)` lookup; `bridges` is sorted.)
    pub fn is_bridge(&self, e: EdgeId) -> bool {
        self.bridges.binary_search(&e).is_ok()
    }
}

const UNSET: u32 = u32::MAX;

/// Compute biconnected components of an undirected graph.
pub fn biconnected_components<G: Graph>(g: &G) -> Bicc {
    assert!(
        !g.is_directed(),
        "biconnectivity is defined on undirected graphs"
    );
    let n = g.num_vertices();
    // Per-edge arrays are indexed by *base* edge id, which on filtered
    // views exceeds the live-edge count: size by the id bound.
    let m = g.edge_id_bound();

    // Flatten adjacencies once; generic `neighbors()` iterators cannot be
    // indexed, and DFS frames need resumable cursors.
    let mut offsets = Vec::with_capacity(n + 1);
    let mut arcs: Vec<(VertexId, EdgeId)> = Vec::with_capacity(g.num_arcs());
    offsets.push(0);
    for v in 0..n as VertexId {
        arcs.extend(g.neighbors_with_eid(v));
        offsets.push(arcs.len());
    }

    let mut disc = vec![UNSET; n];
    let mut low = vec![0u32; n];
    let mut articulation = vec![false; n];
    let mut bridges: Vec<EdgeId> = Vec::new();
    let mut edge_comp = vec![UNSET; m];
    let mut comp_count = 0u32;
    let mut time = 0u32;

    // Frame: (vertex, parent edge id, cursor into arcs).
    let mut stack: Vec<(VertexId, EdgeId, usize)> = Vec::new();
    let mut edge_stack: Vec<EdgeId> = Vec::new();
    // Marks the first time each edge is traversed so back edges are pushed
    // exactly once.
    let mut edge_seen = vec![false; m];

    for root in 0..n as VertexId {
        if disc[root as usize] != UNSET {
            continue;
        }
        disc[root as usize] = time;
        low[root as usize] = time;
        time += 1;
        let mut root_children = 0usize;
        stack.push((root, EdgeId::MAX, offsets[root as usize]));

        while let Some(frame) = stack.len().checked_sub(1) {
            let (v, pe, cursor) = stack[frame];
            if cursor < offsets[v as usize + 1] {
                stack[frame].2 += 1;
                let (w, e) = arcs[cursor];
                if e == pe || edge_seen[e as usize] {
                    continue;
                }
                edge_seen[e as usize] = true;
                if disc[w as usize] == UNSET {
                    // Tree edge.
                    edge_stack.push(e);
                    disc[w as usize] = time;
                    low[w as usize] = time;
                    time += 1;
                    if v == root {
                        root_children += 1;
                    }
                    stack.push((w, e, offsets[w as usize]));
                } else if disc[w as usize] < disc[v as usize] {
                    // Back edge to an ancestor.
                    edge_stack.push(e);
                    low[v as usize] = low[v as usize].min(disc[w as usize]);
                }
            } else {
                // v is finished; propagate low to its parent and decide
                // whether the edge to the parent closes a component.
                stack.pop();
                if let Some(&(u, _, _)) = stack.last() {
                    low[u as usize] = low[u as usize].min(low[v as usize]);
                    if low[v as usize] >= disc[u as usize] {
                        // u separates v's subtree: flush one component
                        // (root articulation is finalized after the loop).
                        if u != root {
                            articulation[u as usize] = true;
                        }
                        let mut size = 0usize;
                        while let Some(top) = edge_stack.pop() {
                            edge_comp[top as usize] = comp_count;
                            size += 1;
                            if top == pe {
                                break;
                            }
                        }
                        // A component of exactly one edge means the tree
                        // edge (u, v) is a bridge (low[v] > disc[u]).
                        if size == 1 {
                            bridges.push(pe);
                        }
                        comp_count += 1;
                    }
                }
            }
        }
        if root_children > 1 {
            articulation[root as usize] = true;
        }
    }

    bridges.sort_unstable();
    Bicc {
        articulation,
        bridges,
        edge_comp,
        count: comp_count as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn path_is_all_bridges() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = biconnected_components(&g);
        assert_eq!(b.bridges.len(), 3);
        assert_eq!(b.count, 3);
        assert!(b.articulation[1] && b.articulation[2]);
        assert!(!b.articulation[0] && !b.articulation[3]);
    }

    #[test]
    fn cycle_has_no_bridges() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let b = biconnected_components(&g);
        assert!(b.bridges.is_empty());
        assert_eq!(b.count, 1);
        assert!(!b.articulation.contains(&true));
    }

    #[test]
    fn barbell_bridge_and_cut_vertices() {
        // Two triangles {0,1,2} and {3,4,5} joined by bridge (2, 3).
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let b = biconnected_components(&g);
        assert_eq!(b.count, 3);
        assert_eq!(b.bridges.len(), 1);
        let (u, v) = g.edge_endpoints(b.bridges[0]);
        assert_eq!((u, v), (2, 3));
        assert!(b.articulation[2] && b.articulation[3]);
        assert_eq!(b.articulation.iter().filter(|&&a| a).count(), 2);
        // The two triangles land in different components.
        let tri1 = b.edge_comp[0]; // (0,1)
        assert_eq!(b.edge_comp[1], tri1); // (0,2)
        let bridge_comp = b.edge_comp[b.bridges[0] as usize];
        assert_ne!(bridge_comp, tri1);
    }

    #[test]
    fn root_articulation_detected() {
        // Star: center 0 with three leaves — 0 is an articulation point
        // and DFS roots at 0.
        let g = from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let b = biconnected_components(&g);
        assert!(b.articulation[0]);
        assert_eq!(b.bridges.len(), 3);
    }

    #[test]
    fn two_cycles_sharing_a_vertex() {
        // Figure-eight: cycles 0-1-2 and 0-3-4 share vertex 0.
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]);
        let b = biconnected_components(&g);
        assert_eq!(b.count, 2);
        assert!(b.bridges.is_empty());
        assert!(b.articulation[0]);
        assert_eq!(b.articulation.iter().filter(|&&a| a).count(), 1);
    }

    #[test]
    fn every_edge_labeled() {
        let g = from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (3, 5),
                (5, 6),
                (6, 7),
            ],
        );
        let b = biconnected_components(&g);
        for e in g.edge_ids() {
            assert_ne!(b.edge_comp[e as usize], u32::MAX, "edge {e} unlabeled");
        }
    }

    #[test]
    fn disconnected_graph() {
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4)]);
        let b = biconnected_components(&g);
        assert_eq!(b.count, 2);
        assert_eq!(b.bridges.len(), 1);
    }

    #[test]
    fn is_bridge_lookup() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = biconnected_components(&g);
        for e in 0..3u32 {
            assert!(b.is_bridge(e));
        }
    }
}

//! Spanning forests.
//!
//! Provides the BFS-based sequential spanning forest and a parallel
//! variant built on the lock-free BFS, mirroring the spanning-tree kernel
//! SNAP integrates from Bader & Cong (JPDC 2005).

use crate::bfs::{bfs, par_bfs, NO_PARENT, UNREACHABLE};
use snap_graph::{EdgeId, Graph, VertexId};

/// A spanning forest: one parent arc per non-root vertex.
#[derive(Clone, Debug)]
pub struct SpanningForest {
    /// Parent of each vertex in its tree (`NO_PARENT` for roots).
    pub parent: Vec<VertexId>,
    /// Tree edges as edge ids (unordered).
    pub tree_edges: Vec<EdgeId>,
    /// Number of trees (= connected components).
    pub trees: usize,
}

fn forest_from_parents<G: Graph>(g: &G, parent: Vec<VertexId>, trees: usize) -> SpanningForest {
    let mut tree_edges = Vec::with_capacity(parent.len().saturating_sub(trees));
    for (v, &p) in parent.iter().enumerate() {
        if p == NO_PARENT {
            continue;
        }
        // Find the edge id of (p, v).
        let e = g
            .neighbors_with_eid(p)
            .find(|&(w, _)| w == v as VertexId)
            .map(|(_, e)| e)
            .expect("parent arc must exist");
        tree_edges.push(e);
    }
    SpanningForest {
        parent,
        tree_edges,
        trees,
    }
}

/// Sequential spanning forest (BFS per component).
pub fn spanning_forest<G: Graph>(g: &G) -> SpanningForest {
    let n = g.num_vertices();
    let mut parent = vec![NO_PARENT; n];
    let mut visited = vec![false; n];
    let mut trees = 0usize;
    for s in 0..n as VertexId {
        if visited[s as usize] {
            continue;
        }
        trees += 1;
        let r = bfs(g, s);
        for v in 0..n {
            if r.dist[v] != UNREACHABLE && !visited[v] {
                visited[v] = true;
                if r.parent[v] != NO_PARENT {
                    parent[v] = r.parent[v];
                }
            }
        }
    }
    forest_from_parents(g, parent, trees)
}

/// Parallel spanning forest: lock-free parallel BFS per component. The
/// BFS itself is the parallel workhorse; component roots are discovered
/// sequentially (small-world graphs are dominated by one giant component,
/// so this outer loop is short).
pub fn par_spanning_forest<G: Graph>(g: &G) -> SpanningForest {
    let n = g.num_vertices();
    let mut parent = vec![NO_PARENT; n];
    let mut visited = vec![false; n];
    let mut trees = 0usize;
    for s in 0..n as VertexId {
        if visited[s as usize] {
            continue;
        }
        trees += 1;
        let r = par_bfs(g, s);
        for v in 0..n {
            if r.dist[v] != UNREACHABLE && !visited[v] {
                visited[v] = true;
                if r.parent[v] != NO_PARENT {
                    parent[v] = r.parent[v];
                }
            }
        }
    }
    forest_from_parents(g, parent, trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn spanning_tree_of_connected_graph() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 3)]);
        let f = spanning_forest(&g);
        assert_eq!(f.trees, 1);
        assert_eq!(f.tree_edges.len(), 4);
        assert_eq!(f.tree_edges.len(), f.parent.len() - f.trees);
    }

    #[test]
    fn forest_of_disconnected_graph() {
        let g = from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let f = spanning_forest(&g);
        assert_eq!(f.trees, 3); // two trees + isolated vertex 5
        assert_eq!(f.tree_edges.len(), 3);
        assert_eq!(f.tree_edges.len(), f.parent.len() - f.trees);
    }

    #[test]
    fn tree_edges_are_acyclic() {
        // Union-find over the reported tree edges must never find a cycle.
        let g = from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 3),
                (5, 6),
            ],
        );
        let f = spanning_forest(&g);
        let mut uf: Vec<usize> = (0..7).collect();
        fn find(uf: &mut [usize], mut x: usize) -> usize {
            while uf[x] != x {
                uf[x] = uf[uf[x]];
                x = uf[x];
            }
            x
        }
        for &e in &f.tree_edges {
            let (u, v) = g.edge_endpoints(e);
            let (ru, rv) = (find(&mut uf, u as usize), find(&mut uf, v as usize));
            assert_ne!(ru, rv, "cycle in spanning forest");
            uf[ru] = rv;
        }
    }
}

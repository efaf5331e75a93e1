//! Connected components: the sequential BFS sweep, which is the oracle,
//! and the parallel hybrid, which sweeps the giant component with the
//! direction-optimizing BFS.
//!
//! Connected components are the inner loop of the divisive clustering
//! algorithms (run after every edge cut) and of the preprocessing pipeline
//! (decompose, then analyze components concurrently). Every parallel
//! caller runs the hybrid; tests check it against the sweep.

use crate::bfs::{par_bfs, UNREACHABLE};
use snap_graph::{Graph, VertexId};

/// A labeling of vertices by connected component.
#[derive(Clone, Debug)]
pub struct Components {
    /// Component label per vertex, in `0..count`, consecutive.
    pub comp: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Vertices of each component, indexed by label.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.count];
        for (v, &c) in self.comp.iter().enumerate() {
            out[c as usize].push(v as VertexId);
        }
        out
    }

    /// Size of each component, indexed by label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.count];
        for &c in &self.comp {
            out[c as usize] += 1;
        }
        out
    }

    /// Size of the largest component (0 for an empty graph).
    pub fn giant_size(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }
}

/// Sequential connected components via repeated BFS. Ground truth for the
/// parallel hybrid.
pub fn connected_components<G: Graph>(g: &G) -> Components {
    label_remaining(g, vec![u32::MAX; g.num_vertices()], 0)
}

/// The sequential sweep: BFS from every vertex still labelled `u32::MAX`
/// in `comp`, numbering the components it finds from `count` up.
fn label_remaining<G: Graph>(g: &G, mut comp: Vec<u32>, mut count: u32) -> Components {
    let mut queue = std::collections::VecDeque::new();
    for s in 0..comp.len() {
        if comp[s] != u32::MAX {
            continue;
        }
        comp[s] = count;
        queue.push_back(s as VertexId);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    Components {
        comp,
        count: count as usize,
    }
}

/// Connected components with the giant component swept by the
/// direction-optimizing parallel BFS ([`par_bfs`]) and the
/// remainder by a sequential sweep.
///
/// Small-world graphs concentrate almost every vertex in one giant
/// component; seeding the hybrid traversal at the maximum-degree vertex
/// (almost surely inside it) makes the dominant cost parallel *and*
/// direction-optimized, while the leftover components cost only their own
/// size.
pub fn par_components_hybrid<G: Graph>(g: &G) -> Components {
    let n = g.num_vertices();
    let Some(seed) = (0..n as VertexId).max_by_key(|&v| g.degree(v)) else {
        return connected_components(g);
    };
    let mut comp = vec![u32::MAX; n];
    let r = par_bfs(g, seed);
    for (v, &d) in r.dist.iter().enumerate() {
        if d != UNREACHABLE {
            comp[v] = 0;
        }
    }
    label_remaining(g, comp, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;
    use snap_graph::FilteredGraph;

    fn two_triangles() -> snap_graph::CsrGraph {
        from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn seq_counts_components() {
        let g = two_triangles();
        let c = connected_components(&g);
        assert_eq!(c.count, 3); // two triangles + isolated vertex 6
        assert_eq!(c.comp[0], c.comp[1]);
        assert_eq!(c.comp[3], c.comp[5]);
        assert_ne!(c.comp[0], c.comp[3]);
        assert_eq!(c.giant_size(), 3);
    }

    #[test]
    fn members_partition_vertices() {
        let g = two_triangles();
        let c = connected_components(&g);
        let members = c.members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, 7);
        assert_eq!(members.len(), 3);
    }

    #[test]
    fn hybrid_matches_seq() {
        let g = two_triangles();
        let a = connected_components(&g);
        let b = par_components_hybrid(&g);
        assert_eq!(a.count, b.count);
        for u in 0..7usize {
            for v in 0..7usize {
                assert_eq!(a.comp[u] == a.comp[v], b.comp[u] == b.comp[v]);
            }
        }
        let max = *b.comp.iter().max().unwrap() as usize;
        assert_eq!(max + 1, b.count);
    }

    #[test]
    fn hybrid_empty_and_isolated() {
        let g = from_edges(0, &[]);
        assert_eq!(par_components_hybrid(&g).count, 0);
        let g = from_edges(3, &[]); // all isolated
        let c = par_components_hybrid(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.giant_size(), 1);
    }

    #[test]
    fn works_on_filtered_views() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut f = FilteredGraph::new(&g);
        f.delete_edge(1); // cut (1, 2)
        let c = connected_components(&f);
        assert_eq!(c.count, 2);
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(0, &[]);
        assert_eq!(connected_components(&g).count, 0);
    }

    #[test]
    fn labels_are_consecutive() {
        let g = two_triangles();
        let c = connected_components(&g);
        let max = *c.comp.iter().max().unwrap() as usize;
        assert_eq!(max + 1, c.count);
    }
}

//! Vertex relabeling. Cache behavior of the adjacency-array kernels
//! depends heavily on vertex order; SNAP's engineering notes call for
//! locality-restoring relabelings before heavy traversal workloads.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::traits::{Graph, WeightedGraph};
use crate::VertexId;

/// Apply a permutation: `perm[old] = new`. Returns the relabeled graph.
/// `perm` must be a bijection on `0..n`.
pub fn apply_permutation(g: &CsrGraph, perm: &[VertexId]) -> CsrGraph {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n, "permutation length mismatch");
    debug_assert!(is_permutation(perm));
    let edges = g
        .edges()
        .map(|(e, u, v)| (perm[u as usize], perm[v as usize], g.edge_weight(e)));
    let b = if g.is_directed() {
        GraphBuilder::directed(n)
    } else {
        GraphBuilder::undirected(n)
    };
    b.add_weighted_edges(edges).build()
}

fn is_permutation(perm: &[VertexId]) -> bool {
    let mut seen = vec![false; perm.len()];
    for &p in perm {
        if p as usize >= perm.len() || seen[p as usize] {
            return false;
        }
        seen[p as usize] = true;
    }
    true
}

/// Permutation sorting vertices by descending degree (hubs first) —
/// concentrates the hot adjacency rows of skewed graphs.
pub fn degree_order(g: &CsrGraph) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut by_degree: Vec<VertexId> = (0..n as VertexId).collect();
    by_degree.sort_by(|&a, &b| g.degree(b).cmp(&g.degree(a)).then(a.cmp(&b)));
    // by_degree[new] = old; invert to perm[old] = new.
    let mut perm = vec![0 as VertexId; n];
    for (new, &old) in by_degree.iter().enumerate() {
        perm[old as usize] = new as VertexId;
    }
    perm
}

/// BFS (Cuthill–McKee-flavored) ordering from a low-degree start vertex
/// of each component — restores locality on mesh-like graphs.
pub fn bfs_order(g: &CsrGraph) -> Vec<VertexId> {
    let n = g.num_vertices();
    let mut perm = vec![VertexId::MAX; n];
    let mut next = 0 as VertexId;
    let mut queue = std::collections::VecDeque::new();
    // Visit components in order of their minimum-degree vertex.
    let mut starts: Vec<VertexId> = (0..n as VertexId).collect();
    starts.sort_by_key(|&v| (g.degree(v), v));
    let mut nbrs: Vec<VertexId> = Vec::new();
    for &s in &starts {
        if perm[s as usize] != VertexId::MAX {
            continue;
        }
        perm[s as usize] = next;
        next += 1;
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            nbrs.clear();
            nbrs.extend(
                g.neighbors(u)
                    .filter(|&v| perm[v as usize] == VertexId::MAX),
            );
            // Cuthill-McKee visits neighbors in increasing-degree order.
            nbrs.sort_by_key(|&v| (g.degree(v), v));
            for &v in &nbrs {
                if perm[v as usize] == VertexId::MAX {
                    perm[v as usize] = next;
                    next += 1;
                    queue.push_back(v);
                }
            }
        }
    }
    perm
}

/// Draw `min(k, n)` distinct vertices uniformly at random: a seeded
/// shuffle of `0..n` truncated to `k`, so every prefix of the result is
/// itself a uniform sample — which is what keeps a multi-source sweep
/// the budget cuts short unbiased.
pub fn sample_sources(n: usize, k: usize, seed: u64) -> Vec<VertexId> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut all: Vec<VertexId> = (0..n as VertexId).collect();
    all.shuffle(&mut rng);
    all.truncate(k.min(n));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::from_edges;

    #[test]
    fn permutation_preserves_structure() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let perm: Vec<VertexId> = vec![4, 3, 2, 1, 0];
        let h = apply_permutation(&g, &perm);
        assert_eq!(h.num_edges(), g.num_edges());
        for v in g.vertices() {
            assert_eq!(h.degree(perm[v as usize]), g.degree(v));
            let mut a: Vec<VertexId> = g.neighbors(v).map(|u| perm[u as usize]).collect();
            let mut b: Vec<VertexId> = h.neighbors(perm[v as usize]).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn degree_order_puts_hub_first() {
        let g = from_edges(5, &[(2, 0), (2, 1), (2, 3), (2, 4), (0, 1)]);
        let perm = degree_order(&g);
        assert_eq!(perm[2], 0); // hub gets label 0
        let h = apply_permutation(&g, &perm);
        assert_eq!(h.degree(0), 4);
    }

    #[test]
    fn bfs_order_is_permutation() {
        let g = from_edges(6, &[(0, 2), (2, 4), (4, 1), (1, 3), (3, 5)]);
        let perm = bfs_order(&g);
        assert!(is_permutation(&perm));
        let h = apply_permutation(&g, &perm);
        assert_eq!(h.num_edges(), g.num_edges());
    }

    #[test]
    fn bfs_order_reduces_path_bandwidth() {
        // A shuffled path: BFS order restores consecutive labels.
        let g = from_edges(6, &[(3, 1), (1, 5), (5, 0), (0, 4), (4, 2)]);
        let perm = bfs_order(&g);
        let h = apply_permutation(&g, &perm);
        // Bandwidth = max |u - v| over edges.
        let bandwidth = |g: &CsrGraph| {
            g.edges()
                .map(|(_, u, v)| (u as i64 - v as i64).unsigned_abs())
                .max()
                .unwrap()
        };
        assert!(bandwidth(&h) <= 2, "bandwidth {}", bandwidth(&h));
        assert!(bandwidth(&h) <= bandwidth(&g));
    }

    #[test]
    fn weights_preserved() {
        let g = crate::GraphBuilder::undirected(3)
            .add_weighted_edges([(0, 1, 7), (1, 2, 9)])
            .build();
        let h = apply_permutation(&g, &[2, 1, 0]);
        // Edge (1,2) in h corresponds to original (0,1) with weight 7.
        let e = h.edges().find(|&(_, u, v)| (u, v) == (1, 2)).unwrap().0;
        assert_eq!(h.edge_weight(e), 7);
    }

    #[test]
    #[should_panic(expected = "permutation length")]
    fn wrong_length_panics() {
        let g = from_edges(3, &[(0, 1)]);
        apply_permutation(&g, &[0, 1]);
    }
}

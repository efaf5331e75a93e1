//! Heavy-edge matching — the coarsening heuristic of multilevel
//! partitioners (Karypis & Kumar): each unmatched vertex matches its
//! unmatched neighbor across the heaviest edge, so the heaviest edges are
//! contracted and hidden from the cut.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use snap_graph::{CsrGraph, Graph, VertexId, WeightedGraph};

/// `mate[v]` is `v`'s matching partner (or `v` itself if unmatched).
pub fn heavy_edge_matching(g: &CsrGraph, seed: u64) -> Vec<VertexId> {
    let _span = snap_obs::span("partition.matching");
    let n = g.num_vertices();
    let mut mate: Vec<VertexId> = (0..n as VertexId).collect();
    let mut matched = vec![false; n];
    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    for &v in &order {
        if matched[v as usize] {
            continue;
        }
        let mut best: Option<(VertexId, u32)> = None;
        for (u, e) in g.neighbors_with_eid(v) {
            if u == v || matched[u as usize] {
                continue;
            }
            let w = g.edge_weight(e);
            match best {
                Some((_, bw)) if bw >= w => {}
                _ => best = Some((u, w)),
            }
        }
        if let Some((u, _)) = best {
            mate[v as usize] = u;
            mate[u as usize] = v;
            matched[v as usize] = true;
            matched[u as usize] = true;
        }
    }
    mate
}

/// Check that `mate` is an involution consistent with the graph.
pub fn is_valid_matching(g: &CsrGraph, mate: &[VertexId]) -> bool {
    for v in 0..g.num_vertices() as VertexId {
        let m = mate[v as usize];
        if mate[m as usize] != v {
            return false;
        }
        if m != v && !g.neighbors(v).any(|u| u == m) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;
    use snap_graph::GraphBuilder;

    #[test]
    fn matching_is_valid_on_cycle() {
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]);
        let mate = heavy_edge_matching(&g, 1);
        assert!(is_valid_matching(&g, &mate));
        // A 6-cycle admits a perfect matching; random order may leave up
        // to 2 unmatched, but at least 2 pairs must form.
        let matched = mate
            .iter()
            .enumerate()
            .filter(|&(v, &m)| m != v as u32)
            .count();
        assert!(matched >= 4);
    }

    #[test]
    fn prefers_heavy_edges() {
        // Path 0 -10- 1 -1- 2 -10- 3: regardless of visit order, both
        // heavy edges are matched and the light middle edge never is.
        let g = GraphBuilder::undirected(4)
            .add_weighted_edges([(0, 1, 10), (1, 2, 1), (2, 3, 10)])
            .build();
        for seed in 0..10 {
            let mate = heavy_edge_matching(&g, seed);
            assert!(is_valid_matching(&g, &mate));
            assert_eq!(mate[0], 1, "seed {seed}");
            assert_eq!(mate[2], 3, "seed {seed}");
        }
    }

    #[test]
    fn isolated_vertices_stay_single() {
        let g = from_edges(3, &[(0, 1)]);
        let mate = heavy_edge_matching(&g, 0);
        assert_eq!(mate[2], 2);
        assert!(is_valid_matching(&g, &mate));
    }
}

//! Weighted betweenness centrality (Brandes over Dijkstra).
//!
//! The paper's algorithm statements carry a length function `l: E → R`;
//! this module supplies the weighted counterpart of the BFS-based kernel:
//! shortest paths by weight, dependency accumulation in non-increasing
//! distance order (Dijkstra settle order reversed).

use crate::brandes::{add_accumulators, finalize, BetweennessScores};
use snap_graph::{VertexId, WeightedGraph};
use snap_kernels::sweep::sweep;
use snap_kernels::Exec;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One weighted-Brandes accumulation from `s`.
fn accumulate_weighted<G: WeightedGraph>(g: &G, s: VertexId, vacc: &mut [f64], eacc: &mut [f64]) {
    let n = g.num_vertices();
    let mut dist = vec![u64::MAX; n];
    let mut sigma = vec![0.0f64; n];
    let mut delta = vec![0.0f64; n];
    let mut preds: Vec<Vec<(VertexId, u32)>> = vec![Vec::new(); n];
    let mut order: Vec<VertexId> = Vec::new();
    let mut settled = vec![false; n];
    let mut heap = BinaryHeap::new();

    dist[s as usize] = 0;
    sigma[s as usize] = 1.0;
    heap.push(Reverse((0u64, s)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if settled[u as usize] {
            continue;
        }
        settled[u as usize] = true;
        order.push(u);
        for (v, e, w) in g.neighbors_weighted(u) {
            let nd = d + w as u64;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                sigma[v as usize] = sigma[u as usize];
                preds[v as usize].clear();
                preds[v as usize].push((u, e));
                heap.push(Reverse((nd, v)));
            } else if nd == dist[v as usize] {
                sigma[v as usize] += sigma[u as usize];
                preds[v as usize].push((u, e));
            }
        }
    }
    for &w in order.iter().rev() {
        let dw = delta[w as usize];
        let coeff = (1.0 + dw) / sigma[w as usize];
        for &(v, e) in &preds[w as usize] {
            let c = sigma[v as usize] * coeff;
            delta[v as usize] += c;
            eacc[e as usize] += c;
        }
        if w != s {
            vacc[w as usize] += dw;
        }
    }
}

/// Exact weighted betweenness (vertices and edges), parallel over
/// sources. For unweighted graphs this equals [`crate::brandes::brandes`]
/// (at higher cost — prefer the BFS kernel there).
pub fn weighted_betweenness<G: WeightedGraph>(g: &G) -> BetweennessScores {
    let n = g.num_vertices();
    let m = g.edge_id_bound();
    let sources: Vec<VertexId> = (0..n as VertexId).collect();
    // Dijkstra per source is heavy and keeps its own state, not the
    // chunk's workspace; from 17 to 1024 sources one chunk runs them in
    // order (at most 16 run one per chunk when threads take part).
    let (sums, _) = sweep(
        &Exec::default(),
        &sources,
        "weighted.source",
        1024,
        |_| (vec![0.0; n], vec![0.0; m]),
        |(vacc, eacc), s, _| {
            accumulate_weighted(g, s, vacc, eacc);
            0
        },
        add_accumulators,
    );
    let (vertex, edge) = sums.unwrap_or_default();
    finalize(g, vertex, edge)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::brandes;
    use snap_graph::builder::from_edges;
    use snap_graph::GraphBuilder;

    #[test]
    fn equals_bfs_brandes_on_unit_weights() {
        let g = from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (2, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
        );
        let a = brandes(&g);
        let b = weighted_betweenness(&g);
        for v in 0..8 {
            assert!((a.vertex[v] - b.vertex[v]).abs() < 1e-9, "v{v}");
        }
        for e in 0..snap_graph::Graph::num_edges(&g) {
            assert!((a.edge[e] - b.edge[e]).abs() < 1e-9, "e{e}");
        }
    }

    #[test]
    fn scores_are_bit_identical_at_every_thread_count() {
        // 2048 sources: two chunks, so a thread-count-dependent split or
        // reduce order would change the f64 bracketing.
        let g = snap_gen::rmat(&snap_gen::RmatConfig::small_world(11, 4096), 5);
        let bits = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let bc = pool.install(|| weighted_betweenness(&g));
            let words = bc.vertex.iter().chain(&bc.edge);
            words.map(|x| x.to_bits()).collect::<Vec<u64>>()
        };
        let reference = bits(1);
        for threads in [2usize, 8] {
            assert!(bits(threads) == reference, "{threads} threads");
        }
    }

    #[test]
    fn weights_reroute_shortest_paths() {
        // Square 0-1-2 (cheap) vs direct 0-2 (expensive): all 0↔2 paths
        // take the detour through 1.
        let g = GraphBuilder::undirected(3)
            .add_weighted_edges([(0, 1, 1), (1, 2, 1), (0, 2, 10)])
            .build();
        let bc = weighted_betweenness(&g);
        assert!((bc.vertex[1] - 1.0).abs() < 1e-12);
        // The expensive edge carries no shortest path except... not even
        // its own endpoints' pair (detour is cheaper), so its BC is 0.
        let direct = g.edges().find(|&(_, u, v)| (u, v) == (0, 2)).unwrap().0;
        assert!(bc.edge[direct as usize].abs() < 1e-12);
    }

    #[test]
    fn equal_weight_paths_split_dependency() {
        // Diamond with equal weights: two shortest 0→3 paths.
        let g = GraphBuilder::undirected(4)
            .add_weighted_edges([(0, 1, 2), (0, 2, 2), (1, 3, 2), (2, 3, 2)])
            .build();
        let bc = weighted_betweenness(&g);
        assert!((bc.vertex[1] - 0.5).abs() < 1e-12);
        assert!((bc.vertex[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_bridge_dominates() {
        let g = GraphBuilder::undirected(6)
            .add_weighted_edges([
                (0, 1, 1),
                (1, 2, 1),
                (0, 2, 1),
                (2, 3, 5),
                (3, 4, 1),
                (4, 5, 1),
                (3, 5, 1),
            ])
            .build();
        let bc = weighted_betweenness(&g);
        let (e, _) = bc.max_edge().unwrap();
        assert_eq!(snap_graph::Graph::edge_endpoints(&g, e), (2, 3));
    }
}

//! Property tests for centrality invariants.

use proptest::prelude::*;
use snap_centrality::*;
use snap_graph::{Graph, GraphBuilder, VertexId};
use snap_kernels::bfs::{bfs, UNREACHABLE};

fn arb_graph() -> impl Strategy<Value = snap_graph::CsrGraph> {
    (3usize..20).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 1..50).prop_map(move |edges| {
            let mut uniq: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();
            uniq.sort_unstable();
            uniq.dedup();
            GraphBuilder::undirected(n).add_edges(uniq).build()
        })
    })
}

proptest! {
    /// Brute-force betweenness on tiny graphs equals Brandes: the sum of
    /// vertex BC must equal Σ over pairs of (interior vertices weighted
    /// by path share), checked via the Σ(d(s,t) - 1) identity on graphs
    /// where all shortest paths are unique is too restrictive, so check
    /// the weaker (but exact) identity:
    ///   Σ_v BC(v) + (#connected ordered pairs)/2 = Σ_e edgeBC(e).
    /// Every s-t shortest path of length ℓ contributes ℓ to edge BC and
    /// ℓ-1 to vertex BC (shares sum to 1 per pair per "slot").
    #[test]
    fn vertex_edge_bc_identity(g in arb_graph()) {
        let bc = brandes(&g);
        let vertex_sum: f64 = bc.vertex.iter().sum();
        let edge_sum: f64 = bc.edge.iter().sum();
        // Count connected unordered pairs.
        let mut pairs = 0u64;
        for s in 0..g.num_vertices() as VertexId {
            let d = bfs(&g, s);
            for t in 0..g.num_vertices() {
                if (t as u32) > s && d.dist[t] != UNREACHABLE {
                    pairs += 1;
                }
            }
        }
        prop_assert!(
            (vertex_sum + pairs as f64 - edge_sum).abs() < 1e-6,
            "vertex {vertex_sum} + pairs {pairs} != edge {edge_sum}"
        );
    }

    /// Betweenness is nonnegative and zero on degree-<2 vertices' paths
    /// cannot pass through leaves.
    #[test]
    fn bc_nonnegative_and_leaf_zero(g in arb_graph()) {
        let bc = brandes(&g);
        for v in 0..g.num_vertices() {
            prop_assert!(bc.vertex[v] >= -1e-12);
            if g.degree(v as VertexId) <= 1 {
                prop_assert!(bc.vertex[v].abs() < 1e-12, "leaf {v} has bc {}", bc.vertex[v]);
            }
        }
        for e in g.edge_ids() {
            prop_assert!(bc.edge[e as usize] >= -1e-12);
        }
    }

    /// The sampled estimator with a full sample is exact; parallel equals
    /// sequential.
    #[test]
    fn full_sample_and_parallel_agree(g in arb_graph()) {
        let exact = brandes(&g);
        let par = par_brandes(&g);
        let full = approx_betweenness(&g, 1.0, 5);
        for v in 0..g.num_vertices() {
            prop_assert!((exact.vertex[v] - par.vertex[v]).abs() < 1e-7);
            prop_assert!((exact.vertex[v] - full.vertex[v]).abs() < 1e-7);
        }
    }

    /// Closeness lies in [0, 1] with the Wasserman-Faust correction.
    #[test]
    fn closeness_bounded(g in arb_graph()) {
        for c in closeness(&g) {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&c), "closeness {c}");
        }
    }

    /// Degree centrality sums to twice the edge count.
    #[test]
    fn degree_sum_identity(g in arb_graph()) {
        let total: usize = degree_centrality(&g).iter().sum();
        prop_assert_eq!(total, 2 * g.num_edges());
    }
}

#[test]
fn star_degrees() {
    let g = snap_graph::builder::from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
    assert_eq!(degree_centrality(&g), vec![4, 1, 1, 1, 1]);
    let norm = normalized_degree_centrality(&g);
    assert!((norm[0] - 1.0).abs() < 1e-12);
    assert!((norm[1] - 0.25).abs() < 1e-12);
}

#[test]
fn top_k_ordering() {
    let g = snap_graph::builder::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
    let top = top_degree_vertices(&g, 2);
    assert_eq!(top[0].0, 0);
    assert_eq!(top[0].1, 3);
    assert_eq!(top.len(), 2);
}

#[test]
fn single_vertex() {
    let g = snap_graph::builder::from_edges(1, &[]);
    assert_eq!(normalized_degree_centrality(&g), vec![0.0]);
}

#[test]
fn adaptive_edge_finds_bridge_weight() {
    let g = snap_graph::builder::from_edges(
        6,
        &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
    );
    let exact = brandes(&g);
    let bridge = exact.max_edge().unwrap().0;
    let est = adaptive_edge_betweenness(&g, bridge, 0.5, 13);
    assert!(est.estimate > 0.5 * exact.edge[bridge as usize]);
}

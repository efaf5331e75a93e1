//! Property tests for the topology metrics.

use proptest::prelude::*;
use snap_graph::{Graph, GraphBuilder, VertexId};
use snap_metrics::*;

fn arb_graph() -> impl Strategy<Value = snap_graph::CsrGraph> {
    (3usize..24).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 0..60).prop_map(move |edges| {
            let mut uniq: Vec<(u32, u32)> = edges
                .into_iter()
                .filter(|&(u, v)| u != v)
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();
            uniq.sort_unstable();
            uniq.dedup();
            GraphBuilder::undirected(n).add_edges(uniq).build()
        })
    })
}

/// Brute-force triangles through each vertex, over vertex triples.
fn triangles_brute(g: &snap_graph::CsrGraph) -> Vec<u64> {
    let n = g.num_vertices();
    let adj = |a: u32, b: u32| g.neighbors(a).any(|x| x == b);
    let mut count = vec![0; n];
    for a in 0..n as u32 {
        for b in a + 1..n as u32 {
            for c in b + 1..n as u32 {
                if adj(a, b) && adj(b, c) && adj(a, c) {
                    for v in [a, b, c] {
                        count[v as usize] += 1;
                    }
                }
            }
        }
    }
    count
}

proptest! {
    /// Oriented triangle counting equals brute force, vertex by vertex.
    #[test]
    fn triangle_count_exact(g in arb_graph()) {
        let brute = triangles_brute(&g);
        prop_assert_eq!(triangle_count(&g), brute.iter().sum::<u64>() / 3);
        prop_assert_eq!(triangles_per_vertex(&g), brute);
    }

    /// Per-vertex triangles sum to 3x the total.
    #[test]
    fn triangle_sum_identity(g in arb_graph()) {
        let per: u64 = triangles_per_vertex(&g).iter().sum();
        prop_assert_eq!(per, 3 * triangle_count(&g));
    }

    /// Clustering coefficients and transitivity are in [0, 1].
    #[test]
    fn clustering_bounds(g in arb_graph()) {
        for c in local_clustering(&g) {
            prop_assert!((0.0..=1.0).contains(&c));
        }
        let t = transitivity(&g);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&t));
        let avg = average_clustering(&g);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&avg));
    }

    /// Assortativity is a correlation: within [-1, 1].
    #[test]
    fn assortativity_bounds(g in arb_graph()) {
        let r = degree_assortativity(&g);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&r), "r = {r}");
    }

    /// Degree histogram sums to n; CCDF is non-increasing and ends at 0.
    #[test]
    fn degree_distribution_wellformed(g in arb_graph()) {
        let h = degree_histogram(&g);
        prop_assert_eq!(h.iter().sum::<usize>(), g.num_vertices());
        let c = degree_ccdf(&g);
        prop_assert!(c.windows(2).all(|w| w[0] >= w[1] - 1e-12));
        if let Some(&last) = c.last() {
            prop_assert!(last.abs() < 1e-12);
        }
    }

    /// Exact path stats: pairs is even (symmetric), average >= 1 when any
    /// pair exists, effective diameter <= max.
    #[test]
    fn path_stats_sane(g in arb_graph()) {
        let s = path_stats_exact(&g);
        prop_assert_eq!(s.pairs % 2, 0);
        if s.pairs > 0 {
            prop_assert!(s.average >= 1.0);
            prop_assert!(s.effective_diameter <= s.max as f64 + 1e-9);
        }
    }

    /// Rich-club coefficients are densities in [0, 1], and the k = 0 club
    /// over the whole graph matches the global density.
    #[test]
    fn rich_club_is_density(g in arb_graph()) {
        let n = g.num_vertices();
        for (_, phi) in rich_club_curve(&g) {
            prop_assert!((0.0..=1.0 + 1e-12).contains(&phi));
        }
        let non_isolated: Vec<VertexId> = (0..n as u32).filter(|&v| g.degree(v) > 0).collect();
        if non_isolated.len() == n && n >= 2 {
            let phi0 = rich_club_coefficient(&g, 0).unwrap();
            let density = 2.0 * g.num_edges() as f64 / (n as f64 * (n as f64 - 1.0));
            prop_assert!((phi0 - density).abs() < 1e-12);
        }
    }

    /// Summary is internally consistent with its parts.
    #[test]
    fn summary_consistency(g in arb_graph()) {
        let s = summarize(&g, 1);
        prop_assert_eq!(s.n, g.num_vertices());
        prop_assert_eq!(s.m, g.num_edges());
        prop_assert_eq!(s.components, snap_kernels::connected_components(&g).count);
        prop_assert!((s.clustering - average_clustering(&g)).abs() < 1e-12);
    }
}

#[test]
fn average_neighbor_degree_star() {
    let g = snap_graph::builder::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
    let knn = average_neighbor_degree(&g);
    assert_eq!(knn[0], 1.0); // hub's neighbors are leaves
    assert_eq!(knn[1], 3.0); // leaf's neighbor is the hub
}

#[test]
fn neighbor_connectivity_buckets() {
    let g = snap_graph::builder::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
    let nc = neighbor_connectivity(&g);
    assert_eq!(nc, vec![(1, 3.0), (3, 1.0)]);
}

//! Degree correlation metrics: assortativity coefficient (Newman, PRL
//! 2002) and average neighbor connectivity.
//!
//! The paper highlights these as cheap preprocessing metrics: assortative
//! mixing indicates community structure (guiding the choice of clustering
//! algorithm), and `k_nn(k)` shows whether degree-k vertices attach to
//! hubs or to the periphery.

use snap_graph::{Graph, VertexId};

/// Degree assortativity coefficient `r ∈ [-1, 1]`: the Pearson
/// correlation of the degrees at the two ends of each edge. Uses the
/// *remaining degree* formulation of Newman; returns 0 for degenerate
/// (constant-degree or edgeless) graphs.
pub fn degree_assortativity<G: Graph>(g: &G) -> f64 {
    let m = g.num_edges();
    if m == 0 {
        return 0.0;
    }
    // Sums over edges (j_i, k_i are endpoint degrees minus one — the
    // "remaining degree" — but the plain-degree form is equivalent for
    // the correlation coefficient).
    let (mut s_jk, mut s_j, mut s_k, mut s_j2, mut s_k2) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        // For undirected graphs each edge contributes both orientations,
        // symmetrizing the correlation.
        let du = g.degree(u) as f64;
        let dv = g.degree(v) as f64;
        for (j, k) in [(du, dv), (dv, du)] {
            s_jk += j * k;
            s_j += j;
            s_k += k;
            s_j2 += j * j;
            s_k2 += k * k;
        }
    }
    let n = 2.0 * m as f64;
    let num = s_jk / n - (s_j / n) * (s_k / n);
    let den = ((s_j2 / n - (s_j / n).powi(2)) * (s_k2 / n - (s_k / n).powi(2))).sqrt();
    if den.abs() < 1e-15 {
        0.0
    } else {
        num / den
    }
}

/// Average neighbor degree of each vertex (0 for isolated vertices).
pub fn average_neighbor_degree<G: Graph>(g: &G) -> Vec<f64> {
    (0..g.num_vertices() as VertexId)
        .map(|v| {
            let d = g.degree(v);
            if d == 0 {
                0.0
            } else {
                g.neighbors(v).map(|u| g.degree(u) as f64).sum::<f64>() / d as f64
            }
        })
        .collect()
}

/// Average neighbor connectivity `k_nn(k)`: mean neighbor degree over all
/// vertices of degree `k`. Returns `(k, k_nn(k))` pairs for the degrees
/// present in the graph, sorted by `k`.
pub fn neighbor_connectivity<G: Graph>(g: &G) -> Vec<(usize, f64)> {
    let knn = average_neighbor_degree(g);
    let mut by_degree: std::collections::BTreeMap<usize, (f64, usize)> =
        std::collections::BTreeMap::new();
    for (v, &k) in knn.iter().enumerate() {
        let d = g.degree(v as VertexId);
        if d == 0 {
            continue;
        }
        let entry = by_degree.entry(d).or_insert((0.0, 0));
        entry.0 += k;
        entry.1 += 1;
    }
    by_degree
        .into_iter()
        .map(|(k, (sum, cnt))| (k, sum / cnt as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn star_is_disassortative() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert!(degree_assortativity(&g) < -0.9);
    }

    #[test]
    fn regular_ring_is_degenerate() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        // Constant degree → zero variance → defined as 0.
        assert_eq!(degree_assortativity(&g), 0.0);
    }

    #[test]
    fn two_cliques_joined_by_path_are_assortative() {
        // Two triangles joined through a degree-2 path keeps high-degree
        // vertices adjacent to high-degree vertices.
        let g = from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (4, 6),
                (6, 7),
            ],
        );
        let r = degree_assortativity(&g);
        assert!(r.abs() <= 1.0);
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = from_edges(3, &[]);
        assert_eq!(degree_assortativity(&g), 0.0);
        assert_eq!(average_neighbor_degree(&g), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn assortativity_bounded() {
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]);
        let r = degree_assortativity(&g);
        assert!((-1.0..=1.0).contains(&r));
    }
}

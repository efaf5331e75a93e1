//! Clustering coefficients via parallel triangle counting.
//!
//! Uses the sorted-adjacency merge intersection: for each edge (u, v),
//! |N(u) ∩ N(v)| triangles, counted once per edge and accumulated to both
//! endpoints. `O(Σ_v deg(v)^2)` worst case but cache-friendly and
//! embarrassingly parallel over vertices.

use rayon::prelude::*;
use snap_graph::{CsrGraph, Graph, VertexId};
use snap_kernels::Exec;

/// Number of triangles through each vertex.
pub fn triangles_per_vertex(g: &CsrGraph) -> Vec<u64> {
    assert!(
        !g.is_directed(),
        "triangle counting assumes undirected input"
    );
    let n = g.num_vertices();
    // Count per-vertex by summing, for each vertex u, the triangles on its
    // incident edges (u, v) with v > u; each triangle (u, v, w) is found
    // exactly once from its smallest vertex... counting per-vertex instead:
    // for vertex u, triangles(u) = (1/2) Σ_{v ∈ N(u)} |N(u) ∩ N(v)|.
    (0..n as VertexId)
        .into_par_iter()
        .map(|u| {
            let nu = g.neighbor_slice(u);
            let mut count = 0u64;
            for &v in nu {
                count += sorted_intersection_size(nu, g.neighbor_slice(v));
            }
            count / 2
        })
        .collect()
}

/// Total number of triangles in the graph.
pub fn triangle_count(g: &CsrGraph) -> u64 {
    triangles_per_vertex(g).into_iter().sum::<u64>() / 3
}

fn sorted_intersection_size(a: &[VertexId], b: &[VertexId]) -> u64 {
    let (mut i, mut j, mut c) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                c += 1;
                i += 1;
                j += 1;
            }
        }
    }
    c
}

/// Local clustering coefficient of every vertex:
/// `C(v) = 2·T(v) / (deg(v)·(deg(v) - 1))`, 0 for degree < 2.
pub fn local_clustering(g: &CsrGraph) -> Vec<f64> {
    triangles_per_vertex(g)
        .into_iter()
        .enumerate()
        .map(|(v, t)| {
            let d = g.degree(v as VertexId) as u64;
            if d < 2 {
                0.0
            } else {
                2.0 * t as f64 / (d * (d - 1)) as f64
            }
        })
        .collect()
}

/// Average of the local clustering coefficients (Watts–Strogatz "C").
pub fn average_clustering(g: &CsrGraph) -> f64 {
    let n = g.num_vertices();
    if n == 0 {
        return 0.0;
    }
    local_clustering(g).iter().sum::<f64>() / n as f64
}

/// Global transitivity: `3·triangles / open-or-closed wedges`.
pub fn transitivity(g: &CsrGraph) -> f64 {
    let wedges: u64 = (0..g.num_vertices() as VertexId)
        .map(|v| {
            let d = g.degree(v) as u64;
            d * d.saturating_sub(1) / 2
        })
        .sum();
    if wedges == 0 {
        return 0.0;
    }
    3.0 * triangle_count(g) as f64 / wedges as f64
}

/// Clustering-coefficient estimates from a budgeted triangle sweep.
#[derive(Clone, Copy, Debug)]
pub struct PartialClustering {
    /// Average local clustering coefficient over the processed vertices.
    pub average: f64,
    /// Transitivity estimate `Σ t(v) / Σ wedges(v)` over the processed
    /// vertices (exact when none were skipped).
    pub transitivity: f64,
    /// Vertices whose triangles were actually counted.
    pub vertices_used: usize,
    /// Total vertex count.
    pub vertices_total: usize,
}

impl PartialClustering {
    /// True when the budget cut the sweep short.
    pub fn degraded(&self) -> bool {
        self.vertices_used < self.vertices_total
    }
}

/// [`average_clustering`] and [`transitivity`] from one triangle sweep
/// under `exec`'s compute budget: the sweep (the `O(Σ deg²)` cost) charges
/// per adjacency-merge and skips remaining vertices once the budget
/// trips. The estimates over the processed subset stay consistent; only
/// their variance grows. With nothing skipped both values equal the two
/// single-purpose functions bit for bit, at any thread count.
pub fn clustering_in(g: &CsrGraph, exec: &Exec) -> PartialClustering {
    assert!(
        !g.is_directed(),
        "triangle counting assumes undirected input"
    );
    let n = g.num_vertices();
    let budget = &exec.budget;
    // (local coefficient, triangles, wedges) of every processed vertex,
    // in vertex order. Collected rather than folded per rayon chunk so
    // the f64 coefficients are summed in one fixed order below: a
    // per-chunk fold makes the low bits of `average` depend on the
    // thread count.
    let per_vertex: Vec<(f64, u64, u64)> = (0..n as VertexId)
        .into_par_iter()
        .filter_map(|u| {
            if budget.is_exhausted() {
                return None;
            }
            let nu = g.neighbor_slice(u);
            let mut count = 0u64;
            let mut cost = 1 + nu.len() as u64;
            for &v in nu {
                let nv = g.neighbor_slice(v);
                cost += nv.len() as u64;
                count += sorted_intersection_size(nu, nv);
            }
            budget.charge(cost).ok()?;
            let t = count / 2;
            let d = nu.len() as u64;
            let coeff = if d < 2 {
                0.0
            } else {
                2.0 * t as f64 / (d * (d - 1)) as f64
            };
            Some((coeff, t, d * d.saturating_sub(1) / 2))
        })
        .collect();
    let used = per_vertex.len();
    if used < n {
        snap_obs::add("clustering_vertices_skipped", (n - used) as u64);
    }
    let coeff: f64 = per_vertex.iter().map(|&(c, _, _)| c).sum();
    let tri: u64 = per_vertex.iter().map(|&(_, t, _)| t).sum();
    let wedges: u64 = per_vertex.iter().map(|&(_, _, w)| w).sum();
    PartialClustering {
        average: if used == 0 { 0.0 } else { coeff / used as f64 },
        transitivity: if wedges == 0 {
            0.0
        } else {
            tri as f64 / wedges as f64
        },
        vertices_used: used,
        vertices_total: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn triangle_graph() {
        let g = from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangle_count(&g), 1);
        assert_eq!(triangles_per_vertex(&g), vec![1, 1, 1]);
        assert_eq!(local_clustering(&g), vec![1.0, 1.0, 1.0]);
        assert!((transitivity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn square_has_no_triangles() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(average_clustering(&g), 0.0);
    }

    #[test]
    fn square_with_diagonal() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        assert_eq!(triangle_count(&g), 2);
        // Vertices 0 and 2 have degree 3, each in 2 triangles: C = 2/3.
        let c = local_clustering(&g);
        assert!((c[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((c[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                edges.push((u, v));
            }
        }
        let g = from_edges(5, &edges);
        assert_eq!(triangle_count(&g), 10); // C(5,3)
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
        assert!((transitivity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_sweep_equals_the_oracles_bit_for_bit() {
        // 2048 vertices: above the size where the sweep is actually split
        // across workers, so a chunk-order-dependent sum would show.
        let g = snap_gen::rmat(&snap_gen::RmatConfig::small_world(11, 16384), 5);
        let (average, trans) = (average_clustering(&g), transitivity(&g));
        let untripped = Exec {
            budget: snap_budget::Budget::with_deadline(std::time::Duration::from_secs(3600)),
            ..Exec::default()
        };
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for exec in [&Exec::default(), &untripped] {
                let c = pool.install(|| clustering_in(&g, exec));
                assert!(!c.degraded());
                assert_eq!(c.average.to_bits(), average.to_bits(), "{threads} threads");
                assert_eq!(
                    c.transitivity.to_bits(),
                    trans.to_bits(),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn star_has_zero_clustering() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(transitivity(&g), 0.0);
    }
}

//! Closeness centrality: `CC(v) = 1 / Σ_u d(v, u)`.
//!
//! Exact computation is one BFS per vertex, parallelized over sources.
//! For large graphs a sampled estimator averages distances from a random
//! subset of sources (the standard Eppstein–Wang style approximation the
//! paper's exploratory workflow calls for).
//!
//! Both multi-source passes run through [`snap_kernels::sweep`]: one
//! pooled epoch-stamped [`TraversalWorkspace`] per chunk of sources, and
//! per-source distance sums that walk the *touched* vertex set
//! (`ws.order`) instead of scanning all n slots.

use snap_graph::{Graph, TraversalWorkspace, VertexId};
use snap_kernels::bfs::bfs_levels_into;
use snap_kernels::sweep::{sample_sources, sweep};
use snap_kernels::Exec;

/// Exact closeness for every vertex, parallel over sources.
///
/// Disconnected graphs use the standard convention: distances are summed
/// over the reachable set only, scaled by `(r - 1) / (n - 1)` where `r` is
/// the number of reached vertices (Wasserman–Faust correction), so that
/// vertices in small components do not get inflated scores. Isolated
/// vertices score 0.
pub fn closeness<G: Graph>(g: &G) -> Vec<f64> {
    closeness_in(g, &Exec::default())
}

/// [`closeness`] with `exec`'s budget and workspace pool. Sessions that
/// interleave centrality queries hold one `Exec` so the slot arrays warm
/// up once. Every score is its own traversal, so a budget that trips
/// leaves the vertices it skipped at 0 (counted in `sources_skipped`).
pub fn closeness_in<G: Graph>(g: &G, exec: &Exec) -> Vec<f64> {
    let n = g.num_vertices();
    if n <= 1 {
        return vec![0.0; n];
    }
    let _span = snap_obs::span("centrality.closeness");
    let sources: Vec<VertexId> = (0..n as VertexId).collect();
    // Each chunk lists its `(vertex, score)` pairs and the scores scatter
    // back by vertex id, so the output cannot depend on the chunking.
    let (scored, _) = sweep(
        exec,
        &sources,
        "closeness.source",
        16,
        |_| Vec::new(),
        |acc, v, ws| {
            bfs_levels_into(g, v, ws);
            acc.push((v, closeness_from_workspace(n, ws)));
            ws.order.len() as u64 + 1
        },
        |mut a, mut b| {
            a.append(&mut b);
            a
        },
    );
    let mut out = vec![0.0; n];
    for (v, cc) in scored.unwrap_or_default() {
        out[v as usize] = cc;
    }
    out
}

/// Closeness of a single vertex.
pub fn closeness_of<G: Graph>(g: &G, v: VertexId) -> f64 {
    closeness_of_into(g, v, &mut TraversalWorkspace::new())
}

/// [`closeness_of`] on a reusable workspace: a batch of single-vertex
/// queries pays no per-query allocation — the traversal state, queue,
/// and discovery order all live in `ws` (no per-call `Frontier` or
/// dense distance vector is built at all).
pub fn closeness_of_into<G: Graph>(g: &G, v: VertexId, ws: &mut TraversalWorkspace) -> f64 {
    let n = g.num_vertices();
    if n <= 1 {
        return 0.0;
    }
    bfs_levels_into(g, v, ws);
    closeness_from_workspace(n, ws)
}

/// Wasserman–Faust-corrected closeness from a finished [`bfs_levels_into`]
/// traversal. The distance sum collapses to `Σ depth · |level|` over the
/// BFS level runs — an exact integer sum identical to summing per vertex,
/// computed from `O(D log n)` dist reads instead of one gather per
/// touched vertex.
fn closeness_from_workspace(n: usize, ws: &TraversalWorkspace) -> f64 {
    let mut sum = 0u64;
    let reached = ws.order.len() as u64;
    for (d, run) in ws.depth_runs() {
        sum += d as u64 * run.len() as u64;
    }
    if reached <= 1 || sum == 0 {
        return 0.0;
    }
    let frac = (reached - 1) as f64 / (n - 1) as f64;
    frac * (reached - 1) as f64 / sum as f64
}

/// Sampled closeness: average distance from `k` random sources, inverted.
/// Unbiased for connected graphs up to sampling noise; `O(k (m + n))`.
pub fn sampled_closeness<G: Graph>(g: &G, k: usize, seed: u64) -> Vec<f64> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let _span = snap_obs::span("centrality.closeness");
    let sources = sample_sources(n, k.max(1), seed);
    snap_obs::add("samples_drawn", sources.len() as u64);

    // Sum of distances to each vertex from the sampled sources. The
    // per-source scatter walks the touched set only; the u64 sums make
    // the result independent of accumulation order.
    let (sums, _) = sweep(
        &Exec::default(),
        &sources,
        "closeness.source",
        16,
        |_| vec![0u64; n],
        |acc, s, ws| {
            bfs_levels_into(g, s, ws);
            // Per-vertex sums need a scatter, but the depth runs let it
            // stream over `order` without re-reading a dist word per
            // vertex.
            for (d, run) in ws.depth_runs() {
                for &u in &ws.order[run] {
                    acc[u as usize] += d as u64;
                }
            }
            0
        },
        |mut a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
            a
        },
    );
    let k = sources.len() as f64;
    // E[sampled sum] = k/n * (full distance sum), so scale by n/k and
    // invert with the usual (n - 1) numerator.
    sums.expect("at least one source ran")
        .into_iter()
        .map(|s| {
            if s == 0 {
                0.0
            } else {
                (n as f64 - 1.0) / (s as f64 * n as f64 / k)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn star_center_is_closest() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let cc = closeness(&g);
        // Center: sum = 4 → 4/4 * ... = (n-1)/sum = 1.0.
        assert!((cc[0] - 1.0).abs() < 1e-9);
        // Leaf: sum = 1 + 3*2 = 7 → 4/7.
        assert!((cc[1] - 4.0 / 7.0).abs() < 1e-9);
        assert!(cc[0] > cc[1]);
    }

    #[test]
    fn path_endpoints_are_farthest() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let cc = closeness(&g);
        assert!(cc[2] > cc[1] && cc[1] > cc[0]);
        assert!((cc[2] - 4.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn single_query_matches_full_pass() {
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)]);
        let cc = closeness(&g);
        let mut ws = TraversalWorkspace::new();
        for v in 0..6u32 {
            assert_eq!(cc[v as usize], closeness_of(&g, v), "v{v}");
            assert_eq!(
                cc[v as usize],
                closeness_of_into(&g, v, &mut ws),
                "v{v} (reused workspace)"
            );
        }
    }

    #[test]
    fn isolated_vertex_scores_zero() {
        let g = from_edges(3, &[(0, 1)]);
        let cc = closeness(&g);
        assert_eq!(cc[2], 0.0);
    }

    #[test]
    fn disconnected_small_component_downweighted() {
        // {0,1,2,3} path and {4,5} pair: the pair's vertices reach only one
        // other vertex, so the correction shrinks their score below the
        // path's interior vertices.
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (4, 5)]);
        let cc = closeness(&g);
        assert!(cc[1] > cc[4], "cc1 {} cc4 {}", cc[1], cc[4]);
    }

    #[test]
    fn sampled_agrees_on_full_sample() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let exact = closeness(&g);
        let sampled = sampled_closeness(&g, 5, 0);
        for v in 0..5 {
            assert!(
                (exact[v] - sampled[v]).abs() < 1e-9,
                "v{v}: {} vs {}",
                exact[v],
                sampled[v]
            );
        }
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(0, &[]);
        assert!(closeness(&g).is_empty());
        assert!(sampled_closeness(&g, 3, 0).is_empty());
    }
}

//! Approximate betweenness centrality by source sampling, and the
//! adaptive-sampling estimator of Bader, Kintali, Madduri & Mihail
//! (WAW 2007).
//!
//! The paper's empirical finding: sampling ~5% of the vertices estimates
//! the betweenness of the top-1% entities within ~20% error. The fixed-
//! fraction estimator below samples a uniform fraction of the sources;
//! the adaptive variant stops early once the accumulated dependency of
//! the target entity crosses `alpha * n`, spending fewer traversals on
//! high-centrality targets.
//!
//! pBD calls neither. Its fine phase samples a fixed fraction of each
//! component's vertices (at least `MIN_SOURCES`) in
//! `DivisiveEngine::cut_rounds` (`snap-community`'s `divisive.rs`) and
//! scores those sources with [`crate::betweenness_from_sources_in`].
//! EXPERIMENTS.md, "Adaptive sampling on the top edge", records how many
//! sources the adaptive rule spends on pBD-sized graphs.

use crate::brandes::{
    accumulate_source, betweenness_from_sources_in, BetweennessScores, PartialBetweenness,
};
use snap_graph::{Graph, TraversalWorkspace, VertexId};
use snap_kernels::sweep::sample_sources;
use snap_kernels::Exec;

/// Estimate vertex and edge betweenness from a random `frac` fraction of
/// sources (at least one). Unbiased; variance shrinks with `frac`.
/// Parallel over the sampled sources.
pub fn approx_betweenness<G: Graph>(g: &G, frac: f64, seed: u64) -> BetweennessScores {
    approx_betweenness_in(g, frac, seed, &Exec::default()).scores
}

/// [`approx_betweenness`] with `exec`'s budget and workspace pool:
/// accumulates sampled sources until the budget trips and rescales by the
/// sources actually processed. Because the sample order is already a
/// uniform shuffle, the processed prefix is itself a uniform sample — the
/// estimate stays unbiased, only its variance grows. A caller that holds
/// one `Exec` across calls reuses the pool's slot arrays.
pub fn approx_betweenness_in<G: Graph>(
    g: &G,
    frac: f64,
    seed: u64,
    exec: &Exec,
) -> PartialBetweenness {
    let _span = snap_obs::span("centrality.approx_betweenness");
    let n = g.num_vertices();
    // At least one source, except on the empty graph.
    let k = ((n as f64 * frac).ceil() as usize).clamp(n.min(1), n);
    snap_obs::add("samples_drawn", k as u64);
    snap_obs::gauge("sample_fraction", frac);
    let sources = sample_sources(n, k, seed);
    betweenness_from_sources_in(g, &sources, exec)
}

/// Result of the adaptive single-entity estimator.
#[derive(Clone, Copy, Debug)]
pub struct AdaptiveEstimate {
    /// Estimated betweenness of the target.
    pub estimate: f64,
    /// Number of source traversals performed.
    pub samples: usize,
}

/// Adaptively estimate the betweenness of vertex `target`: sample sources
/// until the summed dependency exceeds `alpha * n`, then extrapolate
/// (`BC ≈ n·S/k`). High-centrality vertices converge in few samples;
/// the estimator caps at a full exact pass.
pub fn adaptive_vertex_betweenness<G: Graph>(
    g: &G,
    target: VertexId,
    alpha: f64,
    seed: u64,
) -> AdaptiveEstimate {
    adaptive_betweenness(g, alpha, seed, |vacc, _| vacc[target as usize])
}

/// Adaptively estimate the betweenness of a single edge, same stopping
/// rule as [`adaptive_vertex_betweenness`].
pub fn adaptive_edge_betweenness<G: Graph>(
    g: &G,
    target: u32,
    alpha: f64,
    seed: u64,
) -> AdaptiveEstimate {
    adaptive_betweenness(g, alpha, seed, |_, eacc| eacc[target as usize])
}

/// The adaptive loop; `dependency` reads the target entity's running sum
/// out of the `(vertex, edge)` accumulators.
fn adaptive_betweenness<G: Graph>(
    g: &G,
    alpha: f64,
    seed: u64,
    dependency: impl Fn(&[f64], &[f64]) -> f64,
) -> AdaptiveEstimate {
    let n = g.num_vertices();
    let sources = sample_sources(n, n, seed);
    let mut ws = TraversalWorkspace::new();
    ws.bind_preds(g);
    let mut vacc = vec![0.0; n];
    let mut eacc = vec![0.0; g.edge_id_bound()];
    let threshold = alpha * n as f64;
    let mut used = 0usize;
    for &s in &sources {
        accumulate_source(g, s, &mut ws, &mut vacc, &mut eacc);
        used += 1;
        if dependency(&vacc, &eacc) >= threshold {
            break;
        }
    }
    let mut est = dependency(&vacc, &eacc) * n as f64 / used as f64;
    if !g.is_directed() {
        est *= 0.5;
    }
    AdaptiveEstimate {
        estimate: est,
        samples: used,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brandes::brandes;
    use snap_graph::builder::from_edges;

    fn barbell() -> snap_graph::CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn full_fraction_is_exact() {
        let g = barbell();
        let exact = brandes(&g);
        let approx = approx_betweenness(&g, 1.0, 3);
        for e in g.edge_ids() {
            assert!((exact.edge[e as usize] - approx.edge[e as usize]).abs() < 1e-7);
        }
    }

    #[test]
    fn half_fraction_finds_the_bridge() {
        let g = barbell();
        let approx = approx_betweenness(&g, 0.5, 11);
        let (e, _) = approx.max_edge().unwrap();
        assert_eq!(g.edge_endpoints(e), (2, 3));
    }

    #[test]
    fn adaptive_estimates_star_center() {
        let g = from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (0, 4),
                (0, 5),
                (0, 6),
                (0, 7),
                (0, 8),
            ],
        );
        let exact = brandes(&g).vertex[0]; // C(8,2) = 28
        assert!((exact - 28.0).abs() < 1e-9);
        let est = adaptive_vertex_betweenness(&g, 0, 0.5, 7);
        // High-centrality vertex: few samples, decent estimate.
        assert!(est.samples <= 9);
        assert!(
            (est.estimate - exact).abs() <= 0.5 * exact,
            "estimate {} vs exact {exact}",
            est.estimate
        );
    }

    #[test]
    fn adaptive_uses_fewer_samples_for_hubs() {
        let g = barbell();
        let hub = adaptive_vertex_betweenness(&g, 2, 0.5, 5);
        let leaf = adaptive_vertex_betweenness(&g, 0, 0.5, 5);
        assert!(hub.samples <= leaf.samples);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = barbell();
        let a = approx_betweenness(&g, 0.5, 42);
        let b = approx_betweenness(&g, 0.5, 42);
        assert_eq!(a.edge, b.edge);
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(0, &[]);
        let bc = approx_betweenness(&g, 0.1, 0);
        assert!(bc.vertex.is_empty());
    }
}

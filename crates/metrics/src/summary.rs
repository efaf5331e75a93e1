//! One-call exploratory summary — the paper's "systematic computational
//! study of the structure of a network, using a discriminating selection
//! of topological metrics".

use crate::assortativity::degree_assortativity;
use crate::clustering::clustering_in;
use crate::degree_dist::{degree_stats, DegreeStats};
use crate::pathlen::{path_stats_in, PathStats};
use snap_graph::{CsrGraph, Graph};
use snap_kernels::{connected_components, Exec};

/// Aggregate topology report for a network.
#[derive(Clone, Debug)]
pub struct GraphSummary {
    /// Vertex count.
    pub n: usize,
    /// Edge count.
    pub m: usize,
    /// Degree-distribution summary.
    pub degrees: DegreeStats,
    /// Connected-component count.
    pub components: usize,
    /// Fraction of vertices in the largest component.
    pub giant_fraction: f64,
    /// Average local clustering coefficient.
    pub clustering: f64,
    /// Global transitivity.
    pub transitivity: f64,
    /// Degree assortativity.
    pub assortativity: f64,
    /// Shortest-path statistics (sampled above `exact_path_limit`).
    pub paths: PathStats,
    /// Whether `paths` came from sampling.
    pub paths_sampled: bool,
}

/// Vertex count up to which path statistics are computed exactly.
const EXACT_PATH_LIMIT: usize = 2_000;

/// Number of BFS sources used for sampled path statistics.
const PATH_SAMPLES: usize = 64;

/// Compute the full summary. Cost: triangle counting plus
/// `min(n, PATH_SAMPLES)` BFS traversals.
pub fn summarize(g: &CsrGraph, seed: u64) -> GraphSummary {
    summarize_in(g, seed, &Exec::default())
}

/// [`summarize`] with `exec`'s budget and workspace pool. The
/// path-statistics BFS sweep — the dominant cost on large graphs —
/// degrades to however many sampled sources the budget allows;
/// `paths_sampled` is set whenever the sweep was cut short of an exact
/// all-pairs pass. The triangle sweep degrades to the vertices it reached.
pub fn summarize_in(g: &CsrGraph, seed: u64, exec: &Exec) -> GraphSummary {
    let _span = snap_obs::span("metrics.summary");
    snap_obs::meta("seed", seed);
    let n = g.num_vertices();
    let comps = {
        let _span = snap_obs::span("metrics.components");
        connected_components(g)
    };
    let exact = n <= EXACT_PATH_LIMIT;
    let p = {
        let _span = snap_obs::span("metrics.paths");
        path_stats_in(g, if exact { n } else { PATH_SAMPLES }, seed, exec)
    };
    let c = {
        let _span = snap_obs::span("metrics.clustering");
        clustering_in(g, exec)
    };
    let assortativity = {
        let _span = snap_obs::span("metrics.assortativity");
        degree_assortativity(g)
    };
    if c.degraded() {
        if let Some(why) = exec.budget.exhaustion() {
            snap_obs::meta("degraded", why);
        }
    }
    if snap_obs::is_enabled() {
        snap_obs::add("n", n as u64);
        snap_obs::add("m", g.num_edges() as u64);
        snap_obs::add("components", comps.count as u64);
        snap_obs::add("path_sources", p.sources_used as u64);
    }
    GraphSummary {
        n,
        m: g.num_edges(),
        degrees: degree_stats(g),
        components: comps.count,
        giant_fraction: if n == 0 {
            0.0
        } else {
            comps.giant_size() as f64 / n as f64
        },
        clustering: c.average,
        transitivity: c.transitivity,
        assortativity,
        paths: p.stats,
        paths_sampled: !exact || p.degraded(),
    }
}

impl std::fmt::Display for GraphSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "n = {}, m = {}", self.n, self.m)?;
        writeln!(
            f,
            "degree: min {} / mean {:.2} / max {} (skew ratio {:.1})",
            self.degrees.min, self.degrees.mean, self.degrees.max, self.degrees.skew_ratio
        )?;
        writeln!(
            f,
            "components: {} (giant: {:.1}%)",
            self.components,
            100.0 * self.giant_fraction
        )?;
        writeln!(
            f,
            "clustering: avg {:.4}, transitivity {:.4}, assortativity {:+.4}",
            self.clustering, self.transitivity, self.assortativity
        )?;
        write!(
            f,
            "paths{}: avg {:.2}, eff. diameter {:.2}, max {}",
            if self.paths_sampled { " (sampled)" } else { "" },
            self.paths.average,
            self.paths.effective_diameter,
            self.paths.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn summary_of_triangle_plus_isolated() {
        let g = from_edges(4, &[(0, 1), (1, 2), (0, 2)]);
        let s = summarize(&g, 0);
        assert_eq!(s.n, 4);
        assert_eq!(s.m, 3);
        assert_eq!(s.components, 2);
        assert!((s.giant_fraction - 0.75).abs() < 1e-12);
        assert!((s.clustering - 0.75).abs() < 1e-12); // 3 × 1.0 + 1 × 0
        assert!(!s.paths_sampled);
    }

    #[test]
    fn display_renders() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let s = summarize(&g, 0);
        let text = format!("{s}");
        assert!(text.contains("n = 3"));
        assert!(text.contains("components: 1"));
    }
}

//! Recursive-MATrix (R-MAT) generator (Chakrabarti, Zhan & Faloutsos,
//! SDM 2004) — the paper's synthetic small-world family ("RMAT-SF").
//!
//! Each edge is placed by recursively descending into one of four
//! quadrants of the adjacency matrix with probabilities `(a, b, c, d)`;
//! skewed probabilities produce the power-law degree distributions and low
//! diameter characteristic of small-world networks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snap_graph::{CsrGraph, GraphBuilder, VertexId};

/// Parameters for the R-MAT generator.
#[derive(Clone, Copy, Debug)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Number of edge samples to draw (the final graph may have slightly
    /// fewer edges after duplicate/self-loop removal).
    pub edges: usize,
    /// Quadrant probabilities; must sum to ~1. The classic skewed setting
    /// is `(0.45, 0.15, 0.15, 0.25)`.
    pub a: f64,
    pub b: f64,
    pub c: f64,
    /// Per-level multiplicative noise applied to the probabilities, as in
    /// the GTgraph/SSCA#2 generators SNAP builds on. 0 disables noise.
    pub noise: f64,
    /// Build a directed graph (Table 3 lists directed web/citation
    /// networks); undirected otherwise.
    pub directed: bool,
    /// When set, restrict vertex ids to `0..vertices` (must be
    /// `<= 2^scale`) by rejection, so instance sizes can match the paper's
    /// non-power-of-two networks exactly.
    pub vertices: Option<usize>,
}

impl RmatConfig {
    /// The classic skewed small-world preset at a given scale/edge count.
    pub fn small_world(scale: u32, edges: usize) -> Self {
        RmatConfig {
            scale,
            edges,
            a: 0.45,
            b: 0.15,
            c: 0.15,
            noise: 0.1,
            directed: false,
            vertices: None,
        }
    }

    /// Like [`Self::small_world`] but with an exact vertex count enforced
    /// by rejection sampling. `n` must be at most `2^scale`.
    pub fn small_world_exact(n: usize, edges: usize) -> Self {
        let scale = (n.max(2) as f64).log2().ceil() as u32;
        let mut cfg = Self::small_world(scale, edges);
        cfg.vertices = Some(n);
        cfg
    }

    fn d(&self) -> f64 {
        1.0 - self.a - self.b - self.c
    }
}

/// Generate an R-MAT graph. Deterministic given `seed`.
pub fn rmat(config: &RmatConfig, seed: u64) -> CsrGraph {
    assert!(config.scale < 31, "scale must keep n in u32 range");
    assert!(
        config.a > 0.0 && config.b >= 0.0 && config.c >= 0.0 && config.d() > 0.0,
        "invalid quadrant probabilities"
    );
    let full = 1usize << config.scale;
    let n = config.vertices.unwrap_or(full);
    assert!(n <= full, "vertices override exceeds 2^scale");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(config.edges);
    let mut attempts = 0usize;
    let attempt_cap = config.edges.saturating_mul(20).max(1024);
    while edges.len() < config.edges && attempts < attempt_cap {
        attempts += 1;
        let (u, v) = sample_edge(config, &mut rng);
        if u == v || (u as usize) >= n || (v as usize) >= n {
            continue;
        }
        edges.push((u, v, 1));
    }
    let builder = if config.directed {
        GraphBuilder::directed(n)
    } else {
        GraphBuilder::undirected(n)
    };
    builder.with_edges(edges).build()
}

fn sample_edge(config: &RmatConfig, rng: &mut StdRng) -> (VertexId, VertexId) {
    let (mut u, mut v) = (0u32, 0u32);
    let (mut a, mut b, mut c) = (config.a, config.b, config.c);
    for level in 0..config.scale {
        let bit = 1u32 << (config.scale - 1 - level);
        let d = 1.0 - a - b - c;
        let r: f64 = rng.gen();
        if r < a {
            // top-left: no bits set
        } else if r < a + b {
            v |= bit;
        } else if r < a + b + c {
            u |= bit;
        } else {
            let _ = d;
            u |= bit;
            v |= bit;
        }
        if config.noise > 0.0 {
            // Multiplicative noise, renormalized, keeps expected skew while
            // avoiding the artificial self-similarity of pure R-MAT.
            let mut na = a * (1.0 + config.noise * (rng.gen::<f64>() - 0.5));
            let mut nb = b * (1.0 + config.noise * (rng.gen::<f64>() - 0.5));
            let mut nc = c * (1.0 + config.noise * (rng.gen::<f64>() - 0.5));
            let nd = d * (1.0 + config.noise * (rng.gen::<f64>() - 0.5));
            let sum = na + nb + nc + nd;
            na /= sum;
            nb /= sum;
            nc /= sum;
            a = na;
            b = nb;
            c = nc;
        }
    }
    (u, v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::Graph;

    #[test]
    fn deterministic_given_seed() {
        let cfg = RmatConfig::small_world(8, 1024);
        let g1 = rmat(&cfg, 7);
        let g2 = rmat(&cfg, 7);
        assert_eq!(g1.num_edges(), g2.num_edges());
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn different_seeds_differ() {
        let cfg = RmatConfig::small_world(8, 1024);
        let g1 = rmat(&cfg, 1);
        let g2 = rmat(&cfg, 2);
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_ne!(e1, e2);
    }

    #[test]
    fn edge_count_close_to_requested() {
        let cfg = RmatConfig::small_world(10, 8192);
        let g = rmat(&cfg, 3);
        // Duplicates and self-loops shave some edges off, but the bulk
        // must survive.
        assert!(g.num_edges() > 8192 / 2, "got {}", g.num_edges());
        assert!(g.num_edges() <= 8192);
        g.validate().unwrap();
    }

    #[test]
    fn skewed_degree_distribution() {
        let cfg = RmatConfig::small_world(12, 4 * 4096);
        let g = rmat(&cfg, 11);
        let max_deg = g.max_degree();
        let avg_deg = g.total_degree() as f64 / g.num_vertices() as f64;
        // Small-world skew: hubs far above the mean. (A G(n, m) random
        // graph at this density would have max degree within ~3x of the
        // mean; R-MAT's hubs sit much further out.)
        assert!(
            max_deg as f64 > 5.0 * avg_deg,
            "max {max_deg} vs avg {avg_deg}"
        );
    }

    #[test]
    fn directed_variant() {
        let mut cfg = RmatConfig::small_world(8, 1024);
        cfg.directed = true;
        let g = rmat(&cfg, 5);
        assert!(g.is_directed());
        assert_eq!(g.num_arcs(), g.num_edges());
    }
}

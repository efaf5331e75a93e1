//! Erdős–Rényi `G(n, m)` sparse random graphs — the "Sparse random" row of
//! Table 1. Uniform degree distribution, low diameter, no community
//! structure: the family on which cut-based partitioners degrade.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snap_graph::{CsrGraph, GraphBuilder};
use std::collections::HashSet;

/// Sample an undirected `G(n, m)` graph with exactly `m` distinct edges
/// (no self-loops, no parallel edges). Deterministic given `seed`.
///
/// Panics if `m` exceeds the number of possible edges.
pub fn erdos_renyi(n: usize, m: usize, seed: u64) -> CsrGraph {
    assert!(n >= 2 || m == 0, "need at least two vertices for edges");
    let max_edges = n.saturating_mul(n - 1) / 2;
    assert!(m <= max_edges, "m = {m} exceeds max {max_edges}");
    // Rejection sampling is fine in the sparse regime the paper uses
    // (m ~ 5n). For dense requests fall back to reservoir-free enumeration.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(m);
    if m * 3 < max_edges {
        let mut seen: HashSet<u64> = HashSet::with_capacity(m * 2);
        while seen.len() < m {
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u == v {
                continue;
            }
            let key = ((u.min(v) as u64) << 32) | u.max(v) as u64;
            if seen.insert(key) {
                edges.push((u, v, 1));
            }
        }
    } else {
        // Dense case: Floyd's algorithm over the edge index space.
        let mut chosen: HashSet<usize> = HashSet::with_capacity(m * 2);
        for j in (max_edges - m)..max_edges {
            let t = rng.gen_range(0..=j);
            let idx = if chosen.insert(t) { t } else { j };
            if idx != t {
                chosen.insert(idx);
            }
            let (u, v) = unrank_edge(idx, n);
            edges.push((u, v, 1));
        }
    }
    GraphBuilder::undirected(n).with_edges(edges).build()
}

/// Map a linear index in `0..n(n-1)/2` to an edge `(u, v)` with `u < v`.
fn unrank_edge(idx: usize, n: usize) -> (u32, u32) {
    // Row-major over the strict upper triangle.
    let mut u = 0usize;
    let mut remaining = idx;
    let mut row_len = n - 1;
    while remaining >= row_len {
        remaining -= row_len;
        u += 1;
        row_len -= 1;
    }
    (u as u32, (u + 1 + remaining) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::Graph;

    #[test]
    fn exact_edge_count() {
        let g = erdos_renyi(100, 500, 42);
        assert_eq!(g.num_edges(), 500);
        g.validate().unwrap();
    }

    #[test]
    fn deterministic() {
        let g1 = erdos_renyi(50, 100, 9);
        let g2 = erdos_renyi(50, 100, 9);
        assert_eq!(
            g1.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn dense_request_uses_floyd_path() {
        // 10 vertices, 45 possible edges; ask for 40 (> 1/3 of max).
        let g = erdos_renyi(10, 40, 3);
        assert_eq!(g.num_edges(), 40);
        g.validate().unwrap();
    }

    #[test]
    fn complete_graph() {
        let g = erdos_renyi(8, 28, 1);
        assert_eq!(g.num_edges(), 28);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 7);
        }
    }

    #[test]
    fn unrank_covers_triangle() {
        let n = 6;
        let mut seen = std::collections::HashSet::new();
        for idx in 0..(n * (n - 1) / 2) {
            let (u, v) = unrank_edge(idx, n);
            assert!(u < v && (v as usize) < n);
            assert!(seen.insert((u, v)));
        }
    }

    #[test]
    #[should_panic(expected = "exceeds max")]
    fn too_many_edges_panics() {
        erdos_renyi(4, 7, 0);
    }

    #[test]
    fn zero_edges() {
        let g = erdos_renyi(10, 0, 0);
        assert_eq!(g.num_edges(), 0);
    }
}

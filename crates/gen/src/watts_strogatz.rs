//! Watts–Strogatz small-world graphs (Nature 1998) — the canonical
//! "small-world (short paths)" model the paper's title refers to. Used in
//! tests and examples as a second small-world family beside R-MAT.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snap_graph::{CsrGraph, GraphBuilder, VertexId};

/// Generate a Watts–Strogatz graph: a ring lattice on `n` vertices where
/// every vertex connects to its `k` nearest neighbors on each side
/// (`2k`-regular before rewiring), with each edge rewired to a uniformly
/// random endpoint with probability `p`.
///
/// Deterministic given `seed`. Self-loops and duplicate edges produced by
/// rewiring are skipped (the edge is kept in place instead), so the edge
/// count is exactly `n * k`.
pub fn watts_strogatz(n: usize, k: usize, p: f64, seed: u64) -> CsrGraph {
    assert!(k >= 1, "k must be positive");
    assert!(2 * k < n, "ring lattice requires 2k < n");
    assert!((0.0..=1.0).contains(&p));
    let mut rng = StdRng::seed_from_u64(seed);

    // Adjacency sets for duplicate detection during rewiring.
    let mut adj: Vec<std::collections::BTreeSet<VertexId>> =
        vec![std::collections::BTreeSet::new(); n];
    let add = |adj: &mut Vec<std::collections::BTreeSet<VertexId>>, u: usize, v: usize| {
        adj[u].insert(v as VertexId);
        adj[v].insert(u as VertexId);
    };
    for u in 0..n {
        for j in 1..=k {
            let v = (u + j) % n;
            add(&mut adj, u, v);
        }
    }
    // Rewire each original lattice edge (u, u+j) with probability p.
    for u in 0..n {
        for j in 1..=k {
            let v = (u + j) % n;
            if rng.gen::<f64>() < p {
                // Pick a new endpoint != u and not already adjacent.
                let mut tries = 0;
                loop {
                    let w = rng.gen_range(0..n);
                    if w != u && !adj[u].contains(&(w as VertexId)) {
                        adj[u].remove(&(v as VertexId));
                        adj[v].remove(&(u as VertexId));
                        add(&mut adj, u, w);
                        break;
                    }
                    tries += 1;
                    if tries > 32 {
                        break; // saturated neighborhood; keep the edge
                    }
                }
            }
        }
    }

    let mut edges = Vec::with_capacity(n * k);
    for (u, set) in (0..).zip(&adj) {
        edges.extend(set.range(u + 1..).map(|&v| (u, v, 1)));
    }
    GraphBuilder::undirected(n).with_edges(edges).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::Graph;

    #[test]
    fn unrewired_lattice_is_regular() {
        let g = watts_strogatz(20, 2, 0.0, 0);
        assert_eq!(g.num_edges(), 40);
        for v in g.vertices() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn edge_count_preserved_under_rewiring() {
        let g = watts_strogatz(100, 3, 0.3, 7);
        assert_eq!(g.num_edges(), 300);
        g.validate().unwrap();
    }

    #[test]
    fn full_rewiring_still_valid() {
        let g = watts_strogatz(64, 2, 1.0, 3);
        assert_eq!(g.num_edges(), 128);
        g.validate().unwrap();
    }

    #[test]
    fn deterministic() {
        let a = watts_strogatz(50, 2, 0.2, 11);
        let b = watts_strogatz(50, 2, 0.2, 11);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "2k < n")]
    fn rejects_overfull_lattice() {
        watts_strogatz(4, 2, 0.0, 0);
    }
}

//! Road-network-like graphs — the "Physical (road)" row of Table 1.
//!
//! Real road networks are near-planar with near-constant degree and
//! `O(sqrt n)` diameter. A 2D grid with a sprinkle of removed edges
//! (dead ends) and local diagonal shortcuts reproduces exactly the
//! properties Table 1 exercises: high locality, so balanced cuts are cheap.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snap_graph::{CsrGraph, GraphBuilder, VertexId};

/// Generate a `rows x cols` road-like grid.
///
/// * `drop_prob` — fraction of grid edges removed (dead ends, ~5% is
///   realistic); kept low enough that the graph stays connected w.h.p.
/// * `diagonal_prob` — probability of adding a local diagonal shortcut in
///   each grid cell (models ring roads / diagonals).
pub fn road_grid(
    rows: usize,
    cols: usize,
    drop_prob: f64,
    diagonal_prob: f64,
    seed: u64,
) -> CsrGraph {
    assert!(rows >= 1 && cols >= 1);
    assert!((0.0..1.0).contains(&drop_prob));
    assert!((0.0..=1.0).contains(&diagonal_prob));
    let n = rows * cols;
    let mut rng = StdRng::seed_from_u64(seed);
    let id = |r: usize, c: usize| (r * cols + c) as VertexId;
    let mut edges = Vec::with_capacity(2 * n);
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols && rng.gen::<f64>() >= drop_prob {
                edges.push((id(r, c), id(r, c + 1), 1));
            }
            if r + 1 < rows && rng.gen::<f64>() >= drop_prob {
                edges.push((id(r, c), id(r + 1, c), 1));
            }
            if r + 1 < rows && c + 1 < cols && rng.gen::<f64>() < diagonal_prob {
                edges.push((id(r, c), id(r + 1, c + 1), 1));
            }
            if r + 1 < rows && c >= 1 && rng.gen::<f64>() < diagonal_prob {
                edges.push((id(r, c), id(r + 1, c - 1), 1));
            }
        }
    }
    GraphBuilder::undirected(n).with_edges(edges).build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::Graph;

    #[test]
    fn pure_grid_edge_count() {
        // rows*(cols-1) + cols*(rows-1) edges for a clean grid.
        let g = road_grid(10, 8, 0.0, 0.0, 0);
        assert_eq!(g.num_vertices(), 80);
        assert_eq!(g.num_edges(), 10 * 7 + 8 * 9);
    }

    #[test]
    fn degrees_bounded_by_locality() {
        let g = road_grid(20, 20, 0.05, 0.3, 1);
        // 4 grid + up to 2 diagonals touching each vertex.
        assert!(g.max_degree() <= 8);
    }

    #[test]
    fn deterministic() {
        let a = road_grid(15, 15, 0.05, 0.2, 5);
        let b = road_grid(15, 15, 0.05, 0.2, 5);
        assert_eq!(a.edges().collect::<Vec<_>>(), b.edges().collect::<Vec<_>>());
    }

    #[test]
    fn single_row_is_a_path() {
        let g = road_grid(1, 6, 0.0, 0.0, 0);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(3), 2);
    }

    #[test]
    fn drop_prob_removes_edges() {
        let full = road_grid(30, 30, 0.0, 0.0, 2);
        let sparse = road_grid(30, 30, 0.2, 0.0, 2);
        assert!(sparse.num_edges() < full.num_edges());
    }
}

//! Multilevel bisection: coarsen with heavy-edge matching until the graph
//! is small, bisect by BFS region growing, then project back up with FM
//! refinement at every level — the pmetis/kmetis skeleton Table 1
//! compares against.

use crate::coarsen::coarsen;
use crate::fm::fm_refine_budgeted;
use snap_budget::Budget;
use snap_graph::{CsrGraph, Graph, VertexId};
use snap_kernels::bfs;

/// Stop coarsening when the graph has at most this many vertices.
const COARSE_LIMIT: usize = 64;

/// FM passes per level.
const FM_PASSES: usize = 6;

/// Allowed balance deviation, of every bisection and of the k-way
/// refinement.
pub(crate) const TOLERANCE: f64 = 0.03;

/// Bisect `g` targeting total vertex weight `target0` on side 0, with
/// `seed` driving the matching order and the initial-growth tie-breaks.
/// Returns a 0/1 side label per vertex. FM refinement at every level is
/// budgeted, and once the budget trips remaining levels project the
/// coarse side up without refining. The result is always a valid (if
/// rougher) bisection.
pub(crate) fn multilevel_bisect_budgeted(
    g: &CsrGraph,
    vwgt: &[u32],
    target0: u64,
    seed: u64,
    budget: &Budget,
) -> Vec<u8> {
    let n = g.num_vertices();
    if budget.is_exhausted() {
        // Degraded split: fill side 0 to the target weight in index
        // order — balanced, no coarsening or refinement work.
        let mut side = vec![1u8; n];
        let mut load0 = 0u64;
        for v in 0..n {
            if load0 >= target0 {
                break;
            }
            side[v] = 0;
            load0 += vwgt[v] as u64;
        }
        return side;
    }
    let _ = budget.charge(n as u64 + 1);
    let level = (n > COARSE_LIMIT)
        .then(|| coarsen(g, vwgt, seed))
        // Coarsening stall (e.g. star graphs): bisect directly.
        .filter(|level| level.graph.num_vertices() as f64 <= 0.95 * n as f64);
    let mut side = match level {
        Some(level) => {
            let sub_seed = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let coarse_side =
                multilevel_bisect_budgeted(&level.graph, &level.vwgt, target0, sub_seed, budget);
            // Project to the fine level.
            (0..n).map(|v| coarse_side[level.map[v] as usize]).collect()
        }
        None => initial_bisect(g, vwgt, target0, seed),
    };
    fm_refine_budgeted(g, vwgt, &mut side, target0, TOLERANCE, FM_PASSES, budget);
    side
}

/// Initial bisection by BFS region growing from a pseudo-peripheral
/// vertex: grab vertices in BFS order until side 0 reaches the target
/// weight.
fn initial_bisect(g: &CsrGraph, vwgt: &[u32], target0: u64, seed: u64) -> Vec<u8> {
    let _span = snap_obs::span("partition.initial");
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    // Pseudo-peripheral start: BFS from an arbitrary vertex, restart from
    // the farthest vertex found.
    let start = (seed % n as u64) as VertexId;
    let first = bfs(g, start);
    let far = first
        .dist
        .iter()
        .enumerate()
        .filter(|&(_, &d)| d != snap_kernels::UNREACHABLE)
        .max_by_key(|&(_, &d)| d)
        .map(|(v, _)| v as VertexId)
        .unwrap_or(start);

    let mut side = vec![1u8; n];
    let mut load0 = 0u64;
    let order = snap_kernels::bfs_limited(g, far, n);
    for (v, _) in order {
        if load0 >= target0 {
            break;
        }
        side[v as usize] = 0;
        load0 += vwgt[v as usize] as u64;
    }
    // Disconnected graphs: BFS order may not reach the target; top up
    // from unvisited vertices.
    if load0 < target0 {
        for v in 0..n {
            if load0 >= target0 {
                break;
            }
            if side[v] == 1 {
                side[v] = 0;
                load0 += vwgt[v] as u64;
            }
        }
    }
    side
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fm::bisection_cut;
    use snap_graph::builder::from_edges;

    /// Halve `g` with unit vertex weights at seed 1; report the cut.
    fn bisect_with_cut(g: &CsrGraph) -> (Vec<u8>, u64) {
        let vwgt = vec![1u32; g.num_vertices()];
        let target0 = (g.num_vertices() as u64).div_ceil(2);
        let side = multilevel_bisect_budgeted(g, &vwgt, target0, 1, &Budget::unlimited());
        let cut = bisection_cut(g, &side);
        (side, cut)
    }

    #[test]
    fn bisects_barbell_at_bridge() {
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let (side, cut) = bisect_with_cut(&g);
        assert_eq!(cut, 1);
        assert_eq!(side[0], side[1]);
        assert_eq!(side[3], side[5]);
        assert_ne!(side[0], side[3]);
    }

    #[test]
    fn grid_bisection_is_near_minimal() {
        // 8x8 grid: optimal balanced cut is 8.
        let mut edges = Vec::new();
        let id = |r: u32, c: u32| r * 8 + c;
        for r in 0..8u32 {
            for c in 0..8u32 {
                if c + 1 < 8 {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < 8 {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        let g = from_edges(64, &edges);
        let (side, cut) = bisect_with_cut(&g);
        let n0 = side.iter().filter(|&&s| s == 0).count();
        assert!((28..=36).contains(&n0), "balance {n0}");
        assert!(cut <= 14, "cut {cut} too far from optimal 8");
    }

    #[test]
    fn multilevel_path_hits_larger_graphs() {
        // Ring of 300 forces several coarsening levels.
        let edges: Vec<(u32, u32)> = (0..300u32).map(|v| (v, (v + 1) % 300)).collect();
        let g = from_edges(300, &edges);
        let (side, cut) = bisect_with_cut(&g);
        let n0 = side.iter().filter(|&&s| s == 0).count();
        assert!((135..=165).contains(&n0), "balance {n0}");
        assert_eq!(cut, 2, "a ring's optimal bisection cuts 2 edges");
    }

    #[test]
    fn single_vertex() {
        let g = from_edges(1, &[]);
        let (side, cut) = bisect_with_cut(&g);
        assert_eq!(side.len(), 1);
        assert_eq!(cut, 0);
    }
}

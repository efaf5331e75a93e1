//! Multilevel bisection: coarsen with heavy-edge matching until the graph
//! is small, bisect by BFS region growing, then project back up with FM
//! refinement at every level — the pmetis/kmetis skeleton Table 1
//! compares against.

use crate::coarsen::coarsen;
use crate::fm::{bisection_cut, fm_refine_budgeted};
use snap_budget::Budget;
use snap_graph::{CsrGraph, Graph, VertexId};
use snap_kernels::bfs;

/// Tuning knobs for the multilevel bisection.
#[derive(Clone, Copy, Debug)]
pub struct BisectConfig {
    /// Stop coarsening when the graph has at most this many vertices.
    pub coarse_limit: usize,
    /// FM passes per level.
    pub fm_passes: usize,
    /// Allowed balance deviation.
    pub tolerance: f64,
    /// RNG seed (matching order, initial-growth tie-breaks).
    pub seed: u64,
}

impl Default for BisectConfig {
    fn default() -> Self {
        BisectConfig {
            coarse_limit: 64,
            fm_passes: 6,
            tolerance: 0.03,
            seed: 1,
        }
    }
}

/// Bisect `g` targeting total vertex weight `target0` on side 0.
/// Returns a 0/1 side label per vertex.
pub fn multilevel_bisect(g: &CsrGraph, vwgt: &[u32], target0: u64, cfg: &BisectConfig) -> Vec<u8> {
    multilevel_bisect_budgeted(g, vwgt, target0, cfg, &Budget::unlimited())
}

/// [`multilevel_bisect`] under a compute [`Budget`]: FM refinement at
/// every level is budgeted, and once the budget trips remaining levels
/// project the coarse side up without refining. The result is always a
/// valid (if rougher) bisection.
pub(crate) fn multilevel_bisect_budgeted(
    g: &CsrGraph,
    vwgt: &[u32],
    target0: u64,
    cfg: &BisectConfig,
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
    let level = (n > cfg.coarse_limit)
        .then(|| coarsen(g, vwgt, cfg.seed))
        // Coarsening stall (e.g. star graphs): bisect directly.
        .filter(|level| level.graph.num_vertices() as f64 <= 0.95 * n as f64);
    let mut side = match level {
        Some(level) => {
            let mut sub_cfg = *cfg;
            sub_cfg.seed = cfg.seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
            let coarse_side =
                multilevel_bisect_budgeted(&level.graph, &level.vwgt, target0, &sub_cfg, budget);
            // Project to the fine level.
            (0..n).map(|v| coarse_side[level.map[v] as usize]).collect()
        }
        None => initial_bisect(g, vwgt, target0, cfg.seed),
    };
    fm_refine_budgeted(
        g,
        vwgt,
        &mut side,
        target0,
        cfg.tolerance,
        cfg.fm_passes,
        budget,
    );
    side
}

/// Initial bisection by BFS region growing from a pseudo-peripheral
/// vertex: grab vertices in BFS order until side 0 reaches the target
/// weight.
pub fn initial_bisect(g: &CsrGraph, vwgt: &[u32], target0: u64, seed: u64) -> Vec<u8> {
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

/// Convenience: bisect and report the cut.
pub fn bisect_with_cut(g: &CsrGraph, cfg: &BisectConfig) -> (Vec<u8>, u64) {
    let vwgt = vec![1u32; g.num_vertices()];
    let target0 = (g.num_vertices() as u64).div_ceil(2);
    let side = multilevel_bisect(g, &vwgt, target0, cfg);
    let cut = bisection_cut(g, &side);
    (side, cut)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn bisects_barbell_at_bridge() {
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let (side, cut) = bisect_with_cut(&g, &BisectConfig::default());
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
        let (side, cut) = bisect_with_cut(&g, &BisectConfig::default());
        let n0 = side.iter().filter(|&&s| s == 0).count();
        assert!((28..=36).contains(&n0), "balance {n0}");
        assert!(cut <= 14, "cut {cut} too far from optimal 8");
    }

    #[test]
    fn multilevel_path_hits_larger_graphs() {
        // Ring of 300 forces several coarsening levels.
        let edges: Vec<(u32, u32)> = (0..300u32).map(|v| (v, (v + 1) % 300)).collect();
        let g = from_edges(300, &edges);
        let (side, cut) = bisect_with_cut(&g, &BisectConfig::default());
        let n0 = side.iter().filter(|&&s| s == 0).count();
        assert!((135..=165).contains(&n0), "balance {n0}");
        assert_eq!(cut, 2, "a ring's optimal bisection cuts 2 edges");
    }

    #[test]
    fn single_vertex() {
        let g = from_edges(1, &[]);
        let (side, cut) = bisect_with_cut(&g, &BisectConfig::default());
        assert_eq!(side.len(), 1);
        assert_eq!(cut, 0);
    }
}

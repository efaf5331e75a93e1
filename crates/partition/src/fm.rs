//! Fiduccia–Mattheyses boundary refinement for bisections: greedy
//! single-vertex moves with lock-out, tracking the best prefix of the
//! move sequence and reverting past it. The refinement step of the
//! multilevel partitioners.

use snap_budget::Budget;
use snap_graph::{CsrGraph, Graph, VertexId, WeightedGraph};
use std::collections::BinaryHeap;

/// Gains: `ext(v) - int(v)` in edge weight.
fn gain(g: &CsrGraph, side: &[u8], v: VertexId) -> i64 {
    let sv = side[v as usize];
    let mut ext = 0i64;
    let mut int = 0i64;
    for (u, e) in g.neighbors_with_eid(v) {
        let w = g.edge_weight(e) as i64;
        if side[u as usize] == sv {
            int += w;
        } else {
            ext += w;
        }
    }
    ext - int
}

/// Current cut weight of a bisection.
pub fn bisection_cut(g: &CsrGraph, side: &[u8]) -> u64 {
    let mut cut = 0u64;
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        if side[u as usize] != side[v as usize] {
            cut += g.edge_weight(e) as u64;
        }
    }
    cut
}

/// Refine a bisection in place.
///
/// * `vwgt` — vertex weights;
/// * `target0` — desired total weight of side 0;
/// * `tolerance` — allowed relative deviation (e.g. 0.05 = ±5%);
/// * `max_passes` — FM passes (each pass is a greedy move sequence that
///   ends after `max(n/8, 100)` consecutive moves setting no new best
///   prefix, then rolls back to that prefix).
pub fn fm_refine(
    g: &CsrGraph,
    vwgt: &[u32],
    side: &mut [u8],
    target0: u64,
    tolerance: f64,
    max_passes: usize,
) {
    fm_refine_budgeted(
        g,
        vwgt,
        side,
        target0,
        tolerance,
        max_passes,
        &Budget::unlimited(),
    );
}

/// [`fm_refine`] under a compute [`Budget`]: passes stop early when the
/// budget trips. A pass interrupted mid-sequence still rolls back to its
/// best prefix, so `side` is always left in a valid (refined-so-far)
/// state.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fm_refine_budgeted(
    g: &CsrGraph,
    vwgt: &[u32],
    side: &mut [u8],
    target0: u64,
    tolerance: f64,
    max_passes: usize,
    budget: &Budget,
) {
    let _span = snap_obs::span("partition.fm");
    let n = g.num_vertices();
    if n == 0 {
        return;
    }
    let total: u64 = vwgt.iter().map(|&w| w as u64).sum();
    // Classic FM always allows single-unit excursions (otherwise no move
    // is ever legal from an exactly balanced state), but never so much
    // slack that a side may empty out.
    let max_vwgt = vwgt.iter().copied().max().unwrap_or(1) as i64;
    let slack = ((total as f64 * tolerance).floor() as i64).max(max_vwgt);
    let lo0 = (target0 as i64 - slack).max(1);
    let hi0 = (target0 as i64 + slack).min(total as i64 - 1);

    // A pass ends after this many consecutive moves that set no new best
    // prefix: what lies past the best prefix is rolled back anyway.
    let bound = (n / 8).max(100);
    let mut gains = vec![0i64; n];
    let mut locked = vec![false; n];
    // Lazy max-heap of (gain, vertex).
    let mut heap: BinaryHeap<(i64, VertexId)> = BinaryHeap::with_capacity(n);
    let mut moves: Vec<VertexId> = Vec::new();

    let (mut obs_passes, mut obs_moves, mut obs_gain) = (0u64, 0u64, 0i64);
    let (mut obs_applied, mut obs_pops, mut obs_stale, mut obs_bound_exits) =
        (0u64, 0u64, 0u64, 0u64);
    for _pass in 0..max_passes {
        if budget.check().is_err() {
            break;
        }
        obs_passes += 1;
        let mut load0: i64 = (0..n)
            .filter(|&v| side[v] == 0)
            .map(|v| vwgt[v] as i64)
            .sum();
        for (v, gv) in gains.iter_mut().enumerate() {
            *gv = gain(g, side, v as VertexId);
        }
        locked.fill(false);
        heap.clear();
        heap.extend((0..n as VertexId).map(|v| (gains[v as usize], v)));
        moves.clear();
        let mut cum: i64 = 0;
        let mut best_cum: i64 = 0;
        let mut best_len = 0usize;

        while let Some((gval, v)) = heap.pop() {
            obs_pops += 1;
            if locked[v as usize] || gval != gains[v as usize] {
                obs_stale += 1;
                continue; // stale entry
            }
            if budget.charge(1 + g.degree(v) as u64).is_err() {
                break; // rollback below still restores the best prefix
            }
            // Balance check.
            let w = vwgt[v as usize] as i64;
            let new_load0 = if side[v as usize] == 0 {
                load0 - w
            } else {
                load0 + w
            };
            if new_load0 < lo0 || new_load0 > hi0 {
                continue; // cannot move without breaking balance; skip
            }
            // Apply the move.
            locked[v as usize] = true;
            let sv = side[v as usize];
            side[v as usize] = 1 - sv;
            load0 = new_load0;
            cum += gval;
            moves.push(v);
            if cum > best_cum {
                best_cum = cum;
                best_len = moves.len();
            } else if moves.len() - best_len >= bound {
                obs_bound_exits += 1;
                break;
            }
            // Update neighbor gains.
            for (u, e) in g.neighbors_with_eid(v) {
                if locked[u as usize] {
                    continue;
                }
                let w = g.edge_weight(e) as i64;
                // u's gain changes by ±2w depending on whether v moved to
                // or away from u's side.
                if side[u as usize] == side[v as usize] {
                    gains[u as usize] -= 2 * w;
                } else {
                    gains[u as usize] += 2 * w;
                }
                heap.push((gains[u as usize], u));
            }
        }

        // Roll back past the best prefix.
        for &v in &moves[best_len..] {
            side[v as usize] = 1 - side[v as usize];
        }
        obs_applied += moves.len() as u64;
        obs_moves += best_len as u64;
        if best_cum <= 0 {
            break; // pass produced no improvement
        }
        obs_gain += best_cum;
    }
    if snap_obs::is_enabled() {
        snap_obs::add("fm_passes", obs_passes);
        snap_obs::add("fm_moves", obs_moves);
        snap_obs::add("fm_gain", obs_gain.max(0) as u64);
        snap_obs::add("fm_applied", obs_applied);
        snap_obs::add("fm_pops", obs_pops);
        snap_obs::add("fm_stale", obs_stale);
        snap_obs::add("fm_bound_exits", obs_bound_exits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn improves_a_bad_bisection() {
        // Two triangles + bridge; start with a bad split.
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let mut side = vec![0u8, 1, 0, 1, 0, 1];
        let before = bisection_cut(&g, &side);
        fm_refine(&g, &[1; 6], &mut side, 3, 0.10, 8);
        let after = bisection_cut(&g, &side);
        assert!(after < before, "cut {before} -> {after}");
        assert_eq!(after, 1); // the bridge
    }

    #[test]
    fn respects_balance() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut side = vec![0u8, 0, 1, 1];
        fm_refine(&g, &[1; 4], &mut side, 2, 0.0, 4);
        let load0 = side.iter().filter(|&&s| s == 0).count();
        assert_eq!(load0, 2);
    }

    #[test]
    fn already_optimal_is_stable() {
        let g = from_edges(4, &[(0, 1), (2, 3), (1, 2)]);
        let mut side = vec![0u8, 0, 1, 1];
        fm_refine(&g, &[1; 4], &mut side, 2, 0.0, 4);
        assert_eq!(bisection_cut(&g, &side), 1);
    }

    #[test]
    fn weighted_cut_respected() {
        // Heavy edge must end up uncut.
        let g = snap_graph::GraphBuilder::undirected(4)
            .add_weighted_edges([(0, 1, 10), (1, 2, 1), (2, 3, 10)])
            .build();
        let mut side = vec![0u8, 1, 0, 1];
        // Single-vertex moves need temporary imbalance slack: with
        // tolerance 0 no move is legal from an exactly balanced state.
        fm_refine(&g, &[1; 4], &mut side, 2, 0.3, 8);
        assert_eq!(bisection_cut(&g, &side), 1);
    }
}

//! k-way partitioning: recursive multilevel bisection (the pmetis
//! scheme), optionally followed by direct k-way greedy refinement (the
//! kmetis-flavored variant).

use crate::bisect::{multilevel_bisect_budgeted, BisectConfig};
use crate::metrics::Partition;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use snap_budget::Budget;
use snap_graph::{CsrGraph, Graph, InducedSubgraph, VertexId, WeightedGraph};
use snap_kernels::Exec;

/// Configuration for the k-way partitioners.
#[derive(Clone, Copy, Debug)]
pub struct KwayConfig {
    /// Number of parts.
    pub parts: usize,
    /// Allowed balance deviation.
    pub tolerance: f64,
    /// RNG seed.
    pub seed: u64,
    /// Multilevel knobs.
    pub bisect: BisectConfig,
    /// Direct k-way refinement passes after recursive bisection (0
    /// disables; this is what distinguishes the kmetis-like variant).
    pub kway_refine_passes: usize,
}

impl KwayConfig {
    /// pmetis-like: pure recursive bisection.
    pub fn recursive(parts: usize, seed: u64) -> Self {
        KwayConfig {
            parts,
            tolerance: 0.03,
            seed,
            bisect: BisectConfig {
                seed,
                ..Default::default()
            },
            kway_refine_passes: 0,
        }
    }

    /// kmetis-like: recursive bisection plus direct k-way refinement.
    pub fn kway(parts: usize, seed: u64) -> Self {
        KwayConfig {
            kway_refine_passes: 4,
            ..Self::recursive(parts, seed)
        }
    }
}

/// Partition `g` into `cfg.parts` parts by recursive multilevel
/// bisection (+ optional k-way refinement).
pub fn kway_partition(g: &CsrGraph, cfg: &KwayConfig) -> Partition {
    kway_partition_in(g, cfg, &Exec::default())
}

/// [`kway_partition`] under `exec`'s compute budget. When the budget trips,
/// remaining recursive bisections fall back to unrefined round-robin
/// splits (balanced, every part non-empty) and refinement passes stop
/// early — the returned partition is always valid.
pub fn kway_partition_in(g: &CsrGraph, cfg: &KwayConfig, exec: &Exec) -> Partition {
    let _span = snap_obs::span("partition.multilevel");
    let budget = &exec.budget;
    assert!(cfg.parts >= 1, "parts must be positive");
    let n = g.num_vertices();
    let mut assignment = vec![0u32; n];
    if cfg.parts > 1 && n > 0 {
        let all: Vec<VertexId> = (0..n as VertexId).collect();
        let vwgt = vec![1u32; n];
        let mut next_label = 0u32;
        rb(
            g,
            &vwgt,
            &all,
            cfg.parts,
            cfg.seed,
            &mut next_label,
            &mut assignment,
            &cfg.bisect,
            budget,
        );
    }
    let mut p = Partition {
        assignment,
        parts: cfg.parts,
    };
    if cfg.kway_refine_passes > 0 {
        kway_refine(
            g,
            &mut p,
            cfg.tolerance,
            cfg.kway_refine_passes,
            cfg.seed,
            budget,
        );
    }
    if let Some(why) = budget.exhaustion() {
        snap_obs::meta("degraded", why);
    }
    p
}

/// Recursive bisection worker: partitions the induced subgraph over
/// `vertices` (global ids) into `parts` labels starting at `*next_label`.
#[allow(clippy::too_many_arguments)]
fn rb(
    g: &CsrGraph,
    vwgt: &[u32],
    vertices: &[VertexId],
    parts: usize,
    seed: u64,
    next_label: &mut u32,
    out: &mut [u32],
    bisect_cfg: &BisectConfig,
    budget: &Budget,
) {
    if parts == 1 || vertices.len() <= 1 {
        let label = *next_label;
        *next_label += 1;
        for &v in vertices {
            out[v as usize] = label;
        }
        return;
    }
    if budget.is_exhausted() {
        // Degraded split: round-robin keeps every part balanced and
        // non-empty without any further multilevel work.
        for (i, &v) in vertices.iter().enumerate() {
            out[v as usize] = *next_label + (i % parts) as u32;
        }
        *next_label += parts as u32;
        return;
    }
    let sub = {
        let _span = snap_obs::span("partition.extract");
        InducedSubgraph::extract(g, vertices)
    };
    let sub_vwgt: Vec<u32> = sub.to_global.iter().map(|&v| vwgt[v as usize]).collect();
    let total: u64 = sub_vwgt.iter().map(|&w| w as u64).sum();
    let kl = parts / 2;
    let kr = parts - kl;
    let target0 = total * kl as u64 / parts as u64;

    let mut cfg = *bisect_cfg;
    cfg.seed = seed;
    let side = {
        let _span = snap_obs::span("partition.bisect");
        multilevel_bisect_budgeted(&sub.graph, &sub_vwgt, target0, &cfg, budget)
    };

    let mut left = Vec::with_capacity(vertices.len());
    let mut right = Vec::with_capacity(vertices.len());
    for (local, &global) in sub.to_global.iter().enumerate() {
        if side[local] == 0 {
            left.push(global);
        } else {
            right.push(global);
        }
    }
    // Guarantee each recursion gets at least one vertex per target part
    // (degenerate bisections on tiny subgraphs can empty a side).
    if vertices.len() >= parts {
        while left.len() < kl {
            left.push(right.pop().expect("enough vertices for both sides"));
        }
        while right.len() < kr {
            right.push(left.pop().expect("enough vertices for both sides"));
        }
    }
    let (seed_l, seed_r) = (
        seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(3),
        seed.wrapping_mul(0xc2b2ae3d27d4eb4f).wrapping_add(7),
    );
    rb(
        g, vwgt, &left, kl, seed_l, next_label, out, bisect_cfg, budget,
    );
    rb(
        g, vwgt, &right, kr, seed_r, next_label, out, bisect_cfg, budget,
    );
}

/// Greedy direct k-way refinement: boundary vertices move to the adjacent
/// part with the largest positive gain, balance permitting. Refinement
/// stops at the first exhausted pass boundary or mid-pass vertex; every
/// applied move preserves balance, so the partition stays valid wherever
/// it stops.
fn kway_refine(
    g: &CsrGraph,
    p: &mut Partition,
    tolerance: f64,
    passes: usize,
    seed: u64,
    budget: &Budget,
) {
    let _span = snap_obs::span("partition.kway_refine");
    let n = g.num_vertices();
    let k = p.parts;
    if n == 0 || k <= 1 {
        return;
    }
    let mut loads = vec![0u64; k];
    for &part in &p.assignment {
        loads[part as usize] += 1;
    }
    let ideal = (n as u64).div_ceil(k as u64);
    let max_load = ((ideal as f64) * (1.0 + tolerance)).ceil() as u64;

    let mut order: Vec<VertexId> = (0..n as VertexId).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6b77_6179); // "kway"
    order.shuffle(&mut rng);

    // Edge weight from the vertex into each part (sparse scratch).
    let mut wto = vec![0i64; k];
    let mut touched: Vec<usize> = Vec::with_capacity(k);
    let mut obs_moves = 0u64;
    let mut obs_passes = 0u64;
    'passes: for _ in 0..passes {
        if budget.check().is_err() {
            break;
        }
        obs_passes += 1;
        let mut moved = 0usize;
        for &v in &order {
            if budget.charge(1 + g.degree(v) as u64).is_err() {
                break 'passes;
            }
            let cur = p.assignment[v as usize] as usize;
            for (u, e) in g.neighbors_with_eid(v) {
                let part = p.assignment[u as usize] as usize;
                if wto[part] == 0 {
                    touched.push(part);
                }
                wto[part] += g.edge_weight(e) as i64;
            }
            let mut best = (cur, 0i64);
            // Never drain a part empty: partitions must stay surjective.
            if loads[cur] > 1 {
                for &part in &touched {
                    if part == cur {
                        continue;
                    }
                    let gain = wto[part] - wto[cur];
                    if gain > best.1 && loads[part] < max_load {
                        best = (part, gain);
                    }
                }
            }
            for part in touched.drain(..) {
                wto[part] = 0;
            }
            if best.0 != cur {
                loads[cur] -= 1;
                loads[best.0] += 1;
                p.assignment[v as usize] = best.0 as u32;
                moved += 1;
            }
        }
        obs_moves += moved as u64;
        if moved == 0 {
            break;
        }
    }
    if snap_obs::is_enabled() {
        snap_obs::add("kway_refine_passes", obs_passes);
        snap_obs::add("kway_refine_moves", obs_moves);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, imbalance};
    use snap_graph::builder::from_edges;

    fn grid(rows: u32, cols: u32) -> CsrGraph {
        let mut edges = Vec::new();
        let id = |r: u32, c: u32| r * cols + c;
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < rows {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        from_edges((rows * cols) as usize, &edges)
    }

    #[test]
    fn four_way_grid_partition() {
        let g = grid(12, 12);
        let p = kway_partition(&g, &KwayConfig::recursive(4, 2));
        p.validate().unwrap();
        assert!(
            imbalance(&p, None) < 1.15,
            "imbalance {}",
            imbalance(&p, None)
        );
        // A 12x12 grid 4-way cut should be near 2 * 12.
        let cut = edge_cut(&g, &p);
        assert!(cut <= 48, "cut {cut}");
    }

    #[test]
    fn kway_refinement_does_not_hurt() {
        let g = grid(10, 10);
        let rec = kway_partition(&g, &KwayConfig::recursive(5, 3));
        let kwy = kway_partition(&g, &KwayConfig::kway(5, 3));
        assert!(edge_cut(&g, &kwy) <= edge_cut(&g, &rec) + 5);
        assert!(imbalance(&kwy, None) < 1.25);
    }

    #[test]
    fn single_part_is_trivial() {
        let g = grid(4, 4);
        let p = kway_partition(&g, &KwayConfig::recursive(1, 0));
        assert_eq!(edge_cut(&g, &p), 0);
        assert_eq!(p.sizes(), vec![16]);
    }

    #[test]
    fn nonpower_of_two_parts() {
        let g = grid(9, 9);
        let p = kway_partition(&g, &KwayConfig::recursive(3, 5));
        p.validate().unwrap();
        assert_eq!(p.parts, 3);
        let sizes = p.sizes();
        assert!(sizes.iter().all(|&s| s > 0));
        assert!(imbalance(&p, None) < 1.25, "sizes {sizes:?}");
    }

    #[test]
    fn part_count_exceeding_vertices_degenerates_gracefully() {
        let g = from_edges(3, &[(0, 1), (1, 2)]);
        let p = kway_partition(&g, &KwayConfig::recursive(8, 0));
        p.validate().unwrap();
    }
}

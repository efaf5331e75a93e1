//! Single-source shortest paths: Dijkstra (reference) and Δ-stepping
//! (Meyer & Sanders), the parallel SSSP formulation used by SNAP
//! (Madduri, Bader, Berry & Crobak, ALENEX 2007).
//!
//! Δ-stepping buckets tentative distances in width-Δ ranges; within a
//! bucket, *light* edges (w ≤ Δ) are relaxed to a fixpoint with the
//! relaxation requests generated in parallel, then *heavy* edges are
//! relaxed once. With Δ = max weight this degrades to Bellman-Ford-ish
//! phases; with Δ = 1 (unweighted) it is level-synchronous BFS.
//!
//! The bucket array lives in the shared [`Buckets`] structure (also
//! under k-core peeling). Shortest-path distances are unique, so
//! [`dijkstra`] is the reference every Δ-stepping test compares against.

use crate::buckets::Buckets;
use crate::Exec;
use rayon::prelude::*;
use snap_budget::Exhausted;
use snap_graph::{VertexId, WeightedGraph};

/// Distance assigned to unreachable vertices.
pub const INF: u64 = u64::MAX;

/// Shortest-path distances from a single source.
#[derive(Clone, Debug)]
pub struct SsspResult {
    /// Weighted distance from the source (`INF` if unreachable).
    pub dist: Vec<u64>,
}

/// Binary-heap Dijkstra. Ground truth for Δ-stepping.
pub fn dijkstra<G: WeightedGraph>(g: &G, source: VertexId) -> SsspResult {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let n = g.num_vertices();
    if n == 0 {
        return SsspResult { dist: Vec::new() };
    }
    let mut dist = vec![INF; n];
    let mut heap = BinaryHeap::new();
    dist[source as usize] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u as usize] {
            continue;
        }
        for (v, _, w) in g.neighbors_weighted(u) {
            let nd = d + w as u64;
            if nd < dist[v as usize] {
                dist[v as usize] = nd;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    SsspResult { dist }
}

/// Δ-stepping SSSP. `delta = 0` selects a heuristic Δ (average edge
/// weight, clamped to ≥ 1).
pub fn delta_stepping<G: WeightedGraph>(g: &G, source: VertexId, delta: u64) -> SsspResult {
    try_delta_stepping(g, source, delta, &Exec::default())
        .expect("unlimited budget cannot be exhausted")
}

/// Heuristic Δ when the caller passes 0: average weight over live arcs,
/// clamped to ≥ 1. A flat sweep over `0..num_edges()` would be wrong on
/// filtered views, whose live edge ids are an arbitrary subset of
/// `0..edge_id_bound()`.
fn pick_delta<G: WeightedGraph>(g: &G, delta: u64) -> u64 {
    if delta != 0 {
        return delta;
    }
    let mut total = 0u64;
    let mut arcs = 0u64;
    for v in g.vertices() {
        for (_, _, w) in g.neighbors_weighted(v) {
            total += w as u64;
            arcs += 1;
        }
    }
    total.checked_div(arcs).map_or(1, |avg| avg.max(1))
}

/// [`delta_stepping`] under `exec`'s compute budget: probed once per bucket
/// and per light-edge phase, charged per relaxation request. Partial
/// tentative distances are not shortest paths, so exhaustion aborts with
/// `Err` rather than degrading.
pub fn try_delta_stepping<G: WeightedGraph>(
    g: &G,
    source: VertexId,
    delta: u64,
    exec: &Exec,
) -> Result<SsspResult, Exhausted> {
    let _span = snap_obs::span("sssp.delta_stepping");
    let budget = &exec.budget;
    let n = g.num_vertices();
    if n == 0 {
        return Ok(SsspResult { dist: Vec::new() });
    }
    let delta = pick_delta(g, delta);

    let mut dist = vec![INF; n];
    dist[source as usize] = 0;
    // Buckets by floor(dist / delta); relaxations inside bucket i clamp
    // to i (Buckets::update), reproducing the classic formulation.
    let mut bk = Buckets::new(n);
    bk.insert(source, 0);

    // Instrumentation tallies live in plain locals and flush once at the
    // end — the relaxation loops never touch an atomic.
    let mut obs_light_requests = 0u64;
    let mut obs_heavy_requests = 0u64;
    let mut obs_relaxations = 0u64;
    let mut obs_re_relaxations = 0u64;
    let mut obs_phases = 0u64;
    let mut obs_buckets = 0u64;
    // Per-bucket latency: buckets touched early carry most of the light
    // fixpoint work on small-diameter graphs, so the distribution (not the
    // mean) is the Δ-tuning signal.
    let bucket_us = snap_obs::hist("bucket_us");

    while bk.next_bucket().is_some() {
        if let Err(why) = budget.check() {
            snap_obs::meta("cancelled", why);
            snap_obs::add("budget_cancellations", 1);
            return Err(why);
        }
        obs_buckets += 1;
        let bucket_timer = bucket_us.start();
        let mut settled: Vec<VertexId> = Vec::new();
        // Light-edge fixpoint within the current bucket.
        loop {
            let current = bk.pop_current();
            if current.is_empty() {
                break;
            }
            if budget.is_exhausted() {
                let why = budget.exhaustion().unwrap_or(Exhausted::Deadline);
                snap_obs::meta("cancelled", why);
                snap_obs::add("budget_cancellations", 1);
                return Err(why);
            }
            obs_phases += 1;
            // Generate relaxation requests for light edges in parallel;
            // `is_pending` skips entries made stale by lazy relocation.
            let requests: Vec<(VertexId, u64)> = current
                .par_iter()
                .filter(|&&u| bk.is_pending(u))
                .flat_map_iter(|&u| {
                    let du = dist[u as usize];
                    g.neighbors_weighted(u).filter_map(move |(v, _, w)| {
                        let w = w as u64;
                        if w <= delta {
                            Some((v, du + w))
                        } else {
                            None
                        }
                    })
                })
                .collect();
            for &u in &current {
                if bk.is_pending(u) {
                    bk.settle(u);
                    settled.push(u);
                }
            }
            obs_light_requests += requests.len() as u64;
            let _ = budget.charge(requests.len() as u64 + 1);
            let (relaxed, re_relaxed) = apply_requests(requests, &mut dist, &mut bk, delta);
            obs_relaxations += relaxed;
            obs_re_relaxations += re_relaxed;
        }
        // Heavy edges of settled vertices, relaxed once.
        let requests: Vec<(VertexId, u64)> = settled
            .par_iter()
            .flat_map_iter(|&u| {
                let du = dist[u as usize];
                g.neighbors_weighted(u).filter_map(move |(v, _, w)| {
                    let w = w as u64;
                    if w > delta {
                        Some((v, du + w))
                    } else {
                        None
                    }
                })
            })
            .collect();
        obs_heavy_requests += requests.len() as u64;
        let _ = budget.charge(requests.len() as u64 + 1);
        let (relaxed, re_relaxed) = apply_requests(requests, &mut dist, &mut bk, delta);
        obs_relaxations += relaxed;
        obs_re_relaxations += re_relaxed;
        bucket_us.stop_us(bucket_timer);
    }

    if snap_obs::is_enabled() {
        snap_obs::add("buckets", obs_buckets);
        snap_obs::add("light_phases", obs_phases);
        snap_obs::add("light_requests", obs_light_requests);
        snap_obs::add("heavy_requests", obs_heavy_requests);
        snap_obs::add("relaxations", obs_relaxations);
        snap_obs::add("re_relaxations", obs_re_relaxations);
        snap_obs::gauge("delta", delta as f64);
    }
    bk.flush_obs();
    Ok(SsspResult { dist })
}

/// Apply relaxation requests; returns `(relaxations, re_relaxations)` —
/// improvements applied, and the subset that overwrote an already-finite
/// tentative distance (wasted earlier work, the Δ-tuning signal).
fn apply_requests(
    requests: Vec<(VertexId, u64)>,
    dist: &mut [u64],
    bk: &mut Buckets,
    delta: u64,
) -> (u64, u64) {
    let mut relaxed = 0u64;
    let mut re_relaxed = 0u64;
    for (v, nd) in requests {
        if nd < dist[v as usize] {
            relaxed += 1;
            if dist[v as usize] != INF {
                re_relaxed += 1;
            }
            dist[v as usize] = nd;
            // `update` clamps to the bucket being processed (light
            // relaxations can't go backwards) and handles lazy
            // relocation: the old entry goes stale and is skipped by the
            // `is_pending` filter on pop.
            bk.update(v, (nd / delta) as usize);
        }
    }
    (relaxed, re_relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::GraphBuilder;

    fn weighted(n: usize, edges: &[(u32, u32, u32)]) -> snap_graph::CsrGraph {
        GraphBuilder::undirected(n)
            .add_weighted_edges(edges.iter().copied())
            .build()
    }

    #[test]
    fn dijkstra_on_weighted_path() {
        let g = weighted(4, &[(0, 1, 5), (1, 2, 3), (2, 3, 2)]);
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist, vec![0, 5, 8, 10]);
    }

    #[test]
    fn dijkstra_prefers_light_detour() {
        let g = weighted(3, &[(0, 2, 10), (0, 1, 3), (1, 2, 3)]);
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist[2], 6);
    }

    #[test]
    fn delta_stepping_matches_dijkstra_small() {
        let g = weighted(
            6,
            &[
                (0, 1, 7),
                (0, 2, 9),
                (0, 5, 14),
                (1, 2, 10),
                (1, 3, 15),
                (2, 3, 11),
                (2, 5, 2),
                (3, 4, 6),
                (4, 5, 9),
            ],
        );
        let a = dijkstra(&g, 0);
        for delta in [1, 3, 5, 20, 0] {
            let b = delta_stepping(&g, 0, delta);
            assert_eq!(a.dist, b.dist, "delta = {delta}");
        }
    }

    #[test]
    fn delta_stepping_matches_dijkstra_random() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let n = 60;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                if rng.gen::<f64>() < 0.1 {
                    edges.push((u, v, rng.gen_range(1..50)));
                }
            }
        }
        let g = weighted(n, &edges);
        let a = dijkstra(&g, 0);
        let b = delta_stepping(&g, 0, 0);
        assert_eq!(a.dist, b.dist);
    }

    #[test]
    fn bucketed_matches_flat_reference_bit_identical() {
        // Lazy deletion and clamping in `Buckets` may reorder work but
        // must not change a single distance, for any source or Δ.
        // Shortest-path distances are unique, so Dijkstra is the
        // reference.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(97);
        let n = 200;
        let mut edges = Vec::new();
        for u in 0..n as u32 {
            for v in u + 1..n as u32 {
                if rng.gen::<f64>() < 0.04 {
                    edges.push((u, v, rng.gen_range(1..64)));
                }
            }
        }
        let g = weighted(n, &edges);
        for source in [0u32, 17, 59] {
            let a = dijkstra(&g, source);
            for delta in [0u64, 1, 4, 16, 100] {
                let b = delta_stepping(&g, source, delta);
                assert_eq!(a.dist, b.dist, "source = {source}, delta = {delta}");
            }
        }
    }

    #[test]
    fn unreachable_vertices() {
        let g = weighted(4, &[(0, 1, 2)]);
        let r = dijkstra(&g, 0);
        assert_eq!(r.dist[2], INF);
        let d = delta_stepping(&g, 0, 1);
        assert_eq!(d.dist[2], INF);
    }

    #[test]
    fn empty_graph_and_no_edges() {
        let g = weighted(0, &[]);
        assert!(dijkstra(&g, 0).dist.is_empty());
        assert!(delta_stepping(&g, 0, 0).dist.is_empty());
        // Edgeless graph with vertices: heuristic delta must not index
        // any edge weight.
        let g = weighted(3, &[]);
        let d = delta_stepping(&g, 1, 0);
        assert_eq!(d.dist, vec![INF, 0, INF]);
    }

    #[test]
    fn zero_weight_edges_heuristic_delta() {
        // All-zero weights: heuristic average is 0, must clamp to 1.
        let g = weighted(4, &[(0, 1, 0), (1, 2, 0), (2, 3, 5)]);
        let a = dijkstra(&g, 0);
        let b = delta_stepping(&g, 0, 0);
        assert_eq!(a.dist, b.dist);
        assert_eq!(b.dist, vec![0, 0, 0, 5]);
    }

    #[test]
    fn heuristic_delta_on_filtered_view() {
        // Live edge ids of a filtered view are a sparse subset of the
        // base id space; the heuristic must average only live arcs.
        use snap_graph::FilteredGraph;
        let g = weighted(5, &[(0, 1, 2), (1, 2, 40), (0, 2, 3), (2, 3, 4), (3, 4, 6)]);
        let mut f = FilteredGraph::new(&g);
        f.delete_edge(1); // drop the heavy (1, 2) edge
        let a = dijkstra(&f, 0);
        let b = delta_stepping(&f, 0, 0);
        assert_eq!(a.dist, b.dist);
    }

    #[test]
    fn unweighted_delta_one_is_bfs() {
        let g = snap_graph::builder::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let d = delta_stepping(&g, 0, 1);
        assert_eq!(d.dist, vec![0, 1, 2, 3, 4]);
    }
}

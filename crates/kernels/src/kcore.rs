//! Parallel k-core decomposition (coreness) by bucket peeling.
//!
//! The *k-core* of a graph is the maximal subgraph in which every
//! vertex has degree ≥ k; a vertex's **coreness** is the largest k for
//! which it belongs to the k-core. Classic SNAP ships this as
//! `GetKCore`; NetworKit and Julienne treat it as the canonical
//! bucketing workload. The peeling algorithm (Matula & Beck) repeatedly
//! removes the minimum-degree vertices: everything removed while the
//! minimum is k has coreness k.
//!
//! This implementation runs the peel on the shared `Buckets`
//! structure: vertices are bucketed by current degree, the lowest
//! bucket k is drained in rounds — each round settles the bucket's
//! pending vertices at coreness k, gathers the induced degree
//! decrements from their unsettled neighbors in parallel, and applies
//! them sequentially (deterministic, so 1/4/8-thread runs agree
//! bit-for-bit) with `Buckets::update` clamping every decrement at k:
//! a vertex cannot leave the core level currently being peeled.
//!
//! Observability: the kernel spans `kcore.peel`, counts `kcore_rounds`
//! and `kcore_decrements`, gauges `max_core`, and the bucket structure
//! contributes `bucket_relaxations`.

use crate::buckets::Buckets;
use crate::Exec;
use rayon::prelude::*;
use snap_budget::Exhausted;
use snap_graph::{Graph, VertexId};

/// Output of [`coreness`].
#[derive(Clone, Debug)]
pub struct CorenessResult {
    /// Coreness (max k such that the vertex is in the k-core) per
    /// vertex. Isolated vertices have coreness 0.
    pub coreness: Vec<u32>,
    /// The degeneracy: the largest k with a non-empty k-core.
    pub max_core: u32,
    /// Peeling rounds executed (parallel depth of the decomposition).
    pub rounds: u64,
    /// Degree decrements gathered (edge inspections into unsettled
    /// vertices) — the decomposition's work measure.
    pub decrements: u64,
}

impl CorenessResult {
    /// How many vertices have coreness ≥ `k` (the k-core's size).
    pub fn core_size(&self, k: u32) -> usize {
        self.coreness.iter().filter(|&&c| c >= k).count()
    }
}

/// Coreness of every vertex. Directed graphs are peeled by out-degree
/// over the stored arcs (callers wanting total-degree cores should
/// symmetrize first).
pub fn coreness<G: Graph>(g: &G) -> CorenessResult {
    try_coreness(g, &Exec::default()).expect("unlimited budget cannot be exhausted")
}

/// [`coreness`] under `exec`'s compute budget: probed once per peeling
/// round, charged per degree decrement. A partial peel is not a valid
/// decomposition, so exhaustion aborts with `Err`.
pub fn try_coreness<G: Graph>(g: &G, exec: &Exec) -> Result<CorenessResult, Exhausted> {
    let _span = snap_obs::span("kcore.peel");
    let budget = &exec.budget;
    let n = g.num_vertices();
    let mut coreness = vec![0u32; n];
    let mut deg: Vec<u32> = (0..n).map(|v| g.degree(v as VertexId) as u32).collect();
    let mut bk = Buckets::new(n);
    for (v, &d) in deg.iter().enumerate() {
        bk.insert(v as VertexId, d as usize);
    }

    let mut rounds = 0u64;
    let mut decrements = 0u64;
    let mut max_core = 0u32;
    while let Some(k) = bk.next_bucket() {
        // Drain core level k: settling its vertices pushes neighbors
        // down, possibly into bucket k itself, until a round finds it
        // empty.
        loop {
            if let Err(why) = budget.check() {
                snap_obs::meta("cancelled", why);
                snap_obs::add("budget_cancellations", 1);
                return Err(why);
            }
            let batch = bk.pop_current();
            if batch.is_empty() {
                break;
            }
            let peel: Vec<VertexId> = batch.into_iter().filter(|&u| bk.is_pending(u)).collect();
            if peel.is_empty() {
                continue; // the batch was all stale entries
            }
            rounds += 1;
            max_core = max_core.max(k as u32);
            for &u in &peel {
                bk.settle(u);
                coreness[u as usize] = k as u32;
            }
            // Induced degree decrements, gathered in parallel in
            // deterministic (source-vertex, adjacency) order.
            let requests: Vec<VertexId> = peel
                .par_iter()
                .flat_map_iter(|&u| g.neighbors(u).filter(|&v| bk.bucket_of(v).is_some()))
                .collect();
            decrements += requests.len() as u64;
            let _ = budget.charge(requests.len() as u64 + 1);
            for v in requests {
                let dv = &mut deg[v as usize];
                if *dv as usize > k {
                    *dv -= 1;
                    bk.update(v, *dv as usize);
                }
            }
        }
    }

    if snap_obs::is_enabled() {
        snap_obs::add("kcore_rounds", rounds);
        snap_obs::add("kcore_decrements", decrements);
        snap_obs::gauge("max_core", f64::from(max_core));
    }
    bk.flush_obs();
    Ok(CorenessResult {
        coreness,
        max_core,
        rounds,
        decrements,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn path_graph_is_one_core() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let r = coreness(&g);
        assert_eq!(r.coreness, vec![1; 5]);
        assert_eq!(r.max_core, 1);
    }

    #[test]
    fn clique_with_tail() {
        // K4 on {0,1,2,3} plus a tail 3-4-5: clique is the 3-core, the
        // tail peels at 1.
        let g = from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
            ],
        );
        let r = coreness(&g);
        assert_eq!(r.coreness, vec![3, 3, 3, 3, 1, 1]);
        assert_eq!(r.max_core, 3);
        assert_eq!(r.core_size(3), 4);
        assert_eq!(r.core_size(1), 6);
    }

    #[test]
    fn isolated_vertices_have_coreness_zero() {
        let g = from_edges(4, &[(0, 1)]);
        let r = coreness(&g);
        assert_eq!(r.coreness, vec![1, 1, 0, 0]);
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(0, &[]);
        let r = coreness(&g);
        assert!(r.coreness.is_empty());
        assert_eq!(r.max_core, 0);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    fn two_cliques_joined_by_a_bridge() {
        // Two K3s joined by one edge: every clique vertex is in the
        // 2-core, nothing is in a 3-core.
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]);
        let r = coreness(&g);
        assert_eq!(r.coreness, vec![2; 6]);
        assert_eq!(r.max_core, 2);
    }

    #[test]
    fn budget_exhaustion_cancels() {
        // A long path peels one layer of endpoints per round, so the
        // work cap is exceeded well before the peel completes.
        let edges: Vec<(u32, u32)> = (0..255u32).map(|i| (i, i + 1)).collect();
        let g = from_edges(256, &edges);
        let exec = Exec {
            budget: snap_budget::Budget::with_work_cap(1),
            ..Exec::default()
        };
        assert!(try_coreness(&g, &exec).is_err());
    }
}

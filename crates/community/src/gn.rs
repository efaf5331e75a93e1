//! The Girvan–Newman divisive algorithm (Newman & Girvan, Phys. Rev. E
//! 2004) — the paper's baseline: repeatedly recompute **exact** edge
//! betweenness and cut the highest-scoring edge, tracking the modularity
//! of the induced components. `O(m)` iterations of `O(mn)` betweenness.
//!
//! The betweenness pass itself is parallelized over sources (as in SNAP's
//! "optimized implementation of GN using SNAP"), but the algorithm remains
//! the expensive exact baseline pBD is measured against.

use crate::clustering::Clustering;
use crate::divisive::DivisiveEngine;
use snap_centrality::betweenness_from_sources_in;
use snap_graph::{CsrGraph, EdgeId, Graph, VertexId};
use snap_kernels::Exec;

/// Configuration for [`girvan_newman`].
#[derive(Clone, Debug, Default)]
pub struct GnConfig {
    /// Stop after this many edge removals (`None` = remove every edge,
    /// the full Newman–Girvan schedule).
    pub max_removals: Option<usize>,
    /// Stop once modularity has not improved for this many removals
    /// (`None` = no early stop). The full schedule is exact but wasteful
    /// once the partition has disintegrated past the modularity peak.
    pub patience: Option<usize>,
}

/// Result of a divisive clustering run.
#[derive(Clone, Debug)]
pub struct DivisiveResult {
    /// The best (maximum-modularity) clustering encountered.
    pub clustering: Clustering,
    /// Its modularity.
    pub q: f64,
    /// The removal history: `(edge, modularity after removing it)` — the
    /// divisive dendrogram.
    pub removals: Vec<(EdgeId, f64)>,
}

/// Run Girvan–Newman on `g`.
pub fn girvan_newman(g: &CsrGraph, cfg: &GnConfig) -> DivisiveResult {
    girvan_newman_in(g, cfg, &Exec::default())
}

/// Run Girvan–Newman with `exec`'s budget and workspace pool. The pool
/// serves all removal rounds: each round's betweenness pass rebinds the
/// predecessor offsets to the mutated view but reuses every slot array.
/// When the budget trips the schedule stops cutting, and the
/// best-modularity prefix of the removals made so far is the answer.
pub fn girvan_newman_in(g: &CsrGraph, cfg: &GnConfig, exec: &Exec) -> DivisiveResult {
    let m = g.num_edges();
    let mut engine = DivisiveEngine::new(g, m as f64);
    let mut removals = Vec::new();
    let max_removals = cfg.max_removals.unwrap_or(m).min(m);
    let all_sources: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    let mut since_best = 0usize;

    while removals.len() < max_removals && engine.live_edges() > 0 {
        // Exact edge betweenness on the current filtered view,
        // parallelized over sources. A pass the budget cut short would
        // rank edges by a biased partial sum (the source order is not
        // shuffled): stop cutting instead.
        let partial = betweenness_from_sources_in(&engine.view, &all_sources, exec);
        if partial.degraded() {
            break;
        }
        let bc = partial.scores;
        let best_edge = engine
            .view
            .live_edge_ids()
            .max_by(|&a, &b| {
                bc.edge[a as usize]
                    .partial_cmp(&bc.edge[b as usize])
                    .unwrap()
                    .then(b.cmp(&a))
            })
            .expect("live edges exist");
        let before = engine.best_q();
        let q = engine.delete_edge(best_edge);
        removals.push((best_edge, q));
        if let Some(p) = cfg.patience {
            if engine.best_q() > before {
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= p {
                    break;
                }
            }
        }
    }

    DivisiveResult {
        clustering: engine.best_clustering(),
        q: engine.best_q(),
        removals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::modularity;
    use snap_graph::builder::from_edges;

    fn barbell() -> CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn splits_barbell_at_the_bridge() {
        let g = barbell();
        let r = girvan_newman(&g, &GnConfig::default());
        assert_eq!(r.clustering.count, 2);
        assert_eq!(r.clustering.cluster_of(0), r.clustering.cluster_of(2));
        assert_eq!(r.clustering.cluster_of(3), r.clustering.cluster_of(5));
        assert!((r.q - modularity(&g, &r.clustering)).abs() < 1e-12);
        // First removal must be the bridge.
        let (first, _) = r.removals[0];
        assert_eq!(g.edge_endpoints(first), (2, 3));
    }

    #[test]
    fn full_schedule_removes_all_edges() {
        let g = barbell();
        let r = girvan_newman(&g, &GnConfig::default());
        assert_eq!(r.removals.len(), g.num_edges());
    }

    #[test]
    fn max_removals_respected() {
        let g = barbell();
        let r = girvan_newman(
            &g,
            &GnConfig {
                max_removals: Some(2),
                patience: None,
            },
        );
        assert_eq!(r.removals.len(), 2);
    }

    #[test]
    fn patience_stops_early() {
        let g = barbell();
        let r = girvan_newman(
            &g,
            &GnConfig {
                max_removals: None,
                patience: Some(2),
            },
        );
        assert!(r.removals.len() < g.num_edges());
        // The best split is still found before the early stop.
        assert_eq!(r.clustering.count, 2);
    }

    #[test]
    fn two_squares_detected() {
        // Squares {0..3} and {4..7} joined by one edge.
        let g = from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (0, 4),
            ],
        );
        let r = girvan_newman(&g, &GnConfig::default());
        assert!(r.clustering.count >= 2);
        assert_eq!(r.clustering.cluster_of(1), r.clustering.cluster_of(3));
        assert_eq!(r.clustering.cluster_of(5), r.clustering.cluster_of(7));
        assert_ne!(r.clustering.cluster_of(1), r.clustering.cluster_of(5));
        assert!(r.q > 0.3);
    }

    #[test]
    fn karate_modularity_near_paper() {
        let g = snap_io::karate_club();
        let r = girvan_newman(&g, &GnConfig::default());
        // Paper Table 2: GN reaches Q = 0.401 on Karate.
        assert!(
            (r.q - 0.401).abs() < 0.015,
            "karate GN modularity {} (paper: 0.401)",
            r.q
        );
    }

    #[test]
    fn tripped_budget_stops_the_schedule_at_a_valid_prefix() {
        let g = snap_io::karate_club();
        // Room for a few exact betweenness passes, not the full schedule.
        let exec = Exec {
            budget: snap_budget::Budget::with_work_cap(4 * 34 * 35),
            ..Exec::default()
        };
        let r = girvan_newman_in(&g, &GnConfig::default(), &exec);
        assert!(!r.removals.is_empty() && r.removals.len() < g.num_edges());
        assert!(exec.budget.is_exhausted());
        assert!((r.q - modularity(&g, &r.clustering)).abs() < 1e-12);
    }

    #[test]
    fn disconnected_input_handled() {
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let r = girvan_newman(&g, &GnConfig::default());
        assert!(r.clustering.count >= 2);
        assert!((r.q - modularity(&g, &r.clustering)).abs() < 1e-12);
    }
}

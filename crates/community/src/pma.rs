//! pMA — the paper's modularity-maximizing agglomerative clustering
//! (Algorithm 2).
//!
//! Performs the same greedy optimization as Clauset–Newman–Moore: start
//! from singletons, repeatedly merge the community pair with the largest
//! modularity increase, tracked in a sparse ΔQ structure
//! (`DqMatrix`: sorted dynamic rows + lazy max-heap) whose
//! row-merge updates are parallelized for high-degree communities. The
//! full merge history is returned as a dendrogram; the reported
//! clustering is the maximum-modularity cut through it.

use crate::clustering::Clustering;
use crate::dendrogram::Dendrogram;
use crate::dq::DqMatrix;
use snap_graph::{CsrGraph, Graph, VertexId};
use snap_kernels::Exec;

/// Configuration for [`pma`].
#[derive(Clone, Debug)]
pub struct PmaConfig {
    /// Neighbor-union size above which ΔQ row updates run in parallel.
    /// `usize::MAX` forces the sequential CNM baseline (ablation knob).
    pub par_threshold: usize,
}

impl Default for PmaConfig {
    fn default() -> Self {
        PmaConfig {
            par_threshold: 2_048,
        }
    }
}

/// Result of an agglomerative clustering run.
#[derive(Clone, Debug)]
pub struct AgglomerativeResult {
    /// The maximum-modularity clustering along the merge history.
    pub clustering: Clustering,
    /// Its modularity.
    pub q: f64,
    /// The full merge history.
    pub dendrogram: Dendrogram,
}

/// Run pMA on `g` (undirected).
///
/// ```
/// use snap_community::{pma, PmaConfig};
///
/// // Two triangles joined by one edge: the greedy agglomeration finds
/// // both communities.
/// let g = snap_graph::builder::from_edges(
///     6,
///     &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
/// );
/// let result = pma(&g, &PmaConfig::default());
/// assert_eq!(result.clustering.count, 2);
/// assert!(result.q > 0.3);
/// ```
pub fn pma(g: &CsrGraph, cfg: &PmaConfig) -> AgglomerativeResult {
    pma_in(g, cfg, &Exec::default())
}

/// Run pMA under `exec`'s compute budget. The greedy merge loop is charged
/// per merge; when the budget trips, the dendrogram built so far is cut
/// at its best prefix — a valid (if coarser-than-optimal) clustering.
pub fn pma_in(g: &CsrGraph, cfg: &PmaConfig, exec: &Exec) -> AgglomerativeResult {
    let _span = snap_obs::span("community.pma");
    let budget = &exec.budget;
    assert!(
        !g.is_directed(),
        "community detection treats graphs as undirected"
    );
    let n = g.num_vertices();
    let m = g.num_edges() as f64;
    if n == 0 || m == 0.0 {
        return AgglomerativeResult {
            clustering: Clustering::singletons(n),
            q: 0.0,
            dendrogram: Dendrogram::new(n, 0.0),
        };
    }

    // Singleton initialization: a_i = d_i / 2m, q0 = -Σ a_i².
    let a: Vec<f64> = (0..n as VertexId)
        .map(|v| g.degree(v) as f64 / (2.0 * m))
        .collect();
    let q0: f64 = -a.iter().map(|x| x * x).sum::<f64>();
    if let Err(why) = budget.check() {
        // Spent before the ΔQ structure is even built (which alone costs
        // O(m log m)): the singleton clustering is the only answer the
        // budget can afford.
        snap_obs::meta("degraded", why);
        snap_obs::add("budget_cancellations", 1);
        return AgglomerativeResult {
            clustering: Clustering::singletons(n),
            q: q0,
            dendrogram: Dendrogram::new(n, q0),
        };
    }
    let neighbor_edges: Vec<Vec<(u32, f64)>> = (0..n as VertexId)
        .map(|v| g.neighbors(v).map(|u| (u, 1.0)).collect())
        .collect();
    let mut matrix = DqMatrix::new(neighbor_edges, a, m, cfg.par_threshold);

    let mut dendrogram = Dendrogram::new(n, q0);
    let mut q = q0;
    // Per-merge latency: merges between high-degree communities dominate
    // tail cost (their ΔQ row unions grow), so p99 tracks the heavy
    // merges a mean would hide.
    let merge_us = snap_obs::hist("merge_us");
    // CNM runs the greedy schedule to exhaustion (one community per
    // connected component), tracking the best prefix: merges past the
    // modularity peak are recorded but do not affect the reported cut.
    while let Some((i, j, dq)) = matrix.pop_best() {
        if budget.charge(1).is_err() {
            snap_obs::meta(
                "degraded",
                budget.exhaustion().expect("budget just tripped"),
            );
            snap_obs::add("budget_cancellations", 1);
            break; // the dendrogram prefix still yields a valid cut
        }
        let merge_timer = merge_us.start();
        matrix.merge(i, j);
        merge_us.stop_us(merge_timer);
        q += dq;
        dendrogram.push(i, j, q);
    }

    if snap_obs::is_enabled() {
        let stats = matrix.stats();
        snap_obs::add("merges", stats.rows_merged);
        snap_obs::add("dq_row_updates", stats.row_updates);
        snap_obs::add("heap_pushes", stats.heap_pushes);
        snap_obs::add("heap_pops", stats.heap_pops);
        snap_obs::add("stale_pops", stats.stale_pops);
        snap_obs::gauge("modularity", dendrogram.best_q());
    }

    let best = dendrogram.best_clustering();
    AgglomerativeResult {
        q: dendrogram.best_q(),
        clustering: best,
        dendrogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::normalized_mutual_information;
    use crate::modularity::modularity;
    use snap_graph::builder::from_edges;

    fn barbell() -> CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn splits_barbell() {
        let g = barbell();
        let r = pma(&g, &PmaConfig::default());
        assert_eq!(r.clustering.count, 2);
        assert_eq!(r.clustering.cluster_of(0), r.clustering.cluster_of(2));
        assert_ne!(r.clustering.cluster_of(0), r.clustering.cluster_of(3));
    }

    #[test]
    fn reported_q_matches_direct_evaluation() {
        let g = barbell();
        let r = pma(&g, &PmaConfig::default());
        let direct = modularity(&g, &r.clustering);
        assert!((r.q - direct).abs() < 1e-9, "{} vs {direct}", r.q);
    }

    #[test]
    fn dendrogram_reaches_component_count() {
        let g = barbell();
        let r = pma(&g, &PmaConfig::default());
        // 6 singletons merge down to 1 component: 5 merges.
        assert_eq!(r.dendrogram.merges.len(), 5);
    }

    #[test]
    fn karate_quality_near_paper() {
        let g = snap_io::karate_club();
        let r = pma(&g, &PmaConfig::default());
        // Paper Table 2: pMA = 0.381 on Karate (CNM-style greedy).
        assert!(r.q > 0.35, "karate pMA q = {}", r.q);
        let direct = modularity(&g, &r.clustering);
        assert!((r.q - direct).abs() < 1e-9);
    }

    #[test]
    fn recovers_planted_partition() {
        let cfg = snap_gen::PlantedConfig::uniform(4, 25, 0.5, 0.02);
        let (g, truth) = snap_gen::planted_partition(&cfg, 13);
        let r = pma(&g, &PmaConfig::default());
        let nmi = normalized_mutual_information(&r.clustering, &Clustering::from_labels(&truth));
        assert!(nmi > 0.6, "nmi = {nmi}");
    }

    #[test]
    fn sequential_and_parallel_thresholds_agree() {
        let cfg = snap_gen::PlantedConfig::uniform(3, 20, 0.4, 0.05);
        let (g, _) = snap_gen::planted_partition(&cfg, 5);
        let seq = pma(
            &g,
            &PmaConfig {
                par_threshold: usize::MAX,
            },
        );
        let par = pma(&g, &PmaConfig { par_threshold: 0 });
        assert!((seq.q - par.q).abs() < 1e-9);
        assert_eq!(seq.clustering, par.clustering);
    }

    #[test]
    fn empty_and_edgeless_graphs() {
        let g = from_edges(4, &[]);
        let r = pma(&g, &PmaConfig::default());
        assert_eq!(r.clustering.count, 4);
        assert_eq!(r.q, 0.0);
    }

    #[test]
    fn disconnected_components_stay_separate() {
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]);
        let r = pma(&g, &PmaConfig::default());
        assert_eq!(r.clustering.count, 2);
    }
}

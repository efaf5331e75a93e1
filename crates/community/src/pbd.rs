//! pBD — the paper's approximate-betweenness-based divisive clustering
//! (Algorithm 1).
//!
//! Engineering moves reproduced from the paper:
//!
//! 1. **Approximate betweenness** (source sampling, after Bader et al.
//!    WAW 2007) replaces the exact recomputation of Girvan–Newman: each round
//!    samples a fraction of each changed component's vertices as sources
//!    and cuts the top-scoring edges.
//! 2. **Biconnected-components preprocessing** (optional step 1):
//!    bridges separating two non-trivial sides are provably the
//!    highest-betweenness edges of their neighborhoods; cutting them up
//!    front decomposes the graph cheaply.
//! 3. **Granularity switch**: once the graph has decomposed into small
//!    components, the algorithm flips from fine-grained parallelism
//!    (parallel betweenness inside one big traversal) to coarse-grained
//!    (components refined independently in parallel, with *exact*
//!    betweenness, since each component is now small). The largest
//!    component, whose exact pass sets the phase's critical path, is
//!    refined first with its sweeps on every thread.
//! 4. `O(m)`-work steps (modularity updates, component updates) stay
//!    incremental via `DivisiveEngine` (`divisive.rs`), whose one cut
//!    loop runs both phases.

use crate::divisive::{CutRule, DivisiveEngine};
use crate::gn::DivisiveResult;
use rayon::prelude::*;
use snap_graph::{CsrGraph, Graph, InducedSubgraph, VertexId};
use snap_kernels::{bfs_limited, biconnected_components, Exec};
use std::cmp::Reverse;

/// Bridges are pre-cut only when both sides have at least this many
/// vertices (pendant-edge bridges stay, as cutting them only strands
/// leaves).
const MIN_BRIDGE_SIDE: usize = 4;

/// Configuration for [`pbd`].
#[derive(Clone, Debug)]
pub struct PbdConfig {
    /// Fraction of a component's vertices sampled as betweenness sources
    /// when it is rescored, at least 96 (the paper's finding: 5% suffices
    /// for the top-centrality edges).
    pub sample_frac: f64,
    /// Component size at which the coarse-grained exact phase takes over.
    pub exact_threshold: usize,
    /// Run the biconnected-components bridge preprocessing (step 1).
    pub bridge_preprocess: bool,
    /// Hard cap on total edge removals (`None` = no cap).
    pub max_removals: Option<usize>,
    /// RNG seed for source sampling.
    pub seed: u64,
}

impl Default for PbdConfig {
    fn default() -> Self {
        PbdConfig {
            sample_frac: 0.05,
            exact_threshold: 220,
            bridge_preprocess: true,
            max_removals: None,
            seed: 0x5bad,
        }
    }
}

/// Run pBD on `g`.
pub fn pbd(g: &CsrGraph, cfg: &PbdConfig) -> DivisiveResult {
    pbd_in(g, cfg, &Exec::default())
}

/// Run pBD with `exec`'s budget and workspace pool, in three phases: the
/// bridge pre-cut; the fine phase, which cuts by sampled betweenness
/// until every component has at most `exact_threshold` vertices (one edge
/// per pass up to 5 792 candidate edges, `⌊(candidates / 4096)²⌋` beyond:
/// the schedule follows the graph, with no setting); and the
/// coarse phase, which runs exact Girvan–Newman on each component to
/// completion, in parallel, and composes the components' optima. Every
/// round in either phase rescores only the components the last cuts
/// changed. One budget rule holds throughout: a betweenness pass the
/// budget cuts short ends its loop without cutting, the best-modularity
/// prefix stands, and components not yet reached stay unrefined.
pub fn pbd_in(g: &CsrGraph, cfg: &PbdConfig, exec: &Exec) -> DivisiveResult {
    let _span = snap_obs::span("community.pbd");
    let budget = &exec.budget;
    let m = g.num_edges();
    let mut engine = DivisiveEngine::new(g, m as f64);
    let mut removals = Vec::new();
    let cap = cfg.max_removals.unwrap_or(usize::MAX);

    // --- Step 1 (optional): bridge preprocessing. ---
    if cfg.bridge_preprocess && m > 0 {
        let _phase = snap_obs::span("bridge_preprocess");
        let bicc = biconnected_components(g);
        for &e in &bicc.bridges {
            if removals.len() >= cap {
                break;
            }
            let (u, v) = g.edge_endpoints(e);
            // Cut only genuine inter-community bridges: both sides must
            // hold at least `MIN_BRIDGE_SIDE` vertices. Side size probes
            // are BFS runs capped at the threshold.
            if !engine.view.is_live(e) {
                continue;
            }
            if budget.charge(2 * MIN_BRIDGE_SIDE as u64 + 1).is_err() {
                break;
            }
            engine.view.delete_edge(e);
            let u_side = bfs_limited(&engine.view, u, MIN_BRIDGE_SIDE).len();
            let v_side = bfs_limited(&engine.view, v, MIN_BRIDGE_SIDE).len();
            engine.view.restore_edge(e);
            if u_side >= MIN_BRIDGE_SIDE && v_side >= MIN_BRIDGE_SIDE {
                let q = engine.delete_edge(e);
                removals.push((e, q));
            }
        }
        snap_obs::add("bridges_cut", removals.len() as u64);
    }

    // --- Fine-grained phase: sampled betweenness per component, cutting
    // until every component fits the exact phase. ---
    {
        let _phase = snap_obs::span("fine_phase");
        let rule = CutRule {
            sample: Some((cfg.sample_frac, cfg.seed)),
            threshold: cfg.exact_threshold,
            cap,
        };
        engine.cut_rounds(&rule, exec, &mut removals);
    }

    // --- Coarse-grained phase: exact refinement per component.
    // Components still larger than the threshold (possible only when the
    // removal cap or the budget stopped the fine phase) are left as-is:
    // the exact pass is only affordable on small components.
    let coarse_phase = snap_obs::span("coarse_refine");
    let refined = refine_components(
        g,
        &engine,
        m as f64,
        cap.saturating_sub(removals.len()),
        cfg.exact_threshold.max(8),
        exec,
    );
    drop(coarse_phase);
    let (labels, q) = match refined {
        Some((labels, q)) if q > engine.best_q() => (labels, q),
        _ => (engine.best_clustering().assignment, engine.best_q()),
    };

    let clustering = crate::clustering::Clustering::from_labels(&labels);
    if snap_obs::is_enabled() {
        snap_obs::add("edges_cut", removals.len() as u64);
        snap_obs::add("components", clustering.count as u64);
        snap_obs::gauge("modularity", q);
    }
    if let Some(why) = budget.exhaustion() {
        snap_obs::meta("degraded", why);
    }
    DivisiveResult {
        clustering,
        q,
        removals,
    }
}

/// Coarse-grained exact refinement: every current component is extracted
/// and divisively clustered to completion with exact betweenness, in
/// parallel. Returns the combined labels and global modularity, or `None`
/// when there is nothing to refine.
fn refine_components(
    g: &CsrGraph,
    engine: &DivisiveEngine<'_>,
    m_norm: f64,
    removal_budget: usize,
    max_component: usize,
    exec: &Exec,
) -> Option<(Vec<u32>, f64)> {
    let n = g.num_vertices();
    if n == 0 || removal_budget == 0 {
        return None;
    }
    let (components, skipped): (Vec<_>, Vec<_>) = engine
        .members_where(|_, _| true)
        .into_iter()
        .partition(|(_, verts)| verts.len() <= max_component);
    snap_obs::add("components_refined", components.len() as u64);
    snap_obs::add("components_skipped", skipped.len() as u64);

    // Refine each component independently; modularity is separable across
    // components, so per-component optima compose into the global optimum
    // of this refinement step.
    let exact = CutRule {
        sample: None,
        threshold: 0,
        cap: usize::MAX,
    };
    let refine = |verts: &[VertexId]| {
        if exec.budget.is_exhausted() {
            // Leave the component unrefined: one cluster, zero
            // modularity delta — same shape as a skipped component.
            return (verts.to_vec(), vec![0u32; verts.len()], 0.0, 0.0);
        }
        // Base-graph subgraph (includes edges already cut from the
        // view — they still count toward modularity); the cut edges
        // are replayed into the local engine below so its live
        // structure matches the global view.
        let base_sub = InducedSubgraph::extract(g, verts);
        let bonus: Vec<f64> = base_sub
            .to_global
            .iter()
            .enumerate()
            .map(|(local, &gv)| {
                g.degree(gv) as f64 - base_sub.graph.degree(local as VertexId) as f64
            })
            .collect();
        let mut local = DivisiveEngine::with_degree_bonus(&base_sub.graph, m_norm, Some(&bonus));
        // Replay the historic deletions so the local live structure
        // matches the global view.
        for (le, &ge) in base_sub.edge_to_global.iter().enumerate() {
            if !engine.view.is_live(ge) {
                local.delete_edge(le as u32);
            }
        }
        local.reset_best();
        let q_before = local.q();
        // Exact divisive run to completion on this small component;
        // its local cuts are not part of the global removal list.
        local.cut_rounds(&exact, exec, &mut Vec::new());
        let best = local.best_clustering();
        (
            base_sub.to_global,
            best.assignment,
            local.best_q(),
            q_before,
        )
    };
    // Exact GN's cost grows steeply with the component, so the largest
    // one sets this phase's critical path: it runs first and alone, its
    // sweeps on every thread. The others run one work unit each, their
    // sweeps inline. Results stay in label order.
    let largest = (0..components.len()).max_by_key(|&i| (components[i].1.len(), Reverse(i)));
    let first = largest.map(|i| refine(&components[i].1));
    let others: Vec<&[VertexId]> = (0..components.len())
        .filter(|&i| Some(i) != largest)
        .map(|i| components[i].1.as_slice())
        .collect();
    let mut results: Vec<_> = others.par_chunks(1).map(|unit| refine(unit[0])).collect();
    if let (Some(i), Some(r)) = (largest, first) {
        results.insert(i, r);
    }

    // Stitch local labels into a global labeling; skipped (oversized)
    // components keep one label each.
    let mut labels = vec![0u32; n];
    let mut next = 0u32;
    let mut q_total = engine.q();
    for (to_global, local_labels, q_best, q_before) in results {
        q_total += q_best - q_before;
        let k = local_labels.iter().copied().max().map_or(0, |x| x + 1);
        for (local, &gv) in to_global.iter().enumerate() {
            labels[gv as usize] = next + local_labels[local];
        }
        next += k;
    }
    for (_, verts) in skipped {
        for &gv in &verts {
            labels[gv as usize] = next;
        }
        next += 1;
    }
    Some((labels, q_total))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::normalized_mutual_information;
    use crate::clustering::Clustering;
    use crate::gn::{girvan_newman, GnConfig};
    use crate::modularity::modularity;
    use snap_graph::builder::from_edges;

    fn barbell() -> CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn splits_barbell() {
        let g = barbell();
        let r = pbd(&g, &PbdConfig::default());
        assert_eq!(r.clustering.count, 2);
        assert!((r.q - modularity(&g, &r.clustering)).abs() < 1e-9);
    }

    #[test]
    fn karate_quality_comparable_to_gn() {
        let g = snap_io::karate_club();
        let gn = girvan_newman(&g, &GnConfig::default());
        let r = pbd(&g, &PbdConfig::default());
        // Paper Table 2: pBD = 0.397 vs GN = 0.401 on Karate — within a
        // few percent.
        assert!(
            r.q > gn.q - 0.05,
            "pbd q = {} too far below gn q = {}",
            r.q,
            gn.q
        );
        assert!((r.q - modularity(&g, &r.clustering)).abs() < 1e-9);
    }

    #[test]
    fn recovers_planted_partition() {
        let cfg = snap_gen::PlantedConfig::uniform(4, 20, 0.5, 0.02);
        let (g, truth) = snap_gen::planted_partition(&cfg, 7);
        let r = pbd(&g, &PbdConfig::default());
        let truth_c = Clustering::from_labels(&truth);
        let nmi = normalized_mutual_information(&r.clustering, &truth_c);
        assert!(nmi > 0.7, "nmi = {nmi}, q = {}", r.q);
    }

    #[test]
    fn fine_phase_alone_works() {
        // exact_threshold = 0 disables the coarse phase entirely.
        let g = barbell();
        let cfg = PbdConfig {
            exact_threshold: 0,
            sample_frac: 1.0,
            ..Default::default()
        };
        let r = pbd(&g, &cfg);
        assert!(r.q > 0.3);
    }

    #[test]
    fn respects_removal_cap() {
        let g = barbell();
        let cfg = PbdConfig {
            max_removals: Some(2),
            exact_threshold: 0,
            ..Default::default()
        };
        let r = pbd(&g, &cfg);
        assert!(r.removals.len() <= 2);
    }

    #[test]
    fn bridge_preprocessing_cuts_real_bridges_only() {
        // Barbell with a pendant vertex: pendant bridge must survive the
        // preprocessing, the central bridge must go first. Both sides of
        // the central bridge hold at least `MIN_BRIDGE_SIDE` (4)
        // vertices, so this tests the constant.
        let g = from_edges(
            10,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (0, 8), // pendant on 0
                (3, 4),
                (4, 5),
                (3, 5),
                (4, 9),
                (5, 9),
                (1, 6),
                (6, 7), // path pendant
            ],
        );
        let r = pbd(&g, &PbdConfig::default());
        // Vertex 8 (pendant) should end up with the cluster of 0, not
        // stranded alone.
        assert_eq!(r.clustering.cluster_of(8), r.clustering.cluster_of(0));
        assert!((r.q - modularity(&g, &r.clustering)).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = snap_gen::PlantedConfig::uniform(3, 15, 0.5, 0.03);
        let (g, _) = snap_gen::planted_partition(&cfg, 3);
        let a = pbd(&g, &PbdConfig::default());
        let b = pbd(&g, &PbdConfig::default());
        assert_eq!(a.clustering, b.clustering);
        assert_eq!(a.q, b.q);
    }
}

//! pBD — the paper's approximate-betweenness-based divisive clustering
//! (Algorithm 1).
//!
//! Engineering moves reproduced from the paper:
//!
//! 1. **Approximate betweenness** (adaptive/sampled, Bader et al. WAW
//!    2007) replaces the exact recomputation of Girvan–Newman: each round
//!    samples a small fraction of sources and cuts the top-scoring edges.
//! 2. **Biconnected-components preprocessing** (optional step 1):
//!    bridges separating two non-trivial sides are provably the
//!    highest-betweenness edges of their neighborhoods; cutting them up
//!    front decomposes the graph cheaply.
//! 3. **Granularity switch**: once the graph has decomposed into small
//!    components, the algorithm flips from fine-grained parallelism
//!    (parallel betweenness inside one big traversal) to coarse-grained
//!    (components refined independently in parallel, with *exact*
//!    betweenness, since each component is now small).
//! 4. `O(m)`-work steps (modularity updates, component updates) stay
//!    incremental via [`crate::divisive::DivisiveEngine`].

use crate::divisive::DivisiveEngine;
use crate::gn::DivisiveResult;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use snap_budget::Budget;
use snap_centrality::{approx_betweenness_in, betweenness_from_sources_in};
use snap_graph::{CsrGraph, Graph, InducedSubgraph, VertexId};
use snap_kernels::{bfs_limited, biconnected_components, Exec};

/// Configuration for [`pbd`].
#[derive(Clone, Debug)]
pub struct PbdConfig {
    /// Fraction of vertices sampled as betweenness sources per round
    /// (the paper's finding: 5% suffices for the top-centrality edges).
    pub sample_frac: f64,
    /// Lower bound on sampled sources per round: on small graphs a bare
    /// percentage gives too noisy a ranking to cut by.
    pub min_sources: usize,
    /// Edges cut per betweenness recomputation. 1 reproduces the paper's
    /// schedule exactly; larger batches trade fidelity for speed on
    /// million-edge graphs.
    pub batch: usize,
    /// Component size at which the coarse-grained exact phase takes over.
    pub exact_threshold: usize,
    /// Run the biconnected-components bridge preprocessing (step 1).
    pub bridge_preprocess: bool,
    /// Bridges are pre-cut only when both sides have at least this many
    /// vertices (pendant-edge bridges stay, as cutting them only strands
    /// leaves).
    pub min_bridge_side: usize,
    /// Hard cap on total edge removals (`None` = no cap).
    pub max_removals: Option<usize>,
    /// Stop the fine-grained phase after this many rounds without a
    /// modularity improvement (`None` = run until the exact phase).
    pub patience: Option<usize>,
    /// RNG seed for source sampling.
    pub seed: u64,
}

impl Default for PbdConfig {
    fn default() -> Self {
        PbdConfig {
            sample_frac: 0.05,
            min_sources: 96,
            batch: 1,
            exact_threshold: 220,
            bridge_preprocess: true,
            min_bridge_side: 4,
            max_removals: None,
            patience: None,
            seed: 0x5bad,
        }
    }
}

/// Run pBD on `g`.
pub fn pbd(g: &CsrGraph, cfg: &PbdConfig) -> DivisiveResult {
    pbd_in(g, cfg, &Exec::default())
}

/// Run pBD with `exec`'s budget and workspace pool. Every phase checks
/// the budget cooperatively: the fine and bridge phases stop cutting when
/// it trips (the engine's best-modularity prefix is the answer), and the
/// coarse phase leaves remaining components unrefined. The pool serves
/// every betweenness round of the fine and granularity-bridge phases:
/// each round rebinds the predecessor offsets to the mutated view, the
/// slot arrays warm up once.
pub fn pbd_in(g: &CsrGraph, cfg: &PbdConfig, exec: &Exec) -> DivisiveResult {
    let _span = snap_obs::span("community.pbd");
    let budget = &exec.budget;
    let m = g.num_edges();
    let n = g.num_vertices();
    let mut engine = DivisiveEngine::new(g, m as f64);
    let mut removals = Vec::new();
    let cap = cfg.max_removals.unwrap_or(usize::MAX);

    // --- Step 1 (optional): bridge preprocessing. ---
    if cfg.bridge_preprocess && m > 0 {
        let _phase = snap_obs::span("bridge_preprocess");
        let before = removals.len();
        let bicc = biconnected_components(g);
        for &e in &bicc.bridges {
            if removals.len() >= cap {
                break;
            }
            let (u, v) = g.edge_endpoints(e);
            // Cut only genuine inter-community bridges: both sides must
            // hold at least `min_bridge_side` vertices. Side size probes
            // are BFS runs capped at the threshold.
            if !engine.view.is_live(e) {
                continue;
            }
            if budget.charge(2 * cfg.min_bridge_side as u64 + 1).is_err() {
                break;
            }
            engine.view.delete_edge(e);
            let u_side = bfs_limited(&engine.view, u, cfg.min_bridge_side).len();
            let v_side = bfs_limited(&engine.view, v, cfg.min_bridge_side).len();
            engine.view.restore_edge(e);
            if u_side >= cfg.min_bridge_side && v_side >= cfg.min_bridge_side {
                let q = engine.delete_edge(e);
                removals.push((e, q));
            }
        }
        snap_obs::add("bridges_cut", (removals.len() - before) as u64);
    }

    // --- Fine-grained phase: sampled betweenness, cut the top edges. ---
    let fine_phase = snap_obs::span("fine_phase");
    // Per-round latency: early rounds run betweenness on the giant
    // component and dwarf later rounds, so the spread is the signal.
    let round_us = snap_obs::hist("round_us");
    let mut round = 0u64;
    let mut since_best = 0usize;
    loop {
        if removals.len() >= cap || engine.live_edges() == 0 {
            break;
        }
        let round_timer = round_us.start();
        // Granularity switch: all components small → coarse phase.
        let giant = engine
            .current_clustering()
            .sizes()
            .into_iter()
            .max()
            .unwrap_or(0);
        if giant <= cfg.exact_threshold {
            break;
        }

        if budget.check().is_err() {
            break;
        }
        let frac = cfg
            .sample_frac
            .max(cfg.min_sources as f64 / n.max(1) as f64)
            .min(1.0);
        let partial = approx_betweenness_in(&engine.view, frac, cfg.seed ^ round, exec);
        if partial.sources_used == 0 {
            break; // no traversal completed: no ranking to cut by
        }
        let bc = partial.scores;
        round += 1;
        snap_obs::add("rounds", 1);
        let mut live: Vec<u32> = engine.view.live_edge_ids().collect();
        let batch = cfg.batch.max(1).min(live.len());
        // Partial selection: only the top `batch` edges need ordering.
        let cmp = |a: &u32, b: &u32| {
            bc.edge[*b as usize]
                .partial_cmp(&bc.edge[*a as usize])
                .unwrap()
                .then(a.cmp(b))
        };
        if batch < live.len() {
            live.select_nth_unstable_by(batch - 1, cmp);
            live.truncate(batch);
        }
        live.sort_by(cmp);
        let before_best = engine.best_q();
        for &e in live.iter().take(batch) {
            if removals.len() >= cap {
                break;
            }
            let q = engine.delete_edge(e);
            removals.push((e, q));
        }
        round_us.stop_us(round_timer);
        if let Some(p) = cfg.patience {
            if engine.best_q() > before_best {
                since_best = 0;
            } else {
                since_best += 1;
                if since_best >= p {
                    break;
                }
            }
        }
    }
    drop(fine_phase);
    let bridge_phase = snap_obs::span("granularity_bridge");

    // --- Granularity bridge: patience (or the removal cap) can stop the
    // fine phase while components larger than the exact threshold remain.
    // The coarse phase cannot afford exact betweenness on those, and
    // leaving them be degenerates the answer into one monolithic cluster
    // holding most of the graph. Keep decomposing the largest oversized
    // component with sampled betweenness — sources drawn from that
    // component only, so each round costs work proportional to it — until
    // every piece fits the exact phase, the cap is reached, or its edges
    // run out.
    loop {
        if removals.len() >= cap || budget.check().is_err() {
            break;
        }
        let members = engine.cluster_members();
        let biggest = members
            .iter()
            .max_by_key(|(&label, verts)| (verts.len(), std::cmp::Reverse(label)))
            .map(|(&label, verts)| (label, verts.clone()));
        let Some((label, verts)) = biggest else {
            break;
        };
        if verts.len() <= cfg.exact_threshold {
            break;
        }
        let size = verts.len();
        let frac = cfg
            .sample_frac
            .max(cfg.min_sources as f64 / size as f64)
            .min(1.0);
        let k = ((size as f64 * frac).ceil() as usize).clamp(1, size);
        let mut sources = verts;
        let mut rng = rand::rngs::StdRng::seed_from_u64(cfg.seed ^ 0x6272_6467 ^ round);
        sources.shuffle(&mut rng);
        sources.truncate(k);
        let partial = betweenness_from_sources_in(&engine.view, &sources, exec);
        if partial.sources_used == 0 {
            break;
        }
        let bc = partial.scores;
        round += 1;
        snap_obs::add("activations", 1);
        snap_obs::add("betweenness_samples", k as u64);
        // Only edges internal to the oversized component are candidates;
        // paths from its sources never leave it, so other components'
        // scores are all zero anyway.
        let labels = engine.labels();
        let mut cand: Vec<u32> = engine
            .view
            .live_edge_ids()
            .filter(|&e| {
                let (u, v) = g.edge_endpoints(e);
                labels[u as usize] == label && labels[v as usize] == label
            })
            .collect();
        if cand.is_empty() {
            break;
        }
        let batch = cfg.batch.max(1).min(cand.len());
        let cmp = |a: &u32, b: &u32| {
            bc.edge[*b as usize]
                .partial_cmp(&bc.edge[*a as usize])
                .unwrap()
                .then(a.cmp(b))
        };
        if batch < cand.len() {
            cand.select_nth_unstable_by(batch - 1, cmp);
            cand.truncate(batch);
        }
        cand.sort_by(cmp);
        for &e in cand.iter().take(batch) {
            if removals.len() >= cap {
                break;
            }
            let q = engine.delete_edge(e);
            removals.push((e, q));
        }
    }

    drop(bridge_phase);

    // --- Coarse-grained phase: exact refinement per component.
    // Components still larger than the threshold (possible only when the
    // removal cap stopped the bridge loop above) are left as-is: the
    // exact pass is only affordable on small components.
    let coarse_phase = snap_obs::span("coarse_refine");
    let refined = refine_components(
        g,
        &engine,
        m as f64,
        cap.saturating_sub(removals.len()),
        cfg.exact_threshold.max(8),
        budget,
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
    budget: &Budget,
) -> Option<(Vec<u32>, f64)> {
    let n = g.num_vertices();
    if n == 0 || removal_budget == 0 {
        return None;
    }
    let members = engine.cluster_members();
    let components: Vec<&Vec<VertexId>> = members
        .values()
        .filter(|verts| verts.len() <= max_component)
        .collect();
    let skipped: Vec<&Vec<VertexId>> = members
        .values()
        .filter(|verts| verts.len() > max_component)
        .collect();
    snap_obs::add("components_refined", components.len() as u64);
    snap_obs::add("components_skipped", skipped.len() as u64);

    // Refine each component independently; modularity is separable across
    // components, so per-component optima compose into the global optimum
    // of this refinement step. Each component is its own work unit; when
    // several share the threads, each one's betweenness sweeps run inline.
    let results: Vec<(Vec<VertexId>, Vec<u32>, f64, f64)> = components
        .par_chunks(1)
        .map(|unit| {
            let verts = unit[0];
            if budget.is_exhausted() {
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
            let mut local =
                DivisiveEngine::with_degree_bonus(&base_sub.graph, m_norm, Some(&bonus));
            // Replay the historic deletions so the local live structure
            // matches the global view.
            for (le, &ge) in base_sub.edge_to_global.iter().enumerate() {
                if !engine.view.is_live(ge) {
                    local.delete_edge(le as u32);
                }
            }
            local.reset_best();
            let q_before = local.q();
            // Exact divisive run to completion on this small component,
            // on a pool of its own that persists across its whole
            // dendrogram. Each round is charged up front and then runs
            // unbudgeted: a round cut short would rank edges by a
            // partial sum.
            let unbudgeted = Exec::default();
            let sources: Vec<VertexId> = (0..base_sub.graph.num_vertices() as VertexId).collect();
            while local.live_edges() > 0 {
                if budget
                    .charge(sources.len() as u64 * (1 + local.live_edges() as u64))
                    .is_err()
                {
                    break; // best prefix of the dendrogram still stands
                }
                let bc = betweenness_from_sources_in(&local.view, &sources, &unbudgeted).scores;
                let best_edge = local
                    .view
                    .live_edge_ids()
                    .max_by(|&a, &b| {
                        bc.edge[a as usize]
                            .partial_cmp(&bc.edge[b as usize])
                            .unwrap()
                            .then(b.cmp(&a))
                    })
                    .unwrap();
                local.delete_edge(best_edge);
            }
            let best = local.best_clustering();
            (
                base_sub.to_global.clone(),
                best.assignment,
                local.best_q(),
                q_before,
            )
        })
        .collect();

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
    for verts in skipped {
        for &gv in verts {
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
        // preprocessing, the central bridge must go first.
        let g = from_edges(
            9,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (0, 8), // pendant on 0
                (3, 4),
                (4, 5),
                (3, 5),
                (1, 6),
                (6, 7), // path pendant
            ],
        );
        let cfg = PbdConfig {
            min_bridge_side: 3,
            ..Default::default()
        };
        let r = pbd(&g, &cfg);
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

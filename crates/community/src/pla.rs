//! pLA — the paper's greedy local aggregation algorithm (Algorithm 3).
//!
//! Unlike pBD/pMA, which serialize on a global metric each iteration, pLA
//! exposes coarse parallelism: biconnected components find the bridges,
//! bridge removal splits the graph, and each resulting component is
//! clustered *concurrently* by greedy seed-growth using local measures
//! (connectivity into the growing cluster), accepting additions only when
//! global modularity increases. A final top-level amalgamation pass
//! merges clusters across the removed bridges while modularity keeps
//! improving.

use crate::clustering::Clustering;
use crate::dq::DqMatrix;
use crate::modularity::modularity;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;
use snap_budget::Budget;
use snap_graph::{CsrGraph, FilteredGraph, Graph, VertexId};
use snap_kernels::{biconnected_components, connected_components, Exec};

/// Configuration for [`pla`].
#[derive(Clone, Debug)]
pub struct PlaConfig {
    /// RNG seed for the per-component seed-vertex orders.
    pub seed: u64,
    /// Run the bridge-removal decomposition (steps 1–2). Without it the
    /// whole graph is one "component" and the algorithm degrades to a
    /// sequential greedy pass (the ablation baseline).
    pub remove_bridges: bool,
}

impl Default for PlaConfig {
    fn default() -> Self {
        PlaConfig {
            seed: 0x61a5,
            remove_bridges: true,
        }
    }
}

/// Result of a pLA run.
#[derive(Clone, Debug)]
pub struct PlaResult {
    /// The final clustering.
    pub clustering: Clustering,
    /// Its modularity.
    pub q: f64,
}

/// Run pLA on `g` (undirected).
pub fn pla(g: &CsrGraph, cfg: &PlaConfig) -> PlaResult {
    pla_impl(g, FilteredGraph::new(g), cfg, &Budget::unlimited())
}

/// Run pLA under `exec`'s compute budget. Degrades gracefully: when the
/// budget trips, vertices not yet aggregated stay singletons and the
/// amalgamation pass stops early — the returned clustering is always
/// valid, just coarser-grained than the unbudgeted answer.
pub fn pla_in(g: &CsrGraph, cfg: &PlaConfig, exec: &Exec) -> PlaResult {
    pla_impl(g, FilteredGraph::new(g), cfg, &exec.budget)
}

/// Run pLA on a [`FilteredGraph`] view (e.g. a graph with edges deleted
/// by a divisive pass). Degrees, edge counts, and modularity are all
/// measured against the *view*, exactly as [`pla`] measures them against
/// a plain graph.
pub fn pla_view(g: &FilteredGraph<'_>, cfg: &PlaConfig) -> PlaResult {
    pla_impl(g, g.clone(), cfg, &Budget::unlimited())
}

fn pla_impl<G: Graph>(
    g: &G,
    mut view: FilteredGraph<'_>,
    cfg: &PlaConfig,
    budget: &Budget,
) -> PlaResult {
    let _span = snap_obs::span("community.pla");
    assert!(
        !g.is_directed(),
        "community detection treats graphs as undirected"
    );
    let n = g.num_vertices();
    let m = g.num_edges() as f64;
    if n == 0 || m == 0.0 {
        return PlaResult {
            clustering: Clustering::singletons(n),
            q: 0.0,
        };
    }

    // Steps 1-2: cut bridges, decompose into components.
    if cfg.remove_bridges {
        let bicc = biconnected_components(g);
        for &e in &bicc.bridges {
            view.delete_edge(e);
        }
        snap_obs::add("bridges_cut", bicc.bridges.len() as u64);
    }
    let comps = connected_components(&view);
    let members = comps.members();
    snap_obs::add("components", members.len() as u64);

    // Step 3: greedy local aggregation inside each component, in
    // parallel, one work unit per component however few there are.
    // Labels are local (0-based per component) and offset afterwards.
    let locals: Vec<(Vec<VertexId>, Vec<u32>, u64)> = members
        .par_chunks(1)
        .enumerate()
        .map(|(ci, unit)| {
            let verts = &unit[0];
            let (labels, flips) = aggregate_component(
                g,
                &view,
                verts,
                cfg.seed ^ (ci as u64).wrapping_mul(0x9e3779b97f4a7c15),
                m,
                budget,
            );
            (verts.clone(), labels, flips)
        })
        .collect();

    let mut labels = vec![0u32; n];
    let mut next = 0u32;
    let mut total_flips = 0u64;
    for (verts, local_labels, flips) in locals {
        total_flips += flips;
        let k = local_labels.iter().copied().max().map_or(0, |x| x + 1);
        for (idx, &v) in verts.iter().enumerate() {
            labels[v as usize] = next + local_labels[idx];
        }
        next += k;
    }
    snap_obs::add("label_flips", total_flips);

    // Step 4: top-level amalgamation across the removed bridges (and any
    // other inter-cluster edges), greedy while modularity increases.
    let clustering = amalgamate(g, Clustering::from_labels(&labels), m, budget);
    let q = modularity(g, &clustering);
    snap_obs::gauge("modularity", q);
    if let Some(why) = budget.exhaustion() {
        snap_obs::meta("degraded", why);
    }
    PlaResult { clustering, q }
}

/// Greedily grow clusters inside one component. Returns a local label per
/// component vertex (indexed like `verts`) plus the number of greedy
/// acceptances (vertices pulled into a growing cluster beyond its seed).
/// If the budget trips mid-sweep, the remaining vertices become
/// singletons (a valid, coarser partial result).
fn aggregate_component<G: Graph>(
    g: &G,
    view: &FilteredGraph<'_>,
    verts: &[VertexId],
    seed: u64,
    m: f64,
    budget: &Budget,
) -> (Vec<u32>, u64) {
    let mut local_of: std::collections::HashMap<VertexId, usize> =
        std::collections::HashMap::with_capacity(verts.len());
    for (i, &v) in verts.iter().enumerate() {
        local_of.insert(v, i);
    }
    let mut label = vec![u32::MAX; verts.len()];
    let mut order: Vec<usize> = (0..verts.len()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    let mut next_label = 0u32;
    let mut flips = 0u64;
    // Edges from each candidate vertex into the growing cluster.
    let mut cnt: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();

    for &seed_idx in &order {
        if label[seed_idx] != u32::MAX {
            continue;
        }
        let c = next_label;
        next_label += 1;
        label[seed_idx] = c;
        if budget.is_exhausted()
            || budget
                .charge(1 + view.degree(verts[seed_idx]) as u64)
                .is_err()
        {
            continue; // degrade: every remaining seed stays a singleton
        }
        let mut cluster_degsum = g.degree(verts[seed_idx]) as f64;
        cnt.clear();
        for u in view.neighbors(verts[seed_idx]) {
            if let Some(&lu) = local_of.get(&u) {
                if label[lu] == u32::MAX {
                    *cnt.entry(lu).or_insert(0.0) += 1.0;
                }
            }
        }
        // Greedy growth: best-connected candidate first, accept while the
        // global modularity gain is positive.
        loop {
            let best = cnt.iter().map(|(&lu, &e)| (lu, e)).max_by(|a, b| {
                a.1.partial_cmp(&b.1)
                    .unwrap()
                    .then_with(|| {
                        // Tie-break: lower-degree vertices bind tighter.
                        g.degree(verts[b.0]).cmp(&g.degree(verts[a.0]))
                    })
                    .then(b.0.cmp(&a.0))
            });
            let Some((lu, e_uc)) = best else { break };
            let d_u = g.degree(verts[lu]) as f64;
            let gain = e_uc / m - cluster_degsum * d_u / (2.0 * m * m);
            if gain <= 0.0 {
                break;
            }
            label[lu] = c;
            flips += 1;
            cluster_degsum += d_u;
            cnt.remove(&lu);
            if budget.charge(1 + view.degree(verts[lu]) as u64).is_err() {
                break; // cluster grown so far stays as-is
            }
            for w in view.neighbors(verts[lu]) {
                if let Some(&lw) = local_of.get(&w) {
                    if label[lw] == u32::MAX {
                        *cnt.entry(lw).or_insert(0.0) += 1.0;
                    }
                }
            }
        }
    }
    (label, flips)
}

/// Greedy cluster-level merging while modularity increases (the "top
/// level" amalgamation), implemented over the same ΔQ structure as pMA.
fn amalgamate<G: Graph>(g: &G, clustering: Clustering, m: f64, budget: &Budget) -> Clustering {
    let k = clustering.count;
    if k <= 1 {
        return clustering;
    }
    // Inter-cluster edge counts, over the *live* edges only — a flat
    // `0..num_edges()` sweep would miscount on filtered views.
    let mut between: std::collections::HashMap<(u32, u32), f64> = std::collections::HashMap::new();
    let mut degsum = vec![0.0f64; k];
    for v in 0..g.num_vertices() as VertexId {
        degsum[clustering.cluster_of(v) as usize] += g.degree(v) as f64;
    }
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        let (cu, cv) = (clustering.cluster_of(u), clustering.cluster_of(v));
        if cu != cv {
            *between.entry((cu.min(cv), cu.max(cv))).or_insert(0.0) += 1.0;
        }
    }
    let mut neighbor_edges: Vec<Vec<(u32, f64)>> = vec![Vec::new(); k];
    for (&(a, b), &cnt) in &between {
        neighbor_edges[a as usize].push((b, cnt));
        neighbor_edges[b as usize].push((a, cnt));
    }
    let a: Vec<f64> = degsum.iter().map(|&d| d / (2.0 * m)).collect();
    let mut matrix = DqMatrix::new(neighbor_edges, a, m, usize::MAX);

    // Union-find over cluster labels.
    let mut parent: Vec<u32> = (0..k as u32).collect();
    fn find(parent: &mut [u32], x: u32) -> u32 {
        let mut root = x;
        while parent[root as usize] != root {
            root = parent[root as usize];
        }
        let mut cur = x;
        while parent[cur as usize] != root {
            let nxt = parent[cur as usize];
            parent[cur as usize] = root;
            cur = nxt;
        }
        root
    }
    let mut merges = 0u64;
    while let Some((i, j, dq)) = matrix.pop_best() {
        if dq <= 0.0 {
            break; // local algorithm stops at the modularity peak
        }
        if budget.charge(1).is_err() {
            break; // merges so far already form a valid clustering
        }
        matrix.merge(i, j);
        merges += 1;
        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
        if ri != rj {
            parent[rj as usize] = ri;
        }
    }
    snap_obs::add("amalgamate_merges", merges);
    let labels: Vec<u32> = clustering
        .assignment
        .iter()
        .map(|&c| find(&mut parent, c))
        .collect();
    Clustering::from_labels(&labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::normalized_mutual_information;
    use snap_graph::builder::from_edges;

    fn barbell() -> CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn splits_barbell() {
        let g = barbell();
        let r = pla(&g, &PlaConfig::default());
        assert_eq!(r.clustering.count, 2);
        assert_eq!(r.clustering.cluster_of(0), r.clustering.cluster_of(2));
        assert_ne!(r.clustering.cluster_of(0), r.clustering.cluster_of(4));
        assert!(r.q > 0.3);
    }

    #[test]
    fn pendant_vertices_reattached() {
        // Triangle with a pendant: the pendant's bridge is cut in step 1,
        // the amalgamation pass must merge it back.
        let g = from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)]);
        let r = pla(&g, &PlaConfig::default());
        assert_eq!(r.clustering.cluster_of(3), r.clustering.cluster_of(2));
    }

    #[test]
    fn reported_q_matches_direct() {
        let g = snap_io::karate_club();
        let r = pla(&g, &PlaConfig::default());
        let direct = modularity(&g, &r.clustering);
        assert!((r.q - direct).abs() < 1e-12);
    }

    #[test]
    fn karate_quality_reasonable() {
        let g = snap_io::karate_club();
        let r = pla(&g, &PlaConfig::default());
        // Paper Table 2: pLA = 0.397 on Karate. Local greedy with random
        // seeds is noisier than the global algorithms; accept the same
        // ballpark.
        assert!(r.q > 0.25, "karate pLA q = {}", r.q);
    }

    #[test]
    fn recovers_planted_partition() {
        let cfg = snap_gen::PlantedConfig::uniform(4, 25, 0.5, 0.02);
        let (g, truth) = snap_gen::planted_partition(&cfg, 29);
        let r = pla(&g, &PlaConfig::default());
        let nmi = normalized_mutual_information(&r.clustering, &Clustering::from_labels(&truth));
        assert!(nmi > 0.5, "nmi = {nmi}, q = {}", r.q);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = snap_io::karate_club();
        let a = pla(&g, &PlaConfig::default());
        let b = pla(&g, &PlaConfig::default());
        assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn no_bridge_removal_still_clusters() {
        let g = barbell();
        let r = pla(
            &g,
            &PlaConfig {
                remove_bridges: false,
                ..Default::default()
            },
        );
        assert!(r.q > 0.0);
    }

    #[test]
    fn edgeless_graph() {
        let g = from_edges(3, &[]);
        let r = pla(&g, &PlaConfig::default());
        assert_eq!(r.clustering.count, 3);
    }
}

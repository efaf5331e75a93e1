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
use std::collections::BinaryHeap;

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
    /// Greedy acceptances over every component: vertices pulled into a
    /// growing cluster beyond its seed (the `label_flips` counter).
    pub flips: u64,
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
            flips: 0,
        };
    }

    // Steps 1-2: cut bridges, decompose into components.
    if cfg.remove_bridges {
        let _span = snap_obs::span("pla.bridges");
        let bicc = biconnected_components(g);
        for &e in &bicc.bridges {
            view.delete_edge(e);
        }
        snap_obs::add("bridges_cut", bicc.bridges.len() as u64);
    }
    let components = snap_obs::span("pla.components");
    let members = connected_components(&view).members();
    snap_obs::add("components", members.len() as u64);
    // Components are disjoint, so one array holds every vertex's index
    // inside its own component, read by all of them.
    let mut local_of = vec![0u32; n];
    for verts in &members {
        for (i, &v) in verts.iter().enumerate() {
            local_of[v as usize] = i as u32;
        }
    }
    drop(components);

    // Step 3: greedy local aggregation inside each component, in
    // parallel, one work unit per component however few there are.
    // Labels are local (0-based per component) and offset afterwards.
    let grow = snap_obs::span("pla.grow");
    let locals: Vec<(Vec<u32>, u64)> = members
        .par_chunks(1)
        .enumerate()
        .map(|(ci, unit)| {
            let seed = cfg.seed ^ (ci as u64).wrapping_mul(0x9e3779b97f4a7c15);
            aggregate_component(g, &view, &local_of, &unit[0], seed, m, budget)
        })
        .collect();

    let mut labels = vec![0u32; n];
    let (mut next, mut flips) = (0u32, 0u64);
    for (verts, (local_labels, local_flips)) in members.iter().zip(&locals) {
        flips += local_flips;
        for (&v, &l) in verts.iter().zip(local_labels) {
            labels[v as usize] = next + l;
        }
        next += local_labels.iter().max().map_or(0, |x| x + 1);
    }
    snap_obs::add("label_flips", flips);
    drop(grow);

    // Step 4: top-level amalgamation across the removed bridges (and any
    // other inter-cluster edges), greedy while modularity increases.
    let clustering = {
        let _span = snap_obs::span("pla.amalgamate");
        amalgamate(g, Clustering::from_labels(&labels), m, budget)
    };
    let q = modularity(g, &clustering);
    snap_obs::gauge("modularity", q);
    if let Some(why) = budget.exhaustion() {
        snap_obs::meta("degraded", why);
    }
    PlaResult {
        clustering,
        q,
        flips,
    }
}

/// Greedily grow clusters inside one component; `local_of` maps each of
/// its vertices to its index in `verts`. Returns a local label per
/// component vertex (indexed like `verts`) plus the number of greedy
/// acceptances (vertices pulled into a growing cluster beyond its seed).
/// If the budget trips mid-sweep, the remaining vertices become
/// singletons (a valid, coarser partial result).
fn aggregate_component<G: Graph>(
    g: &G,
    view: &FilteredGraph<'_>,
    local_of: &[u32],
    verts: &[VertexId],
    seed: u64,
    m: f64,
    budget: &Budget,
) -> (Vec<u32>, u64) {
    let mut label = vec![u32::MAX; verts.len()];
    let mut order: Vec<usize> = (0..verts.len()).collect();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    order.shuffle(&mut rng);

    let mut next_label = 0u32;
    let mut flips = 0u64;
    // Edges from each candidate into the growing cluster, the candidates
    // counted since it began, and a lazy max-heap of keys packing
    // (edges, !degree, !index) high to low: the growth order (most edges,
    // then lower degree, then lower index), in which no two candidates
    // tie. A rise in a count pushes a new key; the old one ranks below
    // it, and popping the new one either labels its vertex or ends the
    // cluster, so only labelled keys need skipping.
    let mut cnt = vec![0u32; verts.len()];
    let mut touched: Vec<u32> = Vec::new();
    let mut heap = BinaryHeap::new();

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
        for &lu in &touched {
            cnt[lu as usize] = 0;
        }
        touched.clear();
        heap.clear();
        // Greedy growth: count the newest member's edges, then take the
        // best-connected candidate while the global modularity gain is
        // positive.
        let mut newest = seed_idx;
        loop {
            for u in view.neighbors(verts[newest]) {
                let lu = local_of[u as usize];
                if label[lu as usize] == u32::MAX {
                    let e = &mut cnt[lu as usize];
                    if *e == 0 {
                        touched.push(lu);
                    }
                    *e += 1;
                    let d = !(g.degree(u) as u64) as u128;
                    heap.push((*e as u128) << 96 | d << 32 | !lu as u128);
                }
            }
            let best = std::iter::from_fn(|| heap.pop())
                .find(|&key| label[!(key as u32) as usize] == u32::MAX);
            let Some(key) = best else { break };
            let (e_uc, lu) = ((key >> 96) as u32, !(key as u32));
            let d_u = !((key >> 32) as u64) as f64;
            let gain = e_uc as f64 / m - cluster_degsum * d_u / (2.0 * m * m);
            if gain <= 0.0 {
                break;
            }
            newest = lu as usize;
            label[newest] = c;
            flips += 1;
            cluster_degsum += d_u;
            if budget
                .charge(1 + view.degree(verts[newest]) as u64)
                .is_err()
            {
                break; // cluster grown so far stays as-is
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
    use proptest::prelude::*;
    use rand::Rng;
    use snap_graph::builder::from_edges;
    use std::collections::HashMap;

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

    /// The growth as it was before dense state and the lazy heap: `HashMap`
    /// bookkeeping and a linear argmax over every candidate per step.
    fn aggregate_component_oracle<G: Graph>(
        g: &G,
        view: &FilteredGraph<'_>,
        verts: &[VertexId],
        seed: u64,
        m: f64,
        budget: &Budget,
    ) -> (Vec<u32>, u64) {
        let mut local_of: HashMap<VertexId, usize> = HashMap::with_capacity(verts.len());
        for (i, &v) in verts.iter().enumerate() {
            local_of.insert(v, i);
        }
        let mut label = vec![u32::MAX; verts.len()];
        let mut order: Vec<usize> = (0..verts.len()).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        order.shuffle(&mut rng);

        let mut next_label = 0u32;
        let mut flips = 0u64;
        let mut cnt: HashMap<usize, f64> = HashMap::new();
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
                continue;
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
            loop {
                let best = cnt.iter().map(|(&lu, &e)| (lu, e)).max_by(|a, b| {
                    a.1.partial_cmp(&b.1)
                        .unwrap()
                        .then_with(|| g.degree(verts[b.0]).cmp(&g.degree(verts[a.0])))
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
                    break;
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

    /// Steps 1-2 of `pla_impl`: the view with its bridges cut, and its
    /// components.
    fn decompose<'a, G: Graph>(
        g: &G,
        mut view: FilteredGraph<'a>,
        cfg: &PlaConfig,
    ) -> (FilteredGraph<'a>, Vec<Vec<VertexId>>) {
        if cfg.remove_bridges {
            for &e in &biconnected_components(g).bridges {
                view.delete_edge(e);
            }
        }
        let members = connected_components(&view).members();
        (view, members)
    }

    /// `pla_impl` with the oracle growth, one component after another:
    /// final labels and the flip total.
    fn pla_oracle<G: Graph>(
        g: &G,
        view: FilteredGraph<'_>,
        cfg: &PlaConfig,
        budget: &Budget,
    ) -> (Vec<u32>, u64) {
        let m = g.num_edges() as f64;
        let (view, members) = decompose(g, view, cfg);
        let mut labels = vec![0u32; g.num_vertices()];
        let (mut next, mut flips) = (0u32, 0u64);
        for (ci, verts) in members.iter().enumerate() {
            let seed = cfg.seed ^ (ci as u64).wrapping_mul(0x9e3779b97f4a7c15);
            let (local, f) = aggregate_component_oracle(g, &view, verts, seed, m, budget);
            flips += f;
            for (&v, &l) in verts.iter().zip(&local) {
                labels[v as usize] = next + l;
            }
            next += local.iter().max().map_or(0, |x| x + 1);
        }
        let clustering = amalgamate(g, Clustering::from_labels(&labels), m, budget);
        (clustering.assignment, flips)
    }

    /// New growth against the oracle on `g` (a plain graph or a view):
    /// every component alone under a fresh budget of `cap` units, then the
    /// whole pipeline at `threads`. Components share one budget inside a
    /// pipeline and run concurrently above one thread, so there the cap
    /// applies only at one thread.
    fn check_against_oracle<G: Graph + Sync>(
        g: &G,
        view: FilteredGraph<'_>,
        cfg: &PlaConfig,
        cap: Option<u64>,
        threads: usize,
    ) -> Result<(), TestCaseError> {
        let budget = |cap: Option<u64>| cap.map_or_else(Budget::unlimited, Budget::with_work_cap);
        let m = g.num_edges() as f64;
        prop_assume!(m > 0.0);
        let (cut, members) = decompose(g, view.clone(), cfg);
        let mut local_of = vec![0u32; g.num_vertices()];
        for verts in &members {
            for (i, &v) in verts.iter().enumerate() {
                local_of[v as usize] = i as u32;
            }
        }
        for (ci, verts) in members.iter().enumerate() {
            let seed = cfg.seed ^ ci as u64;
            let (new_budget, old_budget) = (budget(cap), budget(cap));
            let new = aggregate_component(g, &cut, &local_of, verts, seed, m, &new_budget);
            let old = aggregate_component_oracle(g, &cut, verts, seed, m, &old_budget);
            prop_assert_eq!(new, old, "component {}", ci);
            prop_assert_eq!(new_budget.exhaustion(), old_budget.exhaustion());
        }
        let shared = if threads == 1 { cap } else { None };
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
        let r = pool
            .unwrap()
            .install(|| pla_impl(g, view.clone(), cfg, &budget(shared)));
        let (labels, flips) = pla_oracle(g, view, cfg, &budget(shared));
        prop_assert_eq!(r.clustering.assignment, labels);
        prop_assert_eq!(r.flips, flips);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn growth_matches_the_linear_scan_oracle(
            shape in (0u8..3, 24usize..320, 0u64..u64::MAX),
            drop_pct in 0u32..100,
            cap in 0u64..4500,
            knobs in (0usize..3, 0u8..4),
        ) {
            let (kind, n, seed) = shape;
            let g = match kind {
                0 => {
                    let cfg = snap_gen::PlantedConfig::with_target_degrees(n, 4, 6.0, 1.5);
                    snap_gen::planted_partition(&cfg, seed).0
                }
                1 => snap_gen::erdos_renyi(n, 2 * n, seed),
                _ => snap_gen::watts_strogatz(n, 3, 0.2, seed),
            };
            // Two cases in three run under a work cap, half on a view.
            let cap = (cap < 3000).then_some(cap + 1);
            let threads = [1, 2, 8][knobs.0];
            let cfg = PlaConfig { seed: seed.rotate_left(17), remove_bridges: knobs.1 != 0 };
            match drop_pct.checked_sub(50) {
                None => check_against_oracle(&g, FilteredGraph::new(&g), &cfg, cap, threads)?,
                Some(pct) => {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                    let mut view = FilteredGraph::new(&g);
                    for e in g.edge_ids() {
                        if rng.gen_range(0..100u32) < pct {
                            view.delete_edge(e);
                        }
                    }
                    check_against_oracle(&view, view.clone(), &cfg, cap, threads)?;
                }
            }
        }
    }
}

//! One differential table: every `Graph`-generic kernel × every graph
//! representation × {1, 2, 8} threads, against its sequential oracle.
//!
//! Representations: `CsrGraph`, `CompressedCsrGraph`, an all-live
//! `FilteredGraph` over each, and a `FilteredGraph` with holes in the
//! edge-id space over each. Per representation, integer outputs and the
//! `to_bits` of every f64 output must be equal at 1, 2 and 8 threads and
//! agree with the oracle (f64 sums: to relative 1e-6, the oracle brackets
//! them differently); representations of the same edge set must agree
//! with each other exactly. pMA and pLA have a row of their own: their
//! labels must be the same at every thread count.

use snap::centrality::{betweenness_from_sources, brandes, closeness, closeness_of};
use snap::centrality::{sample_sources, sampled_closeness, weighted_betweenness};
use snap::graph::subgraph::InducedSubgraph;
use snap::graph::{CompressedCsrGraph, CsrGraph, FilteredGraph, Graph, GraphBuilder};
use snap::graph::{VertexId, WeightedGraph};
use snap::kernels::{
    bfs, boruvka_msf, connected_components, coreness, delta_stepping, dijkstra,
    par_bfs_hybrid_stats, par_components_hybrid, par_components_lp, par_components_sv,
    HybridConfig, UNREACHABLE,
};
use snap::metrics::path_stats_sampled;
use snap::with_threads;

/// `g` with deterministic pseudo-random weights in `1..=61`, so that
/// Δ-stepping and Borůvka have something to order.
fn weighted(g: &CsrGraph) -> CsrGraph {
    let edges: Vec<(u32, u32, u32)> = g
        .edges()
        .map(|(e, u, v)| {
            (
                u,
                v,
                1 + (u64::from(e).wrapping_mul(2654435761) % 61) as u32,
            )
        })
        .collect();
    GraphBuilder::undirected(g.num_vertices())
        .add_weighted_edges(edges)
        .build()
}

/// Component labels renumbered by first occurrence: equal partitions
/// get equal vectors whatever the algorithm called them.
fn canonical(labels: &[u32]) -> Vec<u32> {
    let mut seen = std::collections::HashMap::new();
    labels
        .iter()
        .map(|&l| {
            let next = seen.len() as u32;
            *seen.entry(l).or_insert(next)
        })
        .collect()
}

/// Sequential Matula–Beck peeling: repeatedly remove a minimum-degree
/// vertex; a vertex removed while the running minimum is k has
/// coreness k. O(n²) — ground truth at test scale, not a kernel.
fn coreness_oracle<G: Graph>(g: &G) -> Vec<u32> {
    let n = g.num_vertices();
    let mut deg: Vec<usize> = (0..n).map(|v| g.degree(v as u32)).collect();
    let mut removed = vec![false; n];
    let mut core = vec![0u32; n];
    let mut k = 0usize;
    for _ in 0..n {
        let u = (0..n)
            .filter(|&v| !removed[v])
            .min_by_key(|&v| deg[v])
            .unwrap();
        k = k.max(deg[u]);
        core[u] = k as u32;
        removed[u] = true;
        for v in g.neighbors(u as u32) {
            if !removed[v as usize] {
                deg[v as usize] -= 1;
            }
        }
    }
    core
}

const PATH_SAMPLES: usize = 48;
const PATH_SEED: u64 = 3;

/// `(pairs, max, average)` of the distances from the sources
/// `path_stats_sampled` draws, by one sequential BFS each.
fn path_oracle<G: Graph>(g: &G) -> (u64, u32, f64) {
    let (mut pairs, mut total, mut max) = (0u64, 0u64, 0u32);
    for s in snap::centrality::sample_sources(g.num_vertices(), PATH_SAMPLES, PATH_SEED) {
        for (v, &d) in bfs(g, s).dist.iter().enumerate() {
            if d != UNREACHABLE && v as VertexId != s {
                pairs += 1;
                total += d as u64;
                max = max.max(d);
            }
        }
    }
    (pairs, max, total as f64 / pairs as f64)
}

/// Everything the kernels under test return for one graph at one thread
/// count; f64 outputs as their bit patterns, so `==` is bit-identity.
#[derive(PartialEq)]
struct Outputs {
    /// Per source: distances, depth, edges examined.
    bfs: Vec<(Vec<u32>, u32, u64)>,
    /// Canonical labels from the hybrid, label-propagation and
    /// Shiloach–Vishkin kernels.
    components: [Vec<u32>; 3],
    /// Coreness, degeneracy, rounds, decrements.
    coreness: (Vec<u32>, u32, u64, u64),
    /// Per source, for Δ = heuristic and Δ = 8.
    sssp: Vec<[Vec<u64>; 2]>,
    /// Vertex then edge scores.
    betweenness: Vec<u64>,
    closeness: Vec<u64>,
    /// Pairs, max, average, effective diameter.
    paths: (u64, u32, u64, u64),
    /// Chosen edges, total weight, trees.
    msf: (Vec<u32>, u64, usize),
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn sources_of<G: Graph>(g: &G) -> [VertexId; 3] {
    let n = g.num_vertices() as VertexId;
    [0, n / 2, n - 1]
}

fn run_kernels<G: WeightedGraph + Sync>(g: &G) -> Outputs {
    let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    let bc = betweenness_from_sources(g, &all);
    let core = coreness(g);
    let paths = path_stats_sampled(g, PATH_SAMPLES, PATH_SEED);
    let msf = boruvka_msf(g);
    Outputs {
        bfs: sources_of(g)
            .iter()
            .map(|&s| {
                let (r, stats) = par_bfs_hybrid_stats(g, s, &HybridConfig::default());
                (r.dist, stats.depth(), stats.total_edges_examined())
            })
            .collect(),
        components: [
            canonical(&par_components_hybrid(g).comp),
            canonical(&par_components_lp(g).comp),
            canonical(&par_components_sv(g).comp),
        ],
        coreness: (core.coreness, core.max_core, core.rounds, core.decrements),
        sssp: sources_of(g)
            .iter()
            .map(|&s| [delta_stepping(g, s, 0).dist, delta_stepping(g, s, 8).dist])
            .collect(),
        betweenness: bits(&[bc.vertex, bc.edge].concat()),
        closeness: bits(&closeness(g)),
        paths: (
            paths.pairs,
            paths.max,
            paths.average.to_bits(),
            paths.effective_diameter.to_bits(),
        ),
        msf: (msf.edges, msf.total_weight, msf.trees),
    }
}

fn assert_close(what: &str, got: &[u64], want: &[f64]) {
    assert_eq!(got.len(), want.len(), "{what}");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        let g = f64::from_bits(g);
        assert!(
            (g - w).abs() <= 1e-6 * w.abs().max(1.0),
            "{what}[{i}]: {g} vs oracle {w}"
        );
    }
}

/// The rows of one representation: thread-count identity, then the
/// 1-thread outputs against the sequential oracles.
fn check<G: WeightedGraph + Sync>(what: &str, g: &G) -> Outputs {
    let out = with_threads(1, || run_kernels(g));
    for threads in [2usize, 8] {
        let again = with_threads(threads, || run_kernels(g));
        assert!(again == out, "{what}: {threads} threads differ from 1");
    }

    for (&s, (dist, depth, _)) in sources_of(g).iter().zip(&out.bfs) {
        assert_eq!(*dist, bfs(g, s).dist, "{what}: bfs from {s}");
        let deepest = dist.iter().filter(|&&d| d != UNREACHABLE).max();
        assert_eq!(Some(depth), deepest, "{what}: bfs depth from {s}");
    }
    let cc = connected_components(g);
    for (labels, kernel) in out.components.iter().zip(["hybrid", "lp", "sv"]) {
        assert_eq!(*labels, canonical(&cc.comp), "{what}: components_{kernel}");
    }
    assert_eq!(out.coreness.0, coreness_oracle(g), "{what}: coreness");
    assert_eq!(Some(&out.coreness.1), out.coreness.0.iter().max());
    for (&s, by_delta) in sources_of(g).iter().zip(&out.sssp) {
        let reference = dijkstra(g, s).dist;
        for dist in by_delta {
            assert_eq!(*dist, reference, "{what}: delta_stepping from {s}");
        }
    }
    let bc = brandes(g);
    let want = [bc.vertex, bc.edge].concat();
    assert_close(&format!("{what}: betweenness"), &out.betweenness, &want);
    // One BFS per vertex either way, and an integer distance sum: the
    // single-vertex query is bit-identical to the sweep.
    let want: Vec<f64> = (0..g.num_vertices() as VertexId)
        .map(|v| closeness_of(g, v))
        .collect();
    assert_eq!(out.closeness, bits(&want), "{what}: closeness");
    let (pairs, max, average) = path_oracle(g);
    let (got_pairs, got_max, got_average, _) = out.paths;
    assert_eq!(
        (got_pairs, got_max, got_average),
        (pairs, max, average.to_bits()),
        "{what}: path_stats_sampled"
    );
    let (edges, _, trees) = &out.msf;
    assert_eq!(*trees, cc.count, "{what}: msf trees");
    assert_eq!(edges.len() + trees, g.num_vertices(), "{what}: msf size");
    out
}

/// All six representations of `base`; `holes` picks the edges the holed
/// views delete.
fn check_every_representation(name: &str, base: &CsrGraph, holes: impl Fn(u32) -> bool) {
    let csr = weighted(base);
    let ccsr = CompressedCsrGraph::from_csr(&csr);
    let full = check(&format!("{name}/csr"), &csr);
    let same = [
        check(&format!("{name}/compressed"), &ccsr),
        check(&format!("{name}/view(csr)"), &FilteredGraph::new(&csr)),
        check(
            &format!("{name}/view(compressed)"),
            &FilteredGraph::new(&ccsr),
        ),
    ];
    for (other, what) in same
        .iter()
        .zip(["compressed", "view(csr)", "view(compressed)"])
    {
        assert!(*other == full, "{name}: {what} differs from csr");
    }

    let mut holed = FilteredGraph::new(&csr);
    let mut holed_c = FilteredGraph::new(&ccsr);
    for e in csr.edge_ids().filter(|&e| holes(e)) {
        assert!(holed.delete_edge(e) && holed_c.delete_edge(e));
    }
    assert!(holed.num_edges() < csr.num_edges());
    let a = check(&format!("{name}/holed(csr)"), &holed);
    let b = check(&format!("{name}/holed(compressed)"), &holed_c);
    assert!(a == b, "{name}: holed views differ");
    assert!(a != full, "{name}: the holes changed nothing");
}

#[test]
fn rmat_scale_10() {
    let g = snap::gen::rmat(&snap::gen::RmatConfig::small_world(10, 2048), 77);
    check_every_representation("rmat10", &g, |e| e % 5 == 2);
}

#[test]
fn erdos_renyi_400() {
    let g = snap::gen::erdos_renyi(400, 1200, 42);
    check_every_representation("er400", &g, |e| e % 3 == 0);
}

/// pMA's and pLA's labels, pLA's flip count and both modularities, on a
/// planted graph and on a view of it with holes, must read the same at 1,
/// 2 and 8 threads: pMA merges in one global order, and pLA grows each
/// component serially inside its own work unit.
#[test]
fn community_labels_are_identical_at_every_thread_count() {
    use snap::community::{pla, pla_view, pma, PlaConfig, PmaConfig};
    let cfg = snap::gen::PlantedConfig::with_target_degrees(1 << 11, 16, 8.0, 2.0);
    let (g, _) = snap::gen::planted_partition(&cfg, 13);
    let mut view = FilteredGraph::new(&g);
    for e in g.edge_ids().filter(|e| e % 7 == 3) {
        view.delete_edge(e);
    }
    let run = || {
        let agglomerative = pma(&g, &PmaConfig::default());
        let local = [
            pla(&g, &PlaConfig::default()),
            pla_view(&view, &PlaConfig::default()),
        ];
        (
            agglomerative.clustering,
            agglomerative.q.to_bits(),
            local.map(|r| (r.clustering, r.q.to_bits(), r.flips)),
        )
    };
    let one = with_threads(1, run);
    for threads in [2usize, 8] {
        assert!(
            with_threads(threads, run) == one,
            "community labels at {threads} threads differ from 1"
        );
    }
}

/// The weighted subgraph induced by the `k` vertices nearest vertex 0:
/// `weighted_betweenness` runs one source per vertex, so this is a
/// `k`-source sweep over a connected piece of `g`.
fn nearest(g: &CsrGraph, k: usize) -> CsrGraph {
    let dist = bfs(g, 0).dist;
    let mut near: Vec<VertexId> = (0..g.num_vertices() as VertexId)
        .filter(|&v| dist[v as usize] != UNREACHABLE)
        .collect();
    near.sort_by_key(|&v| (dist[v as usize], v));
    near.truncate(k);
    InducedSubgraph::extract(g, &near).graph
}

/// Sweeps of at most 16 sources run one source per work unit when
/// threads take part and as one chunk at one thread: every f64 bit of
/// the four multi-source kernels must read the same at 1, 2 and 8
/// threads, for every source count from 1 to 16.
#[test]
fn few_source_sweeps_are_bit_identical_at_every_thread_count() {
    let rmat = snap::gen::rmat(&snap::gen::RmatConfig::small_world(10, 2048), 77);
    let er = snap::gen::erdos_renyi(400, 1200, 42);
    for (name, g) in [("rmat10", weighted(&rmat)), ("er400", weighted(&er))] {
        for k in 1..=16usize {
            let sub = nearest(&g, k);
            let run = || {
                let bc = betweenness_from_sources(&g, &sample_sources(g.num_vertices(), k, 5));
                let wbc = weighted_betweenness(&sub);
                let paths = path_stats_sampled(&g, k, 5);
                (
                    bits(&[bc.vertex, bc.edge].concat()),
                    bits(&sampled_closeness(&g, k, 5)),
                    bits(&[wbc.vertex, wbc.edge].concat()),
                    [paths.pairs, paths.max as u64, paths.average.to_bits()],
                    paths.effective_diameter.to_bits(),
                )
            };
            let one = with_threads(1, run);
            for threads in [2usize, 8] {
                assert!(
                    with_threads(threads, run) == one,
                    "{name}, {k} sources: {threads} threads differ from 1"
                );
            }
        }
    }
}

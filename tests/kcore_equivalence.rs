//! k-core and bucket-kernel equivalence: the parallel bucket-peeling
//! coreness kernel against a sequential peeling oracle on the standard
//! generator families, thread-count invariance, backend invariance, and
//! the Buckets Δ-stepping against Dijkstra on weighted R-MAT.

use snap::gen::{erdos_renyi, rmat, watts_strogatz, RmatConfig};
use snap::graph::{CompressedCsrGraph, CsrGraph, Graph, GraphBuilder};
use snap::kernels::{coreness, delta_stepping, dijkstra};
use snap::with_threads;

/// Sequential Matula–Beck peeling: repeatedly remove a minimum-degree
/// vertex; a vertex removed while the running minimum is k has
/// coreness k. O(n²) — ground truth at test scale, not a kernel.
fn coreness_oracle(g: &CsrGraph) -> Vec<u32> {
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
            let v = v as usize;
            if !removed[v] {
                deg[v] -= 1;
            }
        }
    }
    core
}

#[test]
fn coreness_matches_oracle_on_erdos_renyi() {
    for seed in [1, 42] {
        let g = erdos_renyi(300, 1500, seed);
        assert_eq!(coreness(&g).coreness, coreness_oracle(&g), "seed {seed}");
    }
}

#[test]
fn coreness_matches_oracle_on_rmat() {
    let g = rmat(&RmatConfig::small_world(8, 1024), 7);
    let r = coreness(&g);
    assert_eq!(r.coreness, coreness_oracle(&g));
    assert_eq!(r.max_core, *r.coreness.iter().max().unwrap());
}

#[test]
fn coreness_matches_oracle_on_watts_strogatz() {
    let g = watts_strogatz(256, 6, 0.1, 11);
    assert_eq!(coreness(&g).coreness, coreness_oracle(&g));
}

#[test]
fn coreness_thread_invariant() {
    let g = rmat(&RmatConfig::small_world(9, 2048), 77);
    let r1 = with_threads(1, || coreness(&g));
    let r4 = with_threads(4, || coreness(&g));
    let r8 = with_threads(8, || coreness(&g));
    assert_eq!(r1.coreness, r4.coreness);
    assert_eq!(r1.coreness, r8.coreness);
    assert_eq!(r1.rounds, r4.rounds);
    assert_eq!(r1.decrements, r8.decrements);
}

#[test]
fn coreness_backend_invariant() {
    let g = rmat(&RmatConfig::small_world(9, 2048), 5);
    let c = CompressedCsrGraph::from_csr(&g);
    let flat = coreness(&g);
    let comp = coreness(&c);
    assert_eq!(flat.coreness, comp.coreness);
    assert_eq!(flat.rounds, comp.rounds);
    assert_eq!(flat.decrements, comp.decrements);
}

/// Rebuild an R-MAT with deterministic pseudo-random edge weights.
fn weighted_rmat(scale: u32, seed: u64) -> CsrGraph {
    let g = rmat(&RmatConfig::small_world(scale, 1usize << (scale + 3)), seed);
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

#[test]
fn bucketed_delta_stepping_matches_flat_on_weighted_rmat() {
    let g = weighted_rmat(9, 1234);
    // Shortest-path distances are unique, so Dijkstra is the reference
    // for every Δ.
    for source in [0u32, 101, 500] {
        let reference = dijkstra(&g, source);
        for delta in [0u64, 1, 8, 64] {
            let bucketed = delta_stepping(&g, source, delta);
            assert_eq!(
                reference.dist, bucketed.dist,
                "source {source} delta {delta}: distances must be bit-identical"
            );
        }
    }
}

#[test]
fn bucketed_delta_stepping_thread_invariant_on_weighted_rmat() {
    let g = weighted_rmat(8, 99);
    let d1 = with_threads(1, || delta_stepping(&g, 3, 0)).dist;
    let d4 = with_threads(4, || delta_stepping(&g, 3, 0)).dist;
    let d8 = with_threads(8, || delta_stepping(&g, 3, 0)).dist;
    assert_eq!(d1, d4);
    assert_eq!(d1, d8);
}

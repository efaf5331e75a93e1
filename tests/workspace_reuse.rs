//! The workspace-history contract (DESIGN.md §11): kernel results must
//! never depend on what a [`TraversalWorkspace`] was previously used
//! for. One workspace (or pool) driven across a long sequence of calls
//! on *different* graphs — including filtered views whose shape differs
//! from the previous binding — must produce output bit-identical to a
//! fresh workspace per call.
//!
//! Floating-point outputs are compared with `==` on purpose: the epoch
//! layer claims exact reuse, not "close enough" reuse.

use proptest::prelude::*;
use snap::centrality::{
    betweenness_from_sources, betweenness_from_sources_in, closeness, closeness_in, closeness_of,
    closeness_of_into,
};
use snap::gen::{rmat, RmatConfig};
use snap::graph::{FilteredGraph, Graph, TraversalWorkspace};
use snap::kernels::{bfs, bfs_into, export_bfs, st_connectivity, st_connectivity_into};
use snap::metrics::{path_stats_in, path_stats_sampled};
use snap::{with_threads, Exec, Network};

/// A small connected-ish small-world instance; `seed` varies the shape.
fn graph(seed: u64) -> snap::graph::CsrGraph {
    let scale = 5 + (seed % 3) as u32; // 32..128 vertices
    rmat(&RmatConfig::small_world(scale, 4 << scale), seed)
}

/// Every vertex of `g`, as a source list for exact betweenness.
fn all_sources<G: Graph>(g: &G) -> Vec<u32> {
    (0..g.num_vertices() as u32).collect()
}

/// 50 sequential kernel calls on differing graphs (every 5th one a
/// filtered view), all through ONE workspace and ONE `Exec` (so one
/// pool), each compared bit-exactly against a fresh-scratch run.
#[test]
fn fifty_calls_one_workspace_bit_identical() {
    let mut ws = TraversalWorkspace::new();
    let exec = Exec::default();
    for i in 0..50u64 {
        let base = graph(i);
        if i % 5 == 4 {
            // Filtered view: drop every 3rd edge, shrinking shortest-path
            // structure without rebuilding the CSR.
            let mut fg = FilteredGraph::new(&base);
            for e in (0..base.edge_id_bound() as u32).step_by(3) {
                fg.delete_edge(e);
            }
            check_all(&fg, &mut ws, &exec, i);
        } else {
            check_all(&base, &mut ws, &exec, i);
        }
    }
    // 50 rounds × several kernels: the shared scratch must have been
    // reused far more often than it was allocated.
    let s = exec.pool.stats();
    assert!(
        s.reuses > 10 * s.full_clears,
        "pool reuse did not dominate: {s:?}"
    );
}

fn check_all<G: Graph>(g: &G, ws: &mut TraversalWorkspace, exec: &Exec, round: u64) {
    let n = g.num_vertices();
    let s = (round % n as u64) as u32;
    let t = ((round * 7 + 3) % n as u64) as u32;

    // BFS: distances and parents.
    let fresh = bfs(g, s);
    let tag = bfs_into(g, s, ws);
    let reused = export_bfs(n, ws, tag);
    assert_eq!(fresh.dist, reused.dist, "bfs dist, round {round}");
    assert_eq!(fresh.parent, reused.parent, "bfs parent, round {round}");

    // st-connectivity.
    assert_eq!(
        st_connectivity(g, s, t),
        st_connectivity_into(g, s, t, ws),
        "st-con, round {round}"
    );

    // Closeness: single-vertex (shared workspace) and full pass (pool).
    assert_eq!(
        closeness_of(g, s),
        closeness_of_into(g, s, ws),
        "closeness_of, round {round}"
    );
    assert_eq!(
        closeness(g),
        closeness_in(g, exec),
        "closeness, round {round}"
    );

    // Exact betweenness through the pool vs a fresh pool.
    let sources = all_sources(g);
    let a = betweenness_from_sources(g, &sources);
    let b = betweenness_from_sources_in(g, &sources, exec).scores;
    assert_eq!(a.vertex, b.vertex, "betweenness vertex, round {round}");
    assert_eq!(a.edge, b.edge, "betweenness edge, round {round}");

    // Sampled path statistics.
    let pa = path_stats_sampled(g, 8, round);
    let pb = path_stats_in(g, 8, round, exec).stats;
    assert_eq!(pa.average.to_bits(), pb.average.to_bits(), "round {round}");
    assert_eq!(pa.max, pb.max, "round {round}");
    assert_eq!(pa.pairs, pb.pairs, "round {round}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings: whatever graph the workspace saw last, the
    /// next call's results are exactly those of a fresh workspace.
    #[test]
    fn reuse_is_invisible(seeds in prop::collection::vec(0u64..1000, 2..6)) {
        let mut ws = TraversalWorkspace::new();
        let exec = Exec::default();
        for (i, &seed) in seeds.iter().enumerate() {
            let g = graph(seed);
            check_all(&g, &mut ws, &exec, i as u64 + seed);
        }
    }
}

/// The acceptance-side observability contract: in a pooled multi-source
/// kernel every traversal after each checked-out workspace's first is a
/// pure epoch reset, so `sources - workspace_pool_peak` of them are
/// reported as reuses — on any host, at any thread count.
#[test]
fn observed_run_reports_workspace_reuses() {
    for threads in [1usize, 2, 8] {
        // A fresh session per thread count: a warm pool would make even
        // first traversals reuses.
        let net = Network::new(rmat(&RmatConfig::small_world(8, 2048), 11));
        let n = net.graph().num_vertices() as u64;
        let obs = net.observed();
        let _ = with_threads(threads, || net.betweenness());
        let report = obs.finish();
        let span = report
            .find("centrality.betweenness")
            .expect("betweenness span recorded");
        let reuses = span.counter("workspace_reuses").unwrap_or(0);
        let peak = span.gauge("workspace_pool_peak").expect("peak gauge") as u64;
        assert!(
            reuses >= n - peak,
            "{threads} threads: expected >= {} workspace reuses, report shows {reuses}",
            n - peak
        );
        assert!(span.counter("epoch_resets").unwrap_or(0) >= reuses);
    }
}

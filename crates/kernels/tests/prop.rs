//! Property tests: parallel kernels agree with sequential ground truth on
//! randomized small-world inputs.

use proptest::prelude::*;
use snap_graph::{Graph, GraphBuilder, VertexId};
use snap_kernels::*;

fn arb_graph() -> impl Strategy<Value = snap_graph::CsrGraph> {
    (2usize..30).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 0..80).prop_map(move |edges| {
            // Deduplicate canonical pairs: the builder sums weights of
            // duplicate edges, and these tests assume unit weights.
            let mut uniq: Vec<(u32, u32)> = edges
                .into_iter()
                .map(|(u, v)| (u.min(v), u.max(v)))
                .collect();
            uniq.sort_unstable();
            uniq.dedup();
            GraphBuilder::undirected(n).add_edges(uniq).build()
        })
    })
}

proptest! {
    /// Every parallel BFS variant produces sequential BFS distances from
    /// every source: the vertex-partitioned ablation, and the
    /// direction-optimizing hybrid at the default, never-pull, and
    /// always-pull thresholds.
    #[test]
    fn par_bfs_matches_seq(g in arb_graph()) {
        for s in 0..g.num_vertices().min(5) {
            let a = bfs(&g, s as VertexId);
            let variants = [
                ("vertex-partitioned", par_bfs_vertex_partitioned(&g, s as VertexId)),
                ("hybrid", par_bfs(&g, s as VertexId)),
                ("hybrid-no-pull", par_bfs_hybrid_stats(
                    &g, s as VertexId, &HybridConfig { alpha: 0.0, beta: 24.0 }).0),
                ("hybrid-all-pull", par_bfs_hybrid_stats(
                    &g, s as VertexId, &HybridConfig { alpha: f64::INFINITY, beta: 24.0 }).0),
            ];
            for (name, b) in variants {
                prop_assert_eq!(&a.dist, &b.dist, "variant {} from {}", name, s);
            }
        }
    }

    /// Hybrid BFS parents form a valid BFS tree in every direction mode:
    /// each reached non-source vertex has a parent that is a real
    /// neighbor exactly one level closer to the source.
    #[test]
    fn hybrid_parents_form_bfs_tree(g in arb_graph()) {
        for alpha in [0.0, 14.0, f64::INFINITY] {
            let r = par_bfs_hybrid_stats(&g, 0, &HybridConfig { alpha, beta: 24.0 }).0;
            prop_assert_eq!(r.dist[0], 0);
            for v in 1..g.num_vertices() {
                if r.dist[v] == UNREACHABLE {
                    prop_assert_eq!(r.parent[v], NO_PARENT);
                    continue;
                }
                let p = r.parent[v];
                prop_assert!(p != NO_PARENT, "reached vertex {} has no parent", v);
                prop_assert_eq!(r.dist[p as usize] + 1, r.dist[v], "alpha {}, vertex {}", alpha, v);
                prop_assert!(
                    g.neighbors(p as VertexId).any(|x| x == v as VertexId),
                    "parent {} of {} is not a neighbor", p, v
                );
            }
        }
    }

    /// The parallel hybrid and the sequential sweep produce the same
    /// partition.
    #[test]
    fn component_algorithms_agree(g in arb_graph()) {
        let seq = connected_components(&g);
        let hybrid = par_components_hybrid(&g);
        prop_assert_eq!(seq.count, hybrid.count);
        let n = g.num_vertices();
        for u in 0..n {
            for v in (u + 1)..n {
                let same = seq.comp[u] == seq.comp[v];
                prop_assert_eq!(same, hybrid.comp[u] == hybrid.comp[v]);
            }
        }
    }

    /// Removing any bridge increases the component count; removing any
    /// non-bridge does not.
    #[test]
    fn bridges_are_exactly_the_cut_edges(g in arb_graph()) {
        let bicc = biconnected_components(&g);
        let base = connected_components(&g).count;
        for e in g.edge_ids() {
            let mut f = snap_graph::FilteredGraph::new(&g);
            f.delete_edge(e);
            let after = connected_components(&f).count;
            if bicc.is_bridge(e) {
                prop_assert_eq!(after, base + 1, "bridge {} must disconnect", e);
            } else {
                prop_assert_eq!(after, base, "non-bridge {} must not disconnect", e);
            }
        }
    }

    /// The spanning forest has exactly n - #components edges and spans:
    /// contracting tree edges yields the same component structure.
    #[test]
    fn spanning_forest_spans(g in arb_graph()) {
        let f = spanning_forest(&g);
        let c = connected_components(&g);
        prop_assert_eq!(f.trees, c.count);
        prop_assert_eq!(f.tree_edges.len(), f.parent.len() - f.trees);
    }

    /// Delta-stepping equals Dijkstra for arbitrary graphs and deltas.
    #[test]
    fn delta_stepping_correct(g in arb_graph(), delta in 0u64..8) {
        let a = dijkstra(&g, 0);
        let b = delta_stepping(&g, 0, delta);
        prop_assert_eq!(a.dist, b.dist);
    }

    /// BFS distance equals Dijkstra distance on unit weights.
    #[test]
    fn bfs_is_unit_dijkstra(g in arb_graph()) {
        let a = bfs(&g, 0);
        let b = dijkstra(&g, 0);
        for v in 0..g.num_vertices() {
            let bd = if a.dist[v] == UNREACHABLE { INF } else { a.dist[v] as u64 };
            prop_assert_eq!(bd, b.dist[v]);
        }
    }

    /// MSF weight is invariant under edge order (determinism) and the MSF
    /// connects exactly the input's components.
    #[test]
    fn msf_structure(g in arb_graph()) {
        let msf = boruvka_msf(&g);
        let c = connected_components(&g);
        prop_assert_eq!(msf.trees, c.count);
        prop_assert_eq!(msf.edges.len(), g.num_vertices() - c.count);
    }
}

/// Every parallel BFS variant agrees with sequential BFS on the three
/// generator families, under 1-, 4-, and 8-worker rayon pools (fixed
/// seeds keep runtime bounded; pool size exercises the work-splitting
/// paths rather than the proptest shrinker).
#[test]
fn bfs_variants_agree_across_generators_and_thread_counts() {
    let graphs = [
        ("er", snap_gen::erdos_renyi(512, 2048, 7)),
        (
            "rmat",
            snap_gen::rmat(&snap_gen::RmatConfig::small_world(9, 2048), 7),
        ),
        ("ws", snap_gen::watts_strogatz(512, 4, 0.1, 7)),
    ];
    for (name, g) in &graphs {
        let seq = bfs(g, 0);
        for threads in [1usize, 4, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("building rayon pool");
            pool.install(|| {
                let forced =
                    |alpha| par_bfs_hybrid_stats(g, 0, &HybridConfig { alpha, beta: 24.0 }).0;
                let variants = [
                    ("vertex-partitioned", par_bfs_vertex_partitioned(g, 0)),
                    ("hybrid", par_bfs(g, 0)),
                    ("hybrid-no-pull", forced(0.0)),
                    ("hybrid-all-pull", forced(f64::INFINITY)),
                ];
                for (vname, r) in variants {
                    assert_eq!(seq.dist, r.dist, "{name}/{vname} @ {threads} threads");
                }
            });
        }
    }
}

/// Larger randomized agreement check on an R-MAT instance (not proptest —
/// one fixed seed keeps runtime bounded).
#[test]
fn rmat_kernels_agree() {
    let g = snap_gen::rmat(&snap_gen::RmatConfig::small_world(10, 4096), 99);
    let seq = connected_components(&g);
    let hybrid = par_components_hybrid(&g);
    assert_eq!(seq.count, hybrid.count);
    let a = bfs(&g, 0);
    let b = par_bfs(&g, 0);
    assert_eq!(a.dist, b.dist);
}

#[test]
fn par_forest_same_shape() {
    let g = snap_graph::builder::from_edges(6, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)]);
    let a = spanning_forest(&g);
    let b = par_spanning_forest(&g);
    assert_eq!(a.trees, b.trees);
    assert_eq!(a.tree_edges.len(), b.tree_edges.len());
    assert_eq!(b.tree_edges.len(), b.parent.len() - b.trees);
}

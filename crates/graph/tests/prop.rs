//! Property-based tests for the representation layer.

use proptest::prelude::*;
use snap_graph::{
    CsrGraph, DynGraph, EdgeId, EdgeOp, FilteredGraph, Graph, GraphBuilder, InducedSubgraph,
    StreamingGraph, Treap, VertexId, Weight, WeightedGraph,
};
use std::collections::{BTreeSet, HashSet};

/// Strategy: a random undirected edge list over `n <= 24` vertices.
fn edge_list() -> impl Strategy<Value = (usize, Vec<(VertexId, VertexId)>)> {
    (2usize..24).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n as u32, 0..n as u32), 0..64);
        (Just(n), edges)
    })
}

proptest! {
    /// CSR construction: arcs are consistent, adjacencies sorted, degrees
    /// sum to the arc count, and both arcs of an edge share an id.
    #[test]
    fn csr_invariants((n, edges) in edge_list()) {
        let g = GraphBuilder::undirected(n).add_edges(edges).build();
        g.validate().unwrap();
        prop_assert_eq!(g.total_degree(), g.num_arcs());
        for v in g.vertices() {
            let ns = g.neighbor_slice(v);
            prop_assert!(ns.windows(2).all(|w| w[0] < w[1]), "sorted, no dups");
        }
    }

    /// Treap set algebra agrees with BTreeSet set algebra.
    #[test]
    fn treap_set_ops_match_model(
        xs in prop::collection::btree_set(0u16..64, 0..40),
        ys in prop::collection::btree_set(0u16..64, 0..40),
    ) {
        let tx: Treap<u16> = xs.iter().copied().collect();
        let ty: Treap<u16> = ys.iter().copied().collect();
        let union: Vec<u16> = tx.clone().union(ty.clone()).iter().copied().collect();
        let inter: Vec<u16> = tx.clone().intersection(ty.clone()).iter().copied().collect();
        let diff: Vec<u16> = tx.difference(ty).iter().copied().collect();
        prop_assert_eq!(union, xs.union(&ys).copied().collect::<Vec<_>>());
        prop_assert_eq!(inter, xs.intersection(&ys).copied().collect::<Vec<_>>());
        prop_assert_eq!(diff, xs.difference(&ys).copied().collect::<Vec<_>>());
    }

    /// DynGraph round-trips through CSR with identical adjacency sets, at
    /// every treap threshold.
    #[test]
    fn dyngraph_csr_roundtrip((n, edges) in edge_list(), threshold in 0usize..16) {
        let g = GraphBuilder::undirected(n).add_edges(edges).build();
        let mut d = DynGraph::with_threshold(n, threshold);
        for (_, u, v) in g.edges() {
            d.insert_edge(u, v);
        }
        prop_assert_eq!(d.num_edges(), g.num_edges());
        let back = d.to_csr();
        for v in g.vertices() {
            let mut a: Vec<_> = g.neighbors(v).collect();
            let mut b: Vec<_> = back.neighbors(v).collect();
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    /// Deleting then restoring every edge of a FilteredGraph returns it to
    /// the pristine state.
    #[test]
    fn filtered_delete_restore_is_identity((n, edges) in edge_list()) {
        let g = GraphBuilder::undirected(n).add_edges(edges).build();
        let mut f = FilteredGraph::new(&g);
        let ids: Vec<_> = f.live_edge_ids().collect();
        for &e in &ids {
            prop_assert!(f.delete_edge(e));
        }
        prop_assert_eq!(f.num_edges(), 0);
        for v in g.vertices() {
            prop_assert_eq!(f.degree(v), 0);
        }
        for &e in &ids {
            prop_assert!(f.restore_edge(e));
        }
        prop_assert_eq!(f.num_edges(), g.num_edges());
        for v in g.vertices() {
            prop_assert_eq!(f.degree(v), g.degree(v));
            let a: Vec<_> = f.neighbors(v).collect();
            let b: Vec<_> = g.neighbors(v).collect();
            prop_assert_eq!(a, b);
        }
    }

    /// DynGraph::has_edge agrees with an edge-set model under random
    /// insertions and deletions.
    #[test]
    fn dyngraph_matches_model(
        ops in prop::collection::vec((0u8..2, 0u32..12, 0u32..12), 1..100),
        threshold in 0usize..8,
    ) {
        let mut g = DynGraph::with_threshold(12, threshold);
        let mut model: BTreeSet<(u32, u32)> = BTreeSet::new();
        for (op, u, v) in ops {
            let key = (u.min(v), u.max(v));
            if op == 0 {
                let inserted = g.insert_edge(u, v);
                let model_inserted = u != v && model.insert(key);
                prop_assert_eq!(inserted, model_inserted);
            } else {
                prop_assert_eq!(g.delete_edge(u, v), model.remove(&key));
            }
            prop_assert_eq!(g.num_edges(), model.len());
        }
        for u in 0..12u32 {
            for v in 0..12u32 {
                prop_assert_eq!(g.has_edge(u, v), model.contains(&(u.min(v), u.max(v))));
            }
        }
    }
    /// DynGraph agrees with a `HashSet<(u, v)>` model on *every* observable
    /// (`has_edge`, `degree`, `num_edges`) at the degenerate thresholds:
    /// 0 (all treaps, immediate promotion), 4 (both representations and
    /// the demotion hysteresis in play), and `usize::MAX` (all arrays,
    /// never promotes).
    #[test]
    fn dyngraph_observables_match_hashset_model(
        ops in prop::collection::vec((0u8..2, 0u32..10, 0u32..10), 1..160),
        threshold_pick in 0usize..3,
    ) {
        let n = 10u32;
        let threshold = [0, 4, usize::MAX][threshold_pick];
        let mut g = DynGraph::with_threshold(n as usize, threshold);
        let mut model: HashSet<(u32, u32)> = HashSet::new();
        for &(op, u, v) in &ops {
            let key = (u.min(v), u.max(v));
            if op == 0 {
                prop_assert_eq!(g.insert_edge(u, v), u != v && model.insert(key));
            } else {
                prop_assert_eq!(g.delete_edge(u, v), model.remove(&key));
            }
            prop_assert_eq!(g.num_edges(), model.len());
        }
        for u in 0..n {
            let degree = model.iter().filter(|&&(a, b)| a == u || b == u).count();
            prop_assert_eq!(g.degree(u), degree, "degree of {}", u);
            for v in 0..n {
                prop_assert_eq!(g.has_edge(u, v), model.contains(&(u.min(v), u.max(v))));
            }
        }
    }

    /// Every snapshot the streaming engine publishes via delta-merge is
    /// identical to a from-scratch rebuild of an oracle `DynGraph` the
    /// same ops replay into, and epochs only move forward.
    #[test]
    fn stream_snapshots_match_full_rebuild(
        ops in prop::collection::vec((0u8..2, 0u32..10, 0u32..10), 1..120),
        batch in 1usize..24,
    ) {
        let mut sg = StreamingGraph::new(0);
        let mut live = DynGraph::new(0);
        let mut last_epoch = 0;
        for chunk in ops.chunks(batch) {
            let edge_ops: Vec<EdgeOp> = chunk
                .iter()
                .map(|&(op, u, v)| if op == 0 { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) })
                .collect();
            sg.apply_batch(&edge_ops);
            let snap = sg.merge();
            snap.graph.validate().unwrap();
            prop_assert!(snap.epoch >= last_epoch, "epochs are monotone");
            last_epoch = snap.epoch;
            for op in edge_ops {
                match op {
                    EdgeOp::Insert(u, v) => live.insert_edge(u, v),
                    EdgeOp::Delete(u, v) => live.delete_edge(u, v),
                };
            }
            let rebuilt = live.to_csr();
            prop_assert_eq!(snap.graph.num_vertices(), rebuilt.num_vertices());
            prop_assert_eq!(snap.graph.num_edges(), rebuilt.num_edges());
            for v in rebuilt.vertices() {
                let a: Vec<_> = snap.graph.neighbor_slice(v).to_vec();
                let mut b: Vec<_> = rebuilt.neighbors(v).collect();
                b.sort_unstable();
                prop_assert_eq!(a, b, "adjacency of {} at epoch {}", v, snap.epoch);
            }
        }
    }
}

proptest! {
    /// The edge-id contract: `edge_ids()` yields exactly `num_edges()`
    /// live ids, all below `edge_id_bound()`, for both the dense CSR
    /// representation and a filtered view with random deletions.
    #[test]
    fn edge_ids_count_matches_num_edges(
        (n, edges) in edge_list(),
        dels in prop::collection::vec(0usize..64, 0..32),
    ) {
        let g = GraphBuilder::undirected(n).add_edges(edges).build();
        prop_assert_eq!(g.edge_ids().count(), g.num_edges());
        prop_assert!(g.edge_ids().all(|e| (e as usize) < g.edge_id_bound()));

        let mut view = FilteredGraph::new(&g);
        for d in dels {
            if g.num_edges() > 0 {
                view.delete_edge((d % g.num_edges()) as u32);
            }
        }
        prop_assert_eq!(view.edge_ids().count(), view.num_edges());
        prop_assert!(view.edge_ids().all(|e| view.is_live(e)));
        prop_assert!(view.edge_ids().all(|e| (e as usize) < view.edge_id_bound()));

        // The rebuilt graph compacts ids but keeps the live count.
        let rebuilt = view.rebuild();
        prop_assert_eq!(rebuilt.num_edges(), view.num_edges());
        prop_assert_eq!(rebuilt.edge_ids().count(), view.edge_ids().count());
    }
}

/// A graph as its accessors show it: per-vertex adjacency with edge ids,
/// then per-edge endpoints and weights.
type Shape = (
    Vec<(Vec<VertexId>, Vec<EdgeId>)>,
    Vec<(VertexId, VertexId, Weight)>,
    bool,
);

fn shape(g: &CsrGraph) -> Shape {
    let rows = g.vertices();
    let rows = rows.map(|v| {
        (
            g.neighbor_slice(v).to_vec(),
            g.neighbors_with_eid(v).map(|(_, e)| e).collect(),
        )
    });
    let edges = g.edges().map(|(e, u, v)| (u, v, g.edge_weight(e)));
    (rows.collect(), edges.collect(), g.is_weighted())
}

/// Extract the subgraph of `src` induced by `picks` and check it against
/// the builder's graph of the live edges it should keep, mapped to local
/// ids, and against `src` edge by edge.
fn check_subgraph<G: Graph + WeightedGraph>(
    src: &G,
    picks: &[VertexId],
) -> Result<(), TestCaseError> {
    let sub = InducedSubgraph::extract(src, picks);
    let mut first_seen = Vec::new();
    for &v in picks {
        if !first_seen.contains(&v) {
            first_seen.push(v);
        }
    }
    prop_assert_eq!(&sub.to_global, &first_seen);
    let local = |g: VertexId| sub.to_global.iter().position(|&x| x == g);
    let mapped = src.edge_ids().filter_map(|e| {
        let (u, v) = src.edge_endpoints(e);
        Some((
            local(u)? as VertexId,
            local(v)? as VertexId,
            src.edge_weight(e),
        ))
    });
    let k = sub.to_global.len();
    let builder = match src.is_directed() {
        true => GraphBuilder::directed(k),
        false => GraphBuilder::undirected(k),
    };
    prop_assert_eq!(
        shape(&sub.graph),
        shape(&builder.add_weighted_edges(mapped).build())
    );
    prop_assert_eq!(sub.edge_to_global.len(), sub.graph.num_edges());
    for (le, &ge) in (0..).zip(&sub.edge_to_global) {
        let (lu, lv) = sub.graph.edge_endpoints(le);
        let (gu, gv) = (sub.to_global[lu as usize], sub.to_global[lv as usize]);
        let global = src.edge_endpoints(ge);
        let same = global == (gu, gv) || (!src.is_directed() && global == (gv, gu));
        prop_assert!(
            same,
            "local edge {le} is ({gu}, {gv}), global {ge} is {global:?}"
        );
        prop_assert_eq!(sub.graph.edge_weight(le), src.edge_weight(ge));
    }
    Ok(())
}

proptest! {
    /// Subgraphs drawn from vertex lists in random order with repeats, so
    /// the edge keys reach the sort unsorted, from directed and undirected
    /// graphs with weights, some behind a view with deleted edges.
    #[test]
    fn subgraph_extraction_matches_a_build_of_its_live_edges(
        (n, edges) in edge_list(),
        weights in prop::collection::vec(1u32..4, 64),
        directed in 0u8..2,
        picks in prop::collection::vec(0u32..24, 0..32),
        dels in prop::collection::vec(0usize..64, 0..16),
    ) {
        let edges = edges.iter().zip(&weights).map(|(&(u, v), &w)| (u, v, w));
        let builder = match directed {
            1 => GraphBuilder::directed(n),
            _ => GraphBuilder::undirected(n),
        };
        let g = builder.add_weighted_edges(edges).build();
        let picks: Vec<VertexId> = picks.into_iter().filter(|&v| (v as usize) < n).collect();
        check_subgraph(&g, &picks)?;
        let mut view = FilteredGraph::new(&g);
        for d in dels {
            if g.num_edges() > 0 {
                view.delete_edge((d % g.num_edges()) as EdgeId);
            }
        }
        for v in view.vertices() {
            prop_assert_eq!(view.degree(v), view.neighbors(v).count());
        }
        check_subgraph(&view, &picks)?;
    }
}

use snap_graph::CompressedCsrGraph;

proptest! {
    /// A `FilteredGraph` view over the compressed backend behaves
    /// identically to one over the flat CSR under the same deletions.
    #[test]
    fn filtered_over_compressed_matches_csr(
        (n, edges) in edge_list(),
        dels in prop::collection::vec(0usize..64, 0..32),
    ) {
        let g = GraphBuilder::undirected(n).add_edges(edges).build();
        let c = CompressedCsrGraph::from_csr(&g);
        let mut fg = FilteredGraph::new(&g);
        let mut fc = FilteredGraph::new(&c);
        for d in dels {
            if g.num_edges() > 0 {
                let e = (d % g.num_edges()) as u32;
                prop_assert_eq!(fg.delete_edge(e), fc.delete_edge(e));
            }
        }
        prop_assert_eq!(fc.num_edges(), fg.num_edges());
        for v in g.vertices() {
            prop_assert_eq!(fc.degree(v), fg.degree(v));
            let a: Vec<_> = fg.neighbors(v).collect();
            let b: Vec<_> = fc.neighbors(v).collect();
            prop_assert_eq!(a, b, "filtered adjacency of {}", v);
        }
        let a: Vec<_> = fg.edge_ids().collect();
        let b: Vec<_> = fc.edge_ids().collect();
        prop_assert_eq!(a, b);
    }

}

//! The betweenness kernel against a frozen copy of the push-only
//! per-source body: a FIFO BFS that discovers every vertex from its
//! first frontier parent. The copy runs through the same sweep, scaling
//! and [`finalize`], so where the kernel makes the same additions in
//! the same order the two agree bit for bit.

use crate::betweenness_from_sources;
use crate::brandes::{accumulate_source, add_accumulators, finalize, BetweennessScores};
use proptest::prelude::*;
use snap_gen::{planted_partition, rmat, road_grid, PlantedConfig, RmatConfig};
use snap_graph::scratch::{stamped, BrandesSlot, PredArc};
use snap_graph::view::FilteredGraph;
use snap_graph::{CsrGraph, Graph, GraphBuilder, TraversalWorkspace, VertexId};
use snap_kernels::sweep::{sample_sources, sweep};
use snap_kernels::Exec;
use std::cell::Cell;

/// The per-source body before per-level direction choice: every level
/// is a push over the frontier's arcs.
fn push_only_source<G: Graph>(
    g: &G,
    s: VertexId,
    ws: &mut TraversalWorkspace,
    vacc: &mut [f64],
    eacc: &mut [f64],
) {
    let tag = ws.begin(g.num_vertices());
    let snap_graph::scratch::Slots {
        dist,
        bslot: slot,
        order,
        pred,
        ..
    } = ws.slots();
    let si = s as usize;
    dist[si] = tag;
    slot[si].sigma = 1.0;
    slot[si].delta = 0.0;
    slot[si].pred_end = slot[si].pred_off;
    order.push(s);
    let mut head = 0usize;
    let mut level_end = 1usize;
    let mut dnext = tag | 1;
    while head < order.len() {
        if head == level_end {
            level_end = order.len();
            dnext += 1;
        }
        let u = order[head];
        head += 1;
        let su = slot[u as usize].sigma;
        for (v, e) in g.neighbors_with_eid(u) {
            let vi = v as usize;
            let wv = dist[vi];
            if wv == dnext {
                let sv = &mut slot[vi];
                sv.sigma += su;
                pred[sv.pred_end as usize] = PredArc { v: u, e };
                sv.pred_end += 1;
            } else if !stamped(wv, tag) {
                dist[vi] = dnext;
                let sv = &mut slot[vi];
                let off = sv.pred_off;
                sv.sigma = su;
                sv.delta = 0.0;
                sv.pred_end = off + 1;
                pred[off as usize] = PredArc { v: u, e };
                order.push(v);
            }
        }
    }
    for i in (0..order.len()).rev() {
        let w = order[i];
        let wi = w as usize;
        let BrandesSlot {
            sigma: sw,
            delta: dw,
            pred_off,
            pred_end,
            ..
        } = slot[wi];
        let coeff = (1.0 + dw) / sw;
        for &PredArc { v, e } in &pred[pred_off as usize..pred_end as usize] {
            let c = slot[v as usize].sigma * coeff;
            slot[v as usize].delta += c;
            eacc[e as usize] += c;
        }
        if w != s {
            vacc[wi] += dw;
        }
    }
}

/// [`betweenness_from_sources`] with the push-only body.
fn oracle<G: Graph>(g: &G, sources: &[VertexId]) -> BetweennessScores {
    let n = g.num_vertices();
    let m = g.edge_id_bound();
    let (sums, used) = sweep(
        &Exec::default(),
        sources,
        "brandes.source",
        16,
        |ws| {
            ws.bind_preds(g);
            (vec![0.0; n], vec![0.0; m])
        },
        |(vacc, eacc), s, ws| {
            push_only_source(g, s, ws, vacc, eacc);
            ws.order.len() as u64 + 1
        },
        add_accumulators,
    );
    let (vertex, edge) = sums.unwrap_or_else(|| (vec![0.0; n], vec![0.0; m]));
    let scale = if used == 0 {
        1.0
    } else {
        n as f64 / used as f64
    };
    let vertex = vertex.into_iter().map(|x| x * scale).collect();
    let edge = edge.into_iter().map(|x| x * scale).collect();
    finalize(g, vertex, edge)
}

/// One input family of the comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Arbitrary,
    Rmat,
    Planted,
    Filtered,
    DirectedRmat,
    Grid,
}

const KINDS: [Kind; 6] = [
    Kind::Arbitrary,
    Kind::Rmat,
    Kind::Planted,
    Kind::Filtered,
    Kind::DirectedRmat,
    Kind::Grid,
];

fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (3usize..20).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 1..50).prop_map(move |edges| {
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

/// The case's graph: `arbitrary` itself, or one generated at `scale`.
fn build(kind: Kind, arbitrary: CsrGraph, scale: u32, seed: u64) -> CsrGraph {
    let rmat_config = RmatConfig::small_world(scale, 8 << scale);
    match kind {
        Kind::Arbitrary => arbitrary,
        Kind::Rmat | Kind::Filtered => rmat(&rmat_config, seed),
        Kind::DirectedRmat => rmat(
            &RmatConfig {
                directed: true,
                ..rmat_config
            },
            seed,
        ),
        Kind::Planted => {
            planted_partition(
                &PlantedConfig::with_target_degrees(1 << 10, 16, 8.0, 2.0),
                seed,
            )
            .0
        }
        Kind::Grid => road_grid(32, 32, 0.0, 0.0, seed),
    }
}

thread_local! {
    /// Traversals over every case that pulled no level, and that pulled one.
    static PULLED: Cell<[usize; 2]> = const { Cell::new([0; 2]) };
}

/// Kernel and oracle on `g` from `sources`: bit for bit where `exact`,
/// else within 1e-12 relative per score.
fn compare<G: Graph>(g: &G, sources: &[VertexId], exact: bool) -> Result<(), TestCaseError> {
    let got = betweenness_from_sources(g, sources);
    let mut ws = TraversalWorkspace::new();
    ws.bind_preds(g);
    let mut acc = (vec![0.0; g.num_vertices()], vec![0.0; g.edge_id_bound()]);
    for &s in sources {
        let (_, pull_levels) = accumulate_source(g, s, &mut ws, &mut acc.0, &mut acc.1);
        let mut pulled = PULLED.get();
        pulled[(pull_levels > 0) as usize] += 1;
        PULLED.set(pulled);
    }
    let want = oracle(g, sources);
    let pairs = got.vertex.iter().zip(&want.vertex);
    for (i, (&a, &b)) in pairs.chain(got.edge.iter().zip(&want.edge)).enumerate() {
        if exact {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "score {}: {} vs {}", i, a, b);
        } else {
            let tol = 1e-12 * a.abs().max(b.abs());
            prop_assert!((a - b).abs() <= tol, "score {}: {} vs {}", i, a, b);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Arbitrary small graphs from every source; R-MAT at scales 6–10,
    /// planted 2^10, R-MAT with every fifth edge deleted, directed R-MAT
    /// and a 32×32 grid from 24 sampled sources. Directed graphs and
    /// grids never pull, so they must match bit for bit.
    fn oracle_cases(
        kind in 0usize..KINDS.len(),
        arbitrary in arb_graph(),
        scale in 6u32..11,
        seed in 0u64..1 << 32,
    ) {
        let kind = KINDS[kind];
        let g = build(kind, arbitrary, scale, seed);
        let n = g.num_vertices();
        let sources = match kind {
            Kind::Arbitrary => (0..n as VertexId).collect(),
            _ => sample_sources(n, 24, seed),
        };
        let exact = matches!(kind, Kind::DirectedRmat | Kind::Grid);
        if kind == Kind::Filtered {
            let mut view = FilteredGraph::new(&g);
            for e in (0..g.edge_id_bound() as u32).step_by(5) {
                view.delete_edge(e);
            }
            compare(&view, &sources, exact)?;
        } else {
            compare(&g, &sources, exact)?;
        }
    }
}

#[test]
fn betweenness_equals_the_push_only_oracle() {
    oracle_cases();
    let [pushed, pulled] = PULLED.get();
    assert!(
        pushed > 0 && pulled > 0,
        "{pushed} push-only, {pulled} pulled"
    );
}

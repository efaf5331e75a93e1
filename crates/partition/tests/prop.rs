//! Property tests for the partitioning stack.

use proptest::prelude::*;
use snap_graph::{CsrGraph, Graph, GraphBuilder, VertexId, Weight, WeightedGraph};
use snap_partition::*;
use std::collections::BinaryHeap;

fn arb_graph() -> impl Strategy<Value = snap_graph::CsrGraph> {
    (8usize..40).prop_flat_map(|n| {
        // A ring backbone keeps the graph connected, plus random chords.
        prop::collection::vec((0..n as u32, 0..n as u32), 0..60).prop_map(move |extra| {
            let mut edges: Vec<(u32, u32)> =
                (0..n as u32).map(|v| (v, (v + 1) % n as u32)).collect();
            edges.extend(extra.into_iter().filter(|&(u, v)| u != v));
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

/// Weighted graphs on 1..40 vertices with no backbone, so some vertices
/// are isolated. Each edge's weight is `weight` of a uniform `u32`; an
/// edge may be drawn twice, so the builder merges (and may saturate) it.
fn arb_weighted_graph(weight: fn(u32) -> Weight) -> impl Strategy<Value = CsrGraph> {
    (1usize..40).prop_flat_map(move |n| {
        prop::collection::vec((0..n as u32, 0..n as u32, 0..u32::MAX), 0..80).prop_map(
            move |edges| {
                let edges = edges.into_iter().map(|(u, v, r)| (u, v, weight(r)));
                GraphBuilder::undirected(n)
                    .with_edges(edges.collect())
                    .build()
            },
        )
    })
}

/// Weights 0, 1, small, and within 8 of `u32::MAX`, so contraction
/// merges saturate.
fn coarsen_weight(r: u32) -> Weight {
    match r % 4 {
        0 => 0,
        1 => 1,
        2 => 2 + r / 4 % 7,
        _ => u32::MAX - r / 4 % 8,
    }
}

/// `coarsen` as it contracted before its counting sort: the surviving
/// edges pushed in fine-edge order, then sorted and merged by
/// `GraphBuilder::build`.
fn coarsen_oracle(g: &CsrGraph, vwgt: &[u32], seed: u64) -> CoarseLevel {
    let n = g.num_vertices();
    let mate = heavy_edge_matching(g, seed);
    let mut map = vec![VertexId::MAX; n];
    let mut next = 0 as VertexId;
    for v in 0..n as VertexId {
        if map[v as usize] != VertexId::MAX {
            continue;
        }
        map[v as usize] = next;
        let m = mate[v as usize];
        if m != v {
            map[m as usize] = next;
        }
        next += 1;
    }
    let cn = next as usize;
    let mut cw = vec![0u32; cn];
    for v in 0..n {
        cw[map[v] as usize] += vwgt[v];
    }
    let mut edges = Vec::with_capacity(g.num_edges());
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        let (cu, cv) = (map[u as usize], map[v as usize]);
        if cu != cv {
            edges.push((cu, cv, g.edge_weight(e)));
        }
    }
    CoarseLevel {
        graph: GraphBuilder::undirected(cn).with_edges(edges).build(),
        vwgt: cw,
        map,
    }
}

/// `coarsen` and the oracle agree field for field.
fn same_level(got: &CoarseLevel, want: &CoarseLevel) -> Result<(), TestCaseError> {
    prop_assert_eq!(&got.map, &want.map);
    prop_assert_eq!(&got.vwgt, &want.vwgt);
    let (a, b) = (&got.graph, &want.graph);
    prop_assert_eq!(a.num_vertices(), b.num_vertices());
    prop_assert_eq!(a.num_edges(), b.num_edges());
    prop_assert_eq!(a.is_weighted(), b.is_weighted());
    for e in a.edge_ids() {
        prop_assert_eq!(a.edge_endpoints(e), b.edge_endpoints(e));
        prop_assert_eq!(a.edge_weight(e), b.edge_weight(e));
    }
    for v in 0..a.num_vertices() as VertexId {
        let row = |g: &CsrGraph| g.neighbors_with_eid(v).collect::<Vec<_>>();
        prop_assert_eq!(row(a), row(b));
    }
    Ok(())
}

/// FM as it ran on a `BinaryHeap<(i64, VertexId)>` (without budget or
/// counters): the oracle for the one-key heap.
fn fm_oracle(
    g: &CsrGraph,
    vwgt: &[u32],
    side: &mut [u8],
    target0: u64,
    tolerance: f64,
    max_passes: usize,
) {
    let n = g.num_vertices();
    if n == 0 {
        return;
    }
    let gain = |side: &[u8], v: VertexId| -> i64 {
        g.neighbors_with_eid(v)
            .map(|(u, e)| {
                let w = g.edge_weight(e) as i64;
                if side[u as usize] == side[v as usize] {
                    -w
                } else {
                    w
                }
            })
            .sum()
    };
    let total: u64 = vwgt.iter().map(|&w| w as u64).sum();
    let max_vwgt = vwgt.iter().copied().max().unwrap_or(1) as i64;
    let slack = ((total as f64 * tolerance).floor() as i64).max(max_vwgt);
    let lo0 = (target0 as i64 - slack).max(1);
    let hi0 = (target0 as i64 + slack).min(total as i64 - 1);
    let bound = (n / 8).max(100);
    let mut gains = vec![0i64; n];
    let mut locked = vec![false; n];
    let mut heap: BinaryHeap<(i64, VertexId)> = BinaryHeap::with_capacity(n);
    let mut moves: Vec<VertexId> = Vec::new();
    for _pass in 0..max_passes {
        let mut load0: i64 = (0..n)
            .filter(|&v| side[v] == 0)
            .map(|v| vwgt[v] as i64)
            .sum();
        for (v, gv) in gains.iter_mut().enumerate() {
            *gv = gain(side, v as VertexId);
        }
        locked.fill(false);
        heap.clear();
        heap.extend((0..n as VertexId).map(|v| (gains[v as usize], v)));
        moves.clear();
        let (mut cum, mut best_cum, mut best_len) = (0i64, 0i64, 0usize);
        while let Some((gval, v)) = heap.pop() {
            if locked[v as usize] || gval != gains[v as usize] {
                continue;
            }
            let w = vwgt[v as usize] as i64;
            let new_load0 = if side[v as usize] == 0 {
                load0 - w
            } else {
                load0 + w
            };
            if new_load0 < lo0 || new_load0 > hi0 {
                continue;
            }
            locked[v as usize] = true;
            side[v as usize] = 1 - side[v as usize];
            load0 = new_load0;
            cum += gval;
            moves.push(v);
            if cum > best_cum {
                best_cum = cum;
                best_len = moves.len();
            } else if moves.len() - best_len >= bound {
                break;
            }
            for (u, e) in g.neighbors_with_eid(v) {
                if locked[u as usize] {
                    continue;
                }
                let w = g.edge_weight(e) as i64;
                if side[u as usize] == side[v as usize] {
                    gains[u as usize] -= 2 * w;
                } else {
                    gains[u as usize] += 2 * w;
                }
                heap.push((gains[u as usize], u));
            }
        }
        for &v in &moves[best_len..] {
            side[v as usize] = 1 - side[v as usize];
        }
        if best_cum <= 0 {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Contraction equals the fine-edge-order oracle field for field, on
    /// weighted inputs (weight 0, saturating merges, isolated vertices)
    /// and on a second level contracted from the first.
    #[test]
    fn coarsen_equals_the_oracle(
        g in arb_weighted_graph(coarsen_weight),
        vw in prop::collection::vec(1u32..4, 40),
        seed in 0u64..8,
    ) {
        let vwgt = &vw[..g.num_vertices()];
        let level = coarsen(&g, vwgt, seed);
        same_level(&level, &coarsen_oracle(&g, vwgt, seed))?;
        let next = coarsen(&level.graph, &level.vwgt, seed + 1);
        same_level(&next, &coarsen_oracle(&level.graph, &level.vwgt, seed + 1))?;
    }

    /// FM on its one-key heap leaves the same bisection as the tuple-heap
    /// oracle while every weighted degree is below 2^31 (40 vertices of
    /// weight < 2^24), after one pass and after six.
    #[test]
    fn fm_equals_the_tuple_heap_oracle(
        g in arb_weighted_graph(|r| r >> 8),
        vw in prop::collection::vec(1u32..4, 40),
        bits in prop::collection::vec(0u8..2, 40),
        tolerance in (0usize..3).prop_map(|i| [0.0, 0.05, 0.3][i]),
    ) {
        let n = g.num_vertices();
        let vwgt = &vw[..n];
        let target0 = vwgt.iter().map(|&w| w as u64).sum::<u64>() / 2;
        for passes in [1, 6] {
            let mut got = bits[..n].to_vec();
            let mut want = got.clone();
            fm_refine(&g, vwgt, &mut got, target0, tolerance, passes);
            fm_oracle(&g, vwgt, &mut want, target0, tolerance, passes);
            prop_assert_eq!(got, want, "{} passes", passes);
        }
    }
}

proptest! {
    /// Multilevel partitioning always yields a valid, reasonably balanced
    /// partition with the declared number of parts.
    #[test]
    fn multilevel_valid_and_balanced(g in arb_graph(), parts in 2usize..6, seed in 0u64..4) {
        for method in [Method::MultilevelKway, Method::MultilevelRecursive] {
            let p = partition(&g, method, parts, seed).expect("multilevel never fails");
            p.validate().unwrap();
            prop_assert_eq!(p.parts, parts);
            // Every part non-empty when n >= parts.
            if g.num_vertices() >= parts {
                prop_assert!(p.sizes().iter().all(|&s| s > 0), "{:?}", p.sizes());
            }
            // On connected ring-backbone graphs the balance bound holds
            // loosely (FM slack + rounding).
            prop_assert!(imbalance(&p, None) <= 2.0, "imbalance {}", imbalance(&p, None));
        }
    }

    /// The edge cut reported equals a direct recount, and cutting all
    /// singleton parts cuts every edge.
    #[test]
    fn edge_cut_identities(g in arb_graph()) {
        let n = g.num_vertices();
        let singleton = Partition {
            assignment: (0..n as u32).collect(),
            parts: n,
        };
        prop_assert_eq!(edge_cut(&g, &singleton), g.num_edges() as u64);
        let whole = Partition {
            assignment: vec![0; n],
            parts: 1,
        };
        prop_assert_eq!(edge_cut(&g, &whole), 0);
    }

    /// Heavy-edge matching is always a valid matching.
    #[test]
    fn matching_valid(g in arb_graph(), seed in 0u64..8) {
        let mate = heavy_edge_matching(&g, seed);
        prop_assert!(is_valid_matching(&g, &mate));
    }

    /// Coarsening preserves total vertex weight and never increases the
    /// vertex count; cut edges survive with summed weights.
    #[test]
    fn coarsen_invariants(g in arb_graph(), seed in 0u64..8) {
        let vwgt = vec![1u32; g.num_vertices()];
        let level = coarsen(&g, &vwgt, seed);
        prop_assert!(level.graph.num_vertices() <= g.num_vertices());
        prop_assert_eq!(
            level.vwgt.iter().map(|&w| w as u64).sum::<u64>(),
            g.num_vertices() as u64
        );
        level.graph.validate().unwrap();
        // Total edge weight is preserved minus the contracted edges.
        let coarse_weight: u64 = level.graph.edge_ids()
            .map(|e| snap_graph::WeightedGraph::edge_weight(&level.graph, e) as u64)
            .sum();
        prop_assert!(coarse_weight <= g.num_edges() as u64);
    }

    /// FM refinement never worsens the cut and, started inside the
    /// balance window, ends inside it — after one pass and after six.
    #[test]
    fn fm_never_worsens(g in arb_graph(), seed in 0u64..4) {
        let n = g.num_vertices();
        let vwgt = vec![1u32; n];
        let start: Vec<u8> = (0..n).map(|v| ((v as u64 ^ seed) % 2) as u8).collect();
        let before = bisection_cut(&g, &start);
        let target0 = n as i64 / 2;
        let slack = ((n as f64 * 0.1).floor() as i64).max(1);
        let window = (target0 - slack).max(1)..=(target0 + slack).min(n as i64 - 1);
        let load0 = |side: &[u8]| side.iter().filter(|&&s| s == 0).count() as i64;
        prop_assert!(window.contains(&load0(&start)));
        for passes in [1, 6] {
            let mut side = start.clone();
            fm_refine(&g, &vwgt, &mut side, target0 as u64, 0.1, passes);
            let after = bisection_cut(&g, &side);
            prop_assert!(after <= before, "{passes} passes: {before} -> {after}");
            prop_assert!(window.contains(&load0(&side)), "{passes} passes: load {}", load0(&side));
        }
    }

    /// Spectral partitioning, when it converges, yields a valid balanced
    /// partition.
    #[test]
    fn spectral_valid_when_converged(g in arb_graph(), seed in 0u64..3) {
        if let Ok(p) = partition(&g, Method::SpectralRqi, 2, seed) {
            p.validate().unwrap();
            prop_assert!(imbalance(&p, None) <= 1.5);
        }
    }
}

#[test]
fn conductance_of_barbell_split() {
    let g = snap_graph::builder::from_edges(
        6,
        &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
    );
    let p = Partition {
        assignment: vec![0, 0, 0, 1, 1, 1],
        parts: 2,
    };
    let phi = conductance(&g, &p);
    // Each side: cut 1, volume 7 → 1/7.
    assert!((phi[0] - 1.0 / 7.0).abs() < 1e-12);
    assert!((phi[1] - 1.0 / 7.0).abs() < 1e-12);
}

#[test]
fn conductance_of_empty_part_is_one() {
    let g = snap_graph::builder::from_edges(3, &[(0, 1)]);
    let p = Partition {
        assignment: vec![0, 0, 1],
        parts: 2,
    };
    let phi = conductance(&g, &p);
    assert_eq!(phi[1], 1.0); // isolated vertex: zero volume
}

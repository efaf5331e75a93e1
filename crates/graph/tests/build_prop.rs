//! Differential tests for the one CSR fill: `GraphBuilder::build` and the
//! streaming delta-merge against a test-only copy of the builder as it
//! was before the fill was shared (sort always, deduplicate, prefix-sum,
//! one scatter per arc). Every CSR field must come out identical.

use proptest::prelude::*;
use snap_graph::{
    CsrGraph, EdgeId, EdgeOp, Graph, GraphBuilder, StreamingGraph, VertexId, Weight, WeightedGraph,
};

/// The six CSR fields, as plain vectors.
#[derive(Debug, PartialEq)]
struct Fields {
    offsets: Vec<usize>,
    targets: Vec<VertexId>,
    arc_edge_ids: Vec<EdgeId>,
    endpoints: Vec<(VertexId, VertexId)>,
    /// Empty when unweighted, one entry per edge otherwise.
    weights: Vec<Weight>,
    directed: bool,
}

/// Read every field of `g` back through its public accessors.
fn fields(g: &CsrGraph) -> Fields {
    let mut offsets = vec![0];
    let (mut targets, mut arc_edge_ids) = (Vec::new(), Vec::new());
    for v in g.vertices() {
        targets.extend_from_slice(g.neighbor_slice(v));
        arc_edge_ids.extend_from_slice(g.eid_slice(v));
        offsets.push(targets.len());
    }
    let endpoints = g.edges().map(|(_, u, v)| (u, v)).collect();
    let weights = match g.is_weighted() {
        true => g.edge_ids().map(|e| g.edge_weight(e)).collect(),
        false => Vec::new(),
    };
    Fields {
        offsets,
        targets,
        arc_edge_ids,
        endpoints,
        weights,
        directed: g.is_directed(),
    }
}

/// The builder before the shared fill: canonicalize on add, sort always,
/// drop self-loops unless kept, deduplicate merging weights, count,
/// prefix-sum and scatter both arcs of each edge through one cursor.
fn oracle(n: usize, directed: bool, keep_self_loops: bool, input: &[(u32, u32, u32)]) -> Fields {
    let mut weighted = false;
    let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::new();
    for &(u, v, w) in input {
        assert!((u as usize) < n && (v as usize) < n);
        if w != 1 {
            weighted = true;
        }
        edges.push(if directed || u <= v {
            (u, v, w)
        } else {
            (v, u, w)
        });
    }
    edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
    if !keep_self_loops {
        edges.retain(|&(u, v, _)| u != v);
    }
    let mut merged = false;
    edges.dedup_by(|next, kept| {
        let same = (next.0, next.1) == (kept.0, kept.1);
        if same {
            kept.2 = kept.2.saturating_add(next.2);
            merged = true;
        }
        same
    });
    weighted |= merged;

    let mut offsets = vec![0usize; n + 1];
    for &(u, v, _) in &edges {
        offsets[u as usize + 1] += 1;
        if !directed && u != v {
            offsets[v as usize + 1] += 1;
        }
    }
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut targets = vec![0; offsets[n]];
    let mut arc_edge_ids = vec![0; offsets[n]];
    let mut endpoints = Vec::new();
    let mut weights = Vec::new();
    for (e, &(u, v, w)) in edges.iter().enumerate() {
        endpoints.push((u, v));
        if weighted {
            weights.push(w);
        }
        let mut arc = |from: VertexId, to: VertexId| {
            let c = &mut cursor[from as usize];
            targets[*c] = to;
            arc_edge_ids[*c] = e as EdgeId;
            *c += 1;
        };
        arc(u, v);
        if !directed && u != v {
            arc(v, u);
        }
    }
    Fields {
        offsets,
        targets,
        arc_edge_ids,
        endpoints,
        weights,
        directed,
    }
}

/// How the edges reach the builder.
#[derive(Clone, Copy, Debug)]
enum Entry {
    HandedOver,
    Iterator,
    OneByOne,
}

const ENTRIES: [Entry; 3] = [Entry::HandedOver, Entry::Iterator, Entry::OneByOne];

fn build(
    n: usize,
    directed: bool,
    loops: bool,
    edges: &[(u32, u32, u32)],
    entry: Entry,
) -> CsrGraph {
    let mut b = match directed {
        true => GraphBuilder::directed(n),
        false => GraphBuilder::undirected(n),
    };
    if loops {
        b = b.with_self_loops();
    }
    match entry {
        Entry::HandedOver => b.with_edges(edges.to_vec()),
        Entry::Iterator => b.add_weighted_edges(edges.iter().copied()),
        Entry::OneByOne => {
            for &(u, v, w) in edges {
                b.add_weighted_edge(u, v, w);
            }
            b
        }
    }
    .build()
}

/// Weights that exercise both sides of a saturating merge.
fn weight() -> impl Strategy<Value = Weight> {
    (0u32..8).prop_map(|k| match k {
        0..=3 => 1,
        4 | 5 => k - 2,
        6 => Weight::MAX - 1,
        _ => Weight::MAX,
    })
}

fn flag() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// `(n, edges)` over ids below `k <= n`, so `n - k` trailing vertices are
/// isolated; small `k` makes duplicates and self-loops common.
fn graph_input() -> impl Strategy<Value = (usize, Vec<(u32, u32, u32)>)> {
    (0usize..12, 0usize..4).prop_flat_map(|(k, extra)| {
        let ids = 0..(k.max(1) as u32);
        let edge = (ids.clone(), ids, weight());
        let edges = prop::collection::vec(edge, 0..if k == 0 { 1 } else { 80 });
        (
            Just(k + extra),
            edges.prop_map(move |e| if k == 0 { Vec::new() } else { e }),
        )
    })
}

/// Order 0: as drawn; 1: sorted by canonical key; 2: that, reversed.
fn arrange(edges: &mut [(u32, u32, u32)], directed: bool, order: u8) {
    if order > 0 {
        let key = |&(u, v, _): &(u32, u32, u32)| {
            if directed {
                (u, v)
            } else {
                (u.min(v), u.max(v))
            }
        };
        edges.sort_by_key(key);
        if order == 2 {
            edges.reverse();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn build_matches_the_oracle(
        (n, mut edges) in graph_input(),
        directed in flag(),
        loops in flag(),
        (order, entry) in (0u8..3, 0usize..3),
    ) {
        arrange(&mut edges, directed, order);
        let g = build(n, directed, loops, &edges, ENTRIES[entry]);
        prop_assert_eq!(fields(&g), oracle(n, directed, loops, &edges));
    }

    /// A delta-merge over a weighted base, and over a base whose
    /// self-loops the stream strips at seeding, is the graph a full
    /// rebuild of the live edges gives: base weights on surviving edges,
    /// weight 1 on inserted ones, weighted exactly when the base was.
    #[test]
    fn merge_matches_a_rebuild_over_weighted_and_self_loop_bases(
        (n, edges) in graph_input(),
        loops in flag(),
        ops in prop::collection::vec((flag(), 0u32..14, 0u32..14), 0..40),
    ) {
        let base = build(n, false, loops, &edges, Entry::HandedOver);
        let (mut sg, _) = StreamingGraph::from_csr(&base);
        let seeded = sg.snapshot().graph;
        let ops: Vec<EdgeOp> = ops
            .into_iter()
            .map(|(insert, u, v)| if insert { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) })
            .collect();
        sg.apply_batch(&ops);
        let merged = sg.merge().graph;

        let weight_in_seed = |u: VertexId, v: VertexId| {
            let seeded_edges = seeded.edges().find(|&(_, a, b)| (a, b) == (u, v));
            seeded_edges.map_or(1, |(e, _, _)| seeded.edge_weight(e))
        };
        let live = sg.live();
        let mut want_edges = Vec::new();
        for u in 0..live.num_vertices() as VertexId {
            for v in live.neighbors(u).filter(|&v| u < v) {
                want_edges.push((u, v, weight_in_seed(u, v)));
            }
        }
        let mut want = oracle(live.num_vertices(), false, false, &want_edges);
        want.weights = match seeded.is_weighted() {
            true => { want_edges.sort_unstable(); want_edges.iter().map(|e| e.2).collect() }
            false => Vec::new(),
        };
        prop_assert_eq!(fields(&merged), want);
    }
}

#[test]
fn empty_inputs_build_isolated_vertices() {
    for entry in ENTRIES {
        for directed in [false, true] {
            for n in [0, 1, 5] {
                let g = build(n, directed, false, &[], entry);
                assert_eq!(fields(&g), oracle(n, directed, false, &[]));
                assert_eq!(fields(&g), fields(&CsrGraph::empty(n, directed)));
            }
        }
    }
}

#[test]
fn rows_cross_fill_blocks() {
    // Ids past 512 put reverse arcs in several target blocks; a hub row
    // spans a block boundary on both sides.
    let n = 2000u32;
    let mut edges: Vec<(u32, u32, u32)> = (1..n).map(|v| (0, v, 1)).collect();
    edges.extend((0..n - 1).map(|u| (u, u + 1, 2)));
    edges.extend((0..n).step_by(7).map(|u| (u, (u * 31 + 511) % n, 3)));
    for directed in [false, true] {
        let mut shuffled = edges.clone();
        shuffled.reverse();
        let g = build(n as usize, directed, false, &shuffled, Entry::HandedOver);
        assert_eq!(fields(&g), oracle(n as usize, directed, false, &shuffled));
    }
}

//! The incremental kernels agree with full recomputation after every
//! batch of a streaming op sequence — the acceptance gate for the
//! dynamic-graph path.

use proptest::prelude::*;
use snap_graph::stream::EdgeOp;
use snap_graph::{Graph, StreamingGraph};
use snap_kernels::{bfs, connected_components, DynamicComponents, IncrementalBfs, UNREACHABLE};

/// Counts equal + every vertex connected to its full-recompute
/// representative ⇒ identical partitions.
fn assert_partitions_equal(
    cc: &mut DynamicComponents,
    full: &snap_kernels::Components,
    context: &str,
) {
    assert_eq!(cc.count(), full.count, "component count ({context})");
    let mut rep = vec![u32::MAX; full.count];
    for (v, &label) in full.comp.iter().enumerate() {
        let v = v as u32;
        if rep[label as usize] == u32::MAX {
            rep[label as usize] = v;
        } else {
            assert!(
                cc.connected(rep[label as usize], v),
                "vertices {} and {v} must share a component ({context})",
                rep[label as usize]
            );
        }
    }
}

fn replay_and_check(ops: &[EdgeOp], n: usize, batch: usize, source: u32) {
    let mut sg = StreamingGraph::new(n);
    let mut cc = DynamicComponents::new(&sg.snapshot().graph);
    let mut inc_bfs = IncrementalBfs::new(&sg.snapshot().graph, source);
    for (round, chunk) in ops.chunks(batch).enumerate() {
        for &op in chunk {
            let changed = sg.apply(op);
            cc.apply(op, changed);
            inc_bfs.apply(op, changed);
        }
        let snap = sg.merge();
        let g = &*snap.graph;
        cc.end_batch(g);
        inc_bfs.end_batch(g);

        let context = format!("round {round}, epoch {}", snap.epoch);
        let full_cc = connected_components(g);
        assert_partitions_equal(&mut cc, &full_cc, &context);
        if (source as usize) < g.num_vertices() {
            assert_eq!(inc_bfs.dist, bfs(g, source).dist, "bfs dist ({context})");
        } else {
            assert!(inc_bfs.dist.iter().all(|&d| d == UNREACHABLE), "{context}");
        }
    }
}

proptest! {
    /// Randomized short streams over a small vertex set, every batch
    /// size: incremental CC and BFS equal full recompute per epoch.
    #[test]
    fn incremental_kernels_match_recompute(
        ops in prop::collection::vec((0u8..2, 0u32..12, 0u32..12), 1..150),
        batch in 1usize..20,
        source in 0u32..12,
    ) {
        let edge_ops: Vec<EdgeOp> = ops
            .iter()
            .map(|&(op, u, v)| if op == 0 { EdgeOp::Insert(u, v) } else { EdgeOp::Delete(u, v) })
            .collect();
        replay_and_check(&edge_ops, 12, batch, source);
    }
}

/// The headline stress: a 12k-op randomized insert/delete stream over
/// 256 vertices, checked against full recompute after every 128-op
/// batch (one fixed seed keeps runtime bounded, as in `rmat_kernels_agree`).
#[test]
fn long_randomized_stream_matches_recompute() {
    let n = 256u32;
    let mut state = 0x5eed_cafe_u64 | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut inserted: Vec<(u32, u32)> = Vec::new();
    let mut ops = Vec::with_capacity(12_000);
    for _ in 0..12_000 {
        // ~1/3 deletes of a previously inserted pair keeps real churn
        // (and tree-edge deletions) flowing without emptying the graph.
        if !inserted.is_empty() && rng() % 3 == 0 {
            let (u, v) = inserted.swap_remove((rng() % inserted.len() as u64) as usize);
            ops.push(EdgeOp::Delete(u, v));
        } else {
            let (u, v) = ((rng() % n as u64) as u32, (rng() % n as u64) as u32);
            inserted.push((u, v));
            ops.push(EdgeOp::Insert(u, v));
        }
    }
    replay_and_check(&ops, n as usize, 128, 0);
}

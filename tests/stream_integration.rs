//! Integration tests for the streaming engine: snapshot isolation under
//! a concurrent reader, and end-to-end analysis of published epochs.

use snap::graph::DynGraph;
use snap::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The no-torn-reads acceptance gate: a reader hammering the published
/// snapshot while the writer churns and merges must only ever observe
/// complete epochs — a structurally valid CSR holding exactly the edges
/// an independent oracle holds at that epoch, with epochs monotone and
/// the snapshot's epoch between the epochs read just before and just
/// after it (ROADMAP item 13's linearizable snapshot).
#[test]
fn concurrent_reader_sees_only_complete_epochs() {
    type Edges = Vec<(u32, u32)>;
    let edges_of = |g: &CsrGraph| -> Edges { g.edges().map(|(_, u, v)| (u, v)).collect() };
    let n = 64u32;
    let mut sg = StreamingGraph::new(n as usize);
    let reader = sg.reader();
    let stop = Arc::new(AtomicBool::new(false));

    let stop_r = stop.clone();
    let observer = std::thread::spawn(move || {
        let mut last_epoch = 0u64;
        // (epoch before, snapshot epoch, epoch after, index into `seen`);
        // a snapshot read twice is one immutable `Arc`, kept once.
        let mut observations = Vec::new();
        let mut seen: Vec<(Arc<CsrGraph>, Edges)> = Vec::new();
        while !stop_r.load(Ordering::Relaxed) {
            let before = reader.epoch();
            let snap = reader.snapshot();
            let after = reader.epoch();
            assert!(snap.epoch >= last_epoch, "epochs must be monotone");
            last_epoch = snap.epoch;
            // A torn publication would fail structural validation or
            // leave the arc arrays inconsistent with the offsets.
            snap.graph.validate().unwrap();
            assert_eq!(snap.graph.num_arcs(), snap.graph.total_degree());
            if !seen
                .last()
                .is_some_and(|(g, _)| Arc::ptr_eq(g, &snap.graph))
            {
                let edges = edges_of(&snap.graph);
                seen.push((snap.graph, edges));
            }
            observations.push((before, snap.epoch, after, seen.len() - 1));
        }
        (observations, seen)
    });

    // Deterministic churn: waves of inserts and deletes, merging after
    // every wave. The oracle replays the same waves into a `DynGraph`;
    // its epoch advances exactly when a wave changes its edge set.
    let mut live = DynGraph::new(n as usize);
    let mut oracle: Vec<Edges> = vec![Vec::new()];
    let mut published = Vec::new();
    for wave in 0..200u32 {
        let mut ops = Vec::new();
        for i in 0..16u32 {
            let u = (wave * 7 + i) % n;
            let v = (wave * 13 + i * 3 + 1) % n;
            if wave % 3 == 2 {
                ops.push(EdgeOp::Delete(u, v));
            } else {
                ops.push(EdgeOp::Insert(u, v));
            }
        }
        sg.apply_batch(&ops);
        let snap = sg.merge();
        published.push((snap.epoch, snap.graph.num_edges()));
        for op in ops {
            match op {
                EdgeOp::Insert(u, v) => live.insert_edge(u, v),
                EdgeOp::Delete(u, v) => live.delete_edge(u, v),
            };
        }
        let edges = edges_of(&live.to_csr());
        if oracle.last() != Some(&edges) {
            oracle.push(edges);
        }
        assert_eq!(snap.epoch as usize, oracle.len() - 1, "wave {wave}");
    }
    stop.store(true, Ordering::Relaxed);
    let (observations, seen) = observer.join().unwrap();
    assert!(!observations.is_empty(), "the reader must have run");
    for &(before, epoch, after, graph) in &observations {
        assert!(
            before <= epoch && epoch <= after,
            "{before} ≤ {epoch} ≤ {after}"
        );
        assert_eq!(seen[graph].1, oracle[epoch as usize], "epoch {epoch}");
    }

    // Epochs never go backwards; waves whose net delta cancelled out
    // (e.g. deleting absent edges) legitimately keep the old epoch.
    for w in published.windows(2) {
        assert!(w[1].0 >= w[0].0, "published epochs are monotone");
    }
    let distinct = published.windows(2).filter(|w| w[1].0 > w[0].0).count();
    assert!(
        distinct > 100,
        "most waves publish a new epoch ({distinct})"
    );
    // The reader's final view is the writer's final publication.
    let last = sg.snapshot();
    assert_eq!(last.epoch, published.last().unwrap().0);
    assert_eq!(last.graph.num_edges(), published.last().unwrap().1);
}

/// Published snapshots plug straight into the high-level analysis API
/// without copying: `Network::from_shared` shares the snapshot's CSR.
#[test]
fn snapshots_feed_network_analysis_zero_copy() {
    let mut sg = StreamingGraph::new(0);
    // Two triangles bridged by one edge.
    let ops = [
        EdgeOp::Insert(0, 1),
        EdgeOp::Insert(1, 2),
        EdgeOp::Insert(2, 0),
        EdgeOp::Insert(3, 4),
        EdgeOp::Insert(4, 5),
        EdgeOp::Insert(5, 3),
        EdgeOp::Insert(2, 3),
    ];
    sg.apply_batch(&ops);
    let snap = sg.merge();

    let net = Network::from_shared(snap.graph.clone());
    assert_eq!(net.summary().components, 1);
    // Both Arcs point at the same allocation — no rebuild happened.
    assert!(Arc::ptr_eq(&snap.graph, &sg.snapshot().graph));

    // Deleting the bridge splits the network in the next epoch; the old
    // snapshot (still held) is unaffected.
    sg.apply(EdgeOp::Delete(2, 3));
    let next = sg.merge();
    assert_eq!(next.epoch, snap.epoch + 1);
    assert_eq!(Network::from_shared(next.graph).summary().components, 2);
    assert_eq!(snap.graph.num_edges(), 7, "old epoch stays immutable");
}

/// The incremental kernels track a streamed graph through inserts,
/// rejected duplicates, and structure-invalidating deletions.
#[test]
fn incremental_kernels_follow_the_stream() {
    let mut sg = StreamingGraph::new(6);
    let mut cc = DynamicComponents::new(&sg.snapshot().graph);
    let mut inc = IncrementalBfs::new(&sg.snapshot().graph, 0);

    let batches: &[&[EdgeOp]] = &[
        &[
            EdgeOp::Insert(0, 1),
            EdgeOp::Insert(1, 2),
            EdgeOp::Insert(3, 4),
        ],
        &[EdgeOp::Insert(0, 1), EdgeOp::Insert(2, 3)], // duplicate rejected
        &[EdgeOp::Delete(2, 3), EdgeOp::Insert(4, 5)], // tree-edge deletion
    ];
    let expected_components = [3usize, 2, 2];
    for (batch, &want) in batches.iter().zip(&expected_components) {
        for &op in *batch {
            let changed = sg.apply(op);
            cc.apply(op, changed);
            inc.apply(op, changed);
        }
        let snap = sg.merge();
        cc.end_batch(&snap.graph);
        inc.end_batch(&snap.graph);
        assert_eq!(cc.count(), want);
    }
    assert_eq!(cc.rebuilds(), 1, "only the real deletion forces a rebuild");
    assert_eq!(inc.dist, vec![0, 1, 2, u32::MAX, u32::MAX, u32::MAX]);
}

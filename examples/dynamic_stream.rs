//! Dynamic-network analysis (the paper's future-work direction): drive
//! a stream of edge insertions and deletions through the streaming
//! engine, maintain connectivity and BFS distances incrementally, and
//! analyze epoch-versioned snapshots while ingestion continues.
//!
//! ```text
//! cargo run --release --example dynamic_stream [n] [events]
//! ```

use rand::{Rng, SeedableRng};
use snap::graph::{EdgeOp, Graph, StreamingGraph};
use snap::kernels::{DynamicComponents, IncrementalBfs};

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|s| s.parse().expect("n must be an integer"))
        .unwrap_or(2_000);
    let events: usize = args
        .next()
        .map(|s| s.parse().expect("events must be an integer"))
        .unwrap_or(20_000);

    // Ground-truth communities drive the stream: intra-community
    // interactions are 8x more likely than inter-community ones, and 5%
    // of events are deletions (relationship churn).
    let k = 10;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut stream = StreamingGraph::new(n);
    let empty = stream.snapshot().graph;
    let mut components = DynamicComponents::new(&empty);
    let mut distances = IncrementalBfs::new(&empty, 0);

    println!("streaming {events} interaction events over {n} entities ({k} latent groups)");
    println!();
    println!(
        "{:>7} {:>9} {:>9} {:>12} {:>10} {:>12}",
        "epoch", "events", "edges", "components", "reached", "modularity"
    );

    let batch = events.div_ceil(5);
    let mut processed = 0usize;
    while processed < events {
        let mut ops = Vec::with_capacity(batch);
        while ops.len() < batch && processed < events {
            processed += 1;
            let u = rng.gen_range(0..n) as u32;
            let v = if rng.gen::<f64>() < 8.0 / 9.0 {
                // Intra-community partner.
                let group = u as usize % k;
                (rng.gen_range(0..n / k) * k + group) as u32
            } else {
                rng.gen_range(0..n) as u32
            };
            ops.push(if rng.gen::<f64>() < 0.05 {
                EdgeOp::Delete(u, v)
            } else {
                EdgeOp::Insert(u, v)
            });
        }
        // Ingest the batch op by op, recording each effective op in the
        // incremental kernels; then publish the epoch's snapshot and
        // repair them against it.
        for &op in &ops {
            let changed = stream.apply(op);
            components.apply(op, changed);
            distances.apply(op, changed);
        }
        let snapshot = stream.merge();
        components.end_batch(&snapshot.graph);
        distances.end_batch(&snapshot.graph);

        // Heavyweight analysis runs on the immutable snapshot — readers
        // like this never block ingestion of the next batch.
        let communities =
            snap::community::pma(&snapshot.graph, &snap::community::PmaConfig::default());
        println!(
            "{:>7} {:>9} {:>9} {:>12} {:>10} {:>12.4}",
            snapshot.epoch,
            processed,
            snapshot.graph.num_edges(),
            components.count(),
            distances.reached(),
            communities.q
        );
    }

    println!();
    let last = stream.snapshot();
    println!(
        "final epoch {}: {} edges; {} cc rebuilds, {} bfs recomputes",
        last.epoch,
        last.graph.num_edges(),
        components.rebuilds(),
        distances.recomputes()
    );
    let answer = components.connected(0, (n - 1) as u32);
    println!("incremental connectivity query 0 <-> {}: {answer}", n - 1);
}

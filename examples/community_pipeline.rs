//! Community detection on a synthetic small-world network, end to end:
//! generate, summarize, cluster with the three parallel algorithms,
//! report time and quality.
//!
//! ```text
//! cargo run --release --example community_pipeline [scale] [avg_degree]
//! ```
//!
//! `scale` is log2 of the vertex count (default 12 → 4,096 vertices).

use snap::prelude::*;
use std::time::Instant;

fn main() {
    let mut args = std::env::args().skip(1);
    let scale: u32 = args
        .next()
        .map(|s| s.parse().expect("scale must be an integer"))
        .unwrap_or(12);
    let avg_degree: usize = args
        .next()
        .map(|s| s.parse().expect("avg_degree must be an integer"))
        .unwrap_or(8);
    let n = 1usize << scale;
    let edges = n * avg_degree / 2;

    println!("generating R-MAT small-world graph: n = {n}, ~{edges} edges");
    let graph = snap::gen::rmat(&snap::gen::RmatConfig::small_world(scale, edges), 42);
    let net = Network::new(graph);
    println!("{}", net.summary());
    println!();

    println!(
        "{:<26} {:>9} {:>11} {:>9}",
        "algorithm", "clusters", "modularity", "time"
    );
    for (name, alg) in [
        ("divisive (pBD)", CommunityAlgorithm::Divisive),
        ("agglomerative (pMA)", CommunityAlgorithm::Agglomerative),
        (
            "local aggregation (pLA)",
            CommunityAlgorithm::LocalAggregation,
        ),
    ] {
        let start = Instant::now();
        let c = net.communities(alg);
        println!(
            "{:<26} {:>9} {:>11.4} {:>8.2?}",
            name,
            c.clustering.count,
            c.modularity,
            start.elapsed()
        );
    }
}

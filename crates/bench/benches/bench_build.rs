//! CSR construction (`GraphBuilder::build`) on both sides of its
//! sortedness check: edges in file order (as `snap-io` writes them) and
//! the same edges shuffled. Each iteration also copies the 12 B/edge
//! input into the builder, as `load_read`'s builder row does. A third
//! row times one level of the multilevel partitioner's contraction,
//! `snap::partition::coarsen` (matching, contraction and the build it
//! ends in), on the same graph with unit vertex weights.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use snap::graph::{Graph, GraphBuilder, VertexId, Weight, WeightedGraph};

type Edges = Vec<(VertexId, VertexId, Weight)>;

fn bench_build(c: &mut Criterion) {
    let g = snap::gen::rmat(&snap::gen::RmatConfig::small_world(15, 16 << 15), 1);
    let n = g.num_vertices();
    let file_order: Edges = g
        .edges()
        .map(|(e, u, v)| (u, v, g.edge_weight(e)))
        .collect();
    let mut rng = StdRng::seed_from_u64(1);
    let mut shuffled = file_order.clone();
    shuffled.shuffle(&mut rng);

    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    for (name, edges) in [
        ("rmat15-file-order", &file_order),
        ("rmat15-shuffled", &shuffled),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                GraphBuilder::undirected(n)
                    .add_weighted_edges(edges.iter().copied())
                    .build()
            })
        });
    }
    let vwgt = vec![1u32; n];
    group.bench_function("coarsen-rmat15", |b| {
        b.iter(|| snap::partition::coarsen(&g, &vwgt, 1))
    });
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);

//! CSR construction (`GraphBuilder::build`) on both sides of its
//! sortedness check: edges in file order (as `snap-io` writes them), the
//! same edges shuffled, and a `coarsen`-shaped input (weighted, shuffled,
//! with the parallel edges a contraction makes). Each iteration also
//! copies the 12 B/edge input into the builder, as `load_read`'s builder
//! row does.

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
    // Contract random vertex pairs, as one level of the multilevel
    // partitioner does: `map[v] = coarse id`, intra-pair edges dropped.
    let mut map: Vec<VertexId> = (0..n as VertexId).map(|v| v / 2).collect();
    map.shuffle(&mut rng);
    let coarse: Edges = file_order
        .iter()
        .map(|&(u, v, w)| (map[u as usize], map[v as usize], w))
        .filter(|&(cu, cv, _)| cu != cv)
        .collect();
    let coarse_n = n.div_ceil(2);

    let mut group = c.benchmark_group("build");
    group.sample_size(10);
    for (name, n, edges) in [
        ("rmat15-file-order", n, &file_order),
        ("rmat15-shuffled", n, &shuffled),
        ("coarsen-weighted", coarse_n, &coarse),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                GraphBuilder::undirected(n)
                    .add_weighted_edges(edges.iter().copied())
                    .build()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build);
criterion_main!(benches);

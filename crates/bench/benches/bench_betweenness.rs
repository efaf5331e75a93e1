//! Exact vs approximate betweenness — the core trade of the pBD
//! algorithm (DESIGN.md ablation 1): sampling 5% of sources buys an
//! order-of-magnitude speedup at bounded error on the high-centrality
//! entities. The `from-sources` rows time the call shape `serve` makes:
//! 8 sampled sources at one thread, on R-MAT (where the forward phase
//! pulls its middle levels) and on a road grid (where it never pulls).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snap::centrality::{
    approx_betweenness, betweenness_from_sources, brandes, par_brandes, sample_sources,
};
use snap::graph::Graph;

fn bench_betweenness(c: &mut Criterion) {
    let mut group = c.benchmark_group("betweenness");
    group.sample_size(10);
    let g = snap::gen::rmat(&snap::gen::RmatConfig::small_world(10, 8_192), 3);
    group.bench_function(BenchmarkId::new("exact-seq", "rmat-1k"), |b| {
        b.iter(|| brandes(&g))
    });
    group.bench_function(BenchmarkId::new("exact-par", "rmat-1k"), |b| {
        b.iter(|| par_brandes(&g))
    });
    for frac in [0.05f64, 0.1, 0.25] {
        group.bench_function(
            BenchmarkId::new("approx", format!("rmat-1k-f{frac}")),
            |b| b.iter(|| approx_betweenness(&g, frac, 9)),
        );
    }
    let rmat14 = snap::gen::rmat(&snap::gen::RmatConfig::small_world(14, 8 << 14), 3);
    let grid = snap::gen::road_grid(128, 128, 0.0, 0.0, 3);
    for (name, g) in [("rmat14-k8-t1", &rmat14), ("grid128-k8-t1", &grid)] {
        let sources = sample_sources(g.num_vertices(), 8, 9);
        group.bench_function(BenchmarkId::new("from-sources", name), |b| {
            snap::with_threads(1, || b.iter(|| betweenness_from_sources(g, &sources)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_betweenness);
criterion_main!(benches);

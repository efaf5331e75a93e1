//! Connected-components kernels: the sequential BFS sweep against the
//! parallel hybrid (direction-optimizing BFS over the giant component,
//! then a sweep of the rest), on a low-diameter small-world graph and a
//! high-diameter road grid.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snap::kernels::{connected_components, par_components_hybrid};

fn bench_components(c: &mut Criterion) {
    let mut group = c.benchmark_group("components");
    group.sample_size(10);
    let small_world = snap::gen::rmat(&snap::gen::RmatConfig::small_world(14, 130_000), 7);
    let road = snap::gen::road_grid(128, 128, 0.02, 0.5, 7);
    for (label, g) in [("rmat-16k", &small_world), ("road-16k", &road)] {
        group.bench_with_input(BenchmarkId::new("sequential", label), g, |b, g| {
            b.iter(|| connected_components(g))
        });
        group.bench_with_input(BenchmarkId::new("hybrid", label), g, |b, g| {
            b.iter(|| par_components_hybrid(g))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_components);
criterion_main!(benches);

//! Partitioner costs: multilevel vs spectral on a mesh and a small-world
//! graph (the Table 1 workload at micro scale), and 4-way kway on the
//! planted 2^14 graph the system benchmark's `explore` workload uses.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snap::partition::Method;

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition");
    group.sample_size(10);
    let road = snap::gen::road_grid(64, 64, 0.02, 1.0, 3);
    let sw = snap::gen::rmat(&snap::gen::RmatConfig::small_world(12, 20_000), 3);
    for (label, g) in [("road-4k", &road), ("rmat-4k", &sw)] {
        for method in [
            Method::MultilevelKway,
            Method::MultilevelRecursive,
            Method::SpectralRqi,
        ] {
            group.bench_with_input(BenchmarkId::new(method.label(), label), g, |b, g| {
                b.iter(|| snap::partition::partition(g, method, 8, 1))
            });
        }
    }
    let cfg = snap::gen::PlantedConfig::with_target_degrees(1 << 14, 16, 8.0, 2.0);
    let planted = snap::gen::planted_partition(&cfg, 3).0;
    let kway = Method::MultilevelKway;
    group.bench_with_input(
        BenchmarkId::new(kway.label(), "planted-16k"),
        &planted,
        |b, g| b.iter(|| snap::partition::partition(g, kway, 4, 1)),
    );
    group.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);

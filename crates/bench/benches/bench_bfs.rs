//! BFS kernel micro-benchmarks, including the degree-aware vs naive
//! work-assignment ablation (DESIGN.md ablation 3) and the
//! direction-optimizing hybrid vs push-only comparison on low-diameter
//! R-MAT instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snap::kernels::{bfs, par_bfs, par_bfs_hybrid_stats, par_bfs_vertex_partitioned, HybridConfig};

/// alpha = 0 makes the push → pull trigger unreachable: the hybrid engine,
/// never pulling.
const PUSH_ONLY: HybridConfig = HybridConfig {
    alpha: 0.0,
    beta: 24.0,
};

fn bench_bfs(c: &mut Criterion) {
    let mut group = c.benchmark_group("bfs");
    group.sample_size(10);
    for scale in [12u32, 14] {
        let g = snap::gen::rmat(
            &snap::gen::RmatConfig::small_world(scale, (1usize << scale) * 8),
            42,
        );
        group.bench_with_input(BenchmarkId::new("sequential", scale), &g, |b, g| {
            b.iter(|| bfs(g, 0))
        });
        group.bench_with_input(BenchmarkId::new("hybrid", scale), &g, |b, g| {
            b.iter(|| par_bfs(g, 0))
        });
        group.bench_with_input(BenchmarkId::new("push-only", scale), &g, |b, g| {
            b.iter(|| par_bfs_hybrid_stats(g, 0, &PUSH_ONLY))
        });
        group.bench_with_input(
            BenchmarkId::new("parallel-vertex-partitioned", scale),
            &g,
            |b, g| b.iter(|| par_bfs_vertex_partitioned(g, 0)),
        );

        // Work ablation, reported once per instance through snap-obs: on
        // a low-diameter R-MAT graph the hybrid's pull levels examine a
        // fraction of the arcs the push-only engine must touch — compare
        // `edges_examined` under the two top-level spans.
        let (_, report) = snap_bench::observed(|| {
            snap::obs::meta("instance", format!("rmat scale {scale}"));
            {
                let _span = snap::obs::span("hybrid");
                par_bfs_hybrid_stats(&g, 0, &HybridConfig::default());
            }
            {
                let _span = snap::obs::span("push-only");
                par_bfs_hybrid_stats(&g, 0, &PUSH_ONLY);
            }
        });
        eprint!("{}", report.render());
    }
    group.finish();
}

criterion_group!(benches, bench_bfs);
criterion_main!(benches);

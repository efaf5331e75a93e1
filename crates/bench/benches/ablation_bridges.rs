//! Ablation (DESIGN.md #2): biconnected-components bridge preprocessing
//! on/off in pBD and pLA, on a "caveman" graph (cliques chained by
//! bridges) where the preprocessing has maximal effect.

use criterion::{criterion_group, criterion_main, Criterion};
use snap::community::{pbd, pla, PbdConfig, PlaConfig};
use snap::graph::{CsrGraph, GraphBuilder};

/// Ring of `k` cliques of size `s`, adjacent cliques joined by one bridge.
fn caveman(k: usize, s: usize) -> CsrGraph {
    let n = k * s;
    let mut b = GraphBuilder::undirected(n);
    for c in 0..k {
        let base = (c * s) as u32;
        for i in 0..s as u32 {
            for j in i + 1..s as u32 {
                b.add_edge(base + i, base + j);
            }
        }
        let next = (((c + 1) % k) * s) as u32;
        b.add_edge(base, next + 1);
    }
    b.build()
}

fn bench_bridges(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation-bridges");
    group.sample_size(10);
    let g = caveman(24, 12);

    for (name, preprocess) in [("pbd-with-bridges", true), ("pbd-without-bridges", false)] {
        group.bench_function(name, |b| {
            let cfg = PbdConfig {
                bridge_preprocess: preprocess,
                ..Default::default()
            };
            b.iter(|| pbd(&g, &cfg))
        });
    }
    for (name, remove) in [("pla-with-bridges", true), ("pla-without-bridges", false)] {
        group.bench_function(name, |b| {
            let cfg = PlaConfig {
                remove_bridges: remove,
                ..Default::default()
            };
            b.iter(|| pla(&g, &cfg))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bridges);
criterion_main!(benches);

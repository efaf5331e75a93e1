//! The three community-detection algorithms head to head on a planted-
//! partition instance (the Figure 2 workload at micro scale).

use criterion::{criterion_group, criterion_main, Criterion};
use snap::community::{
    pbd, pla, pma, spectral_communities, PbdConfig, PlaConfig, PmaConfig, SpectralCommunityConfig,
};

fn bench_community(c: &mut Criterion) {
    let mut group = c.benchmark_group("community");
    group.sample_size(10);
    let (g, _) = snap::gen::planted_partition(
        &snap::gen::PlantedConfig::with_target_degrees(2_000, 20, 8.0, 2.0),
        5,
    );
    group.bench_function("pbd-2k", |b| {
        let cfg = PbdConfig {
            patience: Some(25),
            batch: 8,
            ..Default::default()
        };
        b.iter(|| pbd(&g, &cfg))
    });
    group.bench_function("pma-2k", |b| b.iter(|| pma(&g, &PmaConfig::default())));
    group.bench_function("pla-2k", |b| b.iter(|| pla(&g, &PlaConfig::default())));
    group.bench_function("spectral-2k", |b| {
        b.iter(|| spectral_communities(&g, &SpectralCommunityConfig::default()))
    });
    // The `explore` workload's planted shape: pLA's greedy growth at the
    // size where it was a layer of its own.
    let (big, _) = snap::gen::planted_partition(
        &snap::gen::PlantedConfig::with_target_degrees(1 << 14, 16, 8.0, 2.0),
        5,
    );
    group.bench_function("pla-16k", |b| b.iter(|| pla(&big, &PlaConfig::default())));
    group.finish();
}

criterion_group!(benches, bench_community);
criterion_main!(benches);

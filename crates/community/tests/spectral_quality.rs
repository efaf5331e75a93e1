//! Spectral modularity at n = 2^10, through the public API: on a planted
//! partition it recovers the truth and lands near pMA; on R-MAT it still
//! splits. (Release timings at 2^6–2^12 are in EXPERIMENTS.md, "One
//! eigensolver".)

use snap_community::{
    normalized_mutual_information, pma, spectral_communities, Clustering, PmaConfig,
};
use snap_gen::{planted_partition, rmat, PlantedConfig, RmatConfig};

#[test]
fn spectral_recovers_planted_2_10() {
    let cfg = PlantedConfig::with_target_degrees(1 << 10, 16, 8.0, 2.0);
    let (g, truth) = planted_partition(&cfg, 42);
    let r = spectral_communities(&g);
    let nmi = normalized_mutual_information(&r.clustering, &Clustering::from_labels(&truth));
    let pma_q = pma(&g, &PmaConfig::default()).q;
    assert!(nmi >= 0.7, "nmi = {nmi}");
    assert!(r.q >= 0.55, "q = {}", r.q);
    assert!(r.q >= pma_q - 0.08, "q = {} vs pMA {pma_q}", r.q);
}

#[test]
fn spectral_splits_rmat_2_10() {
    // The `snap-cli generate rmat --scale 10 --seed 42` instance.
    let g = rmat(&RmatConfig::small_world(10, 8 << 10), 42);
    let r = spectral_communities(&g);
    assert!(r.clustering.count > 1, "{} communities", r.clustering.count);
    assert!(r.q >= 0.2, "q = {}", r.q);
}

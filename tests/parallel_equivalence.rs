//! Thread-count invariance: every deterministic parallel kernel must
//! produce identical results on 1 and many threads (the paper's parallel
//! algorithms are deterministic up to floating-point reassociation).

use snap::with_threads;

fn test_graph() -> snap::graph::CsrGraph {
    snap::gen::rmat(&snap::gen::RmatConfig::small_world(9, 2048), 77)
}

#[test]
fn bfs_distances_thread_invariant() {
    let g = test_graph();
    let d1 = with_threads(1, || snap::kernels::par_bfs(&g, 0)).dist;
    let d4 = with_threads(4, || snap::kernels::par_bfs(&g, 0)).dist;
    assert_eq!(d1, d4);
}

#[test]
fn connected_components_thread_invariant() {
    let g = test_graph();
    let c1 = with_threads(1, || snap::kernels::par_components_sv(&g));
    let c4 = with_threads(4, || snap::kernels::par_components_sv(&g));
    assert_eq!(c1.count, c4.count);
    let lp1 = with_threads(1, || snap::kernels::par_components_lp(&g));
    assert_eq!(c1.count, lp1.count);
}

#[test]
fn betweenness_thread_tolerant() {
    // Parallel reduction reassociates float sums; results agree to high
    // relative precision rather than bit-exactly.
    let g = snap::gen::rmat(&snap::gen::RmatConfig::small_world(8, 1024), 3);
    let b1 = with_threads(1, || snap::centrality::par_brandes(&g));
    let b4 = with_threads(4, || snap::centrality::par_brandes(&g));
    for (x, y) in b1.vertex.iter().zip(&b4.vertex) {
        assert!((x - y).abs() <= 1e-6 * x.abs().max(1.0), "{x} vs {y}");
    }
    for (x, y) in b1.edge.iter().zip(&b4.edge) {
        assert!((x - y).abs() <= 1e-6 * x.abs().max(1.0), "{x} vs {y}");
    }
}

#[test]
fn community_algorithms_thread_invariant() {
    let (g, _) =
        snap::gen::planted_partition(&snap::gen::PlantedConfig::uniform(4, 25, 0.4, 0.02), 19);
    let q1 = with_threads(1, || {
        snap::community::pma(&g, &snap::community::PmaConfig::default()).q
    });
    let q4 = with_threads(4, || {
        snap::community::pma(&g, &snap::community::PmaConfig::default()).q
    });
    assert!((q1 - q4).abs() < 1e-9);

    let r1 = with_threads(1, || {
        snap::community::pla(&g, &snap::community::PlaConfig::default())
    });
    let r4 = with_threads(4, || {
        snap::community::pla(&g, &snap::community::PlaConfig::default())
    });
    assert_eq!(r1.clustering, r4.clustering);
}

#[test]
fn msf_thread_invariant() {
    let g = test_graph();
    let m1 = with_threads(1, || snap::kernels::boruvka_msf(&g));
    let m4 = with_threads(4, || snap::kernels::boruvka_msf(&g));
    assert_eq!(m1.total_weight, m4.total_weight);
    assert_eq!(m1.edges, m4.edges);
}

/// The 64-source sweeps behind `summary` and `sampled_closeness` fan out
/// although 64 items is far below the runtime's auto-parallel threshold:
/// every explicit source chunk is spawned on its own thread, so under a
/// pool of more than one thread the per-source tasks land on at least
/// two trace thread ids — by construction, not by timing. Nothing else
/// in this binary collects a report or runs these sweeps, so the drained
/// timeline is this test's alone.
#[test]
fn sampled_sweeps_fan_out_across_threads() {
    let g = test_graph();
    snap::obs::enable();
    snap::obs::enable_tracing();
    with_threads(4, || {
        let _ = snap::metrics::path_stats_sampled(&g, 64, 3);
        let _ = snap::centrality::sampled_closeness(&g, 64, 3);
    });
    let report = snap::obs::finish().expect("collection was on");
    snap::obs::disable_tracing();
    for task in ["pathlen.source", "closeness.source"] {
        let begun = report.trace.iter().filter(|e| e.begin && e.name == task);
        let tids: std::collections::BTreeSet<u32> = begun.map(|e| e.tid).collect();
        assert!(tids.len() >= 2, "{task} ran on thread id(s) {tids:?}");
    }
}

//! The multilevel partitioner's quality, determinism and refinement cost
//! on inputs large enough for the bounded FM pass to bite.

use snap_gen::{planted_partition, PlantedConfig};
use snap_graph::builder::from_edges;
use snap_partition::{bisection_cut, edge_cut, fm_refine, imbalance, kway_partition, KwayConfig};

/// `(edge cut, imbalance)` of the 4-way kway partition of
/// `planted(4096, 16 communities, 8 in / 2 out)` at seeds 1..=8, measured
/// at commit 44329b4, whose FM passes moved every vertex once before
/// rolling back. These are the oracle for the bounded pass: the full-pass
/// loop itself is gone.
const FULL_PASS: [(u64, f64); 8] = [
    (3698, 1.123047),
    (3735, 1.123047),
    (3200, 1.001953),
    (3359, 1.002930),
    (3193, 1.001953),
    (3791, 1.123047),
    (3875, 1.123047),
    (3658, 1.123047),
];

fn planted(seed: u64) -> snap_graph::CsrGraph {
    planted_partition(
        &PlantedConfig::with_target_degrees(1 << 12, 16, 8.0, 2.0),
        seed,
    )
    .0
}

#[test]
fn quality_is_pinned() {
    let results: Vec<(u64, f64)> = (1..=8u64)
        .map(|seed| {
            let g = planted(seed);
            let p = kway_partition(&g, &KwayConfig::kway(4, seed));
            p.validate().unwrap();
            (edge_cut(&g, &p), imbalance(&p, None))
        })
        .collect();
    let cut: u64 = results.iter().map(|r| r.0).sum();
    let full: u64 = FULL_PASS.iter().map(|r| r.0).sum();
    assert!(
        cut as f64 <= 1.03 * full as f64,
        "cut sum {cut} vs full-pass {full}: {results:?}"
    );
    // Seven graphs repeat the full pass's partition. On seed 4 the full
    // pass found the planted optimum through a run of more than n/2
    // non-improving moves that no bounded pass follows, so the imbalance
    // ceiling is the full pass's worst, not its per-seed value.
    let worst = FULL_PASS.iter().map(|r| r.1).fold(0.0, f64::max);
    for (seed, r) in (1..=8).zip(&results) {
        assert!(r.1 <= worst + 0.01, "seed {seed}: imbalance {}", r.1);
    }
}

#[test]
fn assignment_is_the_same_on_every_call_and_thread_count() {
    let g = planted(1);
    let cfg = KwayConfig::kway(4, 1);
    let first = kway_partition(&g, &cfg).assignment;
    assert_eq!(kway_partition(&g, &cfg).assignment, first);
    for threads in [1, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let again = pool.install(|| kway_partition(&g, &cfg).assignment);
        assert_eq!(again, first, "{threads} threads");
    }
}

/// A contiguous bisection of a ring is optimal, so no prefix of any move
/// sequence improves it: the pass must stop at the bound, where a full
/// pass would apply all 20 000 moves and roll every one back.
#[test]
fn a_pass_stops_after_a_bounded_run_of_non_improving_moves() {
    let n = 20_000u32;
    let edges: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
    let g = from_edges(n as usize, &edges);
    let mut side: Vec<u8> = (0..n).map(|v| (v >= n / 2) as u8).collect();
    let before = side.clone();

    snap_obs::enable();
    fm_refine(&g, &vec![1; n as usize], &mut side, (n / 2) as u64, 0.03, 6);
    let report = snap_obs::finish().expect("collecting");

    assert_eq!(side, before);
    assert_eq!(bisection_cut(&g, &side), 2);
    let fm = report.find("partition.fm").expect("fm span");
    let counter = |name| fm.counter(name).unwrap_or_else(|| panic!("no {name}"));
    let bound = (n as u64 / 8).max(100);
    assert!(counter("fm_bound_exits") >= 1);
    assert!(
        counter("fm_applied") <= counter("fm_moves") + bound * counter("fm_passes"),
        "{}",
        report.render()
    );
}

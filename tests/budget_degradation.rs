//! Budget behavior across the stack: unlimited budgets are free and
//! bit-identical, exhausted budgets terminate promptly with valid
//! (degraded) results, and cancellations surface through the run report.

use snap::prelude::*;
use snap::{with_threads, Budget, CommunityAlgorithm, Exec, Exhausted, Network};
use std::time::Duration;

fn exec_with(budget: Budget) -> Exec {
    Exec {
        budget,
        ..Exec::default()
    }
}

fn planted() -> CsrGraph {
    let cfg = snap::gen::PlantedConfig::uniform(4, 30, 0.4, 0.02);
    snap::gen::planted_partition(&cfg, 5).0
}

#[test]
fn unlimited_budget_is_bit_identical() {
    let g = planted();
    let plain = Network::new(g.clone());
    let budgeted = Network::new(g).with_budget(Budget::unlimited());

    let (sa, sb) = (plain.summary_with_seed(3), budgeted.summary_with_seed(3));
    assert_eq!(sa.paths.average.to_bits(), sb.paths.average.to_bits());
    assert_eq!(sa.clustering.to_bits(), sb.clustering.to_bits());
    assert_eq!(sa.assortativity.to_bits(), sb.assortativity.to_bits());

    for alg in [
        CommunityAlgorithm::Divisive,
        CommunityAlgorithm::Agglomerative,
        CommunityAlgorithm::LocalAggregation,
    ] {
        let (ca, cb) = (plain.communities(alg), budgeted.communities(alg));
        assert_eq!(ca.clustering, cb.clustering, "{alg:?}");
        assert_eq!(ca.modularity.to_bits(), cb.modularity.to_bits(), "{alg:?}");
    }

    let (ba, bb) = (plain.betweenness(), budgeted.betweenness());
    assert_eq!(ba.vertex, bb.vertex);

    let (pa, pb) = (
        plain
            .partition(PartitionMethod::MultilevelKway, 4, 1)
            .unwrap(),
        budgeted
            .partition(PartitionMethod::MultilevelKway, 4, 1)
            .unwrap(),
    );
    assert_eq!(pa.assignment, pb.assignment);
}

/// A limit that never trips must not change a single bit, at any thread
/// count: `Network` and `summarize` run the same code whether or not a
/// budget is attached (no `is_limited()` fork), and `serve` caches
/// payloads under keys that carry no deadline.
#[test]
fn untripped_limit_is_bit_identical_at_every_thread_count() {
    let rmat = snap::gen::rmat(&snap::gen::RmatConfig::small_world(10, 8192), 7);
    let cfg = snap::gen::PlantedConfig::with_target_degrees(4096, 16, 8.0, 2.0);
    let planted = snap::gen::planted_partition(&cfg, 7).0;
    for (name, g) in [("rmat", rmat), ("planted", planted)] {
        let plain = Network::new(g);
        let fingerprint = |net: &Network| {
            let s = net.summary_with_seed(3);
            let bc = net.approx_betweenness(0.05, 11);
            // FNV-1a over the score bits: a mismatch prints one word, not
            // two score vectors.
            let bc_hash = bc
                .vertex
                .iter()
                .chain(&bc.edge)
                .fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
                    (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3)
                });
            [
                ("clustering", s.clustering.to_bits()),
                ("transitivity", s.transitivity.to_bits()),
                ("assortativity", s.assortativity.to_bits()),
                ("paths.average", s.paths.average.to_bits()),
                (
                    "paths.effective_diameter",
                    s.paths.effective_diameter.to_bits(),
                ),
                ("paths.max", u64::from(s.paths.max)),
                ("paths.pairs", s.paths.pairs),
                ("paths_sampled", u64::from(s.paths_sampled)),
                ("approx_betweenness", bc_hash),
            ]
        };
        let reference = with_threads(1, || fingerprint(&plain));
        for threads in [1usize, 2, 8] {
            let limited = plain
                .clone()
                .with_budget(Budget::with_deadline(Duration::from_secs(3600)));
            let (a, b) = with_threads(threads, || (fingerprint(&plain), fingerprint(&limited)));
            assert_eq!(a, reference, "{name}: unlimited @ {threads} threads");
            assert_eq!(
                b, reference,
                "{name}: one-hour deadline @ {threads} threads"
            );
        }
    }
}

#[test]
fn zero_budget_terminates_with_valid_results() {
    let g = planted();
    let n = g.num_vertices();
    // A zero work cap trips on the first charge everywhere.
    let net = Network::new(g).with_budget(Budget::with_work_cap(0));

    let s = net.summary_with_seed(1);
    assert_eq!(s.n, n);
    assert!(
        s.paths_sampled,
        "exhausted budget must fall back to sampling"
    );

    for alg in [
        CommunityAlgorithm::Divisive,
        CommunityAlgorithm::Agglomerative,
        CommunityAlgorithm::LocalAggregation,
    ] {
        let c = net.communities(alg);
        assert_eq!(c.clustering.assignment.len(), n, "{alg:?}");
        assert!(c.clustering.count >= 1, "{alg:?}");
    }

    let p = net
        .partition(PartitionMethod::MultilevelKway, 4, 1)
        .unwrap();
    p.validate().unwrap();
    assert_eq!(p.parts, 4);

    // Betweenness degrades to however many sources fit — here none, so
    // the scores are all zero but the shape is right.
    let bc = net.betweenness();
    assert_eq!(bc.vertex.len(), n);

    // A traversal has no meaningful partial result: it cancels.
    assert!(matches!(net.try_bfs_stats(0), Err(Exhausted::WorkCap)));
}

#[test]
fn work_cap_limits_betweenness_sources() {
    let g = planted();
    let sources: Vec<u32> = (0..g.num_vertices() as u32).collect();
    // Enough work for a handful of sources only.
    let exec = exec_with(Budget::with_work_cap(10 * g.num_vertices() as u64));
    let partial = snap::centrality::betweenness_from_sources_in(&g, &sources, &exec);
    assert!(partial.degraded());
    assert!(partial.sources_used < partial.sources_requested);
    assert!(partial.sources_used > 0, "some sources should fit");
    // Scaled estimate keeps the full-graph shape.
    assert_eq!(partial.scores.vertex.len(), g.num_vertices());
}

#[test]
fn kernels_cancel_cleanly_on_expired_deadline() {
    let g = planted();
    let exec = exec_with(Budget::with_deadline(Duration::ZERO));
    assert!(snap::kernels::try_par_bfs_hybrid_stats(
        &g,
        0,
        &snap::kernels::HybridConfig::default(),
        &exec
    )
    .is_err());
}

#[test]
fn degradations_surface_in_run_report() {
    let g = planted();
    let net = Network::new(g).with_budget(Budget::with_work_cap(0));
    let obs = net.observed();
    let _ = obs.communities(CommunityAlgorithm::Agglomerative);
    let _ = obs.try_bfs_stats(0);
    let report = obs.finish();
    assert!(report.root.well_formed());
    let pma = report.find("community.pma").expect("pma span recorded");
    assert_eq!(
        pma.meta_value("degraded"),
        Some("budget exhausted: work cap consumed")
    );
    let bfs = report.find("bfs.hybrid").expect("bfs span recorded");
    assert!(bfs.meta_value("cancelled").is_some());
    assert!(report.total_counter("budget_cancellations") >= 2);
}

/// Spectral modularity pays one unit per matvec before each split
/// attempt: on a spent budget it keeps the whole graph as one community,
/// a valid clustering, and says so.
#[test]
fn spectral_degrades_on_an_exhausted_budget() {
    let g = planted();
    let n = g.num_vertices();
    let budget = Budget::with_work_cap(0);
    assert!(budget.charge(1).is_err());
    let net = Network::new(g).with_budget(budget);
    let obs = net.observed();
    let c = obs.communities(CommunityAlgorithm::Spectral);
    let report = obs.finish();
    c.clustering.validate().unwrap();
    assert_eq!(c.clustering.assignment.len(), n);
    assert_eq!(c.clustering.count, 1);
    let spectral = report.find("community.spectral").expect("spectral span");
    assert_eq!(
        spectral.meta_value("degraded"),
        Some("budget exhausted: work cap consumed")
    );
    assert_eq!(spectral.counter("splits"), Some(0));
}

/// Spectral bisection charges its budget for every matvec: a budget that
/// trips inside the first solve stops it there, and the bisections still
/// to run fall back to the multilevel methods' round-robin split, so the
/// partition is balanced, valid and marked degraded.
#[test]
fn spectral_partition_stops_inside_its_first_solve() {
    let g = planted();
    let n = g.num_vertices();
    let matvec = g.num_arcs() as u64 + 1;
    for method in [
        PartitionMethod::SpectralLanczos,
        PartitionMethod::SpectralRqi,
    ] {
        let net = Network::new(g.clone()).with_budget(Budget::with_work_cap(5 * matvec));
        let obs = net.observed();
        let p = obs
            .partition(method, 4, 1)
            .expect("a tripped solve is not a failure");
        let report = obs.finish();
        p.validate().unwrap();
        assert_eq!(p.sizes(), vec![n / 4; 4], "{method:?}");
        let span = report.find("partition").expect("partition span");
        assert_eq!(
            span.meta_value("degraded"),
            Some("budget exhausted: work cap consumed"),
            "{method:?}"
        );
    }
}

#[test]
fn budget_handle_is_shared_across_clones() {
    let budget = Budget::with_work_cap(100);
    let clone = budget.clone();
    assert!(clone.charge(60).is_ok());
    assert!(clone.charge(60).is_err(), "second charge crosses the cap");
    assert!(budget.is_exhausted(), "clones share the same accounting");
}

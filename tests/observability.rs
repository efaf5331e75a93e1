//! Cross-crate tests of the `snap-obs` instrumentation: kernel counters
//! surfaced through [`Network::observed`], span-tree structure, JSON
//! round-tripping, and thread-count invariance.

use snap::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Tracing is process-global and a drain takes every thread's ring, so
/// the tests of this file run one at a time: a span recorded by one
/// test must not land in another's trace.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// A connected small-world instance (Watts–Strogatz keeps the base ring,
/// so every vertex is reachable from every source).
fn small_world() -> Network {
    Network::new(snap::gen::watts_strogatz(256, 4, 0.1, 7))
}

#[test]
fn push_only_bfs_reports_every_arc() {
    let _serial = serial();
    let net = small_world();
    let obs = net.observed();
    let _ = obs.try_bfs_stats_with(
        0,
        &HybridConfig {
            alpha: 0.0, // never switch to pull
            beta: 24.0,
        },
    );
    let report = obs.finish();
    let bfs = report.find("bfs.hybrid").expect("bfs span recorded");
    assert_eq!(bfs.counter("pull_levels"), Some(0));
    // A push-only traversal of a connected graph examines the out-arcs of
    // every vertex exactly once.
    assert_eq!(
        bfs.counter("edges_examined"),
        Some(net.graph().num_arcs() as u64)
    );
}

#[test]
fn pipeline_report_is_well_formed_and_covers_kernels() {
    let _serial = serial();
    let net = small_world();
    let obs = net.observed();
    let _ = obs.summary_with_seed(3);
    let _ = obs.try_bfs_stats(0);
    let _ = obs.communities(CommunityAlgorithm::Divisive);
    let _ = obs.communities(CommunityAlgorithm::Agglomerative);
    let _ = obs.approx_betweenness(0.2, 11);
    let _ = obs.partition(PartitionMethod::MultilevelKway, 4, 1);
    let report = obs.finish();

    for span in [
        "metrics.summary",
        "bfs.hybrid",
        "community.pbd",
        "community.pma",
        "centrality.approx_betweenness",
        "centrality.betweenness",
        "partition",
        "partition.multilevel",
    ] {
        assert!(report.find(span).is_some(), "missing span {span}");
    }
    assert!(report.root.well_formed(), "{}", report.render());
    // The nested betweenness span sits under the approx wrapper, not at
    // the top level.
    let approx = report.find("centrality.approx_betweenness").unwrap();
    assert!(approx.find("centrality.betweenness").is_some());
    assert!(report.find("metrics.summary").unwrap().counter("n") == Some(256));
}

#[test]
fn report_round_trips_through_json() {
    let _serial = serial();
    let net = small_world();
    let obs = net.observed();
    let _ = obs.try_bfs_stats(0);
    let _ = obs.communities(CommunityAlgorithm::Agglomerative);
    let report = obs.finish();

    let text = report.to_json();
    let back = snap::obs::RunReport::from_json(&text).expect("parse back");
    assert_eq!(back, report);
    // And the human rendering mentions the same spans.
    let rendered = report.render();
    assert!(rendered.contains("bfs.hybrid"));
    assert!(rendered.contains("community.pma"));
}

#[test]
fn counters_agree_across_thread_counts() {
    let _serial = serial();
    let g = snap::gen::watts_strogatz(192, 4, 0.1, 9);
    let mut results = Vec::new();
    for threads in [1usize, 4, 8] {
        let report = snap::with_threads(threads, || {
            let net = Network::new(g.clone());
            let obs = net.observed();
            let _ = obs.try_bfs_stats(0);
            let _ = obs.approx_betweenness(0.25, 11);
            let _ = obs.communities(CommunityAlgorithm::Divisive);
            obs.finish()
        });
        results.push((
            threads,
            [
                "edges_examined",
                "sources_processed",
                "frontier_vertices",
                "rounds",
                "pull_levels",
                "arcs_scanned",
            ]
            .map(|name| report.total_counter(name)),
        ));
    }
    for pair in results.windows(2) {
        assert_eq!(pair[0].1, pair[1].1, "{results:?}");
    }
}

/// A unit records where its job was published: a plain `add` inside
/// `par_chunks(1)` units lands on the caller's span, whichever thread
/// ran the unit, so the total is the same at every thread count.
#[test]
fn a_units_counter_lands_on_the_callers_span() {
    use rayon::prelude::*;
    let _serial = serial();
    let units: Vec<u64> = (1..=64).collect();
    for threads in [1usize, 2, 8] {
        let ran_on = Mutex::new(std::collections::HashSet::new());
        snap::obs::enable();
        snap::with_threads(threads, || {
            let _span = snap::obs::span("caller");
            units.par_chunks(1).for_each(|unit| {
                ran_on.lock().unwrap().insert(std::thread::current().id());
                snap::obs::add("unit_sum", unit[0]);
            });
        });
        let report = snap::obs::finish().expect("collection was on");
        let caller = report.find("caller").expect("caller span");
        assert_eq!(
            caller.counter("unit_sum"),
            Some(64 * 65 / 2),
            "{threads} threads"
        );
        assert!(report.root.well_formed(), "{}", report.render());
        let ran_on = ran_on.into_inner().unwrap().len();
        assert!(
            ran_on >= threads.min(2),
            "{threads} threads ran on {ran_on}"
        );
    }
}

/// Two observed callers and one unobserved caller share the pool at
/// once: each report holds exactly its own caller's betweenness counts.
#[test]
fn concurrent_callers_each_report_their_own_counts() {
    use rayon::prelude::*;
    let _serial = serial();
    let g = snap::gen::rmat(&snap::gen::RmatConfig::small_world(9, 4096), 13);
    let sources: Vec<u32> = (0..64).collect();
    let calls = 4;
    let observed = || {
        snap::obs::enable();
        for _ in 0..calls {
            let _ = snap::centrality::betweenness_from_sources(&g, &sources);
        }
        snap::obs::finish().expect("collection was on")
    };
    let counts = |report: &snap::obs::RunReport| {
        let bc = report.find("centrality.betweenness").expect("span");
        ["sources_processed", "frontier_vertices", "arcs_scanned"].map(|c| bc.counter(c))
    };
    let alone = counts(&snap::with_threads(4, observed));
    assert_eq!(alone[0], Some(calls * 64));
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| snap::with_threads(4, observed));
        let b = s.spawn(|| snap::with_threads(4, observed));
        s.spawn(|| {
            snap::with_threads(4, || {
                for _ in 0..calls {
                    let _ = snap::centrality::betweenness_from_sources(&g, &sources);
                    sources
                        .par_chunks(1)
                        .for_each(|_| snap::obs::add("unobserved", 1));
                }
            })
        });
        (a.join().unwrap(), b.join().unwrap())
    });
    for report in [&a, &b] {
        assert_eq!(counts(report), alone, "{}", report.render());
        assert_eq!(report.total_counter("unobserved"), 0);
    }
}

#[test]
fn betweenness_counters_show_the_direction() {
    let _serial = serial();
    let undirected = snap::gen::RmatConfig::small_world(10, 8 << 10);
    let directed = snap::gen::RmatConfig {
        directed: true,
        ..undirected
    };
    for (config, pulls) in [(undirected, true), (directed, false)] {
        let net = Network::new(snap::gen::rmat(&config, 5));
        let obs = net.observed();
        let _ = obs.approx_betweenness(8.0 / 1024.0, 3);
        let report = obs.finish();
        let bc = report.find("centrality.betweenness").expect("span");
        let sources = bc.counter("sources_processed").expect("sources");
        let arcs = bc.counter("arcs_scanned").expect("arcs_scanned");
        let pull_levels = bc.counter("pull_levels").unwrap_or(0);
        assert!(sources > 0);
        assert_eq!(pull_levels > 0, pulls, "directed: {}", config.directed);
        if pulls {
            assert!(arcs < sources * net.graph().num_arcs() as u64);
        }
    }
}

#[test]
fn critical_path_analysis_is_deterministic_across_thread_counts() {
    let _serial = serial();
    // The analyzer is pure post-processing: feeding the *same* fixture
    // report through `analyze::explain` while the runtime pool is sized
    // 1, 4, or 8 threads must produce byte-identical text and JSON. This
    // is what makes `obs explain` output comparable across machines.
    let net = small_world();
    let obs = net.observed();
    snap::obs::enable_tracing();
    let _ = obs.try_bfs_stats(0);
    let _ = obs.communities(CommunityAlgorithm::Divisive);
    let fixture = obs.finish();
    snap::obs::disable_tracing();

    let mut renders = Vec::new();
    for threads in [1usize, 4, 8] {
        let out = snap::with_threads(threads, || {
            let explained = snap::obs::analyze::explain(&fixture);
            (explained.render(20), explained.to_json(20))
        });
        renders.push((threads, out));
    }
    for pair in renders.windows(2) {
        assert_eq!(
            pair[0].1, pair[1].1,
            "analyzer output varies with pool size"
        );
    }

    // And the analysis is self-consistent: every critical-path step names
    // a span that exists in the report, the steps' self times sum to the
    // chain's length, and the busy time fits inside threads × wall.
    let explained = snap::obs::analyze::explain(&fixture);
    let cp = &explained.critical_path;
    assert!(!cp.steps.is_empty());
    for step in &cp.steps {
        assert!(
            fixture.find(&step.name).is_some(),
            "step {} not in report",
            step.name
        );
    }
    let self_sum: u64 = cp.steps.iter().map(|s| s.self_us).sum();
    assert_eq!(cp.critical_path_us, self_sum);
    let eff = explained
        .efficiency
        .expect("a traced report has a timeline");
    assert!(eff.threads >= 1 && eff.total_busy_us > 0, "{eff:?}");
    assert!(
        eff.parallel_efficiency_pct > 0.0 && eff.parallel_efficiency_pct <= 100.0,
        "{eff:?}"
    );
}

#[test]
fn kernels_attach_latency_histograms() {
    let _serial = serial();
    let net = small_world();
    let obs = net.observed();
    let _ = obs.try_bfs_stats(0);
    let _ = obs.betweenness();
    let _ = obs.communities(CommunityAlgorithm::Agglomerative);
    let report = obs.finish();

    // Per-level BFS, per-source Brandes, per-merge pMA: each surfaces a
    // log-bucketed latency distribution on its span, and the percentile
    // accessors are ordered.
    for (span, hist) in [
        ("bfs.hybrid", "level_us"),
        ("centrality.betweenness", "source_us"),
        ("community.pma", "merge_us"),
    ] {
        let node = report.find(span).unwrap_or_else(|| panic!("span {span}"));
        let h = node
            .hist(hist)
            .unwrap_or_else(|| panic!("{span} missing {hist} histogram"));
        assert!(h.count > 0, "{span}/{hist} recorded nothing");
        assert!(h.p50() <= h.p90() && h.p90() <= h.p99() && h.p99() <= h.max);
    }
    // The JSON round trip preserves every histogram.
    let back = snap::obs::RunReport::from_json(&report.to_json()).expect("parse");
    assert_eq!(back, report);
}

#[test]
fn mid_pipeline_report_keeps_open_spans() {
    let _serial = serial();
    // Snapshotting from *inside* a running pipeline must not truncate the
    // spans still on the stack: `Observed::report` folds their elapsed
    // time in, and the remainder accrues to the next snapshot.
    let net = small_world();
    let obs = net.observed();
    let _ = obs.try_bfs_stats(0);
    let mid = obs.report();
    let bfs = mid.find("bfs.hybrid").expect("bfs span in mid report");
    assert!(bfs.calls >= 1);
    assert!(mid.root.well_formed(), "{}", mid.render());

    // After the snapshot the tree restarts: new work lands in a fresh
    // report that does not re-count the old spans.
    let _ = obs.communities(CommunityAlgorithm::Agglomerative);
    let fin = obs.finish();
    assert!(fin.find("community.pma").is_some());
    assert!(
        fin.find("bfs.hybrid").is_none(),
        "drained spans must not reappear: {}",
        fin.render()
    );
}

#[test]
fn partitioner_phases_are_spans_under_multilevel() {
    let _serial = serial();
    let cfg = snap::gen::PlantedConfig::with_target_degrees(1 << 12, 16, 8.0, 2.0);
    let net = Network::new(snap::gen::planted_partition(&cfg, 5).0);
    let obs = net.observed();
    let _ = obs.partition(PartitionMethod::MultilevelKway, 4, 5);
    let report = obs.finish();

    let multilevel = report.find("partition.multilevel").expect("multilevel");
    for span in [
        "partition.extract",
        "partition.bisect",
        "partition.coarsen",
        "partition.matching",
        "partition.initial",
        "partition.fm",
        "partition.kway_refine",
    ] {
        assert!(multilevel.find(span).is_some(), "missing span {span}");
    }
    let bisect = multilevel.find("partition.bisect").unwrap();
    for child in ["partition.coarsen", "partition.initial", "partition.fm"] {
        assert!(
            bisect.children.iter().any(|c| c.name == child),
            "{}",
            report.render()
        );
    }
    // The phases account for the partitioner's time.
    let covered: u64 = multilevel.children.iter().map(|c| c.duration_us).sum();
    assert!(
        multilevel.duration_us - covered <= multilevel.duration_us / 10,
        "{}",
        report.render()
    );
    // Contraction and the build it ends in (the sort and the CSR fill)
    // split coarsening's time.
    let coarsen = multilevel.find("partition.coarsen").unwrap();
    let build = coarsen.children.iter().find(|c| c.name == "csr.build");
    let build = build.unwrap_or_else(|| panic!("{}", report.render()));
    let edges = |name| build.counter(name).unwrap_or_else(|| panic!("no {name}"));
    assert!(edges("build_edges_in") >= edges("build_edges_kept"));
    assert!(edges("build_edges_kept") > 0);
    let fm = multilevel.find("partition.fm").unwrap();
    let counter = |name| fm.counter(name).unwrap_or_else(|| panic!("no {name}"));
    assert!(counter("fm_applied") >= counter("fm_moves"));
    assert!(counter("fm_pops") >= counter("fm_applied"));
    assert!(counter("fm_pops") >= counter("fm_stale"));
    assert!(counter("fm_passes") >= counter("fm_bound_exits"));
}

#[test]
fn pla_phases_are_spans_under_community_pla() {
    let _serial = serial();
    let cfg = snap::gen::PlantedConfig::with_target_degrees(1 << 12, 16, 8.0, 2.0);
    let g = snap::gen::planted_partition(&cfg, 5).0;
    snap::obs::enable();
    let r = snap::community::pla(&g, &snap::community::PlaConfig::default());
    let report = snap::obs::finish().expect("collection was on");

    let pla = report.find("community.pla").expect("pla span");
    for phase in [
        "pla.bridges",
        "pla.components",
        "pla.grow",
        "pla.amalgamate",
    ] {
        assert!(
            pla.children.iter().any(|c| c.name == phase),
            "missing {phase}: {}",
            report.render()
        );
    }
    let covered: u64 = pla.children.iter().map(|c| c.duration_us).sum();
    assert!(covered <= pla.duration_us, "{}", report.render());
    // The flip counter lives in the subtree, where the benchmark sums it.
    fn subtree(node: &snap::obs::ReportNode, name: &str) -> u64 {
        let own = node.counter(name).unwrap_or(0);
        own + node.children.iter().map(|c| subtree(c, name)).sum::<u64>()
    }
    assert!(r.flips > 0);
    assert_eq!(subtree(pla, "label_flips"), r.flips);
}

#[test]
fn summary_phases_are_spans_under_metrics_summary() {
    let _serial = serial();
    let net = small_world();
    let obs = net.observed();
    let _ = obs.summary_with_seed(3);
    let report = obs.finish();

    let summary = report.find("metrics.summary").expect("summary span");
    let phases: Vec<&str> = summary.children.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(
        phases,
        [
            "metrics.components",
            "metrics.paths",
            "metrics.clustering",
            "metrics.assortativity"
        ],
        "{}",
        report.render()
    );
    let covered: u64 = summary.children.iter().map(|c| c.duration_us).sum();
    assert!(covered <= summary.duration_us, "{}", report.render());
    // The summary's own counters stay on it: 256 vertices, all of them
    // path sources (exact below the sampling limit).
    assert_eq!(summary.counter("path_sources"), Some(256));
    let paths = summary.find("metrics.paths").unwrap();
    assert_eq!(paths.counter("path_sources"), None);
}

#[test]
fn trace_rings_are_bounded_by_the_pool() {
    // A thread that records an event registers a ring of its own for
    // the process's life, so the rings are bounded only if the threads
    // serving parallel calls are: at 2 threads, the caller and one pool
    // worker, whatever the number of calls (a third tid is slack).
    let _serial = serial();
    let net = small_world();
    let obs = net.observed();
    snap::obs::enable_tracing();
    snap::with_threads(2, || {
        for _ in 0..200 {
            let _ = obs.try_bfs_stats(0);
            // 64 sources: four 16-source chunks, each a traced task.
            let _ = obs.approx_betweenness(0.25, 11);
        }
    });
    let report = obs.finish();
    snap::obs::disable_tracing();
    let chrome = report.to_chrome_trace();
    let mut tids: Vec<u64> = chrome
        .split("\"tid\":")
        .skip(1)
        .map(|rest| {
            let digits = rest.split(|c: char| !c.is_ascii_digit()).next().unwrap();
            digits.parse().unwrap()
        })
        .filter(|&tid| tid != 0) // the memory track, not a thread
        .collect();
    tids.sort_unstable();
    tids.dedup();
    assert!(report.trace.iter().any(|e| e.name == "brandes.source"));
    assert!(
        !tids.is_empty() && tids.len() <= 3,
        "{} distinct tids in the trace",
        tids.len()
    );
}

/// The 64-source sweeps behind `summary` and `sampled_closeness` fan out
/// although 64 items is far below the pool's serial cutoff, because
/// each runs on explicit work units, and a call's explicit units always
/// reach at least two of the pool's threads — by construction, not by
/// timing. Closeness makes one unit per source chunk. The path sweep's
/// units are per BFS level: vertex ranges of at least 256 vertices on a
/// dense level, runs of at least 256 frontier entries on a sparse one.
/// The 512-vertex graph is sized so that its dense middle levels split
/// into two ranges, so `pathlen.level` tasks land on two thread ids.
#[test]
fn sampled_sweeps_fan_out_across_threads() {
    let _serial = serial();
    let g = snap::gen::rmat(&snap::gen::RmatConfig::small_world(9, 2048), 77);
    snap::obs::enable();
    snap::obs::enable_tracing();
    snap::with_threads(4, || {
        let _ = snap::metrics::path_stats_sampled(&g, 64, 3);
        let _ = snap::centrality::sampled_closeness(&g, 64, 3);
    });
    let report = snap::obs::finish().expect("collection was on");
    snap::obs::disable_tracing();
    for task in ["pathlen.level", "closeness.source"] {
        let begun = report.trace.iter().filter(|e| e.begin && e.name == task);
        let tids: std::collections::BTreeSet<u32> = begun.map(|e| e.tid).collect();
        assert!(tids.len() >= 2, "{task} ran on thread id(s) {tids:?}");
    }
}

/// A spectral split attempt whose eigensolve fails is counted as
/// `unconverged` on `community.spectral`, with the `degraded` meta. The
/// Lanczos solver converges on planted 2^8 (a shifted power iteration
/// ran out of steps there on every attempt) and on the barbell, so both
/// report splits and neither reports a failed attempt.
#[test]
fn spectral_reports_split_attempts_that_ran_out_of_steps() {
    let _serial = serial();
    let cfg = snap::gen::PlantedConfig::with_target_degrees(1 << 8, 16, 8.0, 2.0);
    let planted = snap::gen::planted_partition(&cfg, 42).0;
    let barbell = snap::graph::builder::from_edges(
        6,
        &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
    );
    let spectral = |g: CsrGraph| {
        let net = Network::new(g);
        let obs = net.observed();
        let _ = obs.communities(CommunityAlgorithm::Spectral);
        let report = obs.finish();
        let span = report.find("community.spectral").expect("spectral span");
        let counter = |name| span.counter(name).unwrap_or(0);
        let degraded = span.meta_value("degraded").map(str::to_string);
        (counter("splits"), counter("unconverged"), degraded)
    };

    let (splits, unconverged, degraded) = spectral(planted);
    assert!(splits >= 15, "planted 2^8: {splits} splits");
    assert_eq!((unconverged, degraded), (0, None));

    let (splits, unconverged, degraded) = spectral(barbell);
    assert_eq!((splits, unconverged, degraded), (1, 0, None));
}

/// pBD's fine phase cuts more than one edge per betweenness pass once
/// its candidate set is large: on R-MAT 2^11 (about 16 k edges) sixty
/// cuts take fewer than sixty rounds.
#[test]
fn pbd_cuts_several_edges_per_round_on_a_large_graph() {
    let _serial = serial();
    let g = snap::gen::rmat(&snap::gen::RmatConfig::small_world(11, 16_384), 42);
    let cfg = snap::community::PbdConfig {
        bridge_preprocess: false,
        max_removals: Some(60),
        ..Default::default()
    };
    snap::obs::enable();
    let r = snap::community::pbd(&g, &cfg);
    let report = snap::obs::finish().expect("collection was on");
    assert_eq!(r.removals.len(), 60);
    let rounds = report
        .find("fine_phase")
        .and_then(|span| span.counter("rounds"))
        .expect("fine_phase counts its rounds");
    assert!(rounds < 60, "{rounds} rounds for 60 cuts");
}

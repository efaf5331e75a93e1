//! perf_suite — fixed-seed kernel timing suite for regression tracking.
//!
//! Times the multi-source kernels (sampled betweenness, exact closeness,
//! sampled path statistics, hybrid BFS), the compressed-CSR A/B pairs
//! (`csr_bfs` vs `ccsr_bfs` — identical `work_units` asserted), the
//! bucket kernels (`kcore`, `sssp_delta_buckets`), and the
//! streaming/serving loops on deterministic R-MAT/ER instances, emitting
//! a machine-readable `BENCH_kernels.json`:
//!
//! ```text
//! [{"bench": "...", "n": 32768, "m": 219382, "wall_ms": 1234.5,
//!   "work_units": 987654, "peak_bytes": 16777216}, ...]
//! ```
//!
//! `wall_ms` is the minimum over `--reps` runs (the low-noise statistic on
//! a shared host); `work_units` is an implementation-independent work
//! measure per bench (traversal vertices or arcs examined), so a result
//! file from one tree is comparable against another. `peak_bytes` is the
//! tracking allocator's live-bytes high-water mark during the observed
//! run (graph plus kernel scratch), the scale-10 memory baseline CI
//! tracks under `results/`.
//!
//! Alongside the flat table, one extra *observed* run per bench (after
//! the timed reps, so instrumentation never touches the timings) is
//! collected into a single `snap-obs` run report written to `--spans-out`
//! (default `BENCH_spans.json`). Each bench is a top-level span wrapping
//! the kernel's own span tree, counters, and latency histograms — the
//! file feeds `snap-cli obs diff` for span-level regression gating and
//! `snap-cli obs top` for a self-time ranking.
//!
//! Observed runs execute with per-thread event tracing on, and each
//! bench span carries the analyzer's `parallel_efficiency_pct`,
//! `critical_path_us`, and `imbalance_skew` gauges computed from its own
//! timeline — `obs diff --fail-eff-drop P` gates on them. The raw event
//! timeline is only written into the spans file under `--trace` (it is
//! bulky); with it, `snap-cli obs efficiency` / `obs critical-path` can
//! analyze the whole suite.
//!
//! ```text
//! cargo run --release -p snap-bench --bin perf_suite -- \
//!     [--scale N] [--reps R] [--seed S] [--out PATH] [--spans-out PATH] [--trace]
//! ```

use snap::centrality::{betweenness_from_sources, closeness, sample_sources};
use snap::gen::{erdos_renyi, rmat, RmatConfig};
use snap::graph::{CsrGraph, DynGraph, EdgeOp, Graph, StreamingGraph};
use snap::kernels::{par_bfs_hybrid_stats, HybridConfig};
use snap::metrics::path_stats_sampled;
use snap_bench::time;
use std::time::Duration;

/// Tracking allocator for per-bench `peak_bytes`. Tracking is switched
/// on only around the observed runs — the timed reps see the disabled
/// hook, a single relaxed load. `--no-default-features` drops the
/// allocator entirely (peak_bytes reads 0).
#[cfg(feature = "mem-track")]
#[global_allocator]
static ALLOC: snap_obs::TrackingAlloc<std::alloc::System> =
    snap_obs::TrackingAlloc::new(std::alloc::System);

/// One emitted benchmark record.
struct Entry {
    bench: &'static str,
    n: usize,
    m: usize,
    wall_ms: f64,
    work_units: u64,
    /// High-water mark of live bytes during the observed run (0 when
    /// built without `mem-track`).
    peak_bytes: u64,
}

fn min_wall(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        best = best.min(f());
    }
    best.as_secs_f64() * 1e3
}

/// Run `f` once with collection (and memory tracking) live, wrapped in
/// a span named `bench`, and return that bench's span subtree, the
/// total of the `counter` work counter, and the run's peak live bytes.
/// Instrumented runs happen *after* the timed reps, so `wall_ms` never
/// includes collection overhead; the peak window is reset per bench so
/// each reports its own high-water mark (graph + kernel scratch).
fn observed_spans(
    bench: &'static str,
    counter: &str,
    f: impl FnOnce(),
) -> (snap_obs::ReportNode, u64, u64) {
    snap_obs::enable();
    snap_obs::enable_tracing();
    snap_obs::enable_mem_tracking();
    snap_obs::reset_peak_live();
    {
        let _span = snap_obs::span(bench);
        f();
    }
    let peak_bytes = snap_obs::mem_snapshot().peak_live;
    snap_obs::disable_mem_tracking();
    let mut report = snap_obs::finish().unwrap_or_default();
    snap_obs::disable_tracing();
    let work = report.total_counter(counter);
    // Parallel-efficiency gauges from this bench's own timeline, folded
    // onto the bench span so `obs diff --fail-eff-drop` can gate them
    // from the spans baseline without shipping the raw events.
    let gauges = snap_obs::analyze::key_gauges(&report);
    let mut node = report.root.children.into_iter().next().unwrap_or_default();
    node.gauges.extend(gauges);
    TRACE_EVENTS.lock().unwrap().append(&mut report.trace);
    (node, work, peak_bytes)
}

/// Events drained from every observed run, concatenated for the
/// combined spans report. Timestamps share one process-wide clock, so
/// the per-bench slices stay disjoint and ordered.
static TRACE_EVENTS: std::sync::Mutex<Vec<snap_obs::TraceEvent>> =
    std::sync::Mutex::new(Vec::new());

fn main() {
    let mut scale = 15u32;
    let mut reps = 3usize;
    let mut seed = 0x5eedu64;
    let mut out = String::from("BENCH_kernels.json");
    let mut spans_out = String::from("BENCH_spans.json");
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().unwrap_or_else(|| panic!("{name} needs a value"));
        match flag.as_str() {
            "--scale" => scale = val("--scale").parse().expect("--scale must be a u32"),
            "--reps" => reps = val("--reps").parse().expect("--reps must be a usize"),
            "--seed" => seed = val("--seed").parse().expect("--seed must be a u64"),
            "--out" => out = val("--out"),
            "--spans-out" => spans_out = val("--spans-out"),
            "--trace" => trace = true,
            other => panic!(
                "unknown flag {other}; supported: --scale N --reps R --seed S --out P --spans-out P --trace"
            ),
        }
    }
    let reps = reps.max(1);
    let mut entries = Vec::new();
    let mut bench_spans = Vec::new();

    // --- Sampled betweenness, k = 64 sources, R-MAT m = 8n. ---
    {
        let n = 1usize << scale;
        let g = rmat(&RmatConfig::small_world(scale, n * 8), seed);
        let sources = sample_sources(g.num_vertices(), 64, seed);
        let wall = min_wall(reps, || time(|| betweenness_from_sources(&g, &sources)).1);
        // Work units: total traversal vertices over all sources, read from
        // the kernel's own counters in the observed run.
        let (node, work, peak) =
            observed_spans("sampled_betweenness_k64", "frontier_vertices", || {
                let _ = betweenness_from_sources(&g, &sources);
            });
        bench_spans.push(node);
        entries.push(entry("sampled_betweenness_k64", &g, wall, work, peak));
    }

    // --- Exact closeness (all-sources BFS sweep) on an ER instance. ---
    {
        let n = 1usize << scale.saturating_sub(3);
        let g = erdos_renyi(n, n * 8, seed);
        let wall = min_wall(reps, || time(|| closeness(&g)).1);
        let (node, _, peak) = observed_spans("closeness_exact", "frontier_vertices", || {
            let _ = closeness(&g);
        });
        bench_spans.push(node);
        entries.push(entry(
            "closeness_exact",
            &g,
            wall,
            g.num_vertices() as u64,
            peak,
        ));
    }

    // --- Sampled path statistics, k = 256 sources. ---
    {
        let s = scale.saturating_sub(1);
        let n = 1usize << s;
        let g = rmat(&RmatConfig::small_world(s, n * 8), seed);
        let wall = min_wall(reps, || time(|| path_stats_sampled(&g, 256, seed)).1);
        let (node, _, peak) =
            observed_spans("path_stats_sampled_k256", "frontier_vertices", || {
                let _ = path_stats_sampled(&g, 256, seed);
            });
        bench_spans.push(node);
        entries.push(entry("path_stats_sampled_k256", &g, wall, 256, peak));
    }

    // --- Direction-optimizing hybrid BFS from 64 sampled sources. ---
    {
        let n = 1usize << scale;
        let g = rmat(&RmatConfig::small_world(scale, n * 8), seed);
        let sources = sample_sources(g.num_vertices(), 64, seed ^ 1);
        let cfg = HybridConfig::default();
        let mut work = 0u64;
        let wall = min_wall(reps, || {
            let (edges, d) = time(|| {
                sources
                    .iter()
                    .map(|&s| par_bfs_hybrid_stats(&g, s, &cfg).1.total_edges_examined())
                    .sum::<u64>()
            });
            work = edges;
            d
        });
        let (node, _, peak) = observed_spans("hybrid_bfs_64", "frontier_vertices", || {
            for &s in &sources {
                let _ = par_bfs_hybrid_stats(&g, s, &cfg);
            }
        });
        bench_spans.push(node);
        entries.push(entry("hybrid_bfs_64", &g, wall, work, peak));
    }

    // --- Compressed CSR A/B: the same kernels over flat vs
    // delta/varint-compressed adjacency, plus the bucket kernels. ---
    //
    // `csr_bfs` / `ccsr_bfs` share one R-MAT instance and source set;
    // their `work_units` (total edges examined) must be identical — a
    // backend that decoded a different adjacency would shift the
    // direction-optimizing traversal's edge count. `kcore` runs the
    // bucket-peeling coreness kernel (work = degree decrements);
    // `sssp_delta_buckets` runs Δ-stepping on the same shared `Buckets`
    // structure (work = relaxations). The flat graph is dropped
    // before the compressed rows' observed runs, so the `peak_bytes`
    // columns compare resident footprints.
    {
        use snap::graph::CompressedCsrGraph;
        use snap::kernels::{coreness, delta_stepping};

        let s = scale.saturating_sub(2);
        let n = 1usize << s;
        let g = rmat(&RmatConfig::small_world(s, n * 8), seed);
        let (gn, gm) = (g.num_vertices(), g.num_edges());
        let sources = sample_sources(gn, 16, seed ^ 2);
        let cfg = HybridConfig::default();

        fn bfs_sweep<G: Graph>(g: &G, sources: &[u32], cfg: &HybridConfig) -> u64 {
            sources
                .iter()
                .map(|&s| par_bfs_hybrid_stats(g, s, cfg).1.total_edges_examined())
                .sum()
        }

        let mut csr_work = 0u64;
        let wall = min_wall(reps, || {
            let (w, d) = time(|| bfs_sweep(&g, &sources, &cfg));
            csr_work = w;
            d
        });
        let (node, _, peak) = observed_spans("csr_bfs", "frontier_vertices", || {
            let _ = bfs_sweep(&g, &sources, &cfg);
        });
        bench_spans.push(node);
        entries.push(entry_nm("csr_bfs", gn, gm, wall, csr_work, peak));

        let wall = min_wall(reps, || time(|| coreness(&g)).1);
        let core_csr = coreness(&g);
        let (node, _, peak) = observed_spans("kcore", "kcore_decrements", || {
            let _ = coreness(&g);
        });
        bench_spans.push(node);
        entries.push(entry_nm("kcore", gn, gm, wall, core_csr.decrements, peak));

        let sssp_source = sources[0];
        let wall = min_wall(reps, || time(|| delta_stepping(&g, sssp_source, 0)).1);
        let (node, relax, peak) = observed_spans("sssp_delta_buckets", "relaxations", || {
            let _ = delta_stepping(&g, sssp_source, 0);
        });
        bench_spans.push(node);
        entries.push(entry_nm("sssp_delta_buckets", gn, gm, wall, relax, peak));

        // Cross-backend equivalence, then drop the flat graph so the
        // compressed rows' peaks reflect the compressed-resident state.
        let c = CompressedCsrGraph::from_csr(&g);
        assert!(
            c.adjacency_bytes() < g.adjacency_bytes(),
            "compression must shrink the adjacency: {} vs {}",
            c.adjacency_bytes(),
            g.adjacency_bytes()
        );
        assert_eq!(
            core_csr.coreness,
            coreness(&c).coreness,
            "coreness must agree across backends"
        );
        drop(g);

        let mut ccsr_work = 0u64;
        let wall = min_wall(reps, || {
            let (w, d) = time(|| bfs_sweep(&c, &sources, &cfg));
            ccsr_work = w;
            d
        });
        assert_eq!(
            csr_work, ccsr_work,
            "edge-inspection work_units must be invariant across backends"
        );
        let (node, _, peak) = observed_spans("ccsr_bfs", "frontier_vertices", || {
            let _ = bfs_sweep(&c, &sources, &cfg);
        });
        bench_spans.push(node);
        entries.push(entry_nm("ccsr_bfs", gn, gm, wall, ccsr_work, peak));
    }

    // --- Streaming: delta-merge vs full rebuild on small-batch churn. ---
    //
    // The same deterministic op stream drives both paths, and both
    // publish a CSR after every batch — the only difference is *how*:
    // the streaming engine's linear delta-merge against the previous
    // snapshot, or `DynGraph::to_csr`'s from-scratch rebuild (global
    // sort). `work_units` is the summed edge count of every published
    // snapshot, identical for both by construction.
    {
        let s = scale.saturating_sub(2);
        let n = 1usize << s;
        let base = rmat(&RmatConfig::small_world(s, n * 4), seed);
        let (epochs, batch) = (32usize, 64usize);
        let ops = churn_ops(&base, epochs * batch, seed ^ 0xC0FFEE);

        let delta_pass = || {
            let (mut sg, _) = StreamingGraph::from_csr(&base);
            let mut published = 0u64;
            for chunk in ops.chunks(batch) {
                sg.apply_batch(chunk);
                published += sg.merge().graph.num_edges() as u64;
            }
            published
        };
        let rebuild_pass = || {
            let mut live = DynGraph::from_csr(&base);
            let mut published = 0u64;
            for chunk in ops.chunks(batch) {
                for &op in chunk {
                    match op {
                        EdgeOp::Insert(u, v) => {
                            live.ensure_vertex(u.max(v));
                            live.insert_edge(u, v);
                        }
                        EdgeOp::Delete(u, v) => {
                            live.delete_edge(u, v);
                        }
                    }
                }
                published += live.to_csr().num_edges() as u64;
            }
            published
        };

        let mut work = 0u64;
        let wall = min_wall(reps, || {
            let (w, d) = time(delta_pass);
            work = w;
            d
        });
        let (node, _, peak) = observed_spans("stream_delta_merge", "frontier_vertices", || {
            let _ = delta_pass();
        });
        bench_spans.push(node);
        entries.push(entry("stream_delta_merge", &base, wall, work, peak));

        let mut rebuild_work = 0u64;
        let wall = min_wall(reps, || {
            let (w, d) = time(rebuild_pass);
            rebuild_work = w;
            d
        });
        assert_eq!(
            work, rebuild_work,
            "both paths must publish the same snapshots"
        );
        let (node, _, peak) = observed_spans("stream_full_rebuild", "frontier_vertices", || {
            let _ = rebuild_pass();
        });
        bench_spans.push(node);
        entries.push(entry(
            "stream_full_rebuild",
            &base,
            wall,
            rebuild_work,
            peak,
        ));
    }

    // --- Resident serving: closed-loop clients vs epoch churn. ---
    //
    // Four sequential-issue clients hammer a `snap::serve` engine with a
    // bfs workload drawn mostly from a shared hot set (cache hits after
    // first touch) plus per-client unique sources (guaranteed cold
    // misses), while a churn thread publishes fresh epochs underneath —
    // the serving steady state, not a kernel microbench. `work_units` is
    // the fixed request count; the observed run additionally records
    // hit/miss latency histograms and asserts the headline cache
    // contract (hit p50 at least 10x faster than cold p50).
    {
        use snap::serve::{Engine, Outcome, Query, Request, ServeConfig};
        let s = scale.saturating_sub(2);
        let n = 1usize << s;
        let g = rmat(&RmatConfig::small_world(s, n * 8), seed);
        const CLIENTS: u32 = 4;
        const PER_CLIENT: u32 = 64;
        const HOT: u32 = 8;
        const MERGES: usize = 16;
        let ops = churn_ops(&g, MERGES * 32, seed ^ 0xBEEF);

        // One full pass: fresh engine, closed-loop clients, churn thread.
        // Returns wall_us per request, split by cache outcome.
        let serve_pass = || -> (Vec<u64>, Vec<u64>) {
            let (mut sg, _) = StreamingGraph::from_csr(&g);
            let engine = Engine::new(sg.reader(), ServeConfig::default());
            let hits = std::sync::Mutex::new(Vec::new());
            let misses = std::sync::Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for t in 0..CLIENTS {
                    let engine = &engine;
                    let (hits, misses) = (&hits, &misses);
                    scope.spawn(move || {
                        let (mut h, mut m) = (Vec::new(), Vec::new());
                        for j in 0..PER_CLIENT {
                            let source = if j % 4 != 3 {
                                (t * 7 + j) % HOT
                            } else {
                                HOT + t * PER_CLIENT + j
                            };
                            let req = Request::new(Query::Bfs {
                                source: source % n as u32,
                            });
                            let resp = engine.handle(&req);
                            match resp.outcome {
                                Outcome::Hit => h.push(resp.wall_us),
                                _ => m.push(resp.wall_us),
                            }
                        }
                        hits.lock().unwrap().extend(h);
                        misses.lock().unwrap().extend(m);
                    });
                }
                for chunk in ops.chunks(ops.len() / MERGES) {
                    sg.apply_batch(chunk);
                    sg.merge();
                    std::thread::sleep(Duration::from_millis(1));
                }
            });
            (hits.into_inner().unwrap(), misses.into_inner().unwrap())
        };

        let wall = min_wall(reps, || time(serve_pass).1);
        let work = u64::from(CLIENTS * PER_CLIENT);
        let (node, _, peak) = observed_spans("serve_loop", "frontier_vertices", || {
            let hit_h = snap_obs::hist("hit_us");
            let miss_h = snap_obs::hist("miss_us");
            let (mut hits, mut misses) = serve_pass();
            for &v in &hits {
                hit_h.record(v);
            }
            for &v in &misses {
                miss_h.record(v);
            }
            snap_obs::add("requests", work);
            snap_obs::add("cache_hits", hits.len() as u64);
            snap_obs::add("cache_misses", misses.len() as u64);
            let pct = |xs: &mut Vec<u64>, q: f64| -> u64 {
                xs.sort_unstable();
                xs[((xs.len() - 1) as f64 * q) as usize]
            };
            assert!(
                !hits.is_empty() && !misses.is_empty(),
                "workload must exercise both cache paths"
            );
            let (p50_hit, p50_miss) = (pct(&mut hits, 0.5), pct(&mut misses, 0.5));
            snap_obs::gauge("p50_hit_us", p50_hit as f64);
            snap_obs::gauge("p90_hit_us", pct(&mut hits, 0.9) as f64);
            snap_obs::gauge("p99_hit_us", pct(&mut hits, 0.99) as f64);
            snap_obs::gauge("p50_miss_us", p50_miss as f64);
            snap_obs::gauge("p90_miss_us", pct(&mut misses, 0.9) as f64);
            snap_obs::gauge("p99_miss_us", pct(&mut misses, 0.99) as f64);
            assert!(
                p50_miss >= 10 * p50_hit.max(1),
                "cache hit not 10x faster: miss p50 {p50_miss}us, hit p50 {p50_hit}us"
            );
        });
        bench_spans.push(node);
        entries.push(entry("serve_loop", &g, wall, work, peak));
    }

    let json = render(&entries);
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));
    println!("{json}");

    // One combined span report covering every bench, for `obs diff`.
    // The synthetic root spans its children end to end so the critical-
    // path analyzer sees a well-formed tree (path <= root duration).
    let root_duration: u64 = bench_spans.iter().map(|n| n.duration_us).sum();
    let spans_report = snap_obs::RunReport {
        root: snap_obs::ReportNode {
            name: "perf_suite".to_string(),
            duration_us: root_duration,
            calls: 1,
            meta: vec![
                ("scale".to_string(), scale.to_string()),
                ("seed".to_string(), format!("{seed:#x}")),
            ],
            children: bench_spans,
            ..Default::default()
        },
        // The concatenated timeline is bulky — only ship it on request;
        // the per-bench gauges above carry the analyzer's summary either
        // way.
        trace: if trace {
            std::mem::take(&mut *TRACE_EVENTS.lock().unwrap())
        } else {
            Vec::new()
        },
        mem_samples: Vec::new(),
    };
    let mut spans_json = spans_report.to_json();
    spans_json.push('\n');
    std::fs::write(&spans_out, &spans_json)
        .unwrap_or_else(|e| panic!("cannot write {spans_out}: {e}"));
    eprintln!("wrote {out} and {spans_out} (scale {scale}, reps {reps}, seed {seed:#x})");
}

/// Deterministic insert/delete churn over `base`'s vertex set: ~3/4
/// inserts of random pairs, ~1/4 deletes of a previously inserted pair
/// (xorshift64 — reproducible across trees, like the generator seeds).
fn churn_ops(base: &CsrGraph, count: usize, mut state: u64) -> Vec<EdgeOp> {
    let n = base.num_vertices() as u64;
    state |= 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut inserted: Vec<(u32, u32)> = Vec::new();
    let mut ops = Vec::with_capacity(count);
    for _ in 0..count {
        if !inserted.is_empty() && rng() % 4 == 0 {
            let (u, v) = inserted.swap_remove((rng() % inserted.len() as u64) as usize);
            ops.push(EdgeOp::Delete(u, v));
        } else {
            let u = (rng() % n) as u32;
            let mut v = (rng() % n) as u32;
            if u == v {
                v = (v + 1) % n as u32;
            }
            inserted.push((u, v));
            ops.push(EdgeOp::Insert(u, v));
        }
    }
    ops
}

fn entry(
    bench: &'static str,
    g: &CsrGraph,
    wall_ms: f64,
    work_units: u64,
    peak_bytes: u64,
) -> Entry {
    Entry {
        bench,
        n: g.num_vertices(),
        m: g.num_edges(),
        wall_ms,
        work_units,
        peak_bytes,
    }
}

/// [`entry`] with explicit sizes, for benches whose graph is not a
/// `CsrGraph` (the compressed backend rows) or has been dropped.
fn entry_nm(
    bench: &'static str,
    n: usize,
    m: usize,
    wall_ms: f64,
    work_units: u64,
    peak_bytes: u64,
) -> Entry {
    Entry {
        bench,
        n,
        m,
        wall_ms,
        work_units,
        peak_bytes,
    }
}

fn render(entries: &[Entry]) -> String {
    let mut s = String::from("[\n");
    for (i, e) in entries.iter().enumerate() {
        s.push_str(&format!(
            "  {{\"bench\": \"{}\", \"n\": {}, \"m\": {}, \"wall_ms\": {:.3}, \"work_units\": {}, \"peak_bytes\": {}}}{}\n",
            e.bench,
            e.n,
            e.m,
            e.wall_ms,
            e.work_units,
            e.peak_bytes,
            if i + 1 < entries.len() { "," } else { "" }
        ));
    }
    s.push_str("]\n");
    s
}

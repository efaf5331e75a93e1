//! `kernels_t1`, `kernels_tN`, `kernels_ccsr`: the resident R-MAT graph
//! through the traversal kernels and Brandes. `snap-kernels`,
//! `snap-centrality` and the `vendor/rayon` scheduler do all the work and
//! I/O does none. Skewed R-MAT degrees make per-level imbalance and
//! spawn-per-call cost visible. Each workload's `wall_s` counts its own
//! rows only — the suite at one thread, the suite at all threads, BFS and
//! k-core on the compressed backend — so a parallel gain bought with a
//! serial loss, or a decode regression, moves a number of its own.
//! `kernels_tN` also runs the one-thread rows and `kernels_ccsr` the CSR
//! BFS sweep, untimed in `wall_s`, as the base of their ratio rows.

use super::{
    common_metrics, first_setup, giant_members, late_setups, pass_loop, rmat_graph, Ops, Outcome,
    Run,
};
use crate::inputs::{Fingerprint, Rng};
use crate::metrics::{ratio, Values};
use crate::rec::Recorder;
use crate::stats::{fastest, median, percentile};
use snap::centrality::betweenness_from_sources;
use snap::graph::scratch::ScratchPool;
use snap::graph::{CompressedCsrGraph, CsrGraph, DecodeScratch, Graph};
use snap::kernels::{
    bfs, connected_components, coreness, delta_stepping, dijkstra, par_bfs_hybrid_stats,
    par_components_hybrid, HybridConfig, INF, UNREACHABLE,
};
use std::sync::atomic::{AtomicU64, Ordering};

struct Inputs {
    g: CsrGraph,
    c: CompressedCsrGraph,
    bfs_sources: Vec<u32>,
    bc_sources: Vec<u32>,
    /// Vertices and undirected edges of the giant component: properties
    /// of the input, so the TEPS numerator does not shrink when a kernel
    /// examines fewer edges.
    giant_vertices: usize,
    giant_edges: u64,
    components: usize,
    max_core: u32,
    /// Sum of finite Δ-stepping distances from `bfs_sources[0]`.
    sssp_dist_sum: u64,
    /// Sum of the vertex scores of the sampled Brandes run.
    bc_score_sum: f64,
    fingerprint: Fingerprint,
    /// Oracle checks made during set-up: (passed, what).
    checks: Vec<(bool, &'static str)>,
}

fn finite_sum(dist: &[u64]) -> u64 {
    dist.iter().filter(|&&d| d != INF).sum()
}

fn setup(run: &Run) -> Inputs {
    let g = rmat_graph(run.sizes.rmat_scale, run.seed);
    let c = CompressedCsrGraph::from_csr(&g);
    let fingerprint = Fingerprint::of(&g);

    let comps = connected_components(&g);
    let mut members = giant_members(&g, &comps);
    let giant_arcs: u64 = members.iter().map(|&v| g.degree(v) as u64).sum();
    let giant_vertices = members.len();
    Rng::new(run.seed ^ 0x6b65_726e).shuffle(&mut members);
    let bfs_sources: Vec<u32> = members[..run.sizes.bfs_sources.min(giant_vertices)].to_vec();
    let bc_sources: Vec<u32> = bfs_sources[..run.sizes.bc_sources.min(bfs_sources.len())].to_vec();
    let s0 = bfs_sources[0];
    let cfg = HybridConfig::default();

    // Each parallel kernel against its sequential oracle, and the hybrid
    // BFS's work count across backends and thread counts.
    let mut checks = Vec::new();
    let (par, stats) = par_bfs_hybrid_stats(&g, s0, &cfg);
    checks.push((
        par.dist == bfs(&g, s0).dist,
        "hybrid BFS distances equal bfs",
    ));
    let examined = stats.total_edges_examined();
    let same_work = [1, run.threads].iter().all(|&t| {
        snap::with_threads(t, || {
            par_bfs_hybrid_stats(&g, s0, &cfg).1.total_edges_examined() == examined
                && par_bfs_hybrid_stats(&c, s0, &cfg).1.total_edges_examined() == examined
        })
    });
    checks.push((
        same_work,
        "edges_examined equal across backends and threads",
    ));
    checks.push((
        par_components_hybrid(&g).count == comps.count,
        "component count equals connected_components",
    ));
    let cores = coreness(&g);
    checks.push((
        cores.coreness == coreness(&c).coreness,
        "coreness agrees across backends",
    ));
    let sssp = delta_stepping(&g, s0, 0);
    checks.push((
        sssp.dist == dijkstra(&g, s0).dist,
        "delta_stepping equals dijkstra",
    ));
    let bc_score_sum = betweenness_from_sources(&g, &bc_sources)
        .vertex
        .iter()
        .sum();

    Inputs {
        bfs_sources,
        bc_sources,
        giant_vertices,
        giant_edges: giant_arcs / 2,
        components: comps.count,
        max_core: cores.max_core,
        sssp_dist_sum: finite_sum(&sssp.dist),
        bc_score_sum,
        fingerprint,
        checks,
        g,
        c,
    }
}

/// Which rows a workload's `wall_s` counts.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Rows {
    T1,
    TN,
    Ccsr,
}

/// Span names of one thread count's rows.
struct Spans {
    bfs: &'static str,
    bfs_source: &'static str,
    cc: &'static str,
    kcore: &'static str,
    sssp: &'static str,
    bc: &'static str,
    decode: &'static str,
}

const T1: Spans = Spans {
    bfs: "kernels.bfs_t1",
    bfs_source: "kernels.bfs_source_t1",
    cc: "kernels.cc_t1",
    kcore: "kernels.kcore_t1",
    sssp: "kernels.sssp_t1",
    bc: "centrality.bc_t1",
    decode: "graph.decode_t1",
};

const TN: Spans = Spans {
    bfs: "kernels.bfs_tN",
    bfs_source: "kernels.bfs_source_tN",
    cc: "kernels.cc_tN",
    kcore: "kernels.kcore_tN",
    sssp: "kernels.sssp_tN",
    bc: "centrality.bc_tN",
    decode: "graph.decode_tN",
};

/// One BFS sweep over the sampled sources; every source must reach the
/// whole giant component.
fn bfs_sweep<G: Graph>(
    rec: &mut Recorder,
    ops: &mut Ops,
    inputs: &Inputs,
    g: &G,
    sweep: &'static str,
    source: &'static str,
) {
    let cfg = HybridConfig::default();
    rec.time(sweep, |rec| {
        for &s in &inputs.bfs_sources {
            let (r, _) = rec.time(source, |_| par_bfs_hybrid_stats(g, s, &cfg));
            let reached = r.dist.iter().filter(|&&d| d != UNREACHABLE).count();
            ops.op(reached == inputs.giant_vertices, || {
                format!("{source}: BFS from {s} reached {reached} vertices")
            });
        }
    });
}

/// The suite on the CSR backend under the ambient thread count.
fn csr_rows(rec: &mut Recorder, ops: &mut Ops, inputs: &Inputs, rows: &Spans) {
    let g = &inputs.g;
    bfs_sweep(rec, ops, inputs, g, rows.bfs, rows.bfs_source);

    let count = rec.time(rows.cc, |_| par_components_hybrid(g).count);
    ops.op(count == inputs.components, || {
        format!("{}: {count} components", rows.cc)
    });

    let max_core = rec.time(rows.kcore, |_| coreness(g).max_core);
    ops.op(max_core == inputs.max_core, || {
        format!("{}: max core {max_core}", rows.kcore)
    });

    let sum = rec.time(rows.sssp, |_| {
        finite_sum(&delta_stepping(g, inputs.bfs_sources[0], 0).dist)
    });
    ops.op(sum == inputs.sssp_dist_sum, || {
        format!("{}: distance sum {sum}", rows.sssp)
    });

    let scores = rec.time(rows.bc, |_| betweenness_from_sources(g, &inputs.bc_sources));
    let sum: f64 = scores.vertex.iter().sum();
    ops.op(
        (sum - inputs.bc_score_sum).abs() <= 1e-9 * inputs.bc_score_sum.abs(),
        || format!("{}: score sum {sum}", rows.bc),
    );

    let pool = ScratchPool::<DecodeScratch>::new();
    let arcs = AtomicU64::new(0);
    rec.time(rows.decode, |_| {
        inputs.c.par_for_each_adjacency(&pool, |_, targets, _| {
            arcs.fetch_add(targets.len() as u64, Ordering::Relaxed);
        })
    });
    let arcs = arcs.into_inner();
    ops.op(arcs == g.num_arcs() as u64, || {
        format!("{}: decoded {arcs} arcs", rows.decode)
    });
}

const CCSR_BFS: &str = "kernels.bfs_ccsr_tN";
const CCSR_BFS_SOURCE: &str = "kernels.bfs_source_ccsr_tN";
const CCSR_KCORE: &str = "kernels.kcore_ccsr_tN";

/// BFS and k-core on the compressed backend: the rows that pay decode
/// cost, which the CSR rows do not.
fn ccsr_rows(rec: &mut Recorder, ops: &mut Ops, inputs: &Inputs) {
    bfs_sweep(rec, ops, inputs, &inputs.c, CCSR_BFS, CCSR_BFS_SOURCE);
    let max_core = rec.time(CCSR_KCORE, |_| coreness(&inputs.c).max_core);
    ops.op(max_core == inputs.max_core, || {
        format!("{CCSR_KCORE}: max core {max_core}")
    });
}

/// Metric names of one kernel's GBBS-style row: time at one thread, time
/// at all threads, self-speedup.
const ROWS: [(&str, &str, &str, &str, &str); 5] = [
    (
        T1.bfs,
        TN.bfs,
        "kernels.bfs_t1_ms",
        "kernels.bfs_tN_ms",
        "kernels.bfs_speedup",
    ),
    (
        T1.cc,
        TN.cc,
        "kernels.cc_t1_ms",
        "kernels.cc_tN_ms",
        "kernels.cc_speedup",
    ),
    (
        T1.kcore,
        TN.kcore,
        "kernels.kcore_t1_ms",
        "kernels.kcore_tN_ms",
        "kernels.kcore_speedup",
    ),
    (
        T1.sssp,
        TN.sssp,
        "kernels.sssp_t1_ms",
        "kernels.sssp_tN_ms",
        "kernels.sssp_speedup",
    ),
    (
        T1.bc,
        TN.bc,
        "centrality.bc_t1_ms",
        "centrality.bc_tN_ms",
        "centrality.bc_speedup",
    ),
];

/// The program's own counters: metric, `snap_obs` counter, and the span
/// that carries it at one thread, at all threads and on the compressed
/// backend.
const COUNTS: [(&str, &str, &str, &str, Option<&str>); 5] = [
    (
        "kernels.bfs_edges_examined",
        "edges_examined",
        T1.bfs,
        TN.bfs,
        Some(CCSR_BFS),
    ),
    (
        "kernels.bfs_levels",
        "levels",
        T1.bfs,
        TN.bfs,
        Some(CCSR_BFS),
    ),
    (
        "kernels.kcore_decrements",
        "kcore_decrements",
        T1.kcore,
        TN.kcore,
        Some(CCSR_KCORE),
    ),
    (
        "kernels.sssp_relaxations",
        "relaxations",
        T1.sssp,
        TN.sssp,
        None,
    ),
    (
        "centrality.bc_frontier_vertices",
        "frontier_vertices",
        T1.bc,
        TN.bc,
        None,
    ),
];

pub fn run(run: &Run, rows: Rows) -> Outcome {
    let (inputs, mut setups) = first_setup(|| setup(run));
    let mut ops = Ops::default();
    for &(ok, what) in &inputs.checks {
        ops.op(ok, || format!("oracle check failed: {what}"));
    }

    let passes = pass_loop(run, |rec, _| {
        // The base of the workload's ratio rows first, then its own rows,
        // which are what `wall_s` counts.
        match rows {
            Rows::T1 => {}
            Rows::TN => snap::with_threads(1, || csr_rows(rec, &mut ops, &inputs, &T1)),
            Rows::Ccsr => snap::with_threads(run.threads, || {
                bfs_sweep(rec, &mut ops, &inputs, &inputs.g, TN.bfs, TN.bfs_source)
            }),
        }
        let base = rec.pass_busy();
        match rows {
            Rows::T1 => snap::with_threads(1, || csr_rows(rec, &mut ops, &inputs, &T1)),
            Rows::TN => snap::with_threads(run.threads, || csr_rows(rec, &mut ops, &inputs, &TN)),
            Rows::Ccsr => snap::with_threads(run.threads, || ccsr_rows(rec, &mut ops, &inputs)),
        }
        rec.pass_busy() - base
    });
    late_setups(run, &mut setups, || setup(run));

    let rec = &passes.rec;
    let fast = |name: &str| fastest(rec.per_pass(name));
    let bfs_source = match rows {
        Rows::T1 => T1.bfs_source,
        Rows::TN => TN.bfs_source,
        Rows::Ccsr => CCSR_BFS_SOURCE,
    };
    let mut values = Values::default();
    common_metrics(&mut values, &passes, &setups, rec.per_pass_p50(bfs_source));
    let bfs_edges = inputs.bfs_sources.len() as f64 * inputs.giant_edges as f64 / 1e6;
    let bc_edges = inputs.bc_sources.len() as f64 * inputs.giant_edges as f64 / 1e6;
    let decode_mb = inputs.c.adjacency_bytes() as f64 / 1e6;

    if rows != Rows::Ccsr {
        values.set("bfs_mteps_t1", ratio(bfs_edges, fast(T1.bfs)));
        values.set("graph.decode_mb_s_t1", ratio(decode_mb, fast(T1.decode)));
        for (t1, _, t1_ms, _, _) in ROWS {
            values.set_ms(t1_ms, fast(t1));
        }
    }
    if rows == Rows::TN {
        values.set("bfs_mteps", ratio(bfs_edges, fast(TN.bfs)));
        values.set("bc_mteps", ratio(bc_edges, fast(TN.bc)));
        values.set("graph.decode_mb_s_tN", ratio(decode_mb, fast(TN.decode)));
        for (t1, tn, _, tn_ms, speedup) in ROWS {
            values.set_ms(tn_ms, fast(tn));
            values.set(speedup, ratio(fast(t1), fast(tn)));
        }
        values.set_ms(
            "kernels.bfs_source_p50_ms",
            median(rec.samples(TN.bfs_source)),
        );
        values.set_ms(
            "kernels.bfs_source_p99_ms",
            percentile(rec.samples(TN.bfs_source), 99.0),
        );
        values.set_ms(
            "centrality.bc_source_p50_ms",
            fast(TN.bc) / inputs.bc_sources.len() as f64,
        );
    }
    if rows == Rows::Ccsr {
        values.set("bfs_mteps_ccsr", ratio(bfs_edges, fast(CCSR_BFS)));
        values.set_ms("kernels.bfs_tN_ms", fast(TN.bfs));
        values.set_ms("kernels.bfs_ccsr_tN_ms", fast(CCSR_BFS));
        values.set_ms("kernels.kcore_ccsr_tN_ms", fast(CCSR_KCORE));
        values.set(
            "kernels.bfs_ccsr_over_csr",
            ratio(fast(CCSR_BFS), fast(TN.bfs)),
        );
    }

    // The program's own counters, from the traced pass. They are counts
    // of work, so they must not depend on the thread count or backend.
    if let Some((_, traced)) = &passes.traced {
        for (metric, counter, t1, tn, ccsr) in COUNTS {
            // The span of the workload's own row and of its base row.
            let (own, base) = match rows {
                Rows::T1 => (Some(t1), None),
                Rows::TN => (Some(tn), Some(t1)),
                Rows::Ccsr => (ccsr, (tn == TN.bfs).then_some(tn)),
            };
            let Some(own) = own else { continue };
            let count = traced.obs_counter(own, counter);
            values.set(metric, count as f64);
            let base = base.map_or(count, |span| traced.obs_counter(span, counter));
            ops.op(count == base && count > 0, || {
                format!("{metric}: {count} on the workload's row, {base} on its base row")
            });
        }
    }

    let fingerprint = inputs.fingerprint.clone();
    passes.outcome(values, ops, fingerprint, setups)
}

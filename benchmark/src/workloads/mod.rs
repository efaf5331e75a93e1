//! The workloads and what they share: sizes, operation accounting,
//! repeated set-up and the time-bounded pass loop.
//!
//! There are four programs — `load`, `kernels`, `explore`, `serve_churn` —
//! and seven workloads: the benchmark contract reports every end-to-end
//! metric on every workload, so `load` and `kernels` are split until
//! `wall_s` on a workload is one headline number (read side or write
//! side; one thread, all threads or the compressed backend), not a sum in
//! which a gain on one side hides a loss on the other.

pub mod explore;
pub mod kernels;
pub mod load;
pub mod serve_churn;

use crate::inputs::{peak_rss_mb, Fingerprint};
use crate::metrics::Values;
use crate::rec::Recorder;
use crate::stats::{fastest, median};
use snap::gen::{rmat, RmatConfig};
use snap::graph::{CsrGraph, Graph};
use snap::io::IoError;
use snap::kernels::Components;
use snap::obs::json::Json;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub const NAMES: [&str; 7] = [
    "load_read",
    "load_write",
    "kernels_t1",
    "kernels_tN",
    "kernels_ccsr",
    "explore",
    "serve_churn",
];

/// Input and pass sizes. Scale is fixed; run length is tuned through the
/// pass count (`--seconds`), never by shrinking the input.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// R-MAT scale for `load` and `kernels` (m = 8n).
    pub rmat_scale: u32,
    /// BFS sources per sweep, sampled in the giant component.
    pub bfs_sources: usize,
    /// Brandes sources per `betweenness_from_sources` call.
    pub bc_sources: usize,
    /// Planted-partition graphs one `explore` pass goes through, and the
    /// vertices of each (16 communities, expected degree 8 inside and 2
    /// outside).
    pub planted_graphs: usize,
    pub planted_n: usize,
    /// Sampled sources of `explore`'s approximate betweenness.
    pub approx_bc_sources: usize,
    /// R-MAT scale for `serve_churn` (m = 8n).
    pub serve_scale: u32,
    /// Requests in one block (one pass) of `serve_churn`'s closed loop;
    /// the writer merges each time another block is half done.
    pub block_requests: u64,
    /// Edge ops in one writer batch.
    pub batch_ops: usize,
    /// Times set-up is repeated; `setup_s` is the fastest.
    pub setup_reps: usize,
    /// Fewest timed passes, whatever `--seconds` says.
    pub min_passes: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            rmat_scale: 17,
            bfs_sources: 16,
            bc_sources: 4,
            planted_graphs: 3,
            planted_n: 1 << 14,
            approx_bc_sources: 32,
            serve_scale: 16,
            block_requests: 400,
            batch_ops: 256,
            setup_reps: 3,
            min_passes: 5,
        }
    }

    /// `--smoke`: every code path and check at scales 10–12, one pass.
    pub fn smoke() -> Sizes {
        Sizes {
            rmat_scale: 12,
            bfs_sources: 8,
            bc_sources: 4,
            planted_graphs: 2,
            planted_n: 1 << 11,
            approx_bc_sources: 8,
            serve_scale: 10,
            block_requests: 200,
            batch_ops: 32,
            setup_reps: 1,
            min_passes: 1,
        }
    }

    pub fn to_json(&self) -> Json {
        let field = |name: &str, v: usize| (name.to_string(), Json::Num(v as f64));
        Json::Obj(vec![
            field("rmat_scale", self.rmat_scale as usize),
            field("bfs_sources", self.bfs_sources),
            field("bc_sources", self.bc_sources),
            field("planted_graphs", self.planted_graphs),
            field("planted_n", self.planted_n),
            field("approx_bc_sources", self.approx_bc_sources),
            field("serve_scale", self.serve_scale as usize),
            field("block_requests", self.block_requests as usize),
            field("batch_ops", self.batch_ops),
            field("setup_reps", self.setup_reps),
            field("min_passes", self.min_passes),
        ])
    }
}

/// One run of one workload, as the command line asked for it.
#[derive(Clone, Debug)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Worker threads for the parallel rows (`nproc`).
    pub threads: usize,
}

/// Operations attempted and failed. A failed check is a failed operation.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub failures: Vec<String>,
}

impl Ops {
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub values: Values,
    pub ops: Ops,
    pub fingerprint: Fingerprint,
    /// Seconds of each timed pass and of each set-up repetition.
    pub pass_walls: Vec<f64>,
    pub setups: Vec<f64>,
    /// The traced pass's recorder (spans), when `--trace` asked for one.
    pub traced: Option<Recorder>,
}

pub fn run(name: &str, run: &Run) -> Option<Outcome> {
    Some(match name {
        "load_read" => load::run(run, load::Side::Read),
        "load_write" => load::run(run, load::Side::Write),
        "kernels_t1" => kernels::run(run, kernels::Rows::T1),
        "kernels_tN" => kernels::run(run, kernels::Rows::TN),
        "kernels_ccsr" => kernels::run(run, kernels::Rows::Ccsr),
        "explore" => explore::run(run),
        "serve_churn" => serve_churn::run(run),
        _ => return None,
    })
}

/// The R-MAT input of `load`, `kernels` and `serve_churn`: m = 8n.
fn rmat_graph(scale: u32, seed: u64) -> CsrGraph {
    rmat(&RmatConfig::small_world(scale, 8 << scale), seed)
}

/// Vertices of the largest component, ascending.
fn giant_members(g: &CsrGraph, comps: &Components) -> Vec<u32> {
    let sizes = comps.sizes();
    let giant = (0..sizes.len())
        .max_by_key(|&l| sizes[l])
        .expect("non-empty graph") as u32;
    g.vertices()
        .filter(|&v| comps.comp[v as usize] == giant)
        .collect()
}

/// Write a graph file through a buffered writer and flush it.
fn write_file(path: &Path, write: impl FnOnce(&mut BufWriter<File>) -> Result<(), IoError>) {
    let mut w = BufWriter::new(File::create(path).expect("creating graph file"));
    write(&mut w).expect("writing graph file");
    w.flush().expect("flushing graph file");
}

/// Set up once, timed: the inputs the passes run on.
fn first_setup<I>(setup: impl FnOnce() -> I) -> (I, Vec<f64>) {
    let t = Instant::now();
    let inputs = setup();
    (inputs, vec![t.elapsed().as_secs_f64()])
}

/// The remaining `setup_reps - 1` repetitions, run after the timed passes
/// and dropped at once. The host's slow plateaus last longer than three
/// set-ups back to back, so repetitions a run apart are what gives
/// `setup_s` a chance of an undisturbed sample.
fn late_setups<I>(run: &Run, times: &mut Vec<f64>, mut setup: impl FnMut() -> I) {
    for _ in 1..run.sizes.setup_reps {
        let t = Instant::now();
        drop(setup());
        times.push(t.elapsed().as_secs_f64());
    }
}

/// Result of [`pass_loop`].
struct Passes {
    rec: Recorder,
    walls: Vec<f64>,
    /// Wall of the one traced pass and its recorder, under `--trace`.
    traced: Option<(f64, Recorder)>,
    /// VmHWM when the passes ended, before the late set-ups.
    peak_rss_mb: f64,
}

/// One discarded warm-up pass, then timed passes until `--seconds` is
/// used up (a pass is started only if one more fits, and at least
/// `min_passes` run), then under `--trace` one more pass with the span
/// recorder and `snap_obs` collection on. `pass` returns the seconds of
/// its fixed work.
fn pass_loop(run: &Run, mut pass: impl FnMut(&mut Recorder, u32) -> f64) -> Passes {
    let mut rec = Recorder::new(Instant::now(), 0);
    rec.begin_pass(0);
    pass(&mut rec, 0);
    rec.end_pass();
    rec.clear_samples();

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut last = 0.0;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if walls.len() >= run.sizes.min_passes && elapsed + last > run.seconds {
            break;
        }
        let n = walls.len() as u32 + 1;
        rec.begin_pass(n);
        walls.push(pass(&mut rec, n));
        rec.end_pass();
        last = started.elapsed().as_secs_f64() - elapsed;
    }

    let traced = run.trace.then(|| {
        let mut traced = rec.for_thread(0);
        traced.set_tracing(true);
        let n = walls.len() as u32 + 1;
        traced.begin_pass(n);
        let wall = pass(&mut traced, n);
        traced.end_pass();
        (wall, traced)
    });
    Passes {
        rec,
        walls,
        traced,
        peak_rss_mb: peak_rss_mb(),
    }
}

impl Passes {
    /// Hand the run's results to `main`.
    fn outcome(
        self,
        values: Values,
        ops: Ops,
        fingerprint: Fingerprint,
        setups: Vec<f64>,
    ) -> Outcome {
        Outcome {
            values,
            ops,
            fingerprint,
            pass_walls: self.walls,
            setups,
            traced: self.traced.map(|(_, rec)| rec),
        }
    }
}

/// The metrics every workload reports the same way. `request_p50s` is,
/// for each pass, the median seconds of the workload's request-sized unit
/// of work: one file loaded or stored, one BFS, one graph explored, one
/// cache-miss query.
fn common_metrics(values: &mut Values, passes: &Passes, setups: &[f64], request_p50s: &[f64]) {
    values.set("setup_s", fastest(setups));
    values.set("wall_s", fastest(&passes.walls));
    values.set_ms("request_p50_ms", fastest(request_p50s));
    let wall_p50 = median(&passes.walls);
    values.set("wall_p50_s", wall_p50);
    values.set("peak_rss_mb", passes.peak_rss_mb);
    if let Some((traced_wall, traced)) = &passes.traced {
        // One traced pass against the typical untraced one.
        values.set(
            "obs.trace_overhead_pct",
            (traced_wall / wall_p50 - 1.0) * 100.0,
        );
        values.set("obs.span_count", traced.span_count() as f64);
    }
}

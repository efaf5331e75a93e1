//! `snap-cli` — command-line front end for the SNAP framework.
//!
//! ```text
//! snap-cli summary      <graph> [--directed] [--seed S]
//! snap-cli bfs          <graph> [--source V] [--alpha A] [--beta B] [--directed]
//! snap-cli communities  <graph> [--algorithm gn|pbd|pma|pla|spectral] [--members]
//! snap-cli partition    <graph> --parts K [--method kway|recursive|rqi|lanczos] [--seed S]
//! snap-cli centrality   <graph> [--approx FRAC] [--top K] [--seed S]
//! snap-cli kcore        <graph> [--backend csr|compressed] [--directed] [--top K]
//! snap-cli run          <graph> [--source V] [--algorithm A] [--parts K] [--approx FRAC] [--seed S]
//!                       [--backend csr|compressed]
//! snap-cli stream       <opfile> [--base GRAPH] [--merge-every N] [--source V] [--check]
//! snap-cli serve        <graph> [--workers N] [--cache-bytes B] [--cache-entries N]
//!                       [--deadline-ms MS] [--max-pending N] [--socket PATH]
//!                       [--stream OPFILE] [--merge-every N] [--churn-ms MS]
//!                       [--slow-ms MS] [--trace-sample N] [--postmortem PATH]
//! snap-cli generate     rmat|er|ws|grid|planted --out FILE [--scale S] [--edges M] [--seed S]
//! snap-cli obs diff     BASE.json CURRENT.json [--fail-over-pct P] [--min-ms M]
//!                       [--fail-mem-over-pct P] [--min-bytes B]
//! snap-cli obs explain  REPORT.json [--limit N] [--json]
//! ```
//!
//! `stream` replays an edge-op file (`+ u v` inserts, `- u v` deletes,
//! bare `u v` inserts, `#` comments) through the streaming engine:
//! every `--merge-every` ops (default 1024) the delta layer is merged
//! into a new epoch-versioned immutable CSR snapshot, and the
//! incremental connected-components and BFS kernels are repaired. With
//! `--check`, every epoch's incremental results are verified against a
//! full recompute on the published snapshot (exit 1 on divergence).
//!
//! `serve` holds the graph resident and answers line-delimited JSON
//! queries — one request per line on stdin, or on each connection to
//! `--socket PATH`; one JSON response per line back the same way, in
//! completion order, correlated by the echoed `id` — through
//! `snap::serve`: one pool of `--workers` threads for every connection, an
//! epoch-keyed result cache, per-request deadline budgets, and load
//! shedding past `--max-pending`. A bad line costs its sender one
//! `{"id":…,"error":…}` line and nothing else. With `--stream OPFILE` a
//! background thread replays edge ops and merges every `--merge-every`
//! ops (pausing `--churn-ms` between merges), so the cache invalidates
//! live while queries run. `--metrics-out` exports `snap_serve_*`
//! counters from the running server. EOF on stdin (or an empty line)
//! shuts down cleanly; `--socket` serves until killed.
//!
//! Serving observability: every response carries an engine-assigned
//! `trace_id`; `--slow-ms MS` records requests at or over the threshold
//! (queue wait + compute) in a worst-K slow-query log served by the
//! `stats` meta query, `--trace-sample N` attaches a span trace to every
//! Nth request's exemplar, and an always-on flight recorder keeps a
//! bounded ring of request/merge/shed summaries — dump it with a
//! `{"query":"dump"}` request, or point `--postmortem PATH` at a file to
//! get an NDJSON dump written automatically on shed, on cancellation,
//! and on every `dump` query.
//!
//! `kcore` runs the parallel k-core decomposition (coreness of every
//! vertex by bucket peeling) and prints the degeneracy plus a core-size
//! table. `kcore` and `run` accept `--backend compressed` to execute
//! the kernels over the delta/varint-compressed CSR representation
//! (`CompressedCsrGraph`) instead of the flat adjacency arrays; with
//! `--backend` the `run` pipeline switches to the
//! representation-agnostic kernels (BFS, connected components, k-core,
//! Δ-stepping SSSP) and prints a `fixture_hash` fingerprint of every
//! kernel output — bit-identical across backends, which `tests/cli.rs`
//! asserts.
//!
//! Graph files may be whitespace edge lists (`u v [w]`, `#` comments,
//! 0-based ids), DIMACS shortest-path files (`.gr`), or METIS files
//! (`.graph` / `.metis`); the format is inferred from the extension and
//! can be forced with `--format edgelist|dimacs|metis`.
//!
//! Every analysis command accepts `--report json[=PATH]` to emit the
//! structured `snap-obs` run report (to stdout, or to `PATH`),
//! `--trace` to render the span tree human-readably on stderr, and
//! `--trace-out PATH` to record a per-thread event timeline and write it
//! as Chrome trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//! When the JSON report goes to stdout, the normal human output moves to
//! stderr so stdout stays machine-readable.
//!
//! With the default `mem-track` feature the binary runs under the
//! snap-obs tracking allocator: reports attribute heap traffic to spans,
//! traces carry a `mem.bytes_live` counter track, and
//! `--metrics-out FILE` starts a sampler thread that snapshots live
//! bytes plus the exported counters every `--stats-every MS`
//! (default 100) into `FILE` (NDJSON, append-only) and `FILE.om`
//! (OpenMetrics text, atomically rewritten — scrape it while the
//! command, e.g. a long `stream` replay, is still running).
//!
//! `obs diff` aligns two saved reports by span path and prints wall-time
//! and counter deltas; with `--fail-over-pct` it exits non-zero when any
//! span regressed past the threshold, and `--fail-mem-over-pct` does the
//! same for allocated/peak memory (`--min-bytes`, default 4096,
//! suppresses noise-level deltas).
//! `obs explain` answers "where did the time and the bytes go, and why
//! didn't it scale" for one saved report: dropped-event warnings, spans
//! ranked by self time (total minus children — the flamegraph view) and,
//! with memory data, by self-allocated bytes (`--limit` rows each), the
//! critical path through the span tree, and — when the report carries a
//! timeline (`--trace-out` with `--report json=PATH`) — parallel
//! efficiency, per-thread busy time, imbalance skew and the serial
//! fraction with its Amdahl ceiling. Human-readable text, or one line of
//! JSON with `--json`.
//! `--trace-buf N` sets the per-thread event ring capacity (default 8192
//! events); overflow drops the oldest events and is reported per thread
//! in `trace_events_dropped.tid*` counters, which `obs explain` surfaces
//! as a warning.
//!
//! `--timeout SECS` attaches a wall-clock deadline: kernels check it
//! cooperatively and degrade (sampling, coarser clusterings) or cancel
//! cleanly. The command never hangs; it exits 0 when it produced a
//! (possibly degraded) result, and a non-zero status when the deadline
//! cancelled a command with nothing to show (e.g. a half-finished BFS).

use snap::graph::{CsrGraph, Graph};
use snap::prelude::*;
use std::io::{BufReader, BufWriter};
use std::process::exit;

/// Route every heap allocation through the snap-obs tracking wrapper so
/// spans can attribute memory and `--metrics-out` can export live bytes.
/// Tracking still has to be switched on (see `main`); without the
/// switch the wrapper is a single relaxed atomic load per call.
#[cfg(feature = "mem-track")]
#[global_allocator]
static ALLOC: snap::obs::TrackingAlloc<std::alloc::System> =
    snap::obs::TrackingAlloc::new(std::alloc::System);

fn usage() -> ! {
    eprintln!(
        "usage: snap-cli <command> [options]

commands:
  summary      <graph> [--directed] [--seed S]
  bfs          <graph> [--source V] [--alpha A] [--beta B] [--directed]
  communities  <graph> [--algorithm gn|pbd|pma|pla|spectral] [--members]
  partition    <graph> --parts K [--method kway|recursive|rqi|lanczos] [--seed S]
  centrality   <graph> [--approx FRAC] [--top K] [--seed S]
  kcore        <graph> [--backend csr|compressed] [--directed] [--top K]
  run          <graph> [--source V] [--algorithm A] [--parts K] [--approx FRAC] [--seed S]
               [--backend csr|compressed]
  stream       <opfile> [--base GRAPH] [--merge-every N] [--source V] [--check]
  serve        <graph> [--workers N] [--cache-bytes B] [--cache-entries N]
               [--deadline-ms MS] [--max-pending N] [--socket PATH]
               [--stream OPFILE] [--merge-every N] [--churn-ms MS]
               [--slow-ms MS] [--trace-sample N] [--postmortem PATH]
  generate     rmat|er|ws|grid|planted --out FILE [--scale S] [--edges M] [--seed S]
  obs diff     BASE.json CURRENT.json [--fail-over-pct P] [--min-ms M]
               [--fail-mem-over-pct P] [--min-bytes B]
  obs explain  REPORT.json [--limit N] [--json]

common options:
  --format edgelist|dimacs|metis   input format (default: by extension)
  --report json[=PATH]             emit the snap-obs run report as JSON
  --trace                          render the span tree on stderr
  --trace-out PATH                 write a Chrome trace-event timeline
                                   (load in Perfetto / chrome://tracing)
  --metrics-out PATH               sample live telemetry into PATH
                                   (NDJSON) and PATH.om (OpenMetrics)
  --stats-every MS                 telemetry sampling period (default 100)
  --threads N                      worker threads (default: host cores)
  --trace-buf N                    per-thread event-ring capacity in events
                                   (default 8192)
  --timeout SECS                   wall-clock budget: analysis degrades
                                   gracefully or cancels cleanly (never hangs)"
    );
    exit(2)
}

fn fail(msg: &str) -> ! {
    eprintln!("snap-cli: {msg}");
    exit(1)
}

/// Print a line to stdout, exiting quietly if the downstream consumer
/// closed the pipe (`snap-cli ... | head` must not panic on EPIPE).
fn stdout_line(line: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if writeln!(std::io::stdout(), "{line}").is_err() {
        exit(0);
    }
}

/// Minimal flag parser: positional args plus `--flag [value]` pairs.
struct Args {
    positional: Vec<String>,
    flags: std::collections::HashMap<String, String>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Self {
        let mut positional = Vec::new();
        let mut flags = std::collections::HashMap::new();
        let mut it = raw.into_iter().peekable();
        while let Some(arg) = it.next() {
            if let Some(name) = arg.strip_prefix("--") {
                let value = match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().unwrap(),
                    _ => String::from("true"), // boolean flag
                };
                flags.insert(name.to_string(), value);
            } else {
                positional.push(arg);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// `--name` parsed (exiting on a bad value); `None` when absent.
    fn flag_opt<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let v = self.flag(name)?;
        let parsed = v.parse().ok();
        Some(parsed.unwrap_or_else(|| fail(&format!("bad value for --{name}: {v}"))))
    }

    fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flag_opt(name).unwrap_or(default)
    }
}

/// Where the structured report should go, if anywhere.
enum ReportSink {
    Stdout,
    File(String),
}

/// Observability options shared by every analysis command.
struct Obs {
    report: Option<ReportSink>,
    trace: bool,
    trace_out: Option<String>,
    metrics: Option<snap::obs::telemetry::SamplerConfig>,
    /// Running sampler between `begin` and `emit` (RefCell so the
    /// commands keep borrowing `Obs` immutably).
    sampler: std::cell::RefCell<Option<snap::obs::telemetry::Sampler>>,
}

impl Obs {
    fn parse(args: &Args) -> Self {
        let report = match args.flag("report") {
            None => None,
            Some("json") | Some("true") => Some(ReportSink::Stdout),
            Some(v) => match v.strip_prefix("json=") {
                Some(path) if !path.is_empty() => Some(ReportSink::File(path.to_string())),
                _ => fail(&format!(
                    "bad value for --report: {v} (expected json[=PATH])"
                )),
            },
        };
        let trace_out = match args.flag("trace-out") {
            None | Some("true") => None,
            Some(path) => Some(path.to_string()),
        };
        if args.flag("trace-out") == Some("true") {
            fail("--trace-out needs a file path");
        }
        let metrics = match args.flag("metrics-out") {
            None => None,
            Some("true") => fail("--metrics-out needs a file path"),
            Some(path) => {
                let every_ms: u64 = args.flag_parse("stats-every", 100u64);
                if every_ms == 0 {
                    fail("--stats-every must be at least 1 (milliseconds)");
                }
                Some(snap::obs::telemetry::SamplerConfig::new(
                    path,
                    std::time::Duration::from_millis(every_ms),
                ))
            }
        };
        if metrics.is_none() && args.flag("stats-every").is_some() {
            fail("--stats-every needs --metrics-out FILE");
        }
        Obs {
            report,
            trace: args.flag("trace").is_some(),
            trace_out,
            metrics,
            sampler: std::cell::RefCell::new(None),
        }
    }

    fn active(&self) -> bool {
        self.report.is_some() || self.trace || self.trace_out.is_some()
    }

    /// Start collection (no-op when neither --report, --trace,
    /// --trace-out, nor --metrics-out given).
    fn begin(&self, command: &str, graph_path: &str) {
        if self.active() {
            snap::obs::enable();
            snap::obs::meta("command", command);
            snap::obs::meta("graph", graph_path);
        }
        if self.trace_out.is_some() {
            snap::obs::enable_tracing();
        }
        if let Some(config) = &self.metrics {
            let sampler = snap::obs::telemetry::Sampler::start(config.clone())
                .unwrap_or_else(|e| fail(&format!("cannot start --metrics-out sampler: {e}")));
            *self.sampler.borrow_mut() = Some(sampler);
        }
    }

    /// True when the JSON report claims stdout, pushing human output to
    /// stderr.
    fn json_on_stdout(&self) -> bool {
        matches!(self.report, Some(ReportSink::Stdout))
    }

    /// Human-facing output line: stdout normally, stderr when stdout is
    /// reserved for the JSON report.
    fn say(&self, line: std::fmt::Arguments<'_>) {
        if self.json_on_stdout() {
            eprintln!("{line}");
        } else {
            stdout_line(line);
        }
    }

    /// Stop collection and emit whatever was requested.
    fn emit(&self) {
        // Stop the telemetry sampler first (it writes one final sample)
        // so the files are complete even when no report was requested.
        if let Some(sampler) = self.sampler.borrow_mut().take() {
            sampler
                .stop()
                .unwrap_or_else(|e| fail(&format!("telemetry sampler failed: {e}")));
        }
        if !self.active() {
            return;
        }
        let report = snap::obs::finish().unwrap_or_default();
        if self.trace_out.is_some() {
            snap::obs::disable_tracing();
        }
        if self.trace {
            eprint!("{}", report.render());
        }
        if let Some(path) = &self.trace_out {
            let mut text = report.to_chrome_trace();
            text.push('\n');
            std::fs::write(path, text)
                .unwrap_or_else(|e| fail(&format!("cannot write trace {path}: {e}")));
        }
        match &self.report {
            Some(ReportSink::Stdout) => stdout_line(format_args!("{}", report.to_json())),
            Some(ReportSink::File(path)) => {
                let mut text = report.to_json();
                text.push('\n');
                std::fs::write(path, text)
                    .unwrap_or_else(|e| fail(&format!("cannot write report {path}: {e}")));
            }
            None => {}
        }
    }
}

macro_rules! say {
    ($obs:expr, $($arg:tt)*) => { $obs.say(format_args!($($arg)*)) };
}

/// Build the command's compute budget from `--timeout SECS` (fractional
/// seconds accepted; absent = unlimited).
fn parse_budget(args: &Args) -> snap::Budget {
    match args.flag("timeout") {
        None => snap::Budget::unlimited(),
        Some(v) => {
            let secs: f64 = v
                .parse()
                .ok()
                .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                .unwrap_or_else(|| fail(&format!("bad value for --timeout: {v}")));
            snap::Budget::with_deadline(std::time::Duration::from_secs_f64(secs))
        }
    }
}

/// Surface a tripped budget to the human-facing output.
fn note_budget(obs: &Obs, budget: &snap::Budget) {
    if let Some(why) = budget.exhaustion() {
        say!(obs, "note: budget exhausted ({why}); results are degraded");
    }
}

/// Input format for graph files.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    EdgeList,
    Dimacs,
    Metis,
}

impl Format {
    fn detect(args: &Args, path: &str) -> Format {
        match args.flag("format") {
            Some("edgelist") => Format::EdgeList,
            Some("dimacs") => Format::Dimacs,
            Some("metis") => Format::Metis,
            Some(other) => fail(&format!(
                "unknown format {other} (expected edgelist, dimacs, or metis)"
            )),
            None => match path.rsplit('.').next() {
                Some("gr") => Format::Dimacs,
                Some("graph") | Some("metis") => Format::Metis,
                _ => Format::EdgeList,
            },
        }
    }
}

fn load(args: &Args, path: &str, directed: bool) -> CsrGraph {
    let file =
        std::fs::File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    let reader = BufReader::new(file);
    let parsed = match Format::detect(args, path) {
        Format::EdgeList => snap::io::edgelist::read_edge_list(reader, directed, 0),
        Format::Dimacs => snap::io::dimacs::read_dimacs(reader, directed),
        Format::Metis => snap::io::metis::read_metis(reader),
    };
    parsed.unwrap_or_else(|e| fail(&format!("cannot parse {path}: {e}")))
}

fn main() {
    // Switch the tracking allocator on for the whole process: span
    // attribution and --metrics-out both read it, and keeping it on
    // unconditionally means a run's peak_bytes covers graph loading too.
    #[cfg(feature = "mem-track")]
    snap::obs::enable_mem_tracking();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        usage();
    }
    let command = raw[0].clone();
    let args = Args::parse(raw[1..].to_vec());

    // Event-ring capacity must be set before any ring is lazily created,
    // i.e. before the first traced span of the command.
    if let Some(events) = args.flag_opt::<usize>("trace-buf") {
        if events == 0 {
            fail("bad value for --trace-buf: 0");
        }
        snap::obs::set_trace_capacity(events);
    }

    let dispatch = || match command.as_str() {
        "summary" => cmd_summary(&args),
        "bfs" => cmd_bfs(&args),
        "communities" => cmd_communities(&args),
        "partition" => cmd_partition(&args),
        "centrality" => cmd_centrality(&args),
        "kcore" => cmd_kcore(&args),
        "run" => cmd_run(&args),
        "stream" => cmd_stream(&args),
        "serve" => cmd_serve(&args),
        "generate" => cmd_generate(&args),
        "obs" => cmd_obs(&args),
        _ => usage(),
    };
    match args.flag("threads") {
        Some(v) => {
            let threads: usize = v
                .parse()
                .ok()
                .filter(|&t: &usize| t >= 1)
                .unwrap_or_else(|| fail(&format!("bad value for --threads: {v}")));
            snap::with_threads(threads, dispatch)
        }
        None => dispatch(),
    }
}

/// Load a saved `--report json=PATH` file.
fn load_report(path: &str) -> snap::obs::RunReport {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    snap::obs::RunReport::from_json(&text)
        .unwrap_or_else(|e| fail(&format!("cannot parse report {path}: {e}")))
}

/// `obs diff` / `obs explain` — offline analysis of saved run reports.
fn cmd_obs(args: &Args) {
    match args.positional.first().map(|s| s.as_str()) {
        Some("diff") => {
            let (base_path, cur_path) = match (args.positional.get(1), args.positional.get(2)) {
                (Some(a), Some(b)) => (a.as_str(), b.as_str()),
                _ => fail("obs diff needs BASE.json and CURRENT.json"),
            };
            let base = load_report(base_path);
            let cur = load_report(cur_path);
            let entries = snap::obs::diff::diff(&base, &cur);
            print!("{}", snap::obs::diff::render(&entries));
            if let Some(pct) = args.flag("fail-over-pct") {
                let pct: f64 = pct
                    .parse()
                    .ok()
                    .filter(|p: &f64| p.is_finite() && *p >= 0.0)
                    .unwrap_or_else(|| fail("bad value for --fail-over-pct"));
                let min_ms: f64 = args.flag_parse("min-ms", 0.0);
                let min_us = (min_ms * 1000.0).max(0.0) as u64;
                let slow = snap::obs::diff::regressions(&entries, pct, min_us);
                if !slow.is_empty() {
                    eprintln!(
                        "obs diff: {} span(s) regressed more than {pct}% (and {min_ms}ms):",
                        slow.len()
                    );
                    for r in &slow {
                        eprintln!(
                            "  {}  {} -> {} us",
                            r.path,
                            r.base_us.unwrap_or(0),
                            r.cur_us.unwrap_or(0)
                        );
                    }
                    exit(1);
                }
            }
            if let Some(pct) = args.flag("fail-mem-over-pct") {
                let pct: f64 = pct
                    .parse()
                    .ok()
                    .filter(|p: &f64| p.is_finite() && *p >= 0.0)
                    .unwrap_or_else(|| fail("bad value for --fail-mem-over-pct"));
                let min_bytes: u64 = args.flag_parse("min-bytes", 4096u64);
                let grew = snap::obs::diff::mem_regressions(&entries, pct, min_bytes);
                if !grew.is_empty() {
                    eprintln!(
                        "obs diff: {} span(s) grew memory more than {pct}% (and {min_bytes} bytes):",
                        grew.len()
                    );
                    for r in &grew {
                        eprintln!(
                            "  {}  {}: {} -> {} bytes",
                            r.path, r.metric, r.base_bytes, r.cur_bytes
                        );
                    }
                    exit(1);
                }
            }
        }
        Some("explain") => {
            let path = args
                .positional
                .get(1)
                .map(|s| s.as_str())
                .unwrap_or_else(|| fail("obs explain needs REPORT.json"));
            let explain = snap::obs::analyze::explain(&load_report(path));
            let limit: usize = args.flag_parse("limit", 20);
            if args.flag("json").is_some() {
                stdout_line(format_args!("{}", explain.to_json(limit)));
            } else {
                print!("{}", explain.render(limit));
            }
        }
        _ => fail("obs needs a subcommand: diff or explain"),
    }
}

fn input_path(args: &Args) -> &str {
    args.positional
        .first()
        .map(|s| s.as_str())
        .unwrap_or_else(|| usage())
}

/// Parse an `--algorithm` / `--method` name (the spellings are owned by
/// the types' `FromStr`, shared with `serve`) or exit with its error.
fn parse_name<T: std::str::FromStr<Err = String>>(name: &str) -> T {
    name.parse().unwrap_or_else(|e: String| fail(&e))
}

fn cmd_summary(args: &Args) {
    let path = input_path(args);
    let g = load(args, path, args.flag("directed").is_some());
    let budget = parse_budget(args);
    let obs = Obs::parse(args);
    obs.begin("summary", path);
    let net = Network::new(g).with_budget(budget.clone());
    let summary = net.summary_with_seed(args.flag_parse("seed", 0u64));
    say!(obs, "{summary}");
    note_budget(&obs, &budget);
    obs.emit();
}

fn cmd_bfs(args: &Args) {
    let path = input_path(args);
    let g = load(args, path, args.flag("directed").is_some());
    let n = g.num_vertices();
    if n == 0 {
        fail("graph has no vertices");
    }
    let source: u32 = args.flag_parse("source", 0u32);
    if source as usize >= n {
        fail(&format!("--source {source} out of range (n = {n})"));
    }
    let defaults = snap::kernels::HybridConfig::default();
    let cfg = snap::kernels::HybridConfig {
        alpha: args.flag_parse("alpha", defaults.alpha),
        beta: args.flag_parse("beta", defaults.beta),
    };
    let budget = parse_budget(args);
    let obs = Obs::parse(args);
    obs.begin("bfs", path);
    let net = Network::new(g).with_budget(budget.clone());
    let (r, stats) = match net.try_bfs_stats_with(source, &cfg) {
        Ok(out) => out,
        Err(why) => {
            // A partial traversal is meaningless: report the cancellation
            // and exit non-zero (but cleanly, with the report emitted).
            say!(obs, "bfs cancelled: {why}");
            obs.emit();
            exit(3);
        }
    };
    let reached = r
        .dist
        .iter()
        .filter(|&&d| d != snap::kernels::UNREACHABLE)
        .count();
    say!(
        obs,
        "source {source}: reached {reached} of {n} vertices, depth {} (alpha {}, beta {})",
        stats.depth(),
        cfg.alpha,
        cfg.beta
    );
    say!(
        obs,
        "{:>5} {:>9} {:>10} {:>10} {:>14}",
        "level",
        "direction",
        "frontier",
        "found",
        "edges"
    );
    for l in &stats.levels {
        say!(
            obs,
            "{:>5} {:>9} {:>10} {:>10} {:>14}",
            l.depth,
            l.direction,
            l.frontier,
            l.discovered,
            l.edges_examined
        );
    }
    say!(
        obs,
        "edges examined {} | pull levels {} | peak frontier {}",
        stats.total_edges_examined(),
        stats.pull_levels(),
        stats.peak_frontier()
    );
    note_budget(&obs, &budget);
    obs.emit();
}

fn cmd_communities(args: &Args) {
    let path = input_path(args);
    let g = load(args, path, false);
    let algorithm: CommunityAlgorithm = parse_name(args.flag("algorithm").unwrap_or("pma"));
    let budget = parse_budget(args);
    let obs = Obs::parse(args);
    obs.begin("communities", path);
    let net = Network::new(g).with_budget(budget.clone());
    let result = net.communities(algorithm);
    say!(
        obs,
        "{} communities, modularity {:.4}",
        result.clustering.count,
        result.modularity
    );
    if args.flag("members").is_some() {
        for (c, members) in result.clustering.members().into_iter().enumerate() {
            let ids: Vec<String> = members.iter().map(|v| v.to_string()).collect();
            say!(obs, "community {c}: {}", ids.join(" "));
        }
    } else {
        let mut sizes = result.clustering.sizes();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        let head: Vec<String> = sizes.iter().take(10).map(|s| s.to_string()).collect();
        say!(obs, "largest sizes: {}", head.join(" "));
    }
    note_budget(&obs, &budget);
    obs.emit();
}

fn cmd_partition(args: &Args) {
    let path = input_path(args);
    let g = load(args, path, false);
    let parts: usize = args.flag_parse("parts", 0);
    if parts < 2 {
        fail("--parts K (>= 2) is required");
    }
    let method: PartitionMethod = parse_name(args.flag("method").unwrap_or("kway"));
    let seed = args.flag_parse("seed", 1u64);
    let budget = parse_budget(args);
    let obs = Obs::parse(args);
    obs.begin("partition", path);
    let net = Network::new(g).with_budget(budget.clone());
    match net.partition(method, parts, seed) {
        Ok(p) => {
            say!(
                obs,
                "edge cut {} | imbalance {:.3} | sizes {:?}",
                snap::partition::edge_cut(net.graph(), &p),
                snap::partition::imbalance(&p, None),
                p.sizes()
            );
        }
        Err(e) => fail(&format!("{e}")),
    }
    note_budget(&obs, &budget);
    obs.emit();
}

fn cmd_centrality(args: &Args) {
    let path = input_path(args);
    let g = load(args, path, false);
    let top: usize = args.flag_parse("top", 10);
    let seed = args.flag_parse("seed", 7u64);
    let budget = parse_budget(args);
    let obs = Obs::parse(args);
    obs.begin("centrality", path);
    let net = Network::new(g).with_budget(budget.clone());
    let bc = match args.flag("approx") {
        Some(frac) => {
            let frac: f64 = frac
                .parse()
                .unwrap_or_else(|_| fail("bad value for --approx"));
            net.approx_betweenness(frac, seed)
        }
        None => net.betweenness(),
    };
    let g = net.graph();
    let mut order: Vec<usize> = (0..g.num_vertices()).collect();
    order.sort_by(|&a, &b| bc.vertex[b].partial_cmp(&bc.vertex[a]).unwrap());
    say!(
        obs,
        "{:>10} {:>8} {:>14}",
        "vertex",
        "degree",
        "betweenness"
    );
    for &v in order.iter().take(top) {
        say!(
            obs,
            "{:>10} {:>8} {:>14.1}",
            v,
            g.degree(v as u32),
            bc.vertex[v]
        );
    }
    note_budget(&obs, &budget);
    obs.emit();
}

/// FNV-1a over a stream of u64 words — the cross-backend fingerprint of
/// the generic pipeline's kernel outputs (same constants as the
/// `fixture_hash` bench binary).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn done(self) -> u64 {
        self.0
    }
}

/// Which adjacency representation the representation-agnostic commands
/// run over.
enum Backend {
    Csr(CsrGraph),
    Compressed(snap::graph::CompressedCsrGraph),
}

impl Backend {
    /// Build from `--backend` (default `csr`). Compressed construction
    /// reports the adjacency footprint next to the flat layout's.
    fn select(args: &Args, obs: &Obs, g: CsrGraph) -> Backend {
        match args.flag("backend").unwrap_or("csr") {
            "csr" => Backend::Csr(g),
            "compressed" => {
                let flat_bytes = g.adjacency_bytes();
                let c = snap::graph::CompressedCsrGraph::from_csr(&g);
                drop(g);
                say!(
                    obs,
                    "compressed adjacency: {} of {} bytes ({:.1}%), {} raw hub block(s)",
                    c.adjacency_bytes(),
                    flat_bytes,
                    100.0 * c.adjacency_bytes() as f64 / flat_bytes.max(1) as f64,
                    c.raw_blocks()
                );
                Backend::Compressed(c)
            }
            other => fail(&format!(
                "unknown backend {other} (expected csr or compressed)"
            )),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Backend::Csr(_) => "csr",
            Backend::Compressed(_) => "compressed",
        }
    }
}

/// Dispatch a generic closure over the selected backend.
macro_rules! with_backend {
    ($backend:expr, |$g:ident| $body:expr) => {
        match &$backend {
            Backend::Csr($g) => $body,
            Backend::Compressed($g) => $body,
        }
    };
}

/// `kcore` — parallel k-core decomposition by bucket peeling.
fn cmd_kcore(args: &Args) {
    let path = input_path(args);
    let g = load(args, path, args.flag("directed").is_some());
    if g.num_vertices() == 0 {
        fail("graph has no vertices");
    }
    let top: usize = args.flag_parse("top", 10);
    let budget = parse_budget(args);
    let obs = Obs::parse(args);
    obs.begin("kcore", path);
    let backend = Backend::select(args, &obs, g);
    snap::obs::meta("backend", backend.name());
    let exec = snap::Exec {
        budget: budget.clone(),
        ..Default::default()
    };
    let r = with_backend!(backend, |g| {
        match snap::kernels::try_coreness(g, &exec) {
            Ok(r) => r,
            Err(why) => {
                // A partial peel is not a decomposition; report the
                // cancellation and exit non-zero (report still emitted).
                say!(obs, "kcore cancelled: {why}");
                obs.emit();
                exit(3);
            }
        }
    });
    say!(
        obs,
        "degeneracy {} | innermost core {} vertex(es) | {} peeling round(s)",
        r.max_core,
        r.core_size(r.max_core),
        r.rounds
    );
    // Core-size table: |k-core| is monotone decreasing in k; show the
    // innermost `top` levels where the interesting structure lives.
    let lo = (r.max_core as usize + 1).saturating_sub(top) as u32;
    say!(
        obs,
        "{:>6} {:>12} {:>12}",
        "k",
        "k-core size",
        "coreness = k"
    );
    for k in lo..=r.max_core {
        let exact = r.coreness.iter().filter(|&&c| c == k).count();
        say!(obs, "{:>6} {:>12} {:>12}", k, r.core_size(k), exact);
    }
    note_budget(&obs, &budget);
    obs.emit();
}

/// The representation-agnostic pipeline behind `run --backend`: BFS,
/// connected components, k-core, and Δ-stepping SSSP over any `Graph`
/// backend, fingerprinting every kernel output. The fingerprint must be
/// bit-identical across backends (`tests/cli.rs` compares the two).
fn run_generic_pipeline<G: snap::graph::WeightedGraph>(obs: &Obs, g: &G, source: u32) {
    let n = g.num_vertices();

    say!(obs, "— bfs (source {source}) —");
    let cfg = snap::kernels::HybridConfig::default();
    let (bfs, stats) = snap::kernels::par_bfs_hybrid_stats(g, source, &cfg);
    let work_units = stats.total_edges_examined();
    say!(
        obs,
        "reached {} of {n} vertices, depth {}, edges examined {work_units}",
        bfs.dist
            .iter()
            .filter(|&&d| d != snap::kernels::UNREACHABLE)
            .count(),
        stats.depth()
    );

    say!(obs, "— components —");
    let comps = snap::kernels::connected_components(g);
    say!(obs, "{} component(s)", comps.count);

    say!(obs, "— kcore —");
    let core = snap::kernels::coreness(g);
    say!(
        obs,
        "degeneracy {}, innermost core {} vertex(es), {} round(s)",
        core.max_core,
        core.core_size(core.max_core),
        core.rounds
    );

    say!(obs, "— sssp (delta heuristic) —");
    let sssp = snap::kernels::delta_stepping(g, source, 0);
    let finite = sssp.dist.iter().filter(|&&d| d != snap::kernels::INF);
    say!(
        obs,
        "reached {} vertex(es), max distance {}",
        finite.clone().count(),
        finite.max().copied().unwrap_or(0)
    );

    // One fingerprint over every kernel output, in a fixed order. The
    // BFS edge-inspection count rides along: a backend that decodes a
    // different adjacency would shift it even if distances agreed.
    let mut h = Fnv::new();
    for &d in &bfs.dist {
        h.word(d as u64);
    }
    for &c in &comps.comp {
        h.word(c as u64);
    }
    for &c in &core.coreness {
        h.word(c as u64);
    }
    for &d in &sssp.dist {
        h.word(d);
    }
    h.word(work_units);
    let hash = format!("{:#018x}", h.done());
    snap::obs::meta("fixture_hash", &hash);
    snap::obs::add("work_units", work_units);
    say!(obs, "fixture_hash {hash} | work_units {work_units}");
}

/// The whole instrumented pipeline in one shot: summary, BFS, community
/// detection, approximate betweenness, and partitioning. With
/// `--report json` the emitted report covers every kernel. With
/// `--backend csr|compressed` the representation-agnostic pipeline runs
/// instead (BFS + components + k-core + SSSP over the chosen adjacency
/// representation, fingerprinted for cross-backend comparison).
fn cmd_run(args: &Args) {
    if args.flag("backend").is_some() {
        return cmd_run_backend(args);
    }
    let path = input_path(args);
    let g = load(args, path, false);
    let n = g.num_vertices();
    if n == 0 {
        fail("graph has no vertices");
    }
    let source: u32 = args.flag_parse("source", 0u32);
    if source as usize >= n {
        fail(&format!("--source {source} out of range (n = {n})"));
    }
    let algorithm: CommunityAlgorithm = parse_name(args.flag("algorithm").unwrap_or("pma"));
    let parts: usize = args.flag_parse("parts", 4);
    if parts < 2 {
        fail("--parts K (>= 2) is required");
    }
    let method: PartitionMethod = parse_name(args.flag("method").unwrap_or("kway"));
    let frac: f64 = args.flag_parse("approx", 0.1);
    let seed = args.flag_parse("seed", 1u64);
    let budget = parse_budget(args);

    let obs = Obs::parse(args);
    obs.begin("run", path);

    let net = Network::new(g).with_budget(budget.clone());
    say!(obs, "— summary —");
    let summary = net.summary_with_seed(seed);
    say!(obs, "{summary}");

    say!(obs, "— bfs (source {source}) —");
    match net.try_bfs_stats(source) {
        Ok((r, stats)) => {
            let reached = r
                .dist
                .iter()
                .filter(|&&d| d != snap::kernels::UNREACHABLE)
                .count();
            say!(
                obs,
                "reached {reached} of {n} vertices, depth {}, edges examined {}",
                stats.depth(),
                stats.total_edges_examined()
            );
        }
        // A cancelled traversal has no partial result; the rest of the
        // pipeline still produces degraded output, so keep going.
        Err(why) => say!(obs, "bfs cancelled: {why}"),
    }

    say!(obs, "— communities —");
    let result = net.communities(algorithm);
    say!(
        obs,
        "{} communities, modularity {:.4}",
        result.clustering.count,
        result.modularity
    );

    say!(obs, "— centrality (approx {frac}) —");
    let bc = net.approx_betweenness(frac, seed);
    let best = (0..n).max_by(|&a, &b| bc.vertex[a].partial_cmp(&bc.vertex[b]).unwrap());
    if let Some(v) = best {
        say!(obs, "top vertex {v}: betweenness {:.1}", bc.vertex[v]);
    }

    say!(obs, "— partition ({parts} parts) —");
    match net.partition(method, parts, seed) {
        Ok(p) => say!(
            obs,
            "edge cut {} | imbalance {:.3}",
            snap::partition::edge_cut(net.graph(), &p),
            snap::partition::imbalance(&p, None)
        ),
        Err(e) => fail(&format!("{e}")),
    }

    note_budget(&obs, &budget);
    obs.emit();
}

/// `run --backend csr|compressed`: the generic pipeline over an explicit
/// adjacency representation.
fn cmd_run_backend(args: &Args) {
    let path = input_path(args);
    let g = load(args, path, args.flag("directed").is_some());
    let n = g.num_vertices();
    if n == 0 {
        fail("graph has no vertices");
    }
    let source: u32 = args.flag_parse("source", 0u32);
    if source as usize >= n {
        fail(&format!("--source {source} out of range (n = {n})"));
    }
    let obs = Obs::parse(args);
    obs.begin("run", path);
    let backend = Backend::select(args, &obs, g);
    snap::obs::meta("backend", backend.name());
    say!(obs, "backend {}", backend.name());
    with_backend!(backend, |g| run_generic_pipeline(&obs, g, source));
    obs.emit();
}

/// Read an edge-op file (`EdgeOp`'s `FromStr` spelling, one op per line,
/// `#` comments and blank lines skipped), exiting on the first bad line.
fn read_ops(path: &str) -> Vec<EdgeOp> {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    let mut ops = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if !line.is_empty() {
            let op = line.parse::<EdgeOp>();
            ops.push(op.unwrap_or_else(|e| fail(&format!("{path}:{}: {e}", i + 1))));
        }
    }
    ops
}

fn cmd_stream(args: &Args) {
    let path = input_path(args);
    let merge_every: usize = args.flag_parse("merge-every", 1024usize);
    if merge_every == 0 {
        fail("--merge-every must be at least 1");
    }
    let source: u32 = args.flag_parse("source", 0u32);
    let check = args.flag("check").is_some();

    let ops = read_ops(path);

    let obs = Obs::parse(args);
    obs.begin("stream", path);
    let outer = snap::obs::span("stream");

    let mut sg = match args.flag("base") {
        Some(base) => {
            let (sg, dropped) = StreamingGraph::from_csr(&load(args, base, false));
            if dropped > 0 {
                say!(
                    obs,
                    "base {base}: dropped {dropped} self-loop/parallel edge(s)"
                );
            }
            sg
        }
        None => StreamingGraph::new(0),
    };
    let mut cc = DynamicComponents::new(sg.num_vertices());
    let mut bfs = IncrementalBfs::new(sg.live(), source);

    let mut total = BatchStats::default();
    for chunk in ops.chunks(merge_every) {
        let _epoch_span = snap::obs::span("epoch");
        let mut stats = BatchStats::default();
        for &op in chunk {
            let changed = sg.apply(op);
            cc.apply(op, changed);
            bfs.apply(sg.live(), op, changed);
            stats.note(op, changed);
        }
        snap::obs::add("stream_ops", chunk.len() as u64);
        let snapshot = sg.merge();
        cc.end_batch(sg.live());
        bfs.end_batch(sg.live());
        let g = &*snapshot.graph;
        say!(
            obs,
            "epoch {}: +{} -{} ({} rejected) | n = {}, m = {}, components {}",
            snapshot.epoch,
            stats.inserted,
            stats.deleted,
            stats.rejected,
            g.num_vertices(),
            g.num_edges(),
            cc.count()
        );
        if check {
            verify_epoch(&obs, g, &mut cc, &bfs, source, snapshot.epoch);
        }
        total.ops += stats.ops;
        total.inserted += stats.inserted;
        total.deleted += stats.deleted;
        total.rejected += stats.rejected;
    }

    drop(outer);
    say!(
        obs,
        "replayed {} op(s) over {} epoch(s): n = {}, m = {}, components {}, \
         bfs reached {} from {source} | cc rebuilds {}, bfs recomputes {}",
        total.ops,
        sg.epoch(),
        sg.num_vertices(),
        sg.num_edges(),
        cc.count(),
        bfs.reached(),
        cc.rebuilds(),
        bfs.recomputes()
    );
    obs.emit();
}

/// `--check`: the incremental kernels must agree with a full recompute
/// on the published snapshot after every merge.
fn verify_epoch(
    obs: &Obs,
    g: &CsrGraph,
    cc: &mut DynamicComponents,
    bfs: &IncrementalBfs,
    source: u32,
    epoch: u64,
) {
    let full = snap::kernels::connected_components(g);
    if full.count != cc.count() {
        say!(
            obs,
            "check failed at epoch {epoch}: incremental components {} != full {}",
            cc.count(),
            full.count
        );
        exit(1);
    }
    // Equal counts + every vertex connected to its full-recompute
    // representative ⇒ the partitions are identical.
    let mut rep = vec![u32::MAX; full.count];
    for v in 0..g.num_vertices() as u32 {
        let label = full.comp[v as usize] as usize;
        if rep[label] == u32::MAX {
            rep[label] = v;
        } else if !cc.connected(rep[label], v) {
            say!(
                obs,
                "check failed at epoch {epoch}: vertices {} and {v} split incrementally, \
                 joined on full recompute",
                rep[label]
            );
            exit(1);
        }
    }
    let full_bfs = if (source as usize) < g.num_vertices() {
        Some(snap::kernels::bfs(g, source))
    } else {
        None
    };
    for v in 0..g.num_vertices() {
        let want = full_bfs
            .as_ref()
            .map_or(snap::kernels::UNREACHABLE, |r| r.dist[v]);
        if bfs.dist[v] != want {
            say!(
                obs,
                "check failed at epoch {epoch}: bfs dist[{v}] = {} != full {want}",
                bfs.dist[v]
            );
            exit(1);
        }
    }
    say!(obs, "epoch {epoch}: check ok");
}

/// `serve` — hold the graph resident and answer line-delimited JSON
/// queries (see the module docs for the wire protocol). This is the
/// front end only — flags, the input to listen on, the churn thread, the
/// banner and summary lines; the request path is `snap::serve::serve`.
fn cmd_serve(args: &Args) {
    use snap::serve::{Engine, ServeConfig};
    use std::sync::atomic::{AtomicBool, Ordering};

    let path = input_path(args);
    let g = load(args, path, false);
    let workers: usize = args.flag_parse("workers", 4usize).max(1);
    let config = ServeConfig {
        cache_entries: args.flag_parse("cache-entries", 4096usize).max(1),
        cache_bytes: args.flag_parse("cache-bytes", 32usize << 20),
        default_deadline: args
            .flag_opt("deadline-ms")
            .map(std::time::Duration::from_millis),
        max_pending: args.flag_parse("max-pending", 1024usize),
        slow_ms: args.flag_opt("slow-ms"),
        trace_sample: args.flag_parse("trace-sample", 0u64),
        postmortem_path: args.flag("postmortem").map(str::to_string),
    };

    let obs = Obs::parse(args);
    obs.begin("serve", path);

    let (mut sg, dropped) = StreamingGraph::from_csr(&g);
    drop(g);
    if dropped > 0 {
        say!(obs, "{path}: dropped {dropped} self-loop(s)");
    }
    say!(
        obs,
        "serving {path}: n = {}, m = {}, {workers} worker(s), cache {} entries / {} bytes",
        sg.num_vertices(),
        sg.num_edges(),
        config.cache_entries,
        config.cache_bytes
    );
    let engine = Engine::new(sg.reader(), config);

    // Optional background churn: replay an op file through the streaming
    // layer, merging (and thus bumping the epoch / invalidating cache
    // entries) every --merge-every ops while queries keep arriving.
    let churn_ops = args.flag("stream").map(read_ops).unwrap_or_default();
    let merge_every: usize = args.flag_parse("merge-every", 256usize).max(1);
    let churn_ms: u64 = args.flag_parse("churn-ms", 1u64);
    let stop = AtomicBool::new(false);

    std::thread::scope(|scope| {
        if !churn_ops.is_empty() {
            let stop = &stop;
            let sg = &mut sg;
            let engine = &engine;
            scope.spawn(move || {
                for chunk in churn_ops.chunks(merge_every) {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    sg.apply_batch(chunk);
                    let t0 = std::time::Instant::now();
                    let snapshot = sg.merge();
                    // Merges ride the flight recorder next to the
                    // requests they invalidated.
                    engine.note_merge(
                        snapshot.epoch,
                        chunk.len() as u64,
                        t0.elapsed().as_micros() as u64,
                    );
                    std::thread::sleep(std::time::Duration::from_millis(churn_ms));
                }
            });
        }
        // Stdin/stdout is one connection; each stream accepted on the
        // socket is one more.
        match args.flag("socket") {
            #[cfg(unix)]
            Some(socket) => {
                let _ = std::fs::remove_file(socket);
                let listener = std::os::unix::net::UnixListener::bind(socket)
                    .unwrap_or_else(|e| fail(&format!("cannot bind socket {socket}: {e}")));
                say!(obs, "listening on {socket}");
                let streams = listener.incoming().filter_map(Result::ok);
                let halves = streams.filter_map(|s| Some((BufReader::new(s.try_clone().ok()?), s)));
                snap::serve::serve(&engine, workers, halves);
            }
            #[cfg(not(unix))]
            Some(_) => fail("--socket requires a unix platform"),
            None => {
                let stdio = (BufReader::new(std::io::stdin()), std::io::stdout());
                snap::serve::serve(&engine, workers, std::iter::once(stdio));
            }
        }
        stop.store(true, Ordering::Relaxed);
    });

    let s = engine.stats();
    say!(
        obs,
        "served {} request(s): {} hit(s), {} miss(es), {} shed, {} degraded | final epoch {}",
        s.requests,
        s.cache_hits,
        s.cache_misses,
        s.shed,
        s.degraded,
        sg.epoch()
    );
    obs.emit();
}

fn cmd_generate(args: &Args) {
    let family = args
        .positional
        .first()
        .map(|s| s.as_str())
        .unwrap_or_else(|| usage());
    let out = args
        .flag("out")
        .unwrap_or_else(|| fail("--out FILE is required"));
    let seed = args.flag_parse("seed", 42u64);
    let scale: u32 = args.flag_parse("scale", 12);
    let n = 1usize << scale;
    let edges: usize = args.flag_parse("edges", n * 8);
    let g = match family {
        "rmat" => snap::gen::rmat(&snap::gen::RmatConfig::small_world(scale, edges), seed),
        "er" => snap::gen::erdos_renyi(n, edges.min(n * (n - 1) / 2), seed),
        "ws" => snap::gen::watts_strogatz(n, (edges / n).max(1), 0.1, seed),
        "grid" => {
            let side = (n as f64).sqrt() as usize;
            snap::gen::road_grid(side, side, 0.02, 1.0, seed)
        }
        "planted" => {
            let cfg = snap::gen::PlantedConfig::with_target_degrees(n, 16, 8.0, 2.0);
            snap::gen::planted_partition(&cfg, seed).0
        }
        other => fail(&format!("unknown family {other}")),
    };
    let file =
        std::fs::File::create(out).unwrap_or_else(|e| fail(&format!("cannot create {out}: {e}")));
    snap::io::edgelist::write_edge_list(BufWriter::new(file), &g)
        .unwrap_or_else(|e| fail(&format!("cannot write {out}: {e}")));
    stdout_line(format_args!(
        "wrote {out}: n = {}, m = {} ({family})",
        g.num_vertices(),
        g.num_edges()
    ));
}

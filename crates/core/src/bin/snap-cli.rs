//! `snap-cli` — command-line front end for the SNAP framework.
//!
//! Run it with no arguments for the synopsis of every command and option
//! (`usage` below). What the commands do:
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
//! table. It is the one command with a backend choice: `--backend
//! compressed` peels the delta/varint-compressed CSR
//! (`CompressedCsrGraph`) instead of the flat adjacency arrays and
//! prints both adjacency footprints. That every kernel reads the same
//! on either backend is checked in-process by `tests/differential.rs`.
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

    /// The `i`th positional argument.
    fn arg(&self, i: usize) -> Option<&str> {
        self.positional.get(i).map(String::as_str)
    }

    fn flag(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(|s| s.as_str())
    }

    /// `--name` parsed and accepted by `ok`, exiting on any other value;
    /// `None` when absent.
    fn flag_where<T: std::str::FromStr>(&self, name: &str, ok: fn(&T) -> bool) -> Option<T> {
        let v = self.flag(name)?;
        let parsed = v.parse().ok().filter(ok);
        Some(parsed.unwrap_or_else(|| fail(&format!("bad value for --{name}: {v}"))))
    }

    /// `--name` parsed (exiting on a bad value); `None` when absent.
    fn flag_opt<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        self.flag_where(name, |_| true)
    }

    fn flag_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flag_opt(name).unwrap_or(default)
    }
}

/// A percentage: finite and not negative.
fn finite_nonneg(x: &f64) -> bool {
    x.is_finite() && *x >= 0.0
}

/// `--timeout SECS`: fractional seconds the clock can count to.
fn timeout(secs: &f64) -> bool {
    let limit = std::time::Duration::try_from_secs_f64(*secs);
    limit.is_ok_and(|d| std::time::Instant::now().checked_add(d).is_some())
}

/// A count: at least one.
fn positive<T: PartialOrd + From<u8>>(x: &T) -> bool {
    *x >= T::from(1)
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
            None => None,
            Some("true") => fail("--trace-out needs a file path"),
            Some(path) => Some(path.to_string()),
        };
        let metrics = match args.flag("metrics-out") {
            None => None,
            Some("true") => fail("--metrics-out needs a file path"),
            Some(path) => {
                let every_ms = args.flag_where("stats-every", positive).unwrap_or(100);
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

    /// Human-facing output line: stdout normally, stderr when stdout is
    /// reserved for the JSON report.
    fn say(&self, line: std::fmt::Arguments<'_>) {
        if matches!(self.report, Some(ReportSink::Stdout)) {
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

/// Read a graph file in the `--format` given, else the one its extension
/// names (`.gr` DIMACS, `.graph` / `.metis` METIS, anything else an edge
/// list).
fn load(args: &Args, path: &str, directed: bool) -> CsrGraph {
    let file =
        std::fs::File::open(path).unwrap_or_else(|e| fail(&format!("cannot open {path}: {e}")));
    let reader = BufReader::new(file);
    let by_extension = match path.rsplit('.').next() {
        Some("gr") => "dimacs",
        Some("graph") | Some("metis") => "metis",
        _ => "edgelist",
    };
    let parsed = match args.flag("format").unwrap_or(by_extension) {
        "edgelist" => snap::io::edgelist::read_edge_list(reader, directed, 0),
        "dimacs" => snap::io::dimacs::read_dimacs(reader, directed),
        "metis" => snap::io::metis::read_metis(reader),
        other => fail(&format!(
            "unknown format {other} (expected edgelist, dimacs, or metis)"
        )),
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
    if let Some(events) = args.flag_where("trace-buf", positive) {
        snap::obs::set_trace_capacity(events);
    }

    // Every other command runs over the flat CSR.
    if args.flag("backend").is_some() && command != "kcore" {
        fail(&format!(
            "--backend is a kcore option, not a {command} one \
             (snap-cli kcore <graph> --backend csr|compressed)"
        ));
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
    match args.flag_where("threads", positive) {
        Some(threads) => snap::with_threads(threads, dispatch),
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

/// `obs diff`'s gates: list the spans that crossed a `--fail-*-over-pct`
/// threshold on stderr and exit 1, or return when there are none.
fn fail_on(what: String, spans: impl ExactSizeIterator<Item = String>) {
    if spans.len() > 0 {
        eprintln!("obs diff: {} span(s) {what}:", spans.len());
        for line in spans {
            eprintln!("  {line}");
        }
        exit(1);
    }
}

/// `obs diff` / `obs explain` — offline analysis of saved run reports.
fn cmd_obs(args: &Args) {
    match args.arg(0) {
        Some("diff") => {
            let (Some(base), Some(cur)) = (args.arg(1), args.arg(2)) else {
                fail("obs diff needs BASE.json and CURRENT.json");
            };
            let (base, cur) = (load_report(base), load_report(cur));
            let entries = snap::obs::diff::diff(&base, &cur);
            print!("{}", snap::obs::diff::render(&entries));
            if let Some(pct) = args.flag_where("fail-over-pct", finite_nonneg) {
                let min_ms: f64 = args.flag_parse("min-ms", 0.0);
                let min_us = (min_ms * 1000.0).max(0.0) as u64;
                let slow = snap::obs::diff::regressions(&entries, pct, min_us);
                let lines = slow.iter().map(|r| {
                    let (base, cur) = (r.base_us.unwrap_or(0), r.cur_us.unwrap_or(0));
                    format!("{}  {base} -> {cur} us", r.path)
                });
                fail_on(
                    format!("regressed more than {pct}% (and {min_ms}ms)"),
                    lines,
                );
            }
            if let Some(pct) = args.flag_where("fail-mem-over-pct", finite_nonneg) {
                let min_bytes: u64 = args.flag_parse("min-bytes", 4096u64);
                let grew = snap::obs::diff::mem_regressions(&entries, pct, min_bytes);
                let lines = grew.iter().map(|r| {
                    let (base, cur) = (r.base_bytes, r.cur_bytes);
                    format!("{}  {}: {base} -> {cur} bytes", r.path, r.metric)
                });
                let what = format!("grew memory more than {pct}% (and {min_bytes} bytes)");
                fail_on(what, lines);
            }
        }
        Some("explain") => {
            let Some(path) = args.arg(1) else {
                fail("obs explain needs REPORT.json");
            };
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
    args.arg(0).unwrap_or_else(|| usage())
}

/// Load the command's `<graph>` argument.
fn load_input(args: &Args, directed: bool) -> CsrGraph {
    load(args, input_path(args), directed)
}

/// The frame of every analysis command, around a graph already loaded
/// (so flags checked against it fail before any work starts): open the
/// observability session, run `body` on the network under the
/// `--timeout SECS` budget (fractional seconds; absent = unlimited),
/// note a tripped budget and emit the report.
fn analyze(args: &Args, command: &str, g: CsrGraph, body: impl FnOnce(&Obs, &Network)) {
    let budget = match args.flag_where("timeout", timeout) {
        None => snap::Budget::unlimited(),
        Some(secs) => snap::Budget::with_deadline(std::time::Duration::from_secs_f64(secs)),
    };
    let obs = Obs::parse(args);
    obs.begin(command, input_path(args));
    let net = Network::new(g).with_budget(budget);
    body(&obs, &net);
    if let Some(why) = net.budget().exhaustion() {
        say!(obs, "note: budget exhausted ({why}); results are degraded");
    }
    obs.emit();
}

/// `--source V` (default 0), refused unless `V < n`.
fn source_flag(args: &Args, n: usize) -> u32 {
    if n == 0 {
        fail("graph has no vertices");
    }
    let source: u32 = args.flag_parse("source", 0u32);
    if source as usize >= n {
        fail(&format!("--source {source} out of range (n = {n})"));
    }
    source
}

/// `--parts K`, refused unless `2 <= K <= n`: the partitioner sizes its
/// tables by K, so a K past n is an allocation failure, not a partition.
fn parts_flag(args: &Args, default: usize, n: usize) -> usize {
    let parts: usize = args.flag_parse("parts", default);
    if parts < 2 {
        fail("--parts K (>= 2) is required");
    }
    if parts > n {
        fail(&format!("--parts {parts} out of range (n = {n})"));
    }
    parts
}

/// Parse an `--algorithm` / `--method` name (the spellings are owned by
/// the types' `FromStr`, shared with `serve`) or exit with its error.
fn parse_name<T: std::str::FromStr<Err = String>>(name: &str) -> T {
    name.parse().unwrap_or_else(|e: String| fail(&e))
}

/// The vertices a BFS reached.
fn reached(r: &snap::kernels::BfsResult) -> usize {
    r.dist
        .iter()
        .filter(|&&d| d != snap::kernels::UNREACHABLE)
        .count()
}

fn cmd_summary(args: &Args) {
    let g = load_input(args, args.flag("directed").is_some());
    analyze(args, "summary", g, |obs, net| {
        let summary = net.summary_with_seed(args.flag_parse("seed", 0u64));
        say!(obs, "{summary}");
    });
}

fn cmd_bfs(args: &Args) {
    let g = load_input(args, args.flag("directed").is_some());
    let n = g.num_vertices();
    let source = source_flag(args, n);
    let defaults = snap::kernels::HybridConfig::default();
    let cfg = snap::kernels::HybridConfig {
        alpha: args.flag_parse("alpha", defaults.alpha),
        beta: args.flag_parse("beta", defaults.beta),
    };
    analyze(args, "bfs", g, |obs, net| {
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
        say!(
            obs,
            "source {source}: reached {} of {n} vertices, depth {} (alpha {}, beta {})",
            reached(&r),
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
    });
}

fn cmd_communities(args: &Args) {
    let g = load_input(args, false);
    let algorithm: CommunityAlgorithm = parse_name(args.flag("algorithm").unwrap_or("pma"));
    analyze(args, "communities", g, |obs, net| {
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
    });
}

fn cmd_partition(args: &Args) {
    let g = load_input(args, false);
    let parts = parts_flag(args, 0, g.num_vertices());
    let method: PartitionMethod = parse_name(args.flag("method").unwrap_or("kway"));
    let seed = args.flag_parse("seed", 1u64);
    analyze(args, "partition", g, |obs, net| {
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
    });
}

fn cmd_centrality(args: &Args) {
    let g = load_input(args, false);
    let top: usize = args.flag_parse("top", 10);
    let seed = args.flag_parse("seed", 7u64);
    analyze(args, "centrality", g, |obs, net| {
        let bc = match args.flag_opt("approx") {
            Some(frac) => net.approx_betweenness(frac, seed),
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
    });
}

/// `kcore` — parallel k-core decomposition by bucket peeling, over the
/// flat adjacency or (`--backend compressed`) the compressed one.
fn cmd_kcore(args: &Args) {
    let g = load_input(args, args.flag("directed").is_some());
    if g.num_vertices() == 0 {
        fail("graph has no vertices");
    }
    let top: usize = args.flag_parse("top", 10);
    let backend = args.flag("backend").unwrap_or("csr");
    if !matches!(backend, "csr" | "compressed") {
        fail(&format!(
            "unknown backend {backend} (expected csr or compressed)"
        ));
    }
    analyze(args, "kcore", g, |obs, net| {
        snap::obs::meta("backend", backend);
        let peeled = if backend == "compressed" {
            let flat_bytes = net.graph().adjacency_bytes();
            let c = snap::graph::CompressedCsrGraph::from_csr(net.graph());
            say!(
                obs,
                "compressed adjacency: {} of {} bytes ({:.1}%)",
                c.adjacency_bytes(),
                flat_bytes,
                100.0 * c.adjacency_bytes() as f64 / flat_bytes.max(1) as f64
            );
            let exec = snap::Exec {
                budget: net.budget().clone(),
                ..Default::default()
            };
            snap::kernels::try_coreness(&c, &exec)
        } else {
            net.try_coreness()
        };
        let r = peeled.unwrap_or_else(|why| {
            // A partial peel is not a decomposition; report the
            // cancellation and exit non-zero (report still emitted).
            say!(obs, "kcore cancelled: {why}");
            obs.emit();
            exit(3);
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
    });
}

/// The whole instrumented pipeline in one shot: summary, BFS, community
/// detection, approximate betweenness, and partitioning. With
/// `--report json` the emitted report covers every kernel.
fn cmd_run(args: &Args) {
    let g = load_input(args, false);
    let n = g.num_vertices();
    let source = source_flag(args, n);
    let algorithm: CommunityAlgorithm = parse_name(args.flag("algorithm").unwrap_or("pma"));
    let parts = parts_flag(args, 4, n);
    let method: PartitionMethod = parse_name(args.flag("method").unwrap_or("kway"));
    let frac: f64 = args.flag_parse("approx", 0.1);
    let seed = args.flag_parse("seed", 1u64);
    analyze(args, "run", g, |obs, net| {
        say!(obs, "— summary —");
        let summary = net.summary_with_seed(seed);
        say!(obs, "{summary}");

        say!(obs, "— bfs (source {source}) —");
        match net.try_bfs_stats(source) {
            Ok((r, stats)) => say!(
                obs,
                "reached {} of {n} vertices, depth {}, edges examined {}",
                reached(&r),
                stats.depth(),
                stats.total_edges_examined()
            ),
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
    });
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
    let merge_every = args.flag_where("merge-every", positive).unwrap_or(1024);
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
    let mut cc = DynamicComponents::new(&sg.snapshot().graph);
    let mut bfs = IncrementalBfs::new(&sg.snapshot().graph, source);

    for chunk in ops.chunks(merge_every) {
        let _epoch_span = snap::obs::span("epoch");
        let mut stats = BatchStats::default();
        for &op in chunk {
            let changed = sg.apply(op);
            cc.apply(op, changed);
            bfs.apply(op, changed);
            stats.note(op, changed);
        }
        snap::obs::add("stream_ops", chunk.len() as u64);
        let snapshot = sg.merge();
        let g = &*snapshot.graph;
        cc.end_batch(g);
        bfs.end_batch(g);
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
            let epoch = snapshot.epoch;
            match verify_epoch(g, &mut cc, &bfs, source) {
                Ok(()) => say!(obs, "epoch {epoch}: check ok"),
                Err(why) => {
                    say!(obs, "check failed at epoch {epoch}: {why}");
                    exit(1);
                }
            }
        }
    }

    drop(outer);
    say!(
        obs,
        "replayed {} op(s) over {} epoch(s): n = {}, m = {}, components {}, \
         bfs reached {} from {source} | cc rebuilds {}, bfs recomputes {}",
        ops.len(),
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
    g: &CsrGraph,
    cc: &mut DynamicComponents,
    bfs: &IncrementalBfs,
    source: u32,
) -> Result<(), String> {
    let full = snap::kernels::connected_components(g);
    if full.count != cc.count() {
        let count = cc.count();
        return Err(format!(
            "incremental components {count} != full {}",
            full.count
        ));
    }
    // Equal counts + every vertex connected to its full-recompute
    // representative ⇒ the partitions are identical.
    let mut rep = vec![u32::MAX; full.count];
    for v in 0..g.num_vertices() as u32 {
        let label = full.comp[v as usize] as usize;
        if rep[label] == u32::MAX {
            rep[label] = v;
        } else if !cc.connected(rep[label], v) {
            return Err(format!(
                "vertices {} and {v} split incrementally, joined on full recompute",
                rep[label]
            ));
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
            return Err(format!("bfs dist[{v}] = {} != full {want}", bfs.dist[v]));
        }
    }
    Ok(())
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
                // A client that goes silent gives its slot back.
                let halves = streams.filter_map(|s| {
                    s.set_read_timeout(Some(snap::serve::IDLE_TIMEOUT)).ok()?;
                    Some((BufReader::new(s.try_clone().ok()?), s))
                });
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
    let family = args.arg(0).unwrap_or_else(|| usage());
    let out = args
        .flag("out")
        .unwrap_or_else(|| fail("--out FILE is required"));
    let seed = args.flag_parse("seed", 42u64);
    let scale: u32 = args.flag_parse("scale", 12);
    // The R-MAT generator keeps n = 2^scale in u32 range, so at most 2^30;
    // every family takes the same bound, and 1 << scale cannot wrap.
    if !(1..=30).contains(&scale) {
        fail(&format!("--scale must be in 1..=30, got {scale}"));
    }
    let n = 1usize << scale;
    let edges: usize = args.flag_parse("edges", n * 8);
    let max_edges = n * (n - 1) / 2;
    // Each family's precondition is checked before its generator
    // allocates or asserts, so a bad flag exits 1 and writes nothing.
    let g = match family {
        "rmat" if edges > max_edges => fail(&format!(
            "rmat needs --edges <= n(n-1)/2 = {max_edges} at --scale {scale}, got {edges}"
        )),
        "rmat" => snap::gen::rmat(&snap::gen::RmatConfig::small_world(scale, edges), seed),
        "er" => snap::gen::erdos_renyi(n, edges.min(max_edges), seed),
        "ws" => {
            // The ring lattice links k neighbours on each side.
            let k = (edges / n).max(1);
            if 2 * k >= n {
                fail(&format!(
                    "ws needs 2k < n: --edges {edges} gives k = {k} on n = {n}"
                ));
            }
            snap::gen::watts_strogatz(n, k, 0.1, seed)
        }
        "grid" => {
            let side = (n as f64).sqrt() as usize;
            snap::gen::road_grid(side, side, 0.02, 1.0, seed)
        }
        "planted" if n < 16 => fail(&format!(
            "planted needs n >= 16 (one vertex per block): --scale {scale} gives n = {n}"
        )),
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

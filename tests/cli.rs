//! End-to-end tests of the `snap-cli` binary. Everything the binary
//! writes as JSON — reports, traces, telemetry, `serve` responses,
//! analyzer output — is read back through `snap::obs::Json`, never
//! substring-matched.

use snap::obs::{Json, RunReport};
use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_snap-cli"))
}

/// Member `key` of a JSON object the CLI emitted; a missing key fails
/// the test with the object in the message.
fn field<'a>(v: &'a Json, key: &str) -> &'a Json {
    v.get(key)
        .unwrap_or_else(|| panic!("missing {key:?} in {}", v.to_string_compact()))
}

fn num(v: &Json, key: &str) -> u64 {
    field(v, key)
        .as_u64()
        .unwrap_or_else(|| panic!("{key:?} is not a count in {}", v.to_string_compact()))
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key:?} is not a string in {}", v.to_string_compact()))
}

/// The JSON lines of a command's stdout, parsed (human banner lines are
/// skipped; a line that opens like JSON must be JSON).
fn json_lines(stdout: &[u8]) -> Vec<Json> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")))
        .collect()
}

fn scratch(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("snap-cli-test-{}-{name}", std::process::id()));
    p
}

/// Run to completion; anything but exit 0 fails the test with the
/// command's stderr.
fn run_ok(command: &mut Command) -> std::process::Output {
    let out = command.output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    out
}

/// `snap-cli generate FAMILY --scale SCALE` (m = 8n) into a scratch file.
fn generate(name: &str, family: &str, scale: u32) -> std::path::PathBuf {
    let path = scratch(name);
    let scale = scale.to_string();
    run_ok(
        cli()
            .args(["generate", family, "--scale", &scale, "--out"])
            .arg(&path),
    );
    path
}

#[test]
fn no_args_prints_usage() {
    let out = cli().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn generate_then_summary_then_communities() {
    let path = scratch("g.txt");
    let out = cli()
        .args([
            "generate",
            "planted",
            "--scale",
            "8",
            "--out",
            path.to_str().unwrap(),
            "--seed",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("n = 256"));

    let out = cli()
        .args(["summary", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("n = 256"), "{text}");
    assert!(text.contains("clustering:"));

    let out = cli()
        .args(["communities", path.to_str().unwrap(), "--algorithm", "pma"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("modularity"), "{text}");

    std::fs::remove_file(&path).ok();
}

#[test]
fn partition_reports_cut() {
    let path = scratch("p.txt");
    cli()
        .args([
            "generate",
            "grid",
            "--scale",
            "8",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    // `recursive` is the canonical name (shared with `serve`), `recur`
    // its alias: both must run the same partitioner.
    let [long, short] = ["recursive", "recur"].map(|method| {
        let out = cli()
            .args([
                "partition",
                path.to_str().unwrap(),
                "--parts",
                "4",
                "--method",
                method,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).to_string()
    });
    assert!(long.contains("edge cut"), "{long}");
    assert_eq!(long, short);
    std::fs::remove_file(&path).ok();
}

#[test]
fn centrality_lists_top_vertices() {
    let path = scratch("c.txt");
    cli()
        .args([
            "generate",
            "rmat",
            "--scale",
            "8",
            "--edges",
            "1024",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let out = cli()
        .args([
            "centrality",
            path.to_str().unwrap(),
            "--approx",
            "0.2",
            "--top",
            "3",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("betweenness"), "{text}");
    assert!(text.lines().count() >= 4, "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn timeout_zero_run_exits_cleanly_with_degraded_report() {
    let path = generate("t.txt", "rmat", 10);
    let out = cli()
        .args([
            "run",
            path.to_str().unwrap(),
            "--timeout",
            "0",
            "--report",
            "json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "degraded run must still exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let human = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(human.contains("budget exhausted"), "{human}");
    assert!(human.contains("bfs cancelled"), "{human}");
    // Stdout carries exactly the JSON report; it must parse, mark the
    // cancelled traversal, and blame the budget on every marker.
    let report = RunReport::from_json(&String::from_utf8_lossy(&out.stdout))
        .expect("stdout is a well-formed run report");
    fn markers<'a>(node: &'a snap::obs::ReportNode, out: &mut Vec<(&'a str, &'a str)>) {
        for key in ["degraded", "cancelled"] {
            out.extend(node.meta_value(key).map(|why| (node.name.as_str(), why)));
        }
        node.children.iter().for_each(|c| markers(c, out));
    }
    let mut found = Vec::new();
    markers(&report.root, &mut found);
    let bfs = report.find("bfs.hybrid").expect("bfs span recorded");
    assert!(bfs.meta_value("cancelled").is_some(), "{found:?}");
    assert!(
        found
            .iter()
            .all(|(_, why)| *why == "budget exhausted: deadline passed"),
        "{found:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn timeout_zero_bfs_exits_nonzero() {
    let path = scratch("tb.txt");
    cli()
        .args([
            "generate",
            "er",
            "--scale",
            "8",
            "--edges",
            "1024",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let out = cli()
        .args(["bfs", path.to_str().unwrap(), "--timeout", "0"])
        .output()
        .unwrap();
    // A cancelled BFS has no partial result to show: non-zero, but clean.
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(3));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("bfs cancelled"), "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn generous_timeout_changes_nothing() {
    let path = scratch("tg.txt");
    cli()
        .args([
            "generate",
            "planted",
            "--scale",
            "7",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let with = cli()
        .args(["communities", path.to_str().unwrap(), "--timeout", "3600"])
        .output()
        .unwrap();
    let without = cli()
        .args(["communities", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(with.status.success());
    assert_eq!(
        with.stdout, without.stdout,
        "generous budget must not alter results"
    );
    std::fs::remove_file(&path).ok();
}

/// Structural validation of a Chrome trace-event file: every event
/// carries `name`/`ph`/`ts`/`pid`/`tid`, `C` counter samples carry
/// numeric `args`, and each per-tid B/E stream is timestamp-sorted and
/// strictly nested over at least `min_tids` threads (Perfetto renders an
/// unbalanced stream misleadingly). Returns the `(ph, name)` pairs seen.
fn check_chrome_trace(
    trace: &str,
    min_tids: usize,
) -> std::collections::BTreeSet<(String, String)> {
    let doc = Json::parse(trace).expect("trace file is JSON");
    let events = field(&doc, "traceEvents").as_arr().expect("event array");
    let mut seen = std::collections::BTreeSet::new();
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(u64, bool, &str)>> = Default::default();
    for ev in events {
        let (name, ph, ts, tid) = (
            text(ev, "name"),
            text(ev, "ph"),
            num(ev, "ts"),
            num(ev, "tid"),
        );
        num(ev, "pid");
        seen.insert((ph.to_string(), name.to_string()));
        match ph {
            // Counter samples (the memory track) carry values instead of
            // nesting; they stay out of the B/E stacks.
            "C" => {
                let args = field(ev, "args").as_obj().expect("args object");
                assert!(
                    !args.is_empty() && args.iter().all(|(_, v)| v.as_f64().is_some()),
                    "counter event needs numeric args: {ev:?}"
                );
            }
            "B" | "E" => by_tid.entry(tid).or_default().push((ts, ph == "B", name)),
            other => panic!("event with ph {other:?}, want B, E or C: {ev:?}"),
        }
    }
    assert!(
        by_tid.len() >= min_tids,
        "events from {} thread(s), want >= {min_tids}",
        by_tid.len()
    );
    for (tid, evs) in by_tid {
        let mut last = 0u64;
        let mut stack = Vec::new();
        for (ts, begin, name) in evs {
            assert!(ts >= last, "tid {tid}: timestamps out of order");
            last = ts;
            if begin {
                stack.push(name);
            } else {
                assert_eq!(stack.pop(), Some(name), "tid {tid}");
            }
        }
        assert!(stack.is_empty(), "tid {tid}: unclosed spans {stack:?}");
    }
    seen
}

/// Hold `obs explain --json` to its own arithmetic on the saved report
/// at `report`: busy time sums to threads × wall × efficiency (within
/// 5 %: the output is rounded), the skew is max/mean ≥ 1, and the
/// critical path is a root-to-leaf chain whose self-times sum exactly to
/// its length. Returns the thread count.
fn check_analyzers(report: &str) -> u64 {
    let out = run_ok(cli().args(["obs", "explain", report, "--json"]));
    let explained = json_lines(&out.stdout).pop().expect("one line of JSON");
    let eff = field(&explained, "efficiency");
    let busy: Vec<u64> = field(eff, "per_thread")
        .as_arr()
        .expect("per_thread rows")
        .iter()
        .map(|t| num(t, "busy_us"))
        .collect();
    let (wall, threads) = (num(eff, "wall_us"), num(eff, "threads"));
    let total: u64 = busy.iter().sum();
    assert!(wall > 0 && busy.len() as u64 == threads, "{eff:?}");
    assert_eq!(total, num(eff, "total_busy_us"));
    assert!(
        busy.iter().all(|&b| b <= wall),
        "a thread busier than the wall: {eff:?}"
    );
    let pct = field(eff, "parallel_efficiency_pct").as_f64().unwrap();
    let ideal = threads as f64 * wall as f64 * pct / 100.0;
    assert!(
        (0.0..=100.0).contains(&pct) && (total as f64 - ideal).abs() <= 0.05 * ideal,
        "{eff:?}"
    );
    let skew = field(eff, "imbalance_skew").as_f64().unwrap();
    let max_over_mean = *busy.iter().max().unwrap() as f64 * threads as f64 / total as f64;
    assert!(
        skew >= 1.0 && (skew - max_over_mean).abs() <= 0.011,
        "{eff:?}"
    );

    let crit = field(&explained, "critical_path");
    let steps = field(crit, "steps").as_arr().expect("steps");
    assert!(!steps.is_empty() && num(crit, "span_count") >= steps.len() as u64);
    for (depth, step) in steps.iter().enumerate() {
        assert_eq!(num(step, "depth"), depth as u64, "{crit:?}");
        assert!(num(step, "self_us") <= num(step, "total_us") && num(step, "calls") >= 1);
    }
    let self_sum: u64 = steps.iter().map(|s| num(s, "self_us")).sum();
    assert_eq!(self_sum, num(crit, "critical_path_us"), "{crit:?}");
    assert!(steps
        .windows(2)
        .all(|w| num(&w[1], "total_us") <= num(&w[0], "total_us")));
    threads
}

#[test]
fn trace_out_writes_loadable_chrome_trace() {
    let graph = generate("tr.txt", "rmat", 10);
    let trace = scratch("tr-trace.json");
    let report = scratch("tr-report.json");
    let sinks = [
        "--trace-out",
        trace.to_str().unwrap(),
        "--report",
        &format!("json={}", report.display()),
    ];
    run_ok(
        cli()
            .arg("run")
            .arg(&graph)
            .args(["--threads", "4"])
            .args(sinks),
    );
    let timeline = std::fs::read_to_string(&trace).expect("trace file written");
    // Worker threads must show up: the parallel kernels emit per-task
    // events from their own rings, not just the coordinating thread.
    let seen = check_chrome_trace(&timeline, 2);
    let has = |ph: &str, name: &str| seen.contains(&(ph.to_string(), name.to_string()));
    assert!(has("B", "brandes.source"), "worker task events missing");
    assert!(has("B", "pathlen.source"), "worker task events missing");

    // The saved report of the same run covers every pipeline stage and
    // feeds the analyzers, which see the workers too.
    let saved = std::fs::read_to_string(&report).expect("report file written");
    let run = RunReport::from_json(&saved).expect("report parses back");
    for span in [
        "metrics.summary",
        "bfs.hybrid",
        "community.pma",
        "centrality.approx_betweenness",
        "partition",
    ] {
        assert!(run.find(span).is_some(), "missing span {span}");
    }
    let threads = check_analyzers(report.to_str().unwrap());
    assert!(threads >= 2, "{threads} thread(s) contributed busy time");
    // With the tracking allocator installed the trace also carries the
    // Perfetto memory counter track, and spans their heap traffic.
    if cfg!(feature = "mem-track") {
        assert!(has("C", "mem.bytes_live"), "memory counter track missing");
        let summary = run.find("metrics.summary").unwrap();
        assert!(summary.mem.is_some_and(|m| m.allocated > 0), "{summary:?}");
    }
    for path in [&graph, &trace, &report] {
        std::fs::remove_file(path).ok();
    }
}

/// `--trace-buf N` sizes the per-thread event rings: the same traced run
/// loses more events from 64-slot rings than from the default 8192.
#[test]
fn trace_buf_bounds_the_event_rings() {
    let graph = generate("tb.txt", "rmat", 10);
    let (trace, report) = (scratch("tb-trace.json"), scratch("tb-report.json"));
    let dropped = |trace_buf: &[&str]| {
        run_ok(
            cli()
                .arg("run")
                .arg(&graph)
                .arg("--trace-out")
                .arg(&trace)
                .args(["--report", &format!("json={}", report.display())])
                .args(trace_buf),
        );
        let text = std::fs::read_to_string(&report).expect("report file written");
        let run = RunReport::from_json(&text).expect("report parses back");
        run.root
            .counter("trace_events_dropped")
            .expect("drops counted")
    };
    let small = dropped(&["--trace-buf", "64"]);
    let default = dropped(&[]);
    assert!(
        small > default,
        "{small} dropped at 64 slots, {default} at the default"
    );
    for path in [&graph, &trace, &report] {
        std::fs::remove_file(path).ok();
    }
}

#[test]
fn obs_diff_exit_codes_follow_threshold() {
    let base = scratch("diff-base.json");
    let cur = scratch("diff-cur.json");
    // Two hand-written reports: the `slow` span quadruples, the other
    // improves. Thresholds decide the exit code.
    let report = |slow_us: u64| {
        format!(
            "{{\"name\":\"run\",\"start_us\":0,\"duration_us\":{},\"calls\":1,\"counters\":{{}},\"gauges\":{{}},\"meta\":{{}},\"children\":[{{\"name\":\"slow\",\"start_us\":0,\"duration_us\":{slow_us},\"calls\":1,\"counters\":{{}},\"gauges\":{{}},\"meta\":{{}},\"children\":[]}},{{\"name\":\"fine\",\"start_us\":0,\"duration_us\":10000,\"calls\":1,\"counters\":{{}},\"gauges\":{{}},\"meta\":{{}},\"children\":[]}}]}}",
            slow_us + 10000
        )
    };
    std::fs::write(&base, report(50_000)).unwrap();
    std::fs::write(&cur, report(200_000)).unwrap();

    // Without a threshold: informational, exit 0.
    let out = cli()
        .args(["obs", "diff", base.to_str().unwrap(), cur.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("run/slow"), "{text}");

    // 100% threshold: the 4x span regresses, exit 1.
    let out = cli()
        .args([
            "obs",
            "diff",
            base.to_str().unwrap(),
            cur.to_str().unwrap(),
            "--fail-over-pct",
            "100",
            "--min-ms",
            "5",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("regressed"));

    // 500% threshold: 4x growth passes.
    let out = cli()
        .args([
            "obs",
            "diff",
            base.to_str().unwrap(),
            cur.to_str().unwrap(),
            "--fail-over-pct",
            "500",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // A report diffed against itself never regresses.
    let out = cli()
        .args([
            "obs",
            "diff",
            base.to_str().unwrap(),
            base.to_str().unwrap(),
            "--fail-over-pct",
            "0",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&cur).ok();
}

#[test]
fn obs_diff_memory_gate_follows_threshold() {
    let base = scratch("mem-base.json");
    let cur = scratch("mem-cur.json");
    // Identical timings; only the `slow` span's allocated bytes grow 3x.
    let report = |alloc_bytes: u64| {
        format!(
            "{{\"name\":\"run\",\"start_us\":0,\"duration_us\":60000,\"calls\":1,\"counters\":{{}},\"gauges\":{{}},\"meta\":{{}},\"children\":[{{\"name\":\"slow\",\"start_us\":0,\"duration_us\":50000,\"calls\":1,\"counters\":{{}},\"gauges\":{{}},\"meta\":{{}},\"mem\":{{\"allocated\":{alloc_bytes},\"freed\":{alloc_bytes},\"allocs\":10,\"peak_delta\":500000}},\"children\":[]}}]}}"
        )
    };
    std::fs::write(&base, report(1_000_000)).unwrap();
    std::fs::write(&cur, report(3_000_000)).unwrap();

    // 50% threshold: 3x allocation growth regresses, exit 1.
    let out = cli()
        .args([
            "obs",
            "diff",
            base.to_str().unwrap(),
            cur.to_str().unwrap(),
            "--fail-mem-over-pct",
            "50",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains("grew memory"), "{err}");
    assert!(err.contains("run/slow"), "{err}");

    // 400% threshold: 3x growth passes.
    let out = cli()
        .args([
            "obs",
            "diff",
            base.to_str().unwrap(),
            cur.to_str().unwrap(),
            "--fail-mem-over-pct",
            "400",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());

    // A report diffed against itself is memory-clean at 0%.
    let out = cli()
        .args([
            "obs",
            "diff",
            cur.to_str().unwrap(),
            cur.to_str().unwrap(),
            "--fail-mem-over-pct",
            "0",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    std::fs::remove_file(&base).ok();
    std::fs::remove_file(&cur).ok();
}

#[test]
fn obs_top_by_mem_ranks_self_allocated() {
    let path = scratch("top-mem.json");
    // `run` allocates 4 MiB total but its child owns 3 MiB of it, so
    // by self-allocation the child leads.
    std::fs::write(
        &path,
        "{\"name\":\"run\",\"start_us\":0,\"duration_us\":100000,\"calls\":1,\"counters\":{},\"gauges\":{},\"meta\":{},\"mem\":{\"allocated\":4194304,\"freed\":4194304,\"allocs\":64,\"peak_delta\":4194304},\"children\":[{\"name\":\"hungry\",\"start_us\":0,\"duration_us\":10000,\"calls\":1,\"counters\":{},\"gauges\":{},\"meta\":{},\"mem\":{\"allocated\":3145728,\"freed\":3145728,\"allocs\":32,\"peak_delta\":3145728},\"children\":[]}]}",
    )
    .unwrap();
    let out = cli()
        .args(["obs", "explain", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    // The allocation ranking follows the time ranking (where `run`,
    // with 90 ms of self time, leads).
    let at = text.find("SELF-ALLOC").unwrap_or_else(|| panic!("{text}"));
    let by_alloc = &text[at..];
    let hungry = by_alloc.find("hungry").expect("hungry listed");
    let run = by_alloc.find("run").expect("run listed");
    assert!(hungry < run, "{text}");
    std::fs::remove_file(&path).ok();
}

/// The `name value` samples of a finished OpenMetrics file (the format
/// itself is held by `snap-obs`'s telemetry unit tests).
fn openmetrics_series(path: &str) -> std::collections::BTreeMap<String, f64> {
    let om = std::fs::read_to_string(path).expect("OpenMetrics written");
    assert!(om.ends_with("# EOF\n"), "{om}");
    om.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| {
            let (name, value) = l.split_once(' ').expect("name value");
            (name.to_string(), value.parse().expect("numeric sample"))
        })
        .collect()
}

#[test]
fn metrics_out_writes_ndjson_and_openmetrics() {
    let metrics = scratch("metrics.ndjson");
    let out = cli()
        .args([
            "stream",
            &fixture("stream_ops.txt"),
            "--merge-every",
            "4",
            "--metrics-out",
            metrics.to_str().unwrap(),
            "--stats-every",
            "5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let samples = json_lines(&std::fs::read(&metrics).expect("NDJSON written"));
    for (seq, sample) in samples.iter().enumerate() {
        assert_eq!(num(sample, "seq"), seq as u64);
        num(sample, "bytes_live");
        num(sample, "peak_bytes");
    }
    // The stream command exports merge/edge counters into the registry;
    // the final sample (written at sampler stop) must carry them.
    let last = samples.last().expect("at least the final sample");
    assert!(num(field(last, "counters"), "merges") > 0, "{last:?}");
    let om_path = format!("{}.om", metrics.to_str().unwrap());
    let series = openmetrics_series(&om_path);
    assert!(series.contains_key("snap_mem_peak_bytes"), "{series:?}");
    assert!(series["snap_merges_total"] > 0.0, "{series:?}");
    std::fs::remove_file(&metrics).ok();
    std::fs::remove_file(&om_path).ok();
}

#[test]
fn stats_every_without_metrics_out_is_rejected() {
    let out = cli()
        .args(["stream", &fixture("stream_ops.txt"), "--stats-every", "10"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--metrics-out"));
}

#[test]
fn obs_top_ranks_self_time() {
    let path = scratch("top.json");
    std::fs::write(
        &path,
        "{\"name\":\"run\",\"start_us\":0,\"duration_us\":100000,\"calls\":1,\"counters\":{},\"gauges\":{},\"meta\":{},\"children\":[{\"name\":\"inner\",\"start_us\":0,\"duration_us\":80000,\"calls\":2,\"counters\":{},\"gauges\":{},\"meta\":{},\"children\":[]}]}",
    )
    .unwrap();
    let out = cli()
        .args(["obs", "explain", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    // `inner` (80ms self) outranks `run` (20ms self after subtracting it).
    let inner = text.find("inner").expect("inner listed");
    let run = text.find("run").expect("run listed");
    assert!(inner < run, "{text}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn obs_diff_rejects_malformed_input() {
    let path = scratch("bad.json");
    std::fs::write(&path, "not json").unwrap();
    let out = cli()
        .args([
            "obs",
            "diff",
            path.to_str().unwrap(),
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot parse"));
    std::fs::remove_file(&path).ok();
}

#[test]
fn missing_file_fails_cleanly() {
    let out = cli()
        .args(["summary", "/nonexistent/definitely-missing.txt"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open"));
}

#[test]
fn bad_algorithm_rejected() {
    let path = scratch("b.txt");
    cli()
        .args([
            "generate",
            "er",
            "--scale",
            "6",
            "--edges",
            "128",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let out = cli()
        .args([
            "communities",
            path.to_str().unwrap(),
            "--algorithm",
            "bogus",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
    std::fs::remove_file(&path).ok();
}

fn fixture(name: &str) -> String {
    format!("{}/../../tests/data/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn stream_replays_fixture_and_checks_every_epoch() {
    let out = cli()
        .args([
            "stream",
            &fixture("stream_ops.txt"),
            "--merge-every",
            "8",
            "--check",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert_eq!(text.matches("check ok").count(), 3, "{text}");
    assert!(text.contains("replayed 19 op(s) over 3 epoch(s)"), "{text}");
    assert!(text.contains("components 1"), "{text}");
}

#[test]
fn stream_report_carries_per_epoch_observability() {
    let out = cli()
        .args([
            "stream",
            &fixture("stream_ops.txt"),
            "--merge-every",
            "8",
            "--report",
            "json",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let report = snap::obs::RunReport::from_json(&String::from_utf8_lossy(&out.stdout))
        .expect("stdout is a well-formed run report");
    let stream = report
        .root
        .children
        .iter()
        .find(|c| c.name == "stream")
        .expect("stream span present");
    let epoch = stream
        .children
        .iter()
        .find(|c| c.name == "epoch")
        .expect("epoch span present");
    assert_eq!(epoch.calls, 3, "three merges, coalesced");
    assert_eq!(epoch.counter("stream_ops"), Some(19));
    assert!(epoch.counter("delta_edges").unwrap_or(0) > 0);
    let (_, merge_us) = epoch
        .hists
        .iter()
        .find(|(n, _)| n == "merge_us")
        .expect("merge_us histogram present");
    assert_eq!(merge_us.count, 3);
    let snapshot_epoch = epoch
        .gauges
        .iter()
        .find(|(n, _)| n == "snapshot_epoch")
        .map(|&(_, v)| v);
    assert_eq!(snapshot_epoch, Some(3.0));
}

#[test]
fn stream_rejects_malformed_op_lines() {
    let path = scratch("bad-ops.txt");
    std::fs::write(&path, "+ 0 1\n+ nope 2\n").unwrap();
    let out = cli()
        .args(["stream", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(err.contains(":2:"), "line number in: {err}");
    std::fs::remove_file(&path).ok();
}

/// Spawn `snap-cli serve GRAPH ARGS…` with piped stdio.
fn spawn_serve(graph: &std::path::Path, args: &[&str]) -> std::process::Child {
    use std::process::Stdio;
    let mut serve = cli();
    serve.arg("serve").arg(graph).args(args);
    serve.stdin(Stdio::piped()).stdout(Stdio::piped());
    serve.stderr(Stdio::piped()).spawn().unwrap()
}

/// One whole `serve` session over stdin: write every request line, close
/// stdin (the server must exit 0 on EOF), and return the parsed response
/// lines plus the human banner around them.
fn serve_session(graph: &std::path::Path, args: &[&str], requests: &[&str]) -> (Vec<Json>, String) {
    use std::io::Write;
    let mut child = spawn_serve(graph, args);
    let mut stdin = child.stdin.take().unwrap();
    for line in requests {
        writeln!(stdin, "{line}").unwrap();
    }
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let banner = String::from_utf8_lossy(&out.stdout).to_string();
    (json_lines(&out.stdout), banner)
}

/// The response echoing `id` (the protocol answers in completion order).
fn response(responses: &[Json], id: u64) -> &Json {
    let echo = responses.iter().find(|r| num(r, "id") == id);
    echo.unwrap_or_else(|| panic!("no response for id {id} in {responses:?}"))
}

/// Full round trip through `snap-cli serve` over stdin: misses compute,
/// repeats hit with the identical payload, meta queries answer live and
/// agree with the responses, malformed lines get error responses, and
/// EOF shuts down with exit 0. `--slow-ms 0 --trace-sample 1` puts every
/// request in the slow log with a span tree; `--metrics-out` exports the
/// engine's counters.
#[test]
fn serve_answers_queries_over_stdin() {
    let path = generate("serve.txt", "rmat", 7);
    let metrics = scratch("serve-metrics.ndjson");
    // One worker: requests are answered in order, so the meta queries at
    // the end see everything before them.
    let mut flags = vec!["--workers", "1", "--slow-ms", "0", "--trace-sample", "1"];
    flags.extend(["--metrics-out", metrics.to_str().unwrap()]);
    let requests = [
        r#"{"id":1,"query":"bfs","source":3}"#,
        r#"{"id":2,"query":"bfs","source":3}"#,
        r#"{"id":3,"query":"epoch"}"#,
        r#"{"id":4,"query":"nope"}"#,
        r#"{"id":5,"query":"#,
        r#"{"id":6,"query":"stats"}"#,
        r#"{"id":7,"query":"dump"}"#,
    ];
    let (responses, banner) = serve_session(&path, &flags, &requests);
    assert_eq!(responses.len(), requests.len(), "{responses:?}");
    assert!(banner.contains("1 hit(s)"), "{banner}");

    // Errors: an unknown query echoes its id; a line that is not JSON has
    // no id to echo and answers under id 0.
    text(response(&responses, 4), "error");
    text(response(&responses, 0), "error");
    let answered = |r: &&Json| r.get("error").is_none();
    let answers: Vec<&Json> = responses.iter().filter(answered).collect();
    for key in ["kind", "epoch", "cache", "degraded", "wall_us", "payload"] {
        answers.iter().for_each(|r| _ = field(r, key));
    }
    let mut trace_ids: Vec<u64> = answers.iter().map(|r| num(r, "trace_id")).collect();
    trace_ids.sort_unstable();
    trace_ids.dedup();
    assert_eq!(trace_ids.len(), answers.len(), "trace ids repeat");
    assert!(trace_ids[0] > 0, "{trace_ids:?}");

    let (miss, hit) = (response(&responses, 1), response(&responses, 2));
    assert_eq!((text(miss, "cache"), text(hit, "cache")), ("miss", "hit"));
    assert_eq!(field(miss, "payload"), field(hit, "payload"));
    assert_eq!(num(field(miss, "payload"), "source"), 3);
    let epoch = response(&responses, 3);
    assert_eq!(text(epoch, "kind"), "epoch");
    assert_eq!(num(field(epoch, "payload"), "n"), 128);

    // `stats` agrees with a tally of the analysis responses (meta queries
    // touch no cache counter) and carries the slow log: queue wait split
    // from compute, and the sampled `serve.request` span tree.
    let stats = field(response(&responses, 6), "payload");
    let tally = |outcome: &str| {
        let analysis = answers.iter().filter(|r| text(r, "kind") == "bfs");
        analysis.filter(|r| text(r, "cache") == outcome).count() as u64
    };
    assert_eq!(num(stats, "cache_hits"), tally("hit"));
    assert_eq!(num(stats, "cache_misses"), tally("miss"));
    assert_eq!((num(stats, "shed"), num(stats, "degraded")), (0, 0));
    let slow = field(stats, "slow_queries").as_arr().expect("slow log");
    assert!(!slow.is_empty(), "--slow-ms 0 must fill the slow-query log");
    for entry in slow {
        assert!(trace_ids.contains(&num(entry, "trace_id")), "{entry:?}");
        let (wall, compute) = (num(entry, "wall_us"), num(entry, "compute_us"));
        assert!(wall >= compute + num(entry, "queue_us"), "{entry:?}");
        let tree = field(entry, "trace").to_string_compact();
        let tree = RunReport::from_json(&tree).expect("sampled trace is a report tree");
        assert!(tree.find("serve.request").is_some(), "{entry:?}");
    }

    // `dump` returns the flight recorder's ring: every request so far.
    let dump = field(response(&responses, 7), "payload");
    let ring = field(dump, "ring").as_arr().expect("ring");
    assert_eq!(ring.len() as u64, num(dump, "events"));
    let requests_seen = ring.iter().filter(|ev| text(ev, "what") == "request");
    assert_eq!(requests_seen.count(), 4, "{ring:?}");
    for ev in ring {
        assert!(num(ev, "ts_us") > 0 && !text(ev, "outcome").is_empty());
        assert!(trace_ids.contains(&num(ev, "trace_id")), "{ev:?}");
        num(ev, "wall_us");
    }

    // The exported series count what the engine handled: five requests
    // (the two malformed lines never reached it), one hit.
    let om_path = format!("{}.om", metrics.display());
    let series = openmetrics_series(&om_path);
    for name in [
        "snap_serve_cache_misses_total",
        "snap_serve_shed_total",
        "snap_serve_degraded_total",
        "snap_serve_cache_bytes",
        "snap_serve_cache_entries",
        "snap_serve_epoch",
    ] {
        assert!(series.contains_key(name), "{name} missing: {series:?}");
    }
    assert_eq!(series["snap_serve_requests_total"], 5.0);
    assert_eq!(series["snap_serve_cache_hits_total"], 1.0);
    for file in [path.as_path(), metrics.as_path(), om_path.as_ref()] {
        std::fs::remove_file(file).ok();
    }
}

/// A zero deadline on a cold query trips the budget immediately; the
/// service still answers (degraded, exit 0) rather than erroring out,
/// and does not cache the partial answer.
#[test]
fn serve_answers_over_deadline_requests_degraded() {
    let path = generate("serve-deadline.txt", "rmat", 8);
    let requests = [
        r#"{"id":1,"query":"bfs","source":9,"deadline_ms":0}"#,
        r#"{"id":2,"query":"bfs","source":9}"#,
        r#"{"id":3,"query":"stats"}"#,
    ];
    let (responses, _) = serve_session(&path, &["--workers", "1"], &requests);
    let (degraded, clean) = (response(&responses, 1), response(&responses, 2));
    assert_eq!(field(degraded, "degraded"), &Json::Bool(true));
    assert_eq!(field(clean, "degraded"), &Json::Bool(false));
    assert_eq!(text(clean, "cache"), "miss", "{clean:?}");
    let stats = field(response(&responses, 3), "payload");
    assert_eq!(num(stats, "degraded"), 1, "{stats:?}");
    std::fs::remove_file(&path).ok();
}

/// `serve --stream OPS --churn-ms MS` replays edge ops behind the
/// running server: a repeated query hits while the epoch stands and
/// re-misses, never a stale hit, once a merge advances it.
#[test]
fn serve_under_churn_remisses_after_the_epoch_advances() {
    use std::io::{BufRead, BufReader, Write};
    use std::time::{Duration, Instant};

    let path = generate("serve-churn.txt", "rmat", 7);
    let ops = scratch("serve-churn-ops.txt");
    // Eight merges, 100 ms apart, each with edges no earlier batch had
    // (vertex u to u + 1 + i / 128): the first request lands long before
    // the last of them.
    let op = |i: u32| format!("+ {} {}\n", i % 128, (i % 128 + 1 + i / 128) % 128);
    std::fs::write(&ops, (0..2048).map(op).collect::<String>()).unwrap();
    let mut flags = vec!["--workers", "1", "--stream", ops.to_str().unwrap()];
    flags.extend(["--merge-every", "256", "--churn-ms", "100"]);

    let mut child = spawn_serve(&path, &flags);
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut ask = |id: u64| {
        writeln!(stdin, r#"{{"id":{id},"query":"bfs","source":5}}"#).unwrap();
        let mut line = String::new();
        while !line.starts_with('{') {
            line.clear();
            let read = stdout.read_line(&mut line).unwrap();
            assert!(read > 0, "server closed stdout");
        }
        Json::parse(line.trim_end()).expect("response is JSON")
    };
    let first = ask(1);
    assert_eq!(text(&first, "cache"), "miss", "{first:?}");
    let give_up = Instant::now() + Duration::from_secs(30);
    loop {
        let again = ask(2);
        if num(&again, "epoch") > num(&first, "epoch") {
            assert_eq!(text(&again, "cache"), "miss", "stale hit: {again:?}");
            break;
        }
        assert_eq!(text(&again, "cache"), "hit", "{again:?}");
        assert!(Instant::now() < give_up, "epoch never advanced");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(stdin);
    assert!(child.wait().unwrap().success());
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(&ops).ok();
}

/// `serve --socket PATH`: the same request path as stdin, per connection.
/// A hostile line costs its sender one error line, the request after it
/// is answered, and a second connection finds the first one's answer in
/// the shared cache.
#[cfg(unix)]
#[test]
fn serve_answers_each_connection_on_a_unix_socket() {
    use std::io::{BufRead, BufReader, Read, Write};
    use std::os::unix::net::UnixStream;

    let path = generate("serve-socket.txt", "rmat", 7);
    let socket = scratch("serve.sock");
    let mut child = spawn_serve(
        &path,
        &["--workers", "1", "--socket", socket.to_str().unwrap()],
    );
    let mut banner = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    while !line.starts_with("listening on") {
        line.clear();
        assert!(banner.read_line(&mut line).unwrap() > 0, "server exited");
    }
    let converse = |requests: &str| {
        let mut client = UnixStream::connect(&socket).expect("connect");
        client.write_all(requests.as_bytes()).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut answers = Vec::new();
        client.read_to_end(&mut answers).unwrap();
        json_lines(&answers)
    };
    let first = converse(
        "{\"id\":1,\"query\":\"bfs\",\"source\":3}\n\u{0}[[[\n{\"id\":2,\"query\":\"epoch\"}\n",
    );
    assert_eq!(first.len(), 3, "{first:?}");
    text(response(&first, 0), "error");
    assert_eq!(text(response(&first, 1), "cache"), "miss");
    assert_eq!(num(field(response(&first, 2), "payload"), "n"), 128);
    let second = converse("{\"id\":7,\"query\":\"bfs\",\"source\":3}\n");
    assert_eq!(text(response(&second, 7), "cache"), "hit", "{second:?}");
    assert_eq!(
        field(response(&second, 7), "payload"),
        field(response(&first, 1), "payload")
    );
    child.kill().unwrap();
    child.wait().unwrap();
    for file in [&path, &socket] {
        std::fs::remove_file(file).ok();
    }
}

/// The representation-agnostic pipeline prints the same fingerprint of
/// every kernel output, and the same BFS edge-inspection count, over
/// flat and compressed adjacency; `kcore` peels both to the same
/// degeneracy.
#[test]
fn backends_print_the_same_fingerprint_and_degeneracy() {
    let path = generate("backend.txt", "rmat", 10);
    // `--report json` claims stdout, so the human lines arrive on stderr.
    let line_with = |command: &str, backend: &str, needle: &str| {
        let mut run = cli();
        run.arg(command).arg(&path);
        let out = run_ok(run.args(["--backend", backend, "--report", "json"]));
        let report = RunReport::from_json(&String::from_utf8_lossy(&out.stdout));
        let report = report.expect("stdout is a well-formed run report");
        assert_eq!(report.root.meta_value("backend"), Some(backend));
        let human = String::from_utf8_lossy(&out.stderr).to_string();
        let announced = human.contains("compressed adjacency:");
        assert_eq!(announced, backend == "compressed", "{human}");
        let line = human.lines().find(|l| l.contains(needle));
        (line.expect(needle).to_string(), report)
    };
    let (flat, report) = line_with("run", "csr", "fixture_hash 0x");
    let (compressed, _) = line_with("run", "compressed", "fixture_hash 0x");
    assert_eq!(flat, compressed);
    let work_units = report.root.counter("work_units").expect("work_units");
    let hash = report
        .root
        .meta_value("fixture_hash")
        .expect("fixture_hash");
    assert!(work_units > 0, "{flat}");
    assert_eq!(
        flat,
        format!("fixture_hash {hash} | work_units {work_units}")
    );

    let degeneracy = |backend: &str| {
        let (line, _) = line_with("kcore", backend, "degeneracy ");
        line.split(" | ").next().unwrap().to_string()
    };
    assert_eq!(degeneracy("csr"), degeneracy("compressed"));
    std::fs::remove_file(&path).ok();
}

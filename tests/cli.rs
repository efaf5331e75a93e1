//! End-to-end tests of the `snap-cli` binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_snap-cli"))
}

fn scratch(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("snap-cli-test-{}-{name}", std::process::id()));
    p
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
    let path = scratch("t.txt");
    cli()
        .args([
            "generate",
            "rmat",
            "--scale",
            "10",
            "--edges",
            "8192",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
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
    // Stdout carries exactly the JSON report; it must parse and mark the
    // cancelled traversal.
    let json = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(json.trim_start().starts_with('{'), "{json}");
    assert!(json.contains("\"cancelled\""), "{json}");
    assert!(json.contains("deadline passed"), "{json}");
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

/// Minimal structural validation of a Chrome trace-event file: every
/// per-tid stream must be timestamp-sorted with strictly nested B/E
/// pairs, and the events must span at least `min_tids` threads.
fn check_chrome_trace(text: &str, min_tids: usize) {
    // Hand-rolled scan (no JSON dep in the test): split on "},{" after
    // locating the traceEvents array.
    assert!(text.contains("\"traceEvents\""), "{text}");
    let mut by_tid: std::collections::BTreeMap<u64, Vec<(u64, bool, String)>> = Default::default();
    for ev in text.split("{\"name\":").skip(1) {
        let name = ev.split('"').nth(1).unwrap_or("").to_string();
        if ev.contains("\"ph\":\"C\"") {
            // Counter samples (the memory track) carry a value instead
            // of nesting; they don't participate in the B/E stack.
            assert!(ev.contains("\"args\""), "counter event without args: {ev}");
            continue;
        }
        let ph_begin = ev.contains("\"ph\":\"B\"");
        assert!(
            ph_begin || ev.contains("\"ph\":\"E\""),
            "event without B/E/C phase: {ev}"
        );
        let field = |key: &str| -> u64 {
            ev.split(&format!("\"{key}\":"))
                .nth(1)
                .and_then(|s| {
                    s.chars()
                        .take_while(|c| c.is_ascii_digit())
                        .collect::<String>()
                        .parse()
                        .ok()
                })
                .unwrap_or_else(|| panic!("event missing {key}: {ev}"))
        };
        by_tid
            .entry(field("tid"))
            .or_default()
            .push((field("ts"), ph_begin, name));
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
                assert_eq!(stack.pop().as_deref(), Some(name.as_str()), "tid {tid}");
            }
        }
        assert!(stack.is_empty(), "tid {tid}: unclosed spans {stack:?}");
    }
}

#[test]
fn trace_out_writes_loadable_chrome_trace() {
    let graph = scratch("tr.txt");
    let trace = scratch("tr-trace.json");
    cli()
        .args([
            "generate",
            "rmat",
            "--scale",
            "10",
            "--edges",
            "8192",
            "--out",
            graph.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let out = cli()
        .args([
            "run",
            graph.to_str().unwrap(),
            "--threads",
            "4",
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    // Worker threads must show up: the parallel kernels emit per-task
    // events from their own rings, not just the coordinating thread.
    check_chrome_trace(&text, 2);
    assert!(
        text.contains("brandes.source"),
        "worker task events missing"
    );
    // With the tracking allocator installed the trace also carries the
    // Perfetto memory counter track.
    if cfg!(feature = "mem-track") {
        assert!(
            text.contains("mem.bytes_live") && text.contains("\"ph\":\"C\""),
            "memory counter track missing"
        );
    }
    std::fs::remove_file(&graph).ok();
    std::fs::remove_file(&trace).ok();
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
        .args(["obs", "top", path.to_str().unwrap(), "--by-mem"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("SELF-ALLOC"), "{text}");
    let hungry = text.find("hungry").expect("hungry listed");
    let run = text.find("run").expect("run listed");
    assert!(hungry < run, "{text}");
    std::fs::remove_file(&path).ok();
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
    let ndjson = std::fs::read_to_string(&metrics).expect("NDJSON written");
    assert!(!ndjson.is_empty());
    for line in ndjson.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"bytes_live\":"), "{line}");
        assert!(line.contains("\"peak_bytes\":"), "{line}");
    }
    // The stream command exports merge/edge counters into the registry;
    // the final sample (written at sampler stop) must carry them.
    let last = ndjson.lines().last().unwrap();
    assert!(last.contains("\"merges\":"), "{last}");
    let om_path = format!("{}.om", metrics.to_str().unwrap());
    let om = std::fs::read_to_string(&om_path).expect("OpenMetrics written");
    assert!(om.ends_with("# EOF\n"), "{om}");
    assert!(om.contains("snap_mem_peak_bytes"), "{om}");
    assert!(om.contains("snap_merges_total"), "{om}");
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
        .args(["obs", "top", path.to_str().unwrap()])
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

/// Full round trip through `snap-cli serve` over stdin: misses compute,
/// repeats hit with identical payload bytes, meta queries answer live,
/// malformed lines get error responses, and EOF shuts down with exit 0.
#[test]
fn serve_answers_queries_over_stdin() {
    use std::io::{BufRead, BufReader, Write};

    let path = scratch("serve.txt");
    cli()
        .args([
            "generate",
            "rmat",
            "--scale",
            "7",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();

    let mut child = cli()
        .args(["serve", path.to_str().unwrap(), "--workers", "1"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    for line in [
        r#"{"id":1,"query":"bfs","source":3}"#,
        r#"{"id":2,"query":"bfs","source":3}"#,
        r#"{"id":3,"query":"epoch"}"#,
        r#"{"id":4,"query":"nope"}"#,
    ] {
        writeln!(stdin, "{line}").unwrap();
    }
    drop(stdin);

    let out = child.wait_with_output().unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<String> = BufReader::new(&out.stdout[..])
        .lines()
        .map(Result::unwrap)
        .filter(|l| l.starts_with('{'))
        .collect();
    assert_eq!(lines.len(), 4, "{lines:?}");
    let find = |id: &str| {
        lines
            .iter()
            .find(|l| l.contains(&format!("\"id\":{id}")))
            .unwrap_or_else(|| panic!("no response for id {id} in {lines:?}"))
    };
    let miss = find("1");
    let hit = find("2");
    assert!(miss.contains("\"cache\":\"miss\""), "{miss}");
    assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    let payload = |l: &str| l.split(",\"payload\":").nth(1).map(str::to_owned);
    assert_eq!(payload(miss), payload(hit), "hit must be bit-identical");
    assert!(find("3").contains("\"kind\":\"epoch\""));
    assert!(find("4").contains("\"error\""));
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(text.contains("1 hit(s)"), "{text}");
    std::fs::remove_file(&path).ok();
}

/// A zero deadline on a cold query trips the budget immediately; the
/// service still answers (degraded, exit 0) rather than erroring out.
#[test]
fn serve_answers_over_deadline_requests_degraded() {
    use std::io::Write;

    let path = scratch("serve-deadline.txt");
    cli()
        .args([
            "generate",
            "rmat",
            "--scale",
            "8",
            "--out",
            path.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let mut child = cli()
        .args(["serve", path.to_str().unwrap(), "--workers", "1"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    writeln!(
        stdin,
        r#"{{"id":1,"query":"bfs","source":9,"deadline_ms":0}}"#
    )
    .unwrap();
    writeln!(stdin, r#"{{"id":2,"query":"bfs","source":9}}"#).unwrap();
    drop(stdin);
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout).to_string();
    let degraded = text
        .lines()
        .find(|l| l.contains("\"id\":1"))
        .expect("response for id 1");
    assert!(degraded.contains("\"degraded\":true"), "{degraded}");
    let clean = text
        .lines()
        .find(|l| l.contains("\"id\":2"))
        .expect("response for id 2");
    assert!(clean.contains("\"degraded\":false"), "{clean}");
    std::fs::remove_file(&path).ok();
}

//! Whole-suite modes. Each workload runs in a child process (this same
//! binary with `--workload NAME`), so peak memory is per workload and one
//! workload's allocator state cannot reach the next.
//!
//! * `all` — every workload once; with `--smoke` at small sizes.
//! * `aa` — the A/A check the regression bounds rest on: two sets of ten
//!   runs of the same binary, each run with another seed. For
//!   every end-to-end metric on every workload it prints each set's
//!   median and spread (interquartile range over median) and the drift
//!   of the second median from the first, against the metric's bound in
//!   `BENCHMARK.json`, and fails if a spread (except `setup_s`'s) or a
//!   drift is beyond the bound. One traced run per set checks that the
//!   program's own counters repeat exactly.

use crate::inputs::bench_dir;
use crate::metrics::{Declared, PROGRAM_COUNTS};
use crate::stats::{median, spread};
use crate::workloads::NAMES;
use crate::Args;
use snap::obs::json::Json;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Runs in each set of the A/A check, as in the driver's acceptance rule.
const AA_RUNS: u64 = 10;

/// Metric values by name, from a child's last line.
type Metrics = BTreeMap<String, f64>;

struct ChildResult {
    correct: bool,
    metrics: Metrics,
}

/// Run one workload in a child; its report goes to our stdout when
/// `echo` is set. `None` when the child died or printed no result.
fn child(
    workload: &str,
    seed: u64,
    args: &Args,
    declared: &Declared,
    trace: bool,
    echo: bool,
) -> Option<ChildResult> {
    let exe = std::env::current_exe().expect("path of this binary");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("starting the workload's process");
    let text = String::from_utf8_lossy(&out.stdout);
    if echo {
        print!("{text}");
    }
    if !out.status.success() {
        eprintln!("{workload}: child exited with {}", out.status);
        return None;
    }
    let json = Json::parse(text.lines().last()?).ok()?;
    let metrics: Metrics = json
        .get("metrics")?
        .as_obj()?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    // Output schema: exactly the declared metrics of the mode, and whole
    // operation counts.
    let declared = if trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    let counts_ok = json
        .get("attempted")
        .and_then(Json::as_u64)
        .is_some_and(|n| n >= 1)
        && json.get("failed").and_then(Json::as_u64).is_some();
    if !counts_ok
        || metrics.len() != declared.len()
        || !declared.iter().all(|m| metrics.contains_key(&m.name))
    {
        eprintln!("{workload}: result line does not match the declared metrics");
        return None;
    }
    Some(ChildResult {
        correct: json.get("correct") == Some(&Json::Bool(true)),
        metrics,
    })
}

pub fn all(args: &Args, declared: &Declared) -> bool {
    let mut ok = true;
    for name in NAMES {
        let result = child(name, args.seed, args, declared, args.trace, true);
        ok &= result.is_some_and(|r| r.correct);
        println!();
    }
    if args.trace {
        merge_traces(&NAMES);
    }
    println!(
        "{}",
        if ok {
            "all workloads correct"
        } else {
            "FAILED"
        }
    );
    ok
}

/// Join the per-workload traces into `out/trace.json`, one Perfetto
/// process per workload.
pub fn merge_traces(names: &[&str]) {
    let out = bench_dir().join("out");
    let mut events = Vec::new();
    for name in names {
        let parsed = std::fs::read_to_string(out.join(format!("trace-{name}.json")))
            .ok()
            .and_then(|text| Json::parse(&text).ok());
        let Some(Json::Obj(members)) = parsed else {
            continue;
        };
        for (key, value) in members {
            if let ("traceEvents", Json::Arr(items)) = (key.as_str(), value) {
                events.extend(items);
            }
        }
    }
    let trace = Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ]);
    let path = out.join("trace.json");
    std::fs::write(&path, trace.to_string_compact()).expect("writing trace.json");
    eprintln!("trace written to {}", path.display());
}

pub fn aa(args: &Args, declared: &Declared) -> bool {
    let mut ok = true;
    // samples[set][workload][metric] = one value per run.
    let mut samples: [BTreeMap<&str, BTreeMap<String, Vec<f64>>>; 2] = Default::default();
    let mut counts: [BTreeMap<&str, Metrics>; 2] = Default::default();
    for set in 0..2 {
        for name in NAMES {
            for seed in args.seed..args.seed + AA_RUNS {
                eprintln!("A/A set {} {name} seed {seed}", set + 1);
                let Some(r) = child(name, seed, args, declared, false, false) else {
                    return false;
                };
                ok &= r.correct;
                for (metric, v) in r.metrics {
                    let by_metric = samples[set].entry(name).or_default();
                    by_metric.entry(metric).or_default().push(v);
                }
            }
            let Some(traced) = child(name, args.seed, args, declared, true, false) else {
                return false;
            };
            ok &= traced.correct;
            counts[set].insert(name, traced.metrics);
        }
    }

    println!(
        "{:<12} {:<14} {:>12} {:>12} {:>9} {:>9} {:>9} {:>7}",
        "workload", "metric", "median 1", "median 2", "spread 1", "spread 2", "drift", "bound"
    );
    for name in NAMES {
        for m in &declared.end_to_end {
            let (a, b) = (&samples[0][name][&m.name], &samples[1][name][&m.name]);
            let (ma, mb) = (median(a), median(b));
            // Positive drift is the second set being worse.
            let drift = if m.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            for (set, values) in [(1, a), (2, b)] {
                eprintln!("{name} {} set {set}: {values:?}", m.name);
            }
            let (sa, sb) = (spread(a), spread(b));
            let bound = m.bound.expect("end-to-end metrics have a bound");
            let steady = m.name == "setup_s" || sa.max(sb) <= bound;
            let verdict = if steady && drift <= bound {
                ""
            } else {
                "  BEYOND BOUND"
            };
            ok &= verdict.is_empty();
            println!(
                "{name:<12} {:<14} {ma:>12.4} {mb:>12.4} {:>8.2}% {:>8.2}% {:>8.2}% {:>6.0}%{verdict}",
                m.name,
                sa * 100.0,
                sb * 100.0,
                drift * 100.0,
                bound * 100.0
            );
        }
    }
    for name in NAMES {
        for count in PROGRAM_COUNTS {
            let (a, b) = (counts[0][name][*count], counts[1][name][*count]);
            if a != b {
                ok = false;
                println!("{name}: {count} was {a} in set 1 and {b} in set 2: counts must repeat");
            }
        }
    }
    println!(
        "{}",
        if ok {
            "A/A within bounds"
        } else {
            "A/A FAILED"
        }
    );
    ok
}

//! The system benchmark's harness. `--workload NAME` runs one workload in
//! this process and prints, as the last line of stdout, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics, or with `--trace 1` the per-layer ones). `--workload all`
//! (the default), `--smoke` and `--aa` run each workload in a child
//! process of its own, so `peak_rss_mb` is per workload. See README.md.

mod inputs;
mod metrics;
mod mix;
mod rec;
mod stats;
mod suite;
mod workloads;

use inputs::bench_dir;
use metrics::{Declared, Metric};
use snap::obs::json::Json;
use stats::{median, quartiles};
use std::process::ExitCode;
use workloads::{Outcome, Run, Sizes};

pub const DEFAULT_SEED: u64 = 42;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 14.0;

const USAGE: &str = "usage: run.sh [--workload NAME|all] [--seed S] [--seconds S] [--trace 0|1] \
[--smoke] [--aa]";

/// The command line, parsed.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub aa: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        aa: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: {other} is neither 0 nor 1")),
                }
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload != "all" && !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {}", args.workload));
    }
    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be a number >= 0".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("snap-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let declared = Declared::load();
    assert_eq!(
        declared.workloads,
        workloads::NAMES,
        "BENCHMARK.json names other workloads than the harness runs"
    );
    let ok = if args.aa {
        suite::aa(&args, &declared)
    } else if args.workload == "all" {
        suite::all(&args, &declared)
    } else {
        run_one(&args, &declared);
        true
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run one workload here and print its result.
fn run_one(args: &Args, declared: &Declared) {
    let run = Run {
        seed: args.seed,
        seconds: if args.smoke { 0.0 } else { args.seconds },
        trace: args.trace,
        sizes: if args.smoke {
            Sizes::smoke()
        } else {
            Sizes::full()
        },
        threads: nproc(),
    };
    let name = args.workload.as_str();
    let mut outcome = workloads::run(name, &run).expect("workload name was checked");
    check_fingerprint(args, &mut outcome);

    for emitted in outcome.values.names() {
        assert!(
            declared.all().any(|m| m.name == emitted),
            "{name}: metric {emitted} is not declared in BENCHMARK.json"
        );
    }
    // Every end-to-end metric is measured, and never 0, on every workload.
    for m in &declared.end_to_end {
        assert!(
            outcome.values.get(&m.name).is_some_and(|v| v > 0.0),
            "{name}: end-to-end metric {} missing or 0",
            m.name
        );
    }
    print_report(name, &run, &outcome, declared);
    let out = bench_dir().join("out");
    std::fs::create_dir_all(&out).expect("creating benchmark/out");
    let result = result_file(name, args, &run, &outcome, declared);
    std::fs::write(out.join(format!("{name}.json")), result).expect("writing result file");
    if let Some(traced) = &outcome.traced {
        let path = out.join(format!("trace-{name}.json"));
        let pid = 1 + workloads::NAMES
            .iter()
            .position(|n| *n == name)
            .unwrap_or(0);
        std::fs::write(&path, rec::chrome_trace(name, pid, traced.spans())).expect("writing trace");
        suite::merge_traces(&[name]);
    }
    let table = if args.trace {
        &declared.per_layer
    } else {
        &declared.end_to_end
    };
    println!("{}", last_line(&outcome, table).to_string_compact());
}

/// For the default seed at full size, the generated input must be the
/// one `fingerprints.json` records; a mismatch is a failed operation.
fn check_fingerprint(args: &Args, outcome: &mut Outcome) {
    let name = &args.workload;
    println!(
        "input fingerprint  {}",
        outcome.fingerprint.to_json().to_string_compact()
    );
    if args.seed != DEFAULT_SEED || args.smoke {
        return;
    }
    let path = bench_dir().join("fingerprints.json");
    let stored = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| Json::parse(&text).ok())
        .unwrap_or(Json::Null);
    let ok = stored.get(name) == Some(&outcome.fingerprint.to_json());
    outcome.ops.op(ok, || {
        format!(
            "generated input differs from {}: the workload is no longer the one measured before",
            path.display()
        )
    });
}

fn print_report(name: &str, run: &Run, outcome: &Outcome, declared: &Declared) {
    let (q1, q3) = quartiles(&outcome.pass_walls);
    println!(
        "workload {name}  seed {}  threads 1 and {}  passes {}  set-ups {}",
        run.seed,
        run.threads,
        outcome.pass_walls.len(),
        outcome.setups.len()
    );
    println!(
        "pass wall  q1 {:.4} s  median {:.4} s  q3 {:.4} s",
        q1,
        median(&outcome.pass_walls),
        q3
    );
    for (title, table) in [
        ("end to end", &declared.end_to_end),
        ("per layer", &declared.per_layer),
    ] {
        println!("-- {title}");
        for m in table {
            if let Some(v) = outcome.values.get(&m.name) {
                println!("{:<36} {v:>16.4} {}", m.name, m.unit);
            }
        }
    }
    if let Some(traced) = &outcome.traced {
        println!("-- self time in the traced pass (span, calls, ms)");
        for (span, (ns, calls)) in rec::self_times(traced.spans()) {
            println!("{span:<36} {calls:>8} {:>14.3}", ns as f64 / 1e6);
        }
    }
    println!(
        "operations  attempted {}  failed {}",
        outcome.ops.attempted, outcome.ops.failed
    );
    for failure in &outcome.ops.failures {
        println!("FAILED  {failure}");
    }
}

fn obj(members: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        members
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// `{name: {value, unit}}` for the metrics of `table`; a layer that does
/// no timed work on this workload reads 0.
fn metrics_json<'a>(outcome: &Outcome, table: impl IntoIterator<Item = &'a Metric>) -> Json {
    Json::Obj(
        table
            .into_iter()
            .map(|m| {
                let value = outcome.values.get(&m.name).unwrap_or(0.0);
                let entry = obj(vec![
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(m.unit.clone())),
                ]);
                (m.name.clone(), entry)
            })
            .collect(),
    )
}

/// The one JSON object the benchmark contract asks for.
fn last_line(outcome: &Outcome, table: &[Metric]) -> Json {
    obj(vec![
        ("correct", Json::Bool(outcome.ops.failed == 0)),
        ("attempted", Json::Num(outcome.ops.attempted as f64)),
        ("failed", Json::Num(outcome.ops.failed as f64)),
        ("metrics", metrics_json(outcome, table)),
    ])
}

/// The result file: every metric measured plus the environment record.
fn result_file(
    name: &str,
    args: &Args,
    run: &Run,
    outcome: &Outcome,
    declared: &Declared,
) -> String {
    let env = |k: &str| Json::Str(std::env::var(k).unwrap_or_else(|_| "unknown".into()));
    let list = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
    let measured = declared
        .all()
        .filter(|m| outcome.values.get(&m.name).is_some());
    let self_times = outcome.traced.as_ref().map_or(Vec::new(), |t| {
        rec::self_times(t.spans())
            .into_iter()
            .map(|(span, (ns, calls))| {
                let entry = obj(vec![
                    ("self_ns", Json::Num(ns as f64)),
                    ("calls", Json::Num(calls as f64)),
                ]);
                (span.to_string(), entry)
            })
            .collect()
    });
    let mut text = obj(vec![
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Num(run.seed as f64)),
        ("seconds", Json::Num(run.seconds)),
        ("trace", Json::Bool(run.trace)),
        ("smoke", Json::Bool(args.smoke)),
        ("commit", env("SNAP_BENCH_COMMIT")),
        ("rustc", env("SNAP_BENCH_RUSTC")),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "threads",
            Json::Arr(vec![Json::Num(1.0), Json::Num(run.threads as f64)]),
        ),
        ("sizes", run.sizes.to_json()),
        ("fingerprint", outcome.fingerprint.to_json()),
        ("attempted", Json::Num(outcome.ops.attempted as f64)),
        ("failed", Json::Num(outcome.ops.failed as f64)),
        ("pass_wall_s", list(&outcome.pass_walls)),
        ("setup_s", list(&outcome.setups)),
        ("metrics", metrics_json(outcome, measured)),
        ("self_times", Json::Obj(self_times)),
    ])
    .to_string_compact();
    text.push('\n');
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse("--workload kernels_tN --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("kernels_tN", 7, 12.0, true)
        );
        assert!(!parse("--workload explore --trace 0").unwrap().trace);
        assert!(parse("--trace 1 --smoke").unwrap().smoke);
        assert!(parse("--trace --smoke").is_err());
        assert!(parse("--trace").is_err());
        assert_eq!(parse("").unwrap().workload, "all");
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--frobnicate").is_err());
    }
}

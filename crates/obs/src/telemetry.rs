//! Live telemetry export for long-lived runs.
//!
//! Spans answer "where did the time and memory go" *after* a run; a
//! resident service (`snap-cli serve`) or a long stream ingest needs the
//! same counters *while* it runs. This module provides:
//!
//! * a **process-global export registry** — [`export_counter`] /
//!   [`export_gauge`] return the same cheap handles as the span layer,
//!   but the cells live for the process and are visible to the sampler
//!   regardless of which thread owns the span context;
//! * a **sampler** ([`Sampler::start`]) — a background thread that
//!   every `every` snapshots the registry plus the tracking-allocator
//!   counters into two sinks:
//!   * newline-delimited JSON (one self-contained object per line,
//!     append-only — `tail -f`-able and trivially machine-readable),
//!   * OpenMetrics text exposition (Prometheus-scrapeable), rewritten
//!     atomically (write temp + rename) so a scraper never reads a
//!     torn file. The exposition ends with `# EOF` per the spec.
//!
//! Metric names are prefixed `snap_` and sanitized to
//! `[a-zA-Z0-9_:]`; counters get the conventional `_total` suffix.
//! See DESIGN.md §14 for the schema.

use crate::alloc;
use crate::json::Json;
use crate::{Cells, CounterHandle, Gauge, GaugeHandle};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// The process-global export registry.
static COUNTERS: Cells<AtomicU64> = Cells::new();
static GAUGES: Cells<Gauge> = Cells::new();

/// Handle to process-global exported counter `name`, created on first
/// use. Unlike a span counter ([`crate::add`]), the cell is always live
/// (no span context needed) and is sampled by any running [`Sampler`].
pub fn export_counter(name: &str) -> CounterHandle {
    CounterHandle(Some(COUNTERS.get(name)))
}

/// Handle to process-global exported gauge `name`, created on first
/// use.
pub fn export_gauge(name: &str) -> GaugeHandle {
    GaugeHandle(Some(GAUGES.get(name)))
}

/// Where a [`Sampler`] writes.
#[derive(Clone, Debug)]
pub struct SamplerConfig {
    /// Sampling period.
    pub every: Duration,
    /// NDJSON sink (truncated at start, then appended).
    pub ndjson: PathBuf,
    /// OpenMetrics sink (atomically rewritten each sample). Defaults
    /// to `<ndjson>.om` via [`SamplerConfig::new`].
    pub openmetrics: PathBuf,
}

impl SamplerConfig {
    /// Config writing NDJSON to `path` and OpenMetrics to `path` +
    /// `.om`.
    pub fn new(path: impl Into<PathBuf>, every: Duration) -> SamplerConfig {
        let ndjson: PathBuf = path.into();
        let mut om = ndjson.clone().into_os_string();
        om.push(".om");
        SamplerConfig {
            every,
            ndjson,
            openmetrics: PathBuf::from(om),
        }
    }
}

/// A running telemetry sampler thread. Stop it (and flush a final
/// sample) with [`Sampler::stop`]; dropping without stopping detaches
/// the thread, which keeps sampling until process exit.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl Sampler {
    /// Start sampling. The first sample is written immediately, so
    /// even a short-lived process leaves valid telemetry behind.
    pub fn start(config: SamplerConfig) -> io::Result<Sampler> {
        let mut ndjson = File::create(&config.ndjson)?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("snap-telemetry".to_string())
            .spawn(move || -> io::Result<()> {
                let epoch_ms = SystemTime::now()
                    .duration_since(SystemTime::UNIX_EPOCH)
                    .map(|d| d.as_millis() as u64)
                    .unwrap_or(0);
                let started = Instant::now();
                let mut seq = 0u64;
                loop {
                    // Check before sampling so the post-stop iteration
                    // still writes one final (most current) sample.
                    let stopping = stop_flag.load(Ordering::Acquire);
                    // Monotonic wall-clock: a fixed epoch plus the
                    // monotonic elapsed time, immune to clock steps.
                    let ts_ms = epoch_ms + started.elapsed().as_millis() as u64;
                    let sample = take_sample(seq, ts_ms);
                    writeln!(ndjson, "{}", sample.to_ndjson())?;
                    ndjson.flush()?;
                    write_openmetrics(&config.openmetrics, &sample)?;
                    if stopping {
                        return Ok(());
                    }
                    seq += 1;
                    sleep_interruptible(&stop_flag, config.every);
                }
            })?;
        Ok(Sampler {
            stop,
            handle: Some(handle),
        })
    }

    /// Signal the thread, wait for its final sample, and surface any
    /// I/O error it hit.
    pub fn stop(mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::Release);
        match self.handle.take() {
            Some(h) => h
                .join()
                .unwrap_or_else(|_| Err(io::Error::other("telemetry sampler thread panicked"))),
            None => Ok(()),
        }
    }
}

/// Sleep for `total`, waking early (within ~25 ms) if `stop` is set so
/// slow sampling periods don't delay shutdown.
fn sleep_interruptible(stop: &AtomicBool, total: Duration) {
    const CHUNK: Duration = Duration::from_millis(25);
    let deadline = Instant::now() + total;
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(CHUNK));
    }
}

/// One telemetry sample: allocator counters plus the export registry,
/// each list sorted by name.
struct Sample {
    seq: u64,
    ts_ms: u64,
    mem: alloc::MemSnapshot,
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
}

fn take_sample(seq: u64, ts_ms: u64) -> Sample {
    let mut counters = COUNTERS.snapshot(|c| Some(c.load(Ordering::Relaxed)));
    let mut gauges = GAUGES.snapshot(|g| Some(g.get()));
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    gauges.sort_by(|a, b| a.0.cmp(&b.0));
    Sample {
        seq,
        ts_ms,
        mem: alloc::mem_snapshot(),
        counters,
        gauges,
    }
}

impl Sample {
    fn to_ndjson(&self) -> String {
        Json::Obj(vec![
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("ts_ms".to_string(), Json::Num(self.ts_ms as f64)),
            (
                "bytes_live".to_string(),
                Json::Num(self.mem.bytes_live as f64),
            ),
            (
                "peak_bytes".to_string(),
                Json::Num(self.mem.peak_live as f64),
            ),
            ("allocs".to_string(), Json::Num(self.mem.allocs as f64)),
            (
                "allocated".to_string(),
                Json::Num(self.mem.allocated as f64),
            ),
            ("freed".to_string(), Json::Num(self.mem.freed as f64)),
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
            (
                "gauges".to_string(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Num(*v)))
                        .collect(),
                ),
            ),
        ])
        .to_string_compact()
    }
}

/// `name` → `snap_name` with every char outside `[a-zA-Z0-9_:]`
/// replaced by `_` (OpenMetrics metric-name charset).
fn metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("snap_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Render the OpenMetrics exposition for one sample.
fn openmetrics_text(sample: &Sample) -> String {
    let mut out = String::new();
    let mut gauge = |name: &str, value: String| {
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    };
    gauge("snap_mem_bytes_live", sample.mem.bytes_live.to_string());
    gauge("snap_mem_peak_bytes", sample.mem.peak_live.to_string());
    gauge(
        "snap_mem_tracking_enabled",
        if alloc::is_mem_tracking() { "1" } else { "0" }.to_string(),
    );
    for (name, value) in &sample.gauges {
        let mut rendered = String::new();
        crate::json::write_f64(&mut rendered, *value);
        gauge(&metric_name(name), rendered);
    }
    let mut counter = |name: String, value: u64| {
        out.push_str(&format!("# TYPE {name} counter\n{name}_total {value}\n"));
    };
    counter("snap_mem_allocs".to_string(), sample.mem.allocs);
    counter("snap_mem_allocated_bytes".to_string(), sample.mem.allocated);
    counter("snap_mem_freed_bytes".to_string(), sample.mem.freed);
    for (name, value) in &sample.counters {
        counter(metric_name(name), *value);
    }
    out.push_str("# EOF\n");
    out
}

/// Atomically replace `path` with the exposition for `sample`: write a
/// sibling temp file, then rename over the target, so concurrent
/// readers always see a complete document.
fn write_openmetrics(path: &Path, sample: &Sample) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(openmetrics_text(sample).as_bytes())?;
        f.flush()?;
    }
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn export_registry_is_process_global_and_idempotent() {
        let c = export_counter("telemetry_test_events");
        c.add(3);
        export_counter("telemetry_test_events").add(2);
        export_gauge("telemetry_test_level").set(1.5);
        export_gauge("telemetry_test_level").set(2.5);
        let sample = take_sample(0, 0);
        assert!(sample
            .counters
            .iter()
            .any(|(n, v)| n == "telemetry_test_events" && *v == 5));
        let levels: Vec<f64> = sample
            .gauges
            .iter()
            .filter(|(n, _)| n == "telemetry_test_level")
            .map(|&(_, v)| v)
            .collect();
        assert_eq!(levels, [2.5], "both handles hit the same cell");
    }

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(metric_name("live_edges"), "snap_live_edges");
        assert_eq!(metric_name("merge.out/edges"), "snap_merge_out_edges");
    }

    #[test]
    fn openmetrics_text_is_well_formed() {
        export_gauge("telemetry_om_gauge").set(2.25);
        export_counter("telemetry_om_count").add(7);
        let sample = take_sample(0, 123);
        let text = openmetrics_text(&sample);
        assert!(text.ends_with("# EOF\n"), "{text}");
        assert!(text.contains("# TYPE snap_mem_bytes_live gauge"), "{text}");
        assert!(text.contains("snap_telemetry_om_count_total 7"), "{text}");
        assert!(text.contains("snap_telemetry_om_gauge 2.25"), "{text}");
        assert_complete_exposition(&text);
    }

    /// A complete OpenMetrics document: terminated by `# EOF`, and every
    /// other line a comment or a `name value` sample whose name stays in
    /// the metric charset, whose value is a number, and whose family was
    /// declared by an earlier `# TYPE` line (counters sample as
    /// `<family>_total`).
    fn assert_complete_exposition(text: &str) {
        assert!(text.ends_with("# EOF\n"), "{text}");
        let mut typed = std::collections::HashSet::new();
        for line in text.lines() {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                typed.insert(decl.split(' ').next().unwrap());
                continue;
            }
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let name = parts.next().unwrap();
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'));
            parts.next().unwrap().parse::<f64>().unwrap();
            assert!(parts.next().is_none());
            let family = name.strip_suffix("_total").unwrap_or(name);
            assert!(
                typed.contains(name) || typed.contains(family),
                "{name} sampled before its # TYPE line: {text}"
            );
        }
    }

    /// Shutdown-flush audit (regression guard): stopping the sampler
    /// mid-period must still write one final NDJSON line and a terminal
    /// OpenMetrics snapshot reflecting everything recorded *after* the
    /// previous periodic sample — even when the period is far longer
    /// than the run, as in a short CLI invocation with `--stats-every
    /// 60000`.
    #[test]
    fn stop_flushes_a_final_sample_with_late_recordings() {
        let dir =
            std::env::temp_dir().join(format!("snap_obs_telemetry_flush_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ndjson = dir.join("flush.ndjson");
        let config = SamplerConfig::new(&ndjson, Duration::from_secs(3600));
        let sampler = Sampler::start(config.clone()).unwrap();
        // Wait for the immediate first sample so the late recording is
        // provably newer than any periodic write.
        while std::fs::read_to_string(&ndjson)
            .map(|s| s.lines().count())
            .unwrap_or(0)
            == 0
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        export_counter("telemetry_flush_probe").add(41);
        sampler.stop().unwrap();

        let text = std::fs::read_to_string(&ndjson).unwrap();
        let last = text.lines().last().expect("final sample written");
        let v = Json::parse(last).unwrap();
        assert!(
            v.get("seq").and_then(Json::as_u64) >= Some(1),
            "stop must append a sample beyond the initial one: {last}"
        );
        assert_eq!(
            v.get("counters")
                .and_then(|c| c.get("telemetry_flush_probe"))
                .and_then(Json::as_u64),
            Some(41),
            "final NDJSON line must carry post-start counters: {last}"
        );
        let om = std::fs::read_to_string(&config.openmetrics).unwrap();
        assert!(om.ends_with("# EOF\n"), "terminal snapshot incomplete");
        assert!(
            om.contains("snap_telemetry_flush_probe_total 41"),
            "terminal OpenMetrics must reflect the late counter: {om}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sampler_writes_ndjson_and_openmetrics() {
        let dir = std::env::temp_dir().join(format!(
            "snap_obs_telemetry_{}_{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let ndjson = dir.join("metrics.ndjson");
        let config = SamplerConfig::new(&ndjson, Duration::from_millis(5));
        let sampler = Sampler::start(config.clone()).unwrap();
        // Scrape while the sampler is still rewriting the file: the
        // rename makes every read a complete document, never a prefix.
        let samples = || std::fs::read_to_string(&ndjson).map_or(0, |s| s.lines().count());
        while samples() < 3 {
            if let Ok(mid_run) = std::fs::read_to_string(&config.openmetrics) {
                assert_complete_exposition(&mid_run);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        sampler.stop().unwrap();
        let text = std::fs::read_to_string(&ndjson).unwrap();
        // seq 0,1,2,…; timestamps and the allocator's cumulative counters
        // never step back.
        let mut last = [0u64; 4];
        for (i, line) in text.lines().enumerate() {
            let v = Json::parse(line).unwrap();
            let field = |key: &str| v.get(key).and_then(Json::as_u64).expect(key);
            assert_eq!(field("seq"), i as u64);
            let now = ["ts_ms", "allocs", "allocated", "freed"].map(field);
            assert!(
                now.iter().zip(&last).all(|(n, l)| n >= l),
                "sample {i} regressed: {last:?} -> {now:?}"
            );
            last = now;
            field("bytes_live");
            field("peak_bytes");
        }
        let om = std::fs::read_to_string(&config.openmetrics).unwrap();
        assert_complete_exposition(&om);
        assert!(om.contains("snap_mem_peak_bytes"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

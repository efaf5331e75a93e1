//! One report, explained: where the time and the bytes went, and why
//! the run did not scale (`snap-cli obs explain`).
//!
//! The rest of the crate *records* parallel execution — spans, per-thread
//! event rings, histograms. This module *explains* it, in the work/depth
//! vocabulary of Dhulipala–Blelloch–Shun: self time is work, the critical
//! path is depth, and once total work is fixed the depth and the serial
//! fraction bound any further speedup.
//!
//! [`explain`] is a pure function of an already-collected report, so the
//! same report file yields byte-identical output no matter how many
//! threads the *analyzing* process runs. It carries, in order:
//!
//! * **warnings** about the data itself: trace events the rings dropped
//!   (a truncated timeline would silently skew every number below);
//! * the **self-time ranking**: every span name aggregated over the tree,
//!   inclusive duration minus children (the flamegraph view);
//! * the **self-allocation ranking**, when the report has memory data;
//! * the **critical path**: the span tree walked along the heaviest child
//!   at every level, each step's self time attributed — the longest
//!   serial chain, which parallelizing siblings cannot shorten;
//! * **parallel efficiency**, when the report has a timeline: per-thread
//!   busy time (union of span intervals, so nesting never double-counts),
//!   total busy / (threads × wall), imbalance skew (max/mean busy), and
//!   the serial fraction of wall time during which at most one thread
//!   was busy — whose reciprocal is the Amdahl speedup ceiling.

use crate::json::{write_escaped, write_f64};
use crate::report::{fmt_bytes, fmt_us, ReportNode, RunReport};

/// One row of a ranking: a span name aggregated over every position it
/// appears at in the tree.
#[derive(Clone, Debug, PartialEq)]
pub struct TopEntry {
    pub name: String,
    /// Time inside this span minus time inside its children (clamped at
    /// zero per node: coalesced children can sum past their parent).
    pub self_us: u64,
    /// Total (inclusive) time, summed over appearances.
    pub total_us: u64,
    pub calls: u64,
    /// Bytes allocated inside this span minus inside its children
    /// (same clamped-self convention as `self_us`; 0 for reports
    /// without memory tracking).
    pub self_alloc: u64,
    /// Total (inclusive) bytes allocated, summed over appearances.
    pub total_alloc: u64,
}

/// Busy-time summary for one traced thread (one event ring).
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadBusy {
    /// Trace-local thread id (dense, starting at 1).
    pub tid: u32,
    /// Microseconds this thread spent inside at least one span: the
    /// union of its span intervals, so nested spans count once.
    pub busy_us: u64,
    /// Begin/end events this thread contributed to the timeline.
    pub events: u64,
    /// Events this thread's ring lost to wraparound or broken pairs
    /// (from the `trace_events_dropped.tid<N>` counters).
    pub dropped: u64,
}

/// How well the traced wall-clock window was covered by concurrent
/// useful work.
#[derive(Clone, Debug, PartialEq)]
pub struct Efficiency {
    /// Analyzed wall window, microseconds: the extent of the timeline.
    pub wall_us: u64,
    /// Distinct traced threads.
    pub threads: usize,
    /// Sum of per-thread busy time.
    pub total_busy_us: u64,
    /// `100 × total_busy / (threads × wall)` — 100 means every thread
    /// was inside a span for the whole window.
    pub parallel_efficiency_pct: f64,
    /// Max busy / mean busy across threads (≥ 1; 1 is perfectly even).
    pub imbalance_skew: f64,
    /// Microseconds of the wall window during which at most one thread
    /// was busy (includes fully-idle gaps).
    pub serial_us: u64,
    /// `100 × serial / wall`.
    pub serial_fraction_pct: f64,
    /// Amdahl-style ceiling with unlimited threads: `wall / serial`
    /// (capped at `wall` when no serial time was observed).
    pub speedup_ceiling: f64,
    /// Per-thread breakdown, sorted by tid.
    pub per_thread: Vec<ThreadBusy>,
    /// Total events lost across all rings (`trace_events_dropped`).
    pub dropped_events: u64,
    /// True when any ring lost events: every number above is then a
    /// lower-bound estimate over an incomplete timeline.
    pub truncated: bool,
}

/// One step along the critical path, from the root downward.
#[derive(Clone, Debug, PartialEq)]
pub struct CritStep {
    pub name: String,
    /// Depth below the root (root = 0).
    pub depth: usize,
    /// Inclusive duration of this span, microseconds.
    pub total_us: u64,
    /// Self time: inclusive duration minus the children's inclusive
    /// durations (saturating) — this step's own contribution.
    pub self_us: u64,
    /// Completed activations of the (possibly coalesced) span.
    pub calls: u64,
}

/// The longest serial chain through the span tree.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// Length of the chain, microseconds: the sum of the steps' self
    /// times. Parallelizing siblings cannot push below this.
    pub critical_path_us: u64,
    /// The chain itself, root first.
    pub steps: Vec<CritStep>,
    /// Spans in the whole tree, for context in renderings.
    pub span_count: usize,
}

/// Everything [`explain`] finds in one report (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct Explain {
    /// Problems with the data itself: dropped trace events.
    pub warnings: Vec<String>,
    /// Span names by self time, descending.
    pub self_time: Vec<TopEntry>,
    /// Span names by self-allocated bytes, descending; `None` for a
    /// report without memory data.
    pub self_alloc: Option<Vec<TopEntry>>,
    pub critical_path: CriticalPath,
    /// `None` for a report without a timeline (collect one with
    /// `--trace-out`).
    pub efficiency: Option<Efficiency>,
}

/// Explain `report`: warnings, rankings, critical path and efficiency.
pub fn explain(report: &RunReport) -> Explain {
    let dropped = report.root.counter("trace_events_dropped").unwrap_or(0);
    let warnings = (dropped > 0)
        .then(|| {
            format!(
                "timeline truncated, {dropped} trace event(s) dropped — efficiency \
                 numbers are lower bounds (raise --trace-buf)"
            )
        })
        .into_iter()
        .collect();
    let self_time = top(report);
    let self_alloc = self_time.iter().any(|r| r.total_alloc > 0).then(|| {
        let mut rows = self_time.clone();
        rows.sort_by(|a, b| b.self_alloc.cmp(&a.self_alloc).then(a.name.cmp(&b.name)));
        rows
    });
    Explain {
        warnings,
        self_time,
        self_alloc,
        critical_path: critical_path(report),
        efficiency: (!report.trace.is_empty()).then(|| efficiency(report)),
    }
}

/// Flamegraph-style aggregation: for every span name, total self time
/// (and self allocated bytes) across the tree, sorted by self time
/// descending, ties by name.
fn top(report: &RunReport) -> Vec<TopEntry> {
    let mut rows: Vec<TopEntry> = Vec::new();
    fn walk(node: &ReportNode, rows: &mut Vec<TopEntry>) {
        let child_us: u64 = node.children.iter().map(|c| c.duration_us).sum();
        let self_us = node.duration_us.saturating_sub(child_us);
        let alloc = |n: &ReportNode| n.mem.map_or(0, |m| m.allocated);
        let child_alloc: u64 = node.children.iter().map(alloc).sum();
        let self_alloc = alloc(node).saturating_sub(child_alloc);
        match rows.iter_mut().find(|r| r.name == node.name) {
            Some(r) => {
                r.self_us += self_us;
                r.total_us += node.duration_us;
                r.calls += node.calls;
                r.self_alloc += self_alloc;
                r.total_alloc += alloc(node);
            }
            None => rows.push(TopEntry {
                name: node.name.clone(),
                self_us,
                total_us: node.duration_us,
                calls: node.calls,
                self_alloc,
                total_alloc: alloc(node),
            }),
        }
        for c in &node.children {
            walk(c, rows);
        }
    }
    walk(&report.root, &mut rows);
    rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    rows
}

/// Fold the per-thread begin/end timeline of `report` (non-empty) into
/// busy time, efficiency, skew and serial fraction.
fn efficiency(report: &RunReport) -> Efficiency {
    // Per-thread busy intervals: track span nesting depth per tid; the
    // thread is busy from the event that takes depth 0→1 until the one
    // that returns it to 0. Events within a tid are in ring order, which
    // is timestamp-monotone.
    let trace = &report.trace;
    let mut tids: Vec<u32> = trace.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let mut per_thread = Vec::with_capacity(tids.len());
    for &tid in &tids {
        let mut depth = 0u32;
        let mut opened = 0u64;
        let mut busy = 0u64;
        let mut events = 0u64;
        for ev in trace.iter().filter(|e| e.tid == tid) {
            events += 1;
            if ev.begin {
                if depth == 0 {
                    opened = ev.ts_us;
                }
                depth += 1;
            } else if depth > 0 {
                depth -= 1;
                if depth == 0 {
                    busy += ev.ts_us.saturating_sub(opened);
                    intervals.push((opened, ev.ts_us));
                }
            }
        }
        let dropped = report
            .root
            .counter(&format!("trace_events_dropped.tid{tid}"))
            .unwrap_or(0);
        per_thread.push(ThreadBusy {
            tid,
            busy_us: busy,
            events,
            dropped,
        });
    }

    let lo = trace.iter().map(|e| e.ts_us).min().unwrap_or(0);
    let hi = trace.iter().map(|e| e.ts_us).max().unwrap_or(0);
    let wall_us = hi - lo;
    let threads = per_thread.len();
    let total_busy_us: u64 = per_thread.iter().map(|t| t.busy_us).sum();
    let denom = threads as f64 * wall_us as f64;
    let parallel_efficiency_pct = if denom > 0.0 {
        100.0 * total_busy_us as f64 / denom
    } else {
        0.0
    };
    let mean_busy = total_busy_us as f64 / threads.max(1) as f64;
    let max_busy = per_thread.iter().map(|t| t.busy_us).max().unwrap_or(0);
    let imbalance_skew = if mean_busy > 0.0 {
        max_busy as f64 / mean_busy
    } else {
        1.0
    };

    // Serial time: sweep the merged busy intervals and sum the stretches
    // of the wall window with concurrency ≤ 1.
    let mut edges: Vec<(u64, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(s, e) in &intervals {
        edges.push((s, 1));
        edges.push((e, -1));
    }
    edges.sort_unstable();
    let mut serial = 0u64;
    let mut concurrency = 0i32;
    let mut prev = lo;
    for (ts, delta) in edges {
        if concurrency <= 1 {
            serial += ts.saturating_sub(prev);
        }
        prev = ts.max(prev);
        concurrency += delta;
    }
    if concurrency <= 1 {
        serial += hi.saturating_sub(prev);
    }
    let serial_us = serial.min(wall_us);
    let serial_fraction_pct = if wall_us > 0 {
        100.0 * serial_us as f64 / wall_us as f64
    } else {
        0.0
    };
    let speedup_ceiling = if wall_us == 0 {
        1.0
    } else if serial_us == 0 {
        wall_us as f64
    } else {
        wall_us as f64 / serial_us as f64
    };

    let dropped_events = report.root.counter("trace_events_dropped").unwrap_or(0);
    Efficiency {
        wall_us,
        threads,
        total_busy_us,
        parallel_efficiency_pct,
        imbalance_skew,
        serial_us,
        serial_fraction_pct,
        speedup_ceiling,
        per_thread,
        dropped_events,
        truncated: dropped_events > 0,
    }
}

/// Walk `report`'s span tree along the heaviest (by inclusive duration)
/// child at every level, breaking ties toward the first child — a
/// deterministic descent, so identical reports analyze identically.
fn critical_path(report: &RunReport) -> CriticalPath {
    let mut steps = Vec::new();
    let mut node = &report.root;
    loop {
        steps.push(CritStep {
            name: node.name.clone(),
            depth: steps.len(),
            total_us: node.duration_us,
            self_us: node
                .duration_us
                .saturating_sub(node.children.iter().map(|c| c.duration_us).sum()),
            calls: node.calls,
        });
        // `max_by` keeps the *last* maximum; comparing equal durations as
        // `Greater` makes the earlier child win ties.
        let heaviest = node.children.iter().max_by(|a, b| {
            a.duration_us
                .cmp(&b.duration_us)
                .then(std::cmp::Ordering::Greater)
        });
        match heaviest {
            Some(child) => node = child,
            None => break,
        }
    }
    CriticalPath {
        critical_path_us: steps.iter().map(|s| s.self_us).sum(),
        steps,
        span_count: report.root.span_count(),
    }
}

impl Explain {
    /// Human rendering, each ranking cut to its first `limit` rows.
    pub fn render(&self, limit: usize) -> String {
        let mut out = String::new();
        for w in &self.warnings {
            out.push_str(&format!("WARNING: {w}\n"));
        }
        out.push_str("SELF       TOTAL      CALLS  SPAN\n");
        for r in self.self_time.iter().take(limit) {
            out.push_str(&format!(
                "{:<10} {:<10} {:<6} {}\n",
                fmt_us(r.self_us),
                fmt_us(r.total_us),
                r.calls,
                r.name
            ));
        }
        if let Some(rows) = &self.self_alloc {
            out.push_str("\nSELF-ALLOC   TOTAL-ALLOC  SELF-TIME  CALLS  SPAN\n");
            for r in rows.iter().take(limit) {
                out.push_str(&format!(
                    "{:<12} {:<12} {:<10} {:<6} {}\n",
                    fmt_bytes(r.self_alloc),
                    fmt_bytes(r.total_alloc),
                    fmt_us(r.self_us),
                    r.calls,
                    r.name
                ));
            }
        }
        let cp = &self.critical_path;
        out.push_str(&format!(
            "\ncritical path {}  ({} step(s) through {} span(s))\n",
            fmt_us(cp.critical_path_us),
            cp.steps.len(),
            cp.span_count
        ));
        for s in &cp.steps {
            out.push_str(&format!(
                "  {:indent$}{}  total {}  self {}  ({:.1}% of path, {} call(s))\n",
                "",
                s.name,
                fmt_us(s.total_us),
                fmt_us(s.self_us),
                pct(s.self_us, cp.critical_path_us),
                s.calls,
                indent = s.depth * 2
            ));
        }
        let Some(e) = &self.efficiency else {
            out.push_str("\nno timeline: collect one with --trace-out for parallel efficiency\n");
            return out;
        };
        out.push_str(&format!(
            "\nparallel efficiency {:.1}%  (busy {} across {} thread(s) x {} wall)\n",
            e.parallel_efficiency_pct,
            fmt_us(e.total_busy_us),
            e.threads,
            fmt_us(e.wall_us),
        ));
        out.push_str(&format!(
            "imbalance skew {:.2}  (max/mean busy per thread)\n",
            e.imbalance_skew
        ));
        out.push_str(&format!(
            "serial fraction {:.1}%  ({} serial; speedup ceiling {:.1}x)\n",
            e.serial_fraction_pct,
            fmt_us(e.serial_us),
            e.speedup_ceiling
        ));
        for t in &e.per_thread {
            let dropped = if t.dropped > 0 {
                format!(", {} dropped", t.dropped)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "  tid {:>3}  busy {:>10}  ({:>5.1}% of wall, {} events{dropped})\n",
                t.tid,
                fmt_us(t.busy_us),
                pct(t.busy_us, e.wall_us),
                t.events,
            ));
        }
        out
    }

    /// Compact JSON object (one line), each ranking cut to its first
    /// `limit` rows. `self_alloc` and `efficiency` are `null` when the
    /// report has no memory data or no timeline.
    pub fn to_json(&self, limit: usize) -> String {
        let mut out = String::from("{\"warnings\":[");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, w);
        }
        out.push_str("],\"self_time\":");
        rows_json(&mut out, &self.self_time, limit);
        out.push_str(",\"self_alloc\":");
        match &self.self_alloc {
            Some(rows) => rows_json(&mut out, rows, limit),
            None => out.push_str("null"),
        }
        let cp = &self.critical_path;
        out.push_str(&format!(
            ",\"critical_path\":{{\"critical_path_us\":{},\"span_count\":{},\"steps\":[",
            cp.critical_path_us, cp.span_count
        ));
        for (i, s) in cp.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, &s.name);
            out.push_str(&format!(
                ",\"depth\":{},\"total_us\":{},\"self_us\":{},\"calls\":{}}}",
                s.depth, s.total_us, s.self_us, s.calls
            ));
        }
        out.push_str("]},\"efficiency\":");
        let Some(e) = &self.efficiency else {
            out.push_str("null}");
            return out;
        };
        out.push_str(&format!(
            "{{\"wall_us\":{},\"threads\":{},\"total_busy_us\":{}",
            e.wall_us, e.threads, e.total_busy_us
        ));
        let float = |out: &mut String, key: &str, value: f64| {
            out.push_str(&format!(",\"{key}\":"));
            write_f64(out, round2(value));
        };
        float(
            &mut out,
            "parallel_efficiency_pct",
            e.parallel_efficiency_pct,
        );
        float(&mut out, "imbalance_skew", e.imbalance_skew);
        out.push_str(&format!(",\"serial_us\":{}", e.serial_us));
        float(&mut out, "serial_fraction_pct", e.serial_fraction_pct);
        float(&mut out, "speedup_ceiling", e.speedup_ceiling);
        out.push_str(&format!(
            ",\"dropped_events\":{},\"truncated\":{},\"per_thread\":[",
            e.dropped_events, e.truncated
        ));
        for (i, t) in e.per_thread.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tid\":{},\"busy_us\":{},\"events\":{},\"dropped\":{}}}",
                t.tid, t.busy_us, t.events, t.dropped
            ));
        }
        out.push_str("]}}");
        out
    }
}

/// A ranking's first `limit` rows as a JSON array.
fn rows_json(out: &mut String, rows: &[TopEntry], limit: usize) {
    out.push('[');
    for (i, r) in rows.iter().take(limit).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"name\":");
        write_escaped(out, &r.name);
        out.push_str(&format!(
            ",\"self_us\":{},\"total_us\":{},\"calls\":{},\"self_alloc\":{},\"total_alloc\":{}}}",
            r.self_us, r.total_us, r.calls, r.self_alloc, r.total_alloc
        ));
    }
    out.push(']');
}

/// `100 × part / whole`, 0 for an empty whole.
fn pct(part: u64, whole: u64) -> f64 {
    if whole > 0 {
        100.0 * part as f64 / whole as f64
    } else {
        0.0
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn ev(tid: u32, begin: bool, ts_us: u64) -> TraceEvent {
        TraceEvent {
            name: "work".to_string(),
            tid,
            begin,
            ts_us,
        }
    }

    fn report_with(trace: Vec<TraceEvent>, root: ReportNode) -> RunReport {
        RunReport {
            root,
            trace,
            mem_samples: Vec::new(),
        }
    }

    #[test]
    fn one_thread_fully_busy_is_hundred_percent() {
        // Degenerate case: a single thread inside one span for the whole
        // window — efficiency 100, skew 1, everything serial.
        let r = report_with(
            vec![ev(1, true, 0), ev(1, false, 1000)],
            ReportNode::default(),
        );
        let e = efficiency(&r);
        assert_eq!(e.threads, 1);
        assert_eq!(e.wall_us, 1000);
        assert_eq!(e.total_busy_us, 1000);
        assert_eq!(e.parallel_efficiency_pct, 100.0);
        assert_eq!(e.imbalance_skew, 1.0);
        assert_eq!(e.serial_us, 1000);
        assert!((e.speedup_ceiling - 1.0).abs() < 1e-9);
        assert!(!e.truncated);
    }

    #[test]
    fn nested_spans_count_once_toward_busy() {
        // Overlapping (nested) spans on one thread: busy time is the
        // union, not the sum, of the intervals.
        let r = report_with(
            vec![
                ev(1, true, 0),    // outer B
                ev(1, true, 100),  // inner B
                ev(1, false, 900), // inner E
                ev(1, false, 1000),
            ],
            ReportNode::default(),
        );
        let e = efficiency(&r);
        assert_eq!(e.total_busy_us, 1000);
        assert_eq!(e.parallel_efficiency_pct, 100.0);
    }

    #[test]
    fn half_idle_thread_halves_efficiency_and_skews() {
        // tid 1 busy for the whole 1000µs window, tid 2 for half of it:
        // busy = 1500 over 2×1000 ⇒ 75%; skew = 1000/750.
        let r = report_with(
            vec![
                ev(1, true, 0),
                ev(2, true, 0),
                ev(2, false, 500),
                ev(1, false, 1000),
            ],
            ReportNode::default(),
        );
        let e = efficiency(&r);
        assert_eq!(e.threads, 2);
        assert_eq!(e.total_busy_us, 1500);
        assert!((e.parallel_efficiency_pct - 75.0).abs() < 1e-9);
        assert!((e.imbalance_skew - 1000.0 / 750.0).abs() < 1e-9);
        // Second half of the window had only tid 1 busy: serial 500µs,
        // ceiling 2x.
        assert_eq!(e.serial_us, 500);
        assert!((e.speedup_ceiling - 2.0).abs() < 1e-9);
        assert!((e.serial_fraction_pct - 50.0).abs() < 1e-9);
    }

    #[test]
    fn idle_gaps_count_as_serial_time() {
        // Two threads, both idle in the middle: the gap is serial wall.
        let r = report_with(
            vec![
                ev(1, true, 0),
                ev(1, false, 200),
                ev(2, true, 800),
                ev(2, false, 1000),
            ],
            ReportNode::default(),
        );
        let e = efficiency(&r);
        assert_eq!(e.wall_us, 1000);
        assert_eq!(e.serial_us, 1000); // never more than one thread busy
        assert!((e.parallel_efficiency_pct - 20.0).abs() < 1e-9);
    }

    #[test]
    fn dropped_events_flag_truncation_per_thread() {
        let mut root = ReportNode::default();
        root.counters.push(("trace_events_dropped".to_string(), 7));
        root.counters
            .push(("trace_events_dropped.tid2".to_string(), 7));
        let r = report_with(
            vec![
                ev(1, true, 0),
                ev(1, false, 100),
                ev(2, true, 0),
                ev(2, false, 50),
            ],
            root,
        );
        let e = efficiency(&r);
        assert!(e.truncated);
        assert_eq!(e.dropped_events, 7);
        assert_eq!(e.per_thread[0].dropped, 0);
        assert_eq!(e.per_thread[1].dropped, 7);
        assert!(explain(&r).render(10).contains("truncated"));
    }

    fn node(name: &str, duration_us: u64, children: Vec<ReportNode>) -> ReportNode {
        ReportNode {
            name: name.to_string(),
            duration_us,
            calls: 1,
            children,
            ..Default::default()
        }
    }

    #[test]
    fn critical_path_follows_the_heaviest_chain() {
        // root(1000) → b(600) → b2(500); sibling a(300) loses.
        let tree = node(
            "root",
            1000,
            vec![
                node("a", 300, Vec::new()),
                node("b", 600, vec![node("b2", 500, Vec::new())]),
            ],
        );
        let r = report_with(Vec::new(), tree);
        let c = critical_path(&r);
        let names: Vec<&str> = c.steps.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["root", "b", "b2"]);
        // Self times: root 1000-900=100, b 600-500=100, b2 500.
        assert_eq!(
            c.steps.iter().map(|s| s.self_us).collect::<Vec<_>>(),
            [100, 100, 500]
        );
        assert_eq!(c.critical_path_us, 700);
        assert_eq!(c.span_count, 4);
    }

    #[test]
    fn critical_path_ties_break_toward_the_first_child() {
        let tree = node(
            "root",
            100,
            vec![
                node("first", 40, Vec::new()),
                node("second", 40, Vec::new()),
            ],
        );
        let r = report_with(Vec::new(), tree);
        let c = critical_path(&r);
        assert_eq!(c.steps[1].name, "first");
    }

    #[test]
    fn empty_trace_falls_back_to_the_span_tree() {
        // Without a timeline there is no efficiency to report, not a
        // zero-thread one; the critical path still comes from the tree.
        let r = report_with(Vec::new(), node("root", 500, Vec::new()));
        let e = explain(&r);
        assert_eq!(e.efficiency, None);
        assert!(e.to_json(10).ends_with(",\"efficiency\":null}"));
        assert_eq!(e.critical_path.critical_path_us, 500);
    }

    #[test]
    fn json_outputs_parse_back() {
        let r = report_with(
            vec![
                ev(1, true, 0),
                ev(2, true, 10),
                ev(2, false, 600),
                ev(1, false, 1000),
            ],
            node("root", 1000, vec![node("child", 900, Vec::new())]),
        );
        let parsed = crate::Json::parse(&explain(&r).to_json(10)).expect("explain json parses");
        let eff = parsed.get("efficiency").expect("efficiency object");
        assert_eq!(eff.get("threads").and_then(crate::Json::as_u64), Some(2));
        assert_eq!(
            eff.get("per_thread")
                .and_then(crate::Json::as_arr)
                .map(<[crate::Json]>::len),
            Some(2)
        );
        let crit = parsed.get("critical_path").expect("critical_path object");
        assert_eq!(
            crit.get("critical_path_us").and_then(crate::Json::as_u64),
            Some(1000)
        );
    }

    fn mem(allocated: u64) -> Option<crate::MemStats> {
        Some(crate::MemStats {
            allocated,
            freed: 0,
            allocs: 1,
            peak_delta: allocated / 2,
        })
    }

    #[test]
    fn top_by_mem_sorts_by_self_allocated() {
        let mut big = node("alloc_heavy", 10, vec![]);
        big.mem = mem(8 << 20);
        let mut small = node("cpu_heavy", 900, vec![]);
        small.mem = mem(1 << 10);
        let mut root = node("run", 1000, vec![big, small]);
        root.mem = mem(9 << 20);
        let r = report_with(Vec::new(), root);

        let e = explain(&r);
        let rows = e.self_alloc.as_ref().expect("memory data ranks");
        assert_eq!(rows[0].name, "alloc_heavy");
        assert_eq!(rows[0].self_alloc, 8 << 20);
        // Parent self-alloc is inclusive minus children.
        let run = rows.iter().find(|r| r.name == "run").unwrap();
        assert_eq!(run.self_alloc, (9 << 20) - (8 << 20) - (1 << 10));
        // Time-sorted view puts cpu_heavy first instead.
        assert_eq!(top(&r)[0].name, "cpu_heavy");
        let text = e.render(10);
        assert!(text.contains("SELF-ALLOC"), "{text}");
        assert!(text.contains("alloc_heavy"), "{text}");
        // Without memory data there is no allocation ranking.
        let plain = report_with(Vec::new(), node("run", 10, vec![]));
        assert_eq!(explain(&plain).self_alloc, None);
    }

    #[test]
    fn top_aggregates_self_time_by_name() {
        // run(1000) -> a(600) -> b(200); a appears again under c.
        let r = report_with(
            Vec::new(),
            node(
                "run",
                1000,
                vec![
                    node("a", 600, vec![node("b", 200, vec![])]),
                    node("c", 300, vec![node("a", 100, vec![])]),
                ],
            ),
        );
        let rows = top(&r);
        let a = rows.iter().find(|r| r.name == "a").unwrap();
        assert_eq!(a.self_us, 400 + 100); // 600-200 plus leaf 100
        assert_eq!(a.total_us, 700);
        assert_eq!(a.calls, 2);
        let run = rows.iter().find(|r| r.name == "run").unwrap();
        assert_eq!(run.self_us, 100); // 1000 - 900
                                      // Sorted by self time descending.
        assert!(rows.windows(2).all(|w| w[0].self_us >= w[1].self_us));
        // The rendered ranking is cut to the limit, under its header.
        let text = explain(&r).render(3);
        let table: Vec<&str> = text.lines().take_while(|l| !l.is_empty()).collect();
        assert!(table.len() <= 4);
        assert!(table[0].contains("SPAN"));
    }
}

//! Parallel-efficiency and critical-path analysis over a [`RunReport`].
//!
//! The rest of the crate *records* parallel execution — spans, per-thread
//! event rings, histograms. This module *explains* it, in the work/depth
//! vocabulary of Dhulipala–Blelloch–Shun: once total work is fixed, the
//! critical path (depth) and the serial fraction bound any further
//! speedup, and per-thread busy time tells you which worker is the
//! straggler.
//!
//! Two analyses, both pure functions of an already-collected report:
//!
//! * [`efficiency`] folds the per-thread begin/end timeline
//!   ([`RunReport::trace`]) into per-thread **busy time** (union of span
//!   intervals, so nesting never double-counts), **parallel efficiency**
//!   (total busy / (threads × wall)), **imbalance skew** (max/mean busy
//!   per thread), and the **serial fraction** of wall time during which
//!   at most one thread was busy — whose reciprocal is the Amdahl
//!   speedup ceiling.
//! * [`critical_path`] walks the span tree along the heaviest child at
//!   every level, attributing each step's **self time** (inclusive
//!   duration minus children): the longest serial chain through the
//!   tree, which parallelizing siblings cannot shorten.
//!
//! A timeline that lost events to ring wraparound would silently skew
//! every number here, so both analyses surface the drop counters the
//! drain recorded ([`Efficiency::dropped_events`] / per-thread
//! [`ThreadBusy::dropped`]) and set [`Efficiency::truncated`].

use crate::json::{write_escaped, write_f64};
use crate::report::{fmt_us, ReportNode, RunReport};

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

/// Result of [`efficiency`]: how well the wall-clock window was covered
/// by concurrent useful work.
#[derive(Clone, Debug, PartialEq)]
pub struct Efficiency {
    /// Analyzed wall window, microseconds: the extent of the trace
    /// timeline when events exist, else the root span's duration.
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

/// Result of [`critical_path`]: the longest serial chain through the
/// span tree.
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

/// Analyze the per-thread timeline of `report` (see [`Efficiency`]).
///
/// Deterministic: a pure fold over the recorded events, so the same
/// report file yields byte-identical output no matter how many threads
/// the *analyzing* process runs.
pub fn efficiency(report: &RunReport) -> Efficiency {
    // Per-thread busy intervals: track span nesting depth per tid; the
    // thread is busy from the event that takes depth 0→1 until the one
    // that returns it to 0. Events within a tid are in ring order, which
    // is timestamp-monotone.
    let mut tids: Vec<u32> = report.trace.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    let mut intervals: Vec<(u64, u64)> = Vec::new();
    let mut per_thread = Vec::with_capacity(tids.len());
    for &tid in &tids {
        let mut depth = 0u32;
        let mut opened = 0u64;
        let mut busy = 0u64;
        let mut events = 0u64;
        for ev in report.trace.iter().filter(|e| e.tid == tid) {
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

    let wall_us = if report.trace.is_empty() {
        report.root.duration_us
    } else {
        let lo = report.trace.iter().map(|e| e.ts_us).min().unwrap_or(0);
        let hi = report.trace.iter().map(|e| e.ts_us).max().unwrap_or(0);
        hi - lo
    };
    let threads = per_thread.len();
    let total_busy_us: u64 = per_thread.iter().map(|t| t.busy_us).sum();
    let denom = threads as f64 * wall_us as f64;
    let parallel_efficiency_pct = if denom > 0.0 {
        100.0 * total_busy_us as f64 / denom
    } else {
        0.0
    };
    let mean_busy = if threads > 0 {
        total_busy_us as f64 / threads as f64
    } else {
        0.0
    };
    let max_busy = per_thread.iter().map(|t| t.busy_us).max().unwrap_or(0);
    let imbalance_skew = if mean_busy > 0.0 {
        max_busy as f64 / mean_busy
    } else {
        1.0
    };

    // Serial time: sweep the merged busy intervals and sum the stretches
    // of the wall window with concurrency ≤ 1.
    let serial_us = if report.trace.is_empty() {
        wall_us
    } else {
        let lo = report.trace.iter().map(|e| e.ts_us).min().unwrap_or(0);
        let hi = lo + wall_us;
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
        serial.min(wall_us)
    };
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
pub fn critical_path(report: &RunReport) -> CriticalPath {
    fn self_us(node: &ReportNode) -> u64 {
        node.duration_us
            .saturating_sub(node.children.iter().map(|c| c.duration_us).sum())
    }
    let mut steps = Vec::new();
    let mut node = &report.root;
    let mut depth = 0usize;
    loop {
        steps.push(CritStep {
            name: node.name.clone(),
            depth,
            total_us: node.duration_us,
            self_us: self_us(node),
            calls: node.calls,
        });
        let Some(heaviest) = node.children.iter().max_by(|a, b| {
            // max_by keeps the *last* max; compare so earlier children
            // win ties (strictly-greater replaces).
            a.duration_us
                .cmp(&b.duration_us)
                .then(std::cmp::Ordering::Greater)
        }) else {
            break;
        };
        // `then(Greater)` above makes equal-duration comparisons resolve
        // toward the earlier element; guard against an empty-duration
        // descent looping forever is unnecessary (children are finite).
        node = heaviest;
        depth += 1;
    }
    let critical_path_us = steps.iter().map(|s| s.self_us).sum();
    CriticalPath {
        critical_path_us,
        steps,
        span_count: report.root.span_count(),
    }
}

impl Efficiency {
    /// Compact JSON object (one line), schema-stable for scripts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"wall_us\":{}", self.wall_us));
        out.push_str(&format!(",\"threads\":{}", self.threads));
        out.push_str(&format!(",\"total_busy_us\":{}", self.total_busy_us));
        out.push_str(",\"parallel_efficiency_pct\":");
        write_f64(&mut out, round2(self.parallel_efficiency_pct));
        out.push_str(",\"imbalance_skew\":");
        write_f64(&mut out, round2(self.imbalance_skew));
        out.push_str(&format!(",\"serial_us\":{}", self.serial_us));
        out.push_str(",\"serial_fraction_pct\":");
        write_f64(&mut out, round2(self.serial_fraction_pct));
        out.push_str(",\"speedup_ceiling\":");
        write_f64(&mut out, round2(self.speedup_ceiling));
        out.push_str(&format!(",\"dropped_events\":{}", self.dropped_events));
        out.push_str(&format!(",\"truncated\":{}", self.truncated));
        out.push_str(",\"per_thread\":[");
        for (i, t) in self.per_thread.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"tid\":{},\"busy_us\":{},\"events\":{},\"dropped\":{}}}",
                t.tid, t.busy_us, t.events, t.dropped
            ));
        }
        out.push_str("]}");
        out
    }

    /// Human rendering, one fact per line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "parallel efficiency {:.1}%  (busy {} across {} thread(s) x {} wall)\n",
            self.parallel_efficiency_pct,
            fmt_us(self.total_busy_us),
            self.threads,
            fmt_us(self.wall_us),
        );
        out.push_str(&format!(
            "imbalance skew {:.2}  (max/mean busy per thread)\n",
            self.imbalance_skew
        ));
        out.push_str(&format!(
            "serial fraction {:.1}%  ({} serial; speedup ceiling {:.1}x)\n",
            self.serial_fraction_pct,
            fmt_us(self.serial_us),
            self.speedup_ceiling
        ));
        if self.truncated {
            out.push_str(&format!(
                "WARNING: timeline truncated, {} event(s) dropped — numbers are lower bounds\n",
                self.dropped_events
            ));
        }
        for t in &self.per_thread {
            let pct = if self.wall_us > 0 {
                100.0 * t.busy_us as f64 / self.wall_us as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  tid {:>3}  busy {:>10}  ({:>5.1}% of wall, {} events{})\n",
                t.tid,
                fmt_us(t.busy_us),
                pct,
                t.events,
                if t.dropped > 0 {
                    format!(", {} dropped", t.dropped)
                } else {
                    String::new()
                }
            ));
        }
        out
    }
}

impl CriticalPath {
    /// Compact JSON object (one line), schema-stable for scripts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!("\"critical_path_us\":{}", self.critical_path_us));
        out.push_str(&format!(",\"span_count\":{}", self.span_count));
        out.push_str(",\"steps\":[");
        for (i, s) in self.steps.iter().enumerate() {
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
        out.push_str("]}");
        out
    }

    /// Human rendering: the chain with per-step self-time shares.
    pub fn render(&self) -> String {
        let mut out = format!(
            "critical path {}  ({} step(s) through {} span(s))\n",
            fmt_us(self.critical_path_us),
            self.steps.len(),
            self.span_count
        );
        for s in &self.steps {
            let pct = if self.critical_path_us > 0 {
                100.0 * s.self_us as f64 / self.critical_path_us as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:indent$}{}  total {}  self {}  ({:.1}% of path, {} call(s))\n",
                "",
                s.name,
                fmt_us(s.total_us),
                fmt_us(s.self_us),
                pct,
                s.calls,
                indent = s.depth * 2
            ));
        }
        out
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
        assert!(e.render().contains("truncated"));
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
        let r = report_with(Vec::new(), node("root", 500, Vec::new()));
        let e = efficiency(&r);
        assert_eq!(e.threads, 0);
        assert_eq!(e.wall_us, 500);
        assert_eq!(e.parallel_efficiency_pct, 0.0);
        let c = critical_path(&r);
        assert_eq!(c.critical_path_us, 500);
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
        let e = efficiency(&r);
        let parsed = crate::Json::parse(&e.to_json()).expect("efficiency json parses");
        assert_eq!(parsed.get("threads").and_then(crate::Json::as_u64), Some(2));
        assert_eq!(
            parsed
                .get("per_thread")
                .and_then(crate::Json::as_arr)
                .map(<[crate::Json]>::len),
            Some(2)
        );
        let c = critical_path(&r);
        let parsed = crate::Json::parse(&c.to_json()).expect("critical-path json parses");
        assert_eq!(
            parsed.get("critical_path_us").and_then(crate::Json::as_u64),
            Some(1000)
        );
    }
}

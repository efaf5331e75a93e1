//! The harness's own recorder. Every public call into a layer goes
//! through [`Recorder::time`], which always keeps the call's duration (a
//! per-layer `_ms` metric is the time a pass spent under one span name,
//! in the fastest pass) and, only in the traced pass, also keeps a
//! span (name, start, end, parent, thread, pass, id) and switches
//! `snap_obs` collection on around each top-level call so the program's
//! own counters can be read from `snap_obs::finish()`.
//!
//! Spans stay in memory and are written once, when the run ends, in
//! Chrome trace-event form.

use crate::stats::median;
use snap::obs::json::Json;
use snap::obs::ReportNode;
use std::collections::BTreeMap;
use std::time::Instant;

/// One traced call.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, in the same span list.
    pub parent: Option<usize>,
    pub tid: u32,
    pub pass: u32,
    /// Request id for serve spans, 0 elsewhere.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Counters of one `snap_obs` report, summed over its span tree.
pub type ObsCounters = BTreeMap<String, u64>;

pub struct Recorder {
    epoch: Instant,
    tid: u32,
    pass: u32,
    /// Seconds per call, by span name, over all passes.
    samples: BTreeMap<&'static str, Vec<f64>>,
    /// Seconds per pass, by span name: the calls of one pass summed.
    per_pass: BTreeMap<&'static str, Vec<f64>>,
    pass_sums: BTreeMap<&'static str, f64>,
    /// Median seconds per call within each pass, by span name, and how
    /// many of the name's samples earlier passes recorded.
    per_pass_p50: BTreeMap<&'static str, Vec<f64>>,
    pass_marks: BTreeMap<&'static str, usize>,
    /// Seconds in top-level calls during the current pass: the pass's
    /// fixed work, excluding the harness's own checks between calls.
    pass_busy: f64,
    depth: usize,
    tracing: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// `snap_obs` counters by top-level span name (traced pass only).
    obs: BTreeMap<&'static str, ObsCounters>,
    obs_spans: usize,
}

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            tid,
            pass: 0,
            samples: BTreeMap::new(),
            per_pass: BTreeMap::new(),
            pass_sums: BTreeMap::new(),
            per_pass_p50: BTreeMap::new(),
            pass_marks: BTreeMap::new(),
            pass_busy: 0.0,
            depth: 0,
            tracing: false,
            spans: Vec::new(),
            open: Vec::new(),
            obs: BTreeMap::new(),
            obs_spans: 0,
        }
    }

    /// A recorder for another thread of the same run (same clock).
    pub fn for_thread(&self, tid: u32) -> Recorder {
        let mut r = Recorder::new(self.epoch, tid);
        r.pass = self.pass;
        r.tracing = self.tracing;
        r
    }

    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
    }

    /// Start a pass: resets the busy-time accumulator and, when tracing,
    /// opens the `pass` span every call of the pass hangs under.
    pub fn begin_pass(&mut self, pass: u32) {
        self.pass = pass;
        self.pass_busy = 0.0;
        if self.tracing {
            let now = self.epoch.elapsed().as_nanos() as u64;
            self.spans.push(Span {
                name: "pass",
                start_ns: now,
                end_ns: now,
                parent: None,
                tid: self.tid,
                pass,
                id: 0,
            });
            self.open.push(self.spans.len() - 1);
        }
    }

    /// End a pass: keep each span name's total and median call for the
    /// pass and close the span [`Self::begin_pass`] opened.
    pub fn end_pass(&mut self) {
        for (name, sum) in std::mem::take(&mut self.pass_sums) {
            self.per_pass.entry(name).or_default().push(sum);
        }
        for (name, samples) in &self.samples {
            let mark = self.pass_marks.entry(name).or_default();
            if samples.len() > *mark {
                let p50 = median(&samples[*mark..]);
                self.per_pass_p50.entry(name).or_default().push(p50);
                *mark = samples.len();
            }
        }
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Seconds spent in top-level calls since [`Self::begin_pass`].
    pub fn pass_busy(&self) -> f64 {
        self.pass_busy
    }

    /// Time one call into a layer.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        self.time_id(name, 0, f)
    }

    /// [`Self::time`] with the request id the span belongs to.
    pub fn time_id<R>(
        &mut self,
        name: &'static str,
        id: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        let top = self.depth == 0;
        let observe = self.tracing && top && !snap::obs::is_enabled();
        let slot = self.tracing.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.open.last().copied(),
                tid: self.tid,
                pass: self.pass,
                id,
            });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        if observe {
            snap::obs::enable();
        }
        self.depth += 1;
        let start = Instant::now();
        let out = f(self);
        let dur = start.elapsed();
        self.depth -= 1;
        if observe {
            if let Some(report) = snap::obs::finish() {
                self.obs_spans += report.root.span_count();
                let sums = self.obs.entry(name).or_default();
                sum_counters(&report.root, sums);
            }
        }
        if let Some(i) = slot {
            let start_ns = start.duration_since(self.epoch).as_nanos() as u64;
            self.spans[i].start_ns = start_ns;
            self.spans[i].end_ns = start_ns + dur.as_nanos() as u64;
            self.open.pop();
        }
        let secs = dur.as_secs_f64();
        self.samples.entry(name).or_default().push(secs);
        *self.pass_sums.entry(name).or_default() += secs;
        if top {
            self.pass_busy += secs;
        }
        out
    }

    /// Fold another thread's recorder into this one. Its root spans hang
    /// under whatever span is open here (the pass that spawned the thread).
    pub fn merge(&mut self, other: Recorder) {
        let base = self.spans.len();
        let root = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(root);
            s
        }));
        for (name, mut v) in other.samples {
            self.samples.entry(name).or_default().append(&mut v);
        }
        for (name, counters) in other.obs {
            let sums = self.obs.entry(name).or_default();
            for (k, v) in counters {
                *sums.entry(k).or_default() += v;
            }
        }
        self.obs_spans += other.obs_spans;
    }

    /// Seconds of every call recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Seconds each pass spent in calls recorded under `name`.
    pub fn per_pass(&self, name: &str) -> &[f64] {
        self.per_pass.get(name).map_or(&[], Vec::as_slice)
    }

    /// The median call recorded under `name` in each pass, in seconds.
    pub fn per_pass_p50(&self, name: &str) -> &[f64] {
        self.per_pass_p50.get(name).map_or(&[], Vec::as_slice)
    }

    /// Record a duration measured outside [`Self::time`] (a client's
    /// line-in to line-out latency, classified after the clock stopped).
    pub fn add_sample(&mut self, name: &'static str, secs: f64) {
        self.samples.entry(name).or_default().push(secs);
    }

    /// Drop all duration samples (after the warm-up pass).
    pub fn clear_samples(&mut self) {
        self.samples.clear();
        self.per_pass.clear();
        self.per_pass_p50.clear();
        self.pass_marks.clear();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A `snap_obs` counter summed over the top-level call `span`.
    pub fn obs_counter(&self, span: &str, counter: &str) -> u64 {
        self.obs
            .get(span)
            .and_then(|c| c.get(counter))
            .copied()
            .unwrap_or(0)
    }

    /// Spans recorded by both recorders during the traced pass.
    pub fn span_count(&self) -> usize {
        self.spans.len() + self.obs_spans
    }
}

fn sum_counters(node: &ReportNode, into: &mut ObsCounters) {
    for (name, v) in &node.counters {
        *into.entry(name.clone()).or_default() += v;
    }
    for child in &node.children {
        sum_counters(child, into);
    }
}

/// Per span name: total self time in nanoseconds and call count. A
/// span's self time is its duration minus the part of that interval its
/// child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(lo, hi) in kids.iter() {
            let lo = lo.clamp(reach, s.end_ns);
            let hi = hi.clamp(reach, s.end_ns);
            covered += hi - lo;
            reach = hi;
        }
        let e = out.entry(s.name).or_default();
        e.0 += s.duration_ns() - covered;
        e.1 += 1;
    }
    out
}

/// Chrome trace-event JSON (complete `X` events, microsecond times),
/// the form `snap-cli --trace-out` emits, so Perfetto opens it. `pid`
/// tells the workloads apart once their traces are joined.
pub fn chrome_trace(workload: &str, pid: usize, spans: &[Span]) -> String {
    let num = |x: u64| Json::Num(x as f64);
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![
                ("workload".to_string(), Json::Str(workload.to_string())),
                ("span".to_string(), num(i as u64)),
                ("pass".to_string(), num(u64::from(s.pass))),
                ("id".to_string(), num(s.id)),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), num(p as u64)));
            }
            Json::Obj(vec![
                ("name".to_string(), Json::Str(s.name.to_string())),
                ("cat".to_string(), Json::Str("benchmark".to_string())),
                ("ph".to_string(), Json::Str("X".to_string())),
                ("ts".to_string(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".to_string(), Json::Num(s.duration_ns() as f64 / 1e3)),
                ("pid".to_string(), num(pid as u64)),
                ("tid".to_string(), num(u64::from(s.tid))),
                ("args".to_string(), Json::Obj(args)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".to_string(), Json::Arr(events)),
        ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
    ])
    .to_string_compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            tid: 1,
            pass: 0,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("pass", 0, 100, None),
            span("a", 10, 40, Some(0)),
            // Overlaps `a` on [30, 40): covered once, not twice.
            span("b", 30, 60, Some(0)),
            span("leaf", 12, 20, Some(1)),
            // Sticks out past the parent's end: only [90, 100) counts.
            span("late", 90, 130, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["pass"], (100 - 50 - 10, 1));
        assert_eq!(st["a"], (30 - 8, 1));
        assert_eq!(st["b"], (30, 1));
        assert_eq!(st["leaf"], (8, 1));
        assert_eq!(st["late"], (40, 1));
    }

    #[test]
    fn self_time_sums_spans_of_one_name() {
        let spans = [
            span("call", 0, 10, None),
            span("call", 20, 50, None),
            span("inner", 25, 30, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st["call"], (10 + 25, 2));
    }

    #[test]
    fn time_nests_spans_and_keeps_samples() {
        let mut rec = Recorder::new(Instant::now(), 1);
        rec.set_tracing(true);
        rec.begin_pass(3);
        let x = rec.time("outer", |r| r.time_id("inner", 9, |_| 7));
        rec.end_pass();
        assert_eq!(x, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("pass", None));
        assert_eq!((spans[1].name, spans[1].parent), ("outer", Some(0)));
        assert_eq!((spans[2].name, spans[2].parent), ("inner", Some(1)));
        assert_eq!((spans[2].pass, spans[2].id), (3, 9));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(spans[1].start_ns <= spans[2].start_ns && spans[2].end_ns <= spans[1].end_ns);
        assert_eq!(rec.samples("outer").len(), 1);
        assert_eq!(rec.samples("inner").len(), 1);
        assert_eq!(rec.per_pass("outer"), rec.samples("outer"));
        assert_eq!(rec.per_pass_p50("inner"), rec.samples("inner"));
        // Only the top-level call counts toward the pass's busy time.
        assert_eq!(rec.pass_busy(), rec.samples("outer")[0]);
    }

    #[test]
    fn merge_rebases_parents() {
        let mut a = Recorder::new(Instant::now(), 1);
        a.set_tracing(true);
        a.begin_pass(1);
        a.time("x", |_| ());
        let mut b = a.for_thread(2);
        b.time("y", |r| r.time("z", |_| ()));
        a.merge(b);
        a.end_pass();
        let spans = a.spans();
        assert_eq!(
            (spans[2].name, spans[2].parent, spans[2].tid),
            ("y", Some(0), 2)
        );
        assert_eq!((spans[3].name, spans[3].parent), ("z", Some(2)));
    }

    #[test]
    fn chrome_trace_parses_back() {
        let spans = [span("pass", 0, 2_000, None), span("a", 500, 1_500, Some(0))];
        let text = chrome_trace("load", 1, &spans);
        let json = Json::parse(&text).expect("valid json");
        let events = json.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(1.0));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
    }
}

//! Immutable snapshot of a collected span tree: JSON in/out, a human
//! renderer, and structural queries used by tests and the CLI.

use crate::hist::HistSnapshot;
use crate::json::{Json, JsonError};
use crate::ring::TraceEvent;

/// Memory attributed to one span by the tracking allocator (see
/// [`crate::alloc`]): thread-local deltas between span open and close,
/// summed over activations. Absent (`None` on [`ReportNode`], no JSON
/// field) for reports collected without memory tracking, so pre-memory
/// reports and consumers stay compatible.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Bytes allocated on the coordinating thread inside the span.
    pub allocated: u64,
    /// Bytes freed on the coordinating thread inside the span.
    pub freed: u64,
    /// Allocation events inside the span.
    pub allocs: u64,
    /// Peak live bytes above the span's entry level (max over
    /// activations for coalesced spans).
    pub peak_delta: u64,
}

impl MemStats {
    /// True when every field is zero (such stats are not emitted).
    pub fn is_empty(&self) -> bool {
        *self == MemStats::default()
    }

    fn to_json(self) -> Json {
        Json::Obj(vec![
            ("allocated".to_string(), Json::Num(self.allocated as f64)),
            ("freed".to_string(), Json::Num(self.freed as f64)),
            ("allocs".to_string(), Json::Num(self.allocs as f64)),
            ("peak_delta".to_string(), Json::Num(self.peak_delta as f64)),
        ])
    }

    fn from_json(value: &Json) -> MemStats {
        let field = |name: &str| value.get(name).and_then(Json::as_u64).unwrap_or(0);
        MemStats {
            allocated: field("allocated"),
            freed: field("freed"),
            allocs: field("allocs"),
            peak_delta: field("peak_delta"),
        }
    }
}

/// One live-bytes sample on the trace timebase, recorded at span
/// boundaries while both tracing and memory tracking are on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemSample {
    /// Microseconds since the trace epoch (same clock as
    /// [`TraceEvent::ts_us`]).
    pub ts_us: u64,
    /// Global live bytes at the sample instant.
    pub bytes_live: u64,
}

/// `1234567` → `"1.2 MiB"`: human-readable byte volumes for renderings.
pub(crate) fn fmt_bytes(bytes: u64) -> String {
    const KIB: u64 = 1 << 10;
    const MIB: u64 = 1 << 20;
    const GIB: u64 = 1 << 30;
    if bytes >= GIB {
        format!("{:.2} GiB", bytes as f64 / GIB as f64)
    } else if bytes >= MIB {
        format!("{:.1} MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1} KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes} B")
    }
}

/// One span in a finished report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReportNode {
    pub name: String,
    /// Microseconds from the run epoch to the first activation.
    pub start_us: u64,
    /// Total time inside the span, microseconds, summed over activations.
    pub duration_us: u64,
    /// Number of completed activations (coalesced same-name spans).
    pub calls: u64,
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub meta: Vec<(String, String)>,
    /// Latency histograms attached to this span (empty for reports from
    /// before the profiling layer; the JSON field is optional).
    pub hists: Vec<(String, HistSnapshot)>,
    /// Memory attribution (None for reports collected without the
    /// tracking allocator; the JSON field is optional).
    pub mem: Option<MemStats>,
    pub children: Vec<ReportNode>,
}

impl ReportNode {
    /// Counter `name` on this node.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Gauge `name` on this node.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram `name` on this node.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Metadata `name` on this node.
    pub fn meta_value(&self, name: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First node named `name` in this subtree (pre-order), including
    /// this node itself.
    pub fn find(&self, name: &str) -> Option<&ReportNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }

    /// Nesting invariant: every child starts no earlier than its parent
    /// and, for single-activation spans, ends no later (with a small
    /// slack for timer granularity). Coalesced spans (calls > 1) sum
    /// durations across activations, so only the start bound applies.
    pub fn well_formed(&self) -> bool {
        const SLACK_US: u64 = 50;
        let end = self.start_us + self.duration_us + SLACK_US;
        self.children.iter().all(|c| {
            c.start_us + SLACK_US >= self.start_us
                && (self.calls > 1 || c.start_us + c.duration_us <= end + SLACK_US)
                && c.well_formed()
        })
    }

    /// Total spans in this subtree, including this node.
    pub fn span_count(&self) -> usize {
        1 + self.children.iter().map(|c| c.span_count()).sum::<usize>()
    }

    fn to_json(&self) -> Json {
        let mut members = vec![
            ("name".to_string(), Json::Str(self.name.clone())),
            ("start_us".to_string(), Json::Num(self.start_us as f64)),
            (
                "duration_us".to_string(),
                Json::Num(self.duration_us as f64),
            ),
            ("calls".to_string(), Json::Num(self.calls as f64)),
            (
                "counters".to_string(),
                object(&self.counters, |v| Json::Num(*v as f64)),
            ),
            (
                "gauges".to_string(),
                object(&self.gauges, |v| Json::Num(*v)),
            ),
            (
                "meta".to_string(),
                object(&self.meta, |v| Json::Str(v.clone())),
            ),
            (
                "children".to_string(),
                Json::Arr(self.children.iter().map(|c| c.to_json()).collect()),
            ),
        ];
        // Optional field, emitted only when present so pre-profiling
        // consumers (and committed baseline reports) stay valid.
        if !self.hists.is_empty() {
            members.push((
                "hists".to_string(),
                object(&self.hists, HistSnapshot::to_json),
            ));
        }
        if let Some(mem) = self.mem.filter(|m| !m.is_empty()) {
            members.push(("mem".to_string(), mem.to_json()));
        }
        Json::Obj(members)
    }

    fn from_json(value: &Json) -> Result<ReportNode, JsonError> {
        let missing = |what: &str| JsonError {
            offset: 0,
            message: format!("report node missing or malformed field: {what}"),
        };
        let count = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| missing(key))
        };
        let members = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_obj)
                .ok_or_else(|| missing(key))
        };
        Ok(ReportNode {
            name: value
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| missing("name"))?
                .to_string(),
            start_us: count("start_us")?,
            duration_us: count("duration_us")?,
            calls: count("calls")?,
            counters: parse_members(members("counters")?, Json::as_u64)
                .ok_or_else(|| missing("counter value"))?,
            gauges: parse_members(members("gauges")?, Json::as_f64)
                .ok_or_else(|| missing("gauge value"))?,
            meta: parse_members(members("meta")?, |v| v.as_str().map(str::to_string))
                .ok_or_else(|| missing("meta value"))?,
            hists: match value.get("hists") {
                None => Vec::new(),
                Some(_) => parse_members(members("hists")?, |v| HistSnapshot::from_json(v).ok())
                    .ok_or_else(|| missing("histogram"))?,
            },
            mem: value.get("mem").map(MemStats::from_json),
            children: value
                .get("children")
                .and_then(Json::as_arr)
                .ok_or_else(|| missing("children"))?
                .iter()
                .map(ReportNode::from_json)
                .collect::<Result<_, _>>()?,
        })
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let indent = "  ".repeat(depth);
        out.push_str(&indent);
        out.push_str(&self.name);
        // Metadata-only nodes (hand-built banners) carry no timing.
        if self.duration_us > 0 || self.calls > 0 {
            out.push_str(&format!("  {}", fmt_us(self.duration_us)));
        }
        if self.calls > 1 {
            out.push_str(&format!("  ({} calls)", self.calls));
        }
        for (name, value) in &self.meta {
            out.push_str(&format!("  {name}={value}"));
        }
        out.push('\n');
        for (name, value) in &self.counters {
            out.push_str(&format!("{indent}  · {name} = {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("{indent}  · {name} = {value:.6}\n"));
        }
        for (name, h) in &self.hists {
            out.push_str(&format!(
                "{indent}  · {name}: n={} p50={} p90={} p99={} max={} mean={:.1}\n",
                h.count,
                h.p50(),
                h.p90(),
                h.p99(),
                h.max,
                h.mean(),
            ));
        }
        if let Some(mem) = self.mem.filter(|m| !m.is_empty()) {
            out.push_str(&format!(
                "{indent}  · mem: alloc={} free={} peak+={} ({} allocs)\n",
                fmt_bytes(mem.allocated),
                fmt_bytes(mem.freed),
                fmt_bytes(mem.peak_delta),
                mem.allocs,
            ));
        }
        for child in &self.children {
            child.render_into(out, depth + 1);
        }
    }
}

pub(crate) fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// `pairs` as a JSON object, each value through `value`.
fn object<T>(pairs: &[(String, T)], value: impl Fn(&T) -> Json) -> Json {
    Json::Obj(pairs.iter().map(|(n, v)| (n.clone(), value(v))).collect())
}

/// An object's members with every value through `parse`; `None` when
/// one does not parse.
fn parse_members<T>(
    members: &[(String, Json)],
    parse: impl Fn(&Json) -> Option<T>,
) -> Option<Vec<(String, T)>> {
    members
        .iter()
        .map(|(n, v)| Some((n.clone(), parse(v)?)))
        .collect()
}

/// A finished observability run: the root span plus everything recorded
/// under it. Produced by [`crate::take_report`]/[`crate::finish`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunReport {
    pub root: ReportNode,
    /// Begin/end timeline events drained from the per-thread rings
    /// (empty unless tracing was enabled; see [`crate::enable_tracing`]).
    pub trace: Vec<TraceEvent>,
    /// Live-bytes samples on the trace timebase (empty unless both
    /// tracing and memory tracking were on); exported as Perfetto
    /// counter events by [`RunReport::to_chrome_trace`].
    pub mem_samples: Vec<MemSample>,
}

impl RunReport {
    /// Serialize the whole tree as compact JSON. Trace events, when
    /// present, ride along as a top-level `trace_events` array.
    pub fn to_json(&self) -> String {
        let mut value = self.root.to_json();
        if let Json::Obj(members) = &mut value {
            if !self.trace.is_empty() {
                members.push((
                    "trace_events".to_string(),
                    Json::Arr(self.trace.iter().map(trace_event_to_json).collect()),
                ));
            }
            // Compact pairs: [[ts_us, bytes_live], ...].
            if !self.mem_samples.is_empty() {
                members.push((
                    "mem_samples".to_string(),
                    Json::Arr(
                        self.mem_samples
                            .iter()
                            .map(|s| {
                                Json::Arr(vec![
                                    Json::Num(s.ts_us as f64),
                                    Json::Num(s.bytes_live as f64),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
        }
        value.to_string_compact()
    }

    /// Parse a report previously produced by [`RunReport::to_json`].
    pub fn from_json(text: &str) -> Result<RunReport, JsonError> {
        let value = Json::parse(text)?;
        let trace = match value.get("trace_events") {
            None => Vec::new(),
            Some(t) => t
                .as_arr()
                .ok_or_else(|| JsonError {
                    offset: 0,
                    message: "trace_events is not an array".to_string(),
                })?
                .iter()
                .map(trace_event_from_json)
                .collect::<Result<_, _>>()?,
        };
        let mem_samples = match value.get("mem_samples") {
            None => Vec::new(),
            Some(s) => s
                .as_arr()
                .ok_or_else(|| JsonError {
                    offset: 0,
                    message: "mem_samples is not an array".to_string(),
                })?
                .iter()
                .map(mem_sample_from_json)
                .collect::<Result<_, _>>()?,
        };
        Ok(RunReport {
            root: ReportNode::from_json(&value)?,
            trace,
            mem_samples,
        })
    }

    /// Serialize the trace timeline in Chrome trace-event format (an
    /// object with a `traceEvents` array of `B`/`E` records, plus `C`
    /// counter records carrying the live-bytes memory track when
    /// memory samples are present), loadable in Perfetto /
    /// `chrome://tracing`.
    pub fn to_chrome_trace(&self) -> String {
        let mut events: Vec<Json> = self
            .trace
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("name".to_string(), Json::Str(e.name.clone())),
                    ("cat".to_string(), Json::Str("snap".to_string())),
                    (
                        "ph".to_string(),
                        Json::Str(if e.begin { "B" } else { "E" }.to_string()),
                    ),
                    ("ts".to_string(), Json::Num(e.ts_us as f64)),
                    ("pid".to_string(), Json::Num(1.0)),
                    ("tid".to_string(), Json::Num(e.tid as f64)),
                ])
            })
            .collect();
        // Perfetto renders same-pid counter events as a track graph;
        // tid 0 never collides with a real ring (rings start at 1).
        events.extend(self.mem_samples.iter().map(|s| {
            Json::Obj(vec![
                ("name".to_string(), Json::Str("mem.bytes_live".to_string())),
                ("cat".to_string(), Json::Str("snap".to_string())),
                ("ph".to_string(), Json::Str("C".to_string())),
                ("ts".to_string(), Json::Num(s.ts_us as f64)),
                ("pid".to_string(), Json::Num(1.0)),
                ("tid".to_string(), Json::Num(0.0)),
                (
                    "args".to_string(),
                    Json::Obj(vec![(
                        "bytes_live".to_string(),
                        Json::Num(s.bytes_live as f64),
                    )]),
                ),
            ])
        }));
        Json::Obj(vec![
            ("traceEvents".to_string(), Json::Arr(events)),
            ("displayTimeUnit".to_string(), Json::Str("ms".to_string())),
        ])
        .to_string_compact()
    }

    /// Render an indented human-readable tree (the `--trace` view).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.root.render_into(&mut out, 0);
        out
    }

    /// First node named `name`, searching pre-order from the root.
    pub fn find(&self, name: &str) -> Option<&ReportNode> {
        self.root.find(name)
    }

    /// Counter `name` summed over every node in the tree.
    pub fn total_counter(&self, name: &str) -> u64 {
        fn walk(node: &ReportNode, name: &str, acc: &mut u64) {
            *acc += node.counter(name).unwrap_or(0);
            for c in &node.children {
                walk(c, name, acc);
            }
        }
        let mut acc = 0;
        walk(&self.root, name, &mut acc);
        acc
    }
}

fn trace_event_to_json(e: &TraceEvent) -> Json {
    Json::Obj(vec![
        ("name".to_string(), Json::Str(e.name.clone())),
        ("tid".to_string(), Json::Num(e.tid as f64)),
        (
            "ph".to_string(),
            Json::Str(if e.begin { "B" } else { "E" }.to_string()),
        ),
        ("ts".to_string(), Json::Num(e.ts_us as f64)),
    ])
}

fn mem_sample_from_json(value: &Json) -> Result<MemSample, JsonError> {
    let malformed = || JsonError {
        offset: 0,
        message: "mem sample is not a [ts_us, bytes_live] pair".to_string(),
    };
    let pair = value.as_arr().ok_or_else(malformed)?;
    if pair.len() != 2 {
        return Err(malformed());
    }
    Ok(MemSample {
        ts_us: pair[0].as_u64().ok_or_else(malformed)?,
        bytes_live: pair[1].as_u64().ok_or_else(malformed)?,
    })
}

fn trace_event_from_json(value: &Json) -> Result<TraceEvent, JsonError> {
    let missing = |what: &str| JsonError {
        offset: 0,
        message: format!("trace event missing or malformed field: {what}"),
    };
    Ok(TraceEvent {
        name: value
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("name"))?
            .to_string(),
        tid: value
            .get("tid")
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("tid"))? as u32,
        begin: match value.get("ph").and_then(Json::as_str) {
            Some("B") => true,
            Some("E") => false,
            _ => return Err(missing("ph")),
        },
        ts_us: value
            .get("ts")
            .and_then(Json::as_u64)
            .ok_or_else(|| missing("ts"))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            root: ReportNode {
                name: "run".to_string(),
                start_us: 0,
                duration_us: 1500,
                calls: 1,
                counters: vec![("n".to_string(), 256)],
                gauges: vec![("modularity".to_string(), 0.41)],
                meta: vec![("seed".to_string(), "7".to_string())],
                hists: vec![],
                mem: None,
                children: vec![ReportNode {
                    name: "bfs".to_string(),
                    start_us: 10,
                    duration_us: 900,
                    calls: 2,
                    counters: vec![("edges_examined".to_string(), 4096)],
                    gauges: vec![],
                    meta: vec![],
                    hists: vec![(
                        "level_us".to_string(),
                        HistSnapshot {
                            buckets: vec![(5, 3), (7, 1)],
                            count: 4,
                            sum: 250,
                            max: 90,
                        },
                    )],
                    mem: Some(MemStats {
                        allocated: 2_621_440,
                        freed: 1_048_576,
                        allocs: 17,
                        peak_delta: 1_572_864,
                    }),
                    children: vec![],
                }],
            },
            trace: vec![
                TraceEvent {
                    name: "bfs".to_string(),
                    tid: 1,
                    begin: true,
                    ts_us: 10,
                },
                TraceEvent {
                    name: "bfs".to_string(),
                    tid: 1,
                    begin: false,
                    ts_us: 910,
                },
            ],
            mem_samples: vec![
                MemSample {
                    ts_us: 10,
                    bytes_live: 4096,
                },
                MemSample {
                    ts_us: 910,
                    bytes_live: 1_572_864,
                },
            ],
        }
    }

    #[test]
    fn json_round_trip_preserves_tree() {
        let report = sample();
        let text = report.to_json();
        let back = RunReport::from_json(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn find_and_totals() {
        let report = sample();
        assert_eq!(
            report.find("bfs").unwrap().counter("edges_examined"),
            Some(4096)
        );
        assert_eq!(report.total_counter("edges_examined"), 4096);
        assert_eq!(report.root.span_count(), 2);
    }

    #[test]
    fn well_formedness_flags_bad_nesting() {
        let mut report = sample();
        assert!(report.root.well_formed());
        // A single-activation child that ends long after its parent is
        // not well-formed.
        report.root.children[0].calls = 1;
        report.root.children[0].duration_us = 10_000_000;
        assert!(!report.root.well_formed());
    }

    #[test]
    fn render_mentions_spans_and_counters() {
        let text = sample().render();
        assert!(text.contains("run"));
        assert!(text.contains("bfs"));
        assert!(text.contains("edges_examined = 4096"));
        assert!(text.contains("(2 calls)"));
        assert!(text.contains("seed=7"));
        // Histogram percentiles surface in the human rendering.
        assert!(text.contains("level_us: n=4 p50="), "{text}");
        assert!(text.contains("max=90"), "{text}");
        // Memory attribution renders human-readable byte volumes.
        assert!(text.contains("mem: alloc=2.5 MiB"), "{text}");
        assert!(text.contains("peak+=1.5 MiB (17 allocs)"), "{text}");
    }

    #[test]
    fn chrome_trace_is_valid_json_with_paired_events() {
        let trace = sample().to_chrome_trace();
        let value = Json::parse(&trace).unwrap();
        let events = value
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("B"));
        assert_eq!(events[1].get("ph").and_then(Json::as_str), Some("E"));
        assert_eq!(events[0].get("tid").and_then(Json::as_u64), Some(1));
        assert_eq!(events[0].get("ts").and_then(Json::as_u64), Some(10));
        // The memory track rides along as counter events on tid 0.
        assert_eq!(events[2].get("ph").and_then(Json::as_str), Some("C"));
        assert_eq!(
            events[2].get("name").and_then(Json::as_str),
            Some("mem.bytes_live")
        );
        assert_eq!(events[2].get("tid").and_then(Json::as_u64), Some(0));
        assert_eq!(
            events[3]
                .get("args")
                .and_then(|a| a.get("bytes_live"))
                .and_then(Json::as_u64),
            Some(1_572_864)
        );
    }

    #[test]
    fn reports_without_optional_fields_still_parse() {
        // A pre-profiling report: no hists, no trace_events, no mem.
        let legacy = r#"{"name":"run","start_us":0,"duration_us":5,"calls":1,
            "counters":{},"gauges":{},"meta":{},"children":[]}"#;
        let report = RunReport::from_json(legacy).unwrap();
        assert!(report.root.hists.is_empty());
        assert!(report.trace.is_empty());
        assert!(report.root.mem.is_none());
        assert!(report.mem_samples.is_empty());
    }

    #[test]
    fn fmt_bytes_picks_sensible_units() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(999), "999 B");
        assert_eq!(fmt_bytes(1536), "1.5 KiB");
        assert_eq!(fmt_bytes(3 << 20), "3.0 MiB");
        assert_eq!(fmt_bytes(5 << 30), "5.00 GiB");
    }

    #[test]
    fn from_json_rejects_malformed() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("not json").is_err());
    }
}

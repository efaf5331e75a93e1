//! Cross-run report diffing (`snap-cli obs diff`) and flamegraph-style
//! self-time aggregation (`snap-cli obs top`).
//!
//! Two span trees are aligned **by name-path**: the root pairs with the
//! root, and children pair when they have the same name under paired
//! parents (span coalescing guarantees names are unique per parent, so
//! the alignment is unambiguous). Spans present on only one side are
//! reported but never counted as regressions — a new span has no
//! baseline to regress against, and judging a removed span would flag
//! every refactor.

use crate::report::{fmt_bytes, MemStats, ReportNode, RunReport};

/// One aligned span pair (or an unmatched span from either side).
#[derive(Clone, Debug, PartialEq)]
pub struct DiffEntry {
    /// Slash-joined name path from the root, e.g. `run/bfs.hybrid`.
    pub path: String,
    /// Baseline duration, `None` when the span only exists in the
    /// current report.
    pub base_us: Option<u64>,
    /// Current duration, `None` when the span only exists in the
    /// baseline.
    pub cur_us: Option<u64>,
    /// Counter values on both sides (union of names), in baseline order
    /// then new-in-current order.
    pub counters: Vec<(String, Option<u64>, Option<u64>)>,
    /// Gauge values on both sides (union of names, same order rule).
    pub gauges: Vec<(String, Option<f64>, Option<f64>)>,
    /// Baseline memory attribution (when the baseline was collected
    /// with memory tracking).
    pub base_mem: Option<MemStats>,
    /// Current memory attribution.
    pub cur_mem: Option<MemStats>,
}

/// A memory regression on one aligned span: which metric grew, from
/// what baseline to what current value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MemRegression {
    pub path: String,
    /// `"allocated"` or `"peak_delta"`.
    pub metric: &'static str,
    pub base_bytes: u64,
    pub cur_bytes: u64,
}

impl DiffEntry {
    /// Signed percent change of wall time, when both sides are present
    /// and the baseline is nonzero.
    pub fn pct_change(&self) -> Option<f64> {
        match (self.base_us, self.cur_us) {
            (Some(b), Some(c)) if b > 0 => Some((c as f64 - b as f64) / b as f64 * 100.0),
            _ => None,
        }
    }

    /// Whether this entry regresses past `fail_over_pct` percent *and*
    /// by at least `min_us` microseconds of absolute growth (the floor
    /// keeps sub-millisecond spans from tripping percentage thresholds
    /// on timer noise).
    pub fn is_regression(&self, fail_over_pct: f64, min_us: u64) -> bool {
        match (self.base_us, self.cur_us) {
            (Some(b), Some(c)) => {
                c.saturating_sub(b) >= min_us
                    && (c as f64) > (b as f64) * (1.0 + fail_over_pct / 100.0)
            }
            _ => false,
        }
    }

    /// Memory regressions on this entry: `allocated` and `peak_delta`
    /// each judged with the same pct-plus-absolute-floor rule as wall
    /// time (`min_bytes` keeps tiny spans from tripping percentage
    /// thresholds on allocator jitter). Spans present on only one side
    /// — or without memory data on either side — never regress.
    pub fn mem_regressions(&self, fail_over_pct: f64, min_bytes: u64) -> Vec<MemRegression> {
        let (Some(base), Some(cur)) = (self.base_mem, self.cur_mem) else {
            return Vec::new();
        };
        let judge = |metric: &'static str, b: u64, c: u64| -> Option<MemRegression> {
            let grew = c.saturating_sub(b) >= min_bytes
                && (c as f64) > (b as f64) * (1.0 + fail_over_pct / 100.0);
            grew.then_some(MemRegression {
                path: self.path.clone(),
                metric,
                base_bytes: b,
                cur_bytes: c,
            })
        };
        [
            judge("allocated", base.allocated, cur.allocated),
            judge("peak_delta", base.peak_delta, cur.peak_delta),
        ]
        .into_iter()
        .flatten()
        .collect()
    }
}

/// Align two reports span-by-span (pre-order over the union tree).
pub fn diff(base: &RunReport, cur: &RunReport) -> Vec<DiffEntry> {
    let mut out = Vec::new();
    diff_nodes(Some(&base.root), Some(&cur.root), "", &mut out);
    out
}

fn diff_nodes(
    base: Option<&ReportNode>,
    cur: Option<&ReportNode>,
    prefix: &str,
    out: &mut Vec<DiffEntry>,
) {
    let name = base.or(cur).map(|n| n.name.as_str()).unwrap_or_default();
    let path = if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}/{name}")
    };

    let mut counters: Vec<(String, Option<u64>, Option<u64>)> = Vec::new();
    if let Some(b) = base {
        for (n, v) in &b.counters {
            counters.push((n.clone(), Some(*v), cur.and_then(|c| c.counter(n))));
        }
    }
    if let Some(c) = cur {
        for (n, v) in &c.counters {
            if base.is_none_or(|b| b.counter(n).is_none()) {
                counters.push((n.clone(), None, Some(*v)));
            }
        }
    }
    let mut gauges: Vec<(String, Option<f64>, Option<f64>)> = Vec::new();
    if let Some(b) = base {
        for (n, v) in &b.gauges {
            gauges.push((n.clone(), Some(*v), cur.and_then(|c| c.gauge(n))));
        }
    }
    if let Some(c) = cur {
        for (n, v) in &c.gauges {
            if base.is_none_or(|b| b.gauge(n).is_none()) {
                gauges.push((n.clone(), None, Some(*v)));
            }
        }
    }
    out.push(DiffEntry {
        path: path.clone(),
        base_us: base.map(|n| n.duration_us),
        cur_us: cur.map(|n| n.duration_us),
        counters,
        gauges,
        base_mem: base.and_then(|n| n.mem),
        cur_mem: cur.and_then(|n| n.mem),
    });

    // Matched children first (baseline order), then current-only ones.
    if let Some(b) = base {
        for bc in &b.children {
            let cc = cur.and_then(|c| c.children.iter().find(|cc| cc.name == bc.name));
            diff_nodes(Some(bc), cc, &path, out);
        }
    }
    if let Some(c) = cur {
        for cc in &c.children {
            let only_new = base.is_none_or(|b| !b.children.iter().any(|bc| bc.name == cc.name));
            if only_new {
                diff_nodes(None, Some(cc), &path, out);
            }
        }
    }
}

/// Entries that regress past the threshold (see
/// [`DiffEntry::is_regression`]).
pub fn regressions(entries: &[DiffEntry], fail_over_pct: f64, min_us: u64) -> Vec<&DiffEntry> {
    entries
        .iter()
        .filter(|e| e.is_regression(fail_over_pct, min_us))
        .collect()
}

/// Memory regressions across all entries (see
/// [`DiffEntry::mem_regressions`]) — the `--fail-mem-over-pct` gate.
pub fn mem_regressions(
    entries: &[DiffEntry],
    fail_over_pct: f64,
    min_bytes: u64,
) -> Vec<MemRegression> {
    entries
        .iter()
        .flat_map(|e| e.mem_regressions(fail_over_pct, min_bytes))
        .collect()
}

/// Human-readable diff: one line per span with wall-time delta, plus
/// counter lines for counters that changed.
pub fn render(entries: &[DiffEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        match (e.base_us, e.cur_us) {
            (Some(b), Some(c)) => {
                let delta = match e.pct_change() {
                    Some(p) => format!("{p:+.1}%"),
                    None => "n/a".to_string(),
                };
                out.push_str(&format!(
                    "{}  {} -> {}  {}\n",
                    e.path,
                    fmt_us(b),
                    fmt_us(c),
                    delta
                ));
            }
            (Some(b), None) => {
                out.push_str(&format!(
                    "{}  {} -> (absent)  only in baseline\n",
                    e.path,
                    fmt_us(b)
                ));
            }
            (None, Some(c)) => {
                out.push_str(&format!(
                    "{}  (absent) -> {}  only in current\n",
                    e.path,
                    fmt_us(c)
                ));
            }
            (None, None) => {}
        }
        for (name, b, c) in &e.counters {
            if b != c {
                out.push_str(&format!(
                    "  · {name}  {} -> {}\n",
                    b.map_or("-".to_string(), |v| v.to_string()),
                    c.map_or("-".to_string(), |v| v.to_string()),
                ));
            }
        }
        for (name, b, c) in &e.gauges {
            if b != c {
                out.push_str(&format!(
                    "  · {name}  {} -> {}\n",
                    b.map_or("-".to_string(), |v| format!("{v:.2}")),
                    c.map_or("-".to_string(), |v| format!("{v:.2}")),
                ));
            }
        }
        if (e.base_mem.is_some() || e.cur_mem.is_some()) && e.base_mem != e.cur_mem {
            let side = |m: Option<MemStats>| {
                m.map_or("-".to_string(), |m| {
                    format!(
                        "alloc={} peak+={}",
                        fmt_bytes(m.allocated),
                        fmt_bytes(m.peak_delta)
                    )
                })
            };
            out.push_str(&format!(
                "  · mem  {} -> {}\n",
                side(e.base_mem),
                side(e.cur_mem)
            ));
        }
    }
    out
}

/// One row of the self-time profile: a span name aggregated over every
/// position it appears at in the tree.
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

/// Flamegraph-style self-time aggregation: for every span name, total
/// self time (and self allocated bytes) across the tree, sorted by
/// self time descending.
pub fn top(report: &RunReport) -> Vec<TopEntry> {
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

/// [`top`] re-sorted by self allocated bytes descending — the
/// `obs top --by-mem` view.
pub fn top_by_mem(report: &RunReport) -> Vec<TopEntry> {
    let mut rows = top(report);
    rows.sort_by(|a, b| b.self_alloc.cmp(&a.self_alloc).then(a.name.cmp(&b.name)));
    rows
}

/// Table rendering for [`top`], truncated to `limit` rows.
pub fn render_top(rows: &[TopEntry], limit: usize) -> String {
    let mut out = String::from("SELF       TOTAL      CALLS  SPAN\n");
    for r in rows.iter().take(limit) {
        out.push_str(&format!(
            "{:<10} {:<10} {:<6} {}\n",
            fmt_us(r.self_us),
            fmt_us(r.total_us),
            r.calls,
            r.name
        ));
    }
    out
}

/// Table rendering for [`top_by_mem`], truncated to `limit` rows.
pub fn render_top_mem(rows: &[TopEntry], limit: usize) -> String {
    let mut out = String::from("SELF-ALLOC   TOTAL-ALLOC  SELF-TIME  CALLS  SPAN\n");
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
    out
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(name: &str, duration_us: u64, children: Vec<ReportNode>) -> ReportNode {
        ReportNode {
            name: name.to_string(),
            duration_us,
            calls: 1,
            children,
            ..ReportNode::default()
        }
    }

    fn report(root: ReportNode) -> RunReport {
        RunReport {
            root,
            trace: vec![],
            mem_samples: vec![],
        }
    }

    fn mem(allocated: u64, peak_delta: u64) -> Option<MemStats> {
        Some(MemStats {
            allocated,
            freed: 0,
            allocs: 1,
            peak_delta,
        })
    }

    #[test]
    fn aligns_by_name_path_and_flags_regressions() {
        let base = report(node(
            "run",
            1000,
            vec![node("bfs", 100, vec![]), node("gone", 50, vec![])],
        ));
        let cur = report(node(
            "run",
            1000,
            vec![node("bfs", 500, vec![]), node("new", 70, vec![])],
        ));
        let entries = diff(&base, &cur);
        let paths: Vec<_> = entries.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, vec!["run", "run/bfs", "run/gone", "run/new"]);

        // bfs grew 400% — over a 300% threshold with a 100µs floor.
        let regs = regressions(&entries, 300.0, 100);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "run/bfs");
        // Under a 500% threshold nothing regresses.
        assert!(regressions(&entries, 500.0, 100).is_empty());
        // A high absolute floor also clears it (grew by 400µs < 1000µs).
        assert!(regressions(&entries, 300.0, 1000).is_empty());
        // Added/removed spans are never regressions.
        assert!(entries
            .iter()
            .filter(|e| e.base_us.is_none() || e.cur_us.is_none())
            .all(|e| !e.is_regression(0.0, 0)));
    }

    #[test]
    fn counter_deltas_surface_in_render() {
        let mut b = node("run", 10, vec![]);
        b.counters = vec![("edges".to_string(), 100)];
        b.gauges = vec![("sample_fraction".to_string(), 0.5)];
        let mut c = node("run", 10, vec![]);
        c.counters = vec![("edges".to_string(), 150), ("fresh".to_string(), 1)];
        c.gauges = vec![("sample_fraction".to_string(), 0.25)];
        let entries = diff(&report(b), &report(c));
        assert_eq!(
            entries[0].counters,
            vec![
                ("edges".to_string(), Some(100), Some(150)),
                ("fresh".to_string(), None, Some(1)),
            ]
        );
        let text = render(&entries);
        assert!(text.contains("edges  100 -> 150"), "{text}");
        assert!(text.contains("fresh  - -> 1"), "{text}");
        assert!(text.contains("sample_fraction  0.50 -> 0.25"), "{text}");
    }

    #[test]
    fn identical_reports_have_no_regressions() {
        let mut root = node("run", 1000, vec![node("bfs", 400, vec![])]);
        root.mem = mem(1 << 20, 1 << 19);
        let r = report(root);
        let entries = diff(&r, &r);
        assert!(regressions(&entries, 0.0, 0).is_empty());
        // Self-diff is also memory-clean.
        assert!(mem_regressions(&entries, 0.0, 0).is_empty());
    }

    #[test]
    fn mem_regressions_respect_pct_and_floor() {
        let mut b = node("run", 10, vec![]);
        b.mem = mem(1_000_000, 500_000);
        let mut c = node("run", 10, vec![]);
        c.mem = mem(1_300_000, 500_000); // allocated +30%, peak flat
        let entries = diff(&report(b.clone()), &report(c.clone()));

        // Over a 10% threshold the allocated growth trips (peak doesn't).
        let regs = mem_regressions(&entries, 10.0, 4096);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].path, "run");
        assert_eq!(regs[0].metric, "allocated");
        assert_eq!(regs[0].base_bytes, 1_000_000);
        assert_eq!(regs[0].cur_bytes, 1_300_000);
        // A 50% threshold clears it; so does a high absolute floor.
        assert!(mem_regressions(&entries, 50.0, 4096).is_empty());
        assert!(mem_regressions(&entries, 10.0, 1 << 30).is_empty());

        // Sides without memory data never regress (old baselines).
        let no_mem = node("run", 10, vec![]);
        let entries = diff(&report(no_mem), &report(c));
        assert!(mem_regressions(&entries, 0.0, 0).is_empty());

        // The mem delta surfaces in the human rendering.
        let mut c2 = node("run", 10, vec![]);
        c2.mem = mem(2_000_000, 900_000);
        let text = render(&diff(&report(b), &report(c2)));
        assert!(text.contains("mem  alloc="), "{text}");
    }

    #[test]
    fn top_by_mem_sorts_by_self_allocated() {
        let mut big = node("alloc_heavy", 10, vec![]);
        big.mem = mem(8 << 20, 4 << 20);
        let mut small = node("cpu_heavy", 900, vec![]);
        small.mem = mem(1 << 10, 1 << 10);
        let mut root = node("run", 1000, vec![big, small]);
        root.mem = mem(9 << 20, 5 << 20);
        let r = report(root);

        let rows = top_by_mem(&r);
        assert_eq!(rows[0].name, "alloc_heavy");
        assert_eq!(rows[0].self_alloc, 8 << 20);
        // Parent self-alloc is inclusive minus children.
        let run = rows.iter().find(|r| r.name == "run").unwrap();
        assert_eq!(run.self_alloc, (9 << 20) - (8 << 20) - (1 << 10));
        // Time-sorted view puts cpu_heavy first instead.
        assert_eq!(top(&r)[0].name, "cpu_heavy");
        let text = render_top_mem(&rows, 10);
        assert!(text.contains("SELF-ALLOC"), "{text}");
        assert!(text.contains("alloc_heavy"), "{text}");
    }

    #[test]
    fn top_aggregates_self_time_by_name() {
        // run(1000) -> a(600) -> b(200); a appears again under c.
        let r = report(node(
            "run",
            1000,
            vec![
                node("a", 600, vec![node("b", 200, vec![])]),
                node("c", 300, vec![node("a", 100, vec![])]),
            ],
        ));
        let rows = top(&r);
        let a = rows.iter().find(|r| r.name == "a").unwrap();
        assert_eq!(a.self_us, 400 + 100); // 600-200 plus leaf 100
        assert_eq!(a.total_us, 700);
        assert_eq!(a.calls, 2);
        let run = rows.iter().find(|r| r.name == "run").unwrap();
        assert_eq!(run.self_us, 100); // 1000 - 900
                                      // Sorted by self time descending.
        assert!(rows.windows(2).all(|w| w[0].self_us >= w[1].self_us));
        let text = render_top(&rows, 3);
        assert!(text.lines().count() <= 4);
        assert!(text.contains("SPAN"));
    }
}

//! Cross-run report diffing (`snap-cli obs diff`).
//!
//! Two span trees are aligned **by name-path**: the root pairs with the
//! root, and children pair when they have the same name under paired
//! parents (span coalescing guarantees names are unique per parent, so
//! the alignment is unambiguous). Spans present on only one side are
//! reported but never counted as regressions — a new span has no
//! baseline to regress against, and judging a removed span would flag
//! every refactor.

use crate::report::{fmt_bytes, fmt_us, MemStats, ReportNode, RunReport};

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

/// Whether `cur` exceeds `base` by more than `pct` percent *and* by at
/// least `floor` in absolute terms (the floor keeps small spans from
/// tripping percentage thresholds on timer or allocator noise).
fn grew(base: u64, cur: u64, pct: f64, floor: u64) -> bool {
    cur.saturating_sub(base) >= floor && (cur as f64) > (base as f64) * (1.0 + pct / 100.0)
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

/// Entries whose wall time grew past `fail_over_pct` percent and by at
/// least `min_us` microseconds — the `--fail-over-pct` gate. Spans
/// present on only one side never regress.
pub fn regressions(entries: &[DiffEntry], fail_over_pct: f64, min_us: u64) -> Vec<&DiffEntry> {
    let slower = |e: &&DiffEntry| match (e.base_us, e.cur_us) {
        (Some(b), Some(c)) => grew(b, c, fail_over_pct, min_us),
        _ => false,
    };
    entries.iter().filter(slower).collect()
}

/// Memory regressions across all entries — the `--fail-mem-over-pct`
/// gate: `allocated` and `peak_delta` each judged by the wall-time rule
/// with a `min_bytes` floor. Spans present on only one side, or without
/// memory data on either, never regress.
pub fn mem_regressions(
    entries: &[DiffEntry],
    fail_over_pct: f64,
    min_bytes: u64,
) -> Vec<MemRegression> {
    let mut out = Vec::new();
    for e in entries {
        let (Some(base), Some(cur)) = (e.base_mem, e.cur_mem) else {
            continue;
        };
        for (metric, b, c) in [
            ("allocated", base.allocated, cur.allocated),
            ("peak_delta", base.peak_delta, cur.peak_delta),
        ] {
            if grew(b, c, fail_over_pct, min_bytes) {
                out.push(MemRegression {
                    path: e.path.clone(),
                    metric,
                    base_bytes: b,
                    cur_bytes: c,
                });
            }
        }
    }
    out
}

/// Human-readable diff: one line per span with wall-time delta, plus
/// counter lines for counters that changed.
pub fn render(entries: &[DiffEntry]) -> String {
    let mut out = String::new();
    for e in entries {
        match (e.base_us, e.cur_us) {
            (Some(b), Some(c)) => {
                let delta = if b > 0 {
                    format!("{:+.1}%", (c as f64 - b as f64) / b as f64 * 100.0)
                } else {
                    "n/a".to_string()
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
        assert!(regressions(&entries, 0.0, 0)
            .iter()
            .all(|e| e.base_us.is_some() && e.cur_us.is_some()));
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
}

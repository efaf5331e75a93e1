//! The metrics. `BENCHMARK.json` at the repository root is the one place
//! that declares them (name, unit, which direction is better, and for an
//! end-to-end metric its bound); the harness reads it at run time. The
//! README says which layer metric should move which end-to-end metric on
//! which workload.

use crate::inputs::bench_dir;
use snap::obs::json::Json;
use std::collections::BTreeMap;

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// Whether a higher value is the better one.
    pub higher_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// What `BENCHMARK.json` declares.
pub struct Declared {
    pub workloads: Vec<String>,
    /// What a user of the system sees, on every workload.
    pub end_to_end: Vec<Metric>,
    /// Metrics of single layers (the repo's crates), reported by the
    /// traced run. One reads 0 on a workload in which its layer does no
    /// timed work.
    pub per_layer: Vec<Metric>,
}

impl Declared {
    pub fn load() -> Declared {
        let path = bench_dir().join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| json.get(key).and_then(Json::as_arr).expect("list").to_vec();
        let text_of = |m: &Json, key: &str| {
            m.get(key)
                .and_then(Json::as_str)
                .expect("string field")
                .to_string()
        };
        let metrics = |key: &str| {
            list(key)
                .iter()
                .map(|m| Metric {
                    name: text_of(m, "name"),
                    unit: text_of(m, "unit"),
                    higher_is_better: text_of(m, "better") == "higher",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Declared {
            workloads: list("workloads")
                .iter()
                .map(|w| text_of(w, "name"))
                .collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
        }
    }

    pub fn all(&self) -> impl Iterator<Item = &Metric> {
        self.end_to_end.iter().chain(&self.per_layer)
    }
}

/// The per-layer metrics read from the program's own `snap_obs`
/// counters in the traced pass. They count work, so they repeat exactly
/// from run to run and across thread counts.
pub const PROGRAM_COUNTS: &[&str] = &[
    "kernels.bfs_edges_examined",
    "kernels.bfs_levels",
    "kernels.kcore_decrements",
    "kernels.sssp_relaxations",
    "centrality.bc_frontier_vertices",
    "community.pla_label_flips",
    "partition.fm_moves",
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Record a value, once; `main` checks the name is declared.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(value.is_finite(), "metric {name} = {value} is not finite");
        assert!(
            self.0.insert(name, value).is_none(),
            "metric {name} set twice"
        );
    }

    /// Milliseconds from a seconds value.
    pub fn set_ms(&mut self, name: &'static str, secs: f64) {
        self.set(name, secs * 1e3);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.keys().copied()
    }
}

/// A ratio that reads 0 when its base is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Run, Sizes};
    use std::collections::BTreeSet;

    fn fits(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn declared_names_units_and_bounds_fit_the_contract() {
        let declared = Declared::load();
        let mut seen = BTreeSet::new();
        for m in declared.all() {
            assert!(fits(&m.name, 64, "_.-"), "bad name {}", m.name);
            assert!(m.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(fits(&m.unit, 16, "_/%.-"), "bad unit {}", m.unit);
            assert!(seen.insert(&m.name), "duplicate metric {}", m.name);
        }
        assert!((1..=16).contains(&declared.end_to_end.len()));
        assert!((1..=128).contains(&declared.per_layer.len()));
        for m in &declared.end_to_end {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        assert!(declared.end_to_end.iter().any(|m| m.name == "setup_s"));
    }

    /// Every emitted metric is declared in `BENCHMARK.json`, and every
    /// declared metric is emitted by some workload (one traced smoke run
    /// of each, in this thread).
    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        let run = Run {
            seed: 1,
            seconds: 0.0,
            trace: true,
            sizes: Sizes::smoke(),
            threads: 2,
        };
        let emitted: BTreeSet<String> = workloads::NAMES
            .iter()
            .flat_map(|name| {
                let outcome = workloads::run(name, &run).expect("known workload");
                assert_eq!(outcome.ops.failed, 0, "{name}: {:?}", outcome.ops.failures);
                outcome.values.names().map(String::from).collect::<Vec<_>>()
            })
            .collect();
        let declared: BTreeSet<String> = Declared::load().all().map(|m| m.name.clone()).collect();
        assert_eq!(emitted, declared);
    }
}

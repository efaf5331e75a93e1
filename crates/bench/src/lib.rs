//! Shared harness for the table/figure regenerator binaries.
//!
//! Every binary accepts:
//!
//! * `--scale <divisor>` — shrink the paper's instances by this factor
//!   (each binary has a sensible default so a laptop run finishes in
//!   minutes);
//! * `--full` — paper-scale instances (`--scale 1`);
//! * `--threads a,b,c` — thread counts for the sweep binaries;
//! * `--seed <u64>` — instance seed.
//!
//! Results print as aligned text tables with the paper's reported values
//! alongside, so `EXPERIMENTS.md` can be regenerated by copy-paste.

use std::time::{Duration, Instant};

/// Time a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// Common CLI arguments for the experiment binaries.
#[derive(Clone, Debug)]
pub struct ExpArgs {
    /// Instance shrink factor (1 = paper scale).
    pub scale: usize,
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Instance seed.
    pub seed: u64,
}

/// Parse the common flags; `default_scale` applies when neither `--scale`
/// nor `--full` is given.
pub fn parse_args(default_scale: usize) -> ExpArgs {
    let mut args = ExpArgs {
        scale: default_scale,
        threads: vec![1, 2, 4, 8, 16, 32],
        seed: 0x5eed,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--full" => args.scale = 1,
            "--scale" => {
                args.scale = it
                    .next()
                    .expect("--scale needs a value")
                    .parse()
                    .expect("--scale value must be a positive integer");
                assert!(args.scale >= 1, "--scale must be >= 1");
            }
            "--threads" => {
                args.threads = it
                    .next()
                    .expect("--threads needs a comma-separated list")
                    .split(',')
                    .map(|t| t.parse().expect("thread counts must be integers"))
                    .collect();
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be a u64");
            }
            other => {
                panic!("unknown flag {other}; supported: --full --scale N --threads a,b,c --seed S")
            }
        }
    }
    args
}

/// Pretty-print a duration in the paper's style (seconds with sensible
/// precision).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else {
        format!("{:.1}ms", s * 1e3)
    }
}

/// Print a banner for an experiment binary, rendered through the
/// `snap-obs` report machinery so every regenerator shares one header
/// format with the `--trace` span trees.
pub fn banner(title: &str, args: &ExpArgs) {
    let root = snap_obs::ReportNode {
        name: format!("=== {title} ==="),
        meta: vec![
            ("scale_divisor".to_string(), args.scale.to_string()),
            ("seed".to_string(), args.seed.to_string()),
            (
                "host_cores".to_string(),
                std::thread::available_parallelism()
                    .map_or(1, |p| p.get())
                    .to_string(),
            ),
        ],
        ..Default::default()
    };
    let report = snap_obs::RunReport {
        root,
        trace: Vec::new(),
        mem_samples: Vec::new(),
    };
    println!("{}", report.render());
}

/// Run `f` with `snap-obs` collection live on this thread and return its
/// result together with everything the instrumented kernels recorded.
pub fn observed<R>(f: impl FnOnce() -> R) -> (R, snap_obs::RunReport) {
    snap_obs::enable();
    let r = f();
    (r, snap_obs::finish().unwrap_or_default())
}

/// FNV-1a over a stream of u64 words (f64 values hashed via `to_bits`).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f64s(mut self, xs: &[f64]) -> Self {
        for &x in xs {
            self.word(x.to_bits());
        }
        self
    }
}

fn hash_scores(s: &snap::centrality::BetweennessScores) -> u64 {
    Fnv::new().f64s(&s.vertex).f64s(&s.edge).0
}

/// A divisive run's removal sequence (edge id and `q` bits), then its
/// assignment and `q` bits.
fn hash_divisive(r: &snap::community::DivisiveResult) -> u64 {
    let mut h = Fnv::new();
    for &(e, q) in &r.removals {
        h.word(e as u64);
        h.word(q.to_bits());
    }
    for &c in &r.clustering.assignment {
        h.word(c as u64);
    }
    h.word(r.q.to_bits());
    h.0
}

/// A clustering's assignment, then its `q` bits.
fn hash_clustering(c: &snap::community::Clustering, q: f64) -> u64 {
    let mut h = Fnv::new();
    for &l in &c.assignment {
        h.word(l as u64);
    }
    h.word(q.to_bits());
    h.0
}

fn hash_path_stats(p: &snap::metrics::PathStats) -> u64 {
    let mut h = Fnv::new();
    h.word(p.average.to_bits());
    h.word(p.max as u64);
    h.word(p.effective_diameter.to_bits());
    h.word(p.pairs);
    h.0
}

/// FNV-1a hashes of every multi-source kernel's output on fixed
/// instances (R-MAT scale 8, ER n = 500, Watts–Strogatz n = 256, and a
/// filtered view of the first), of pLA's labels on a planted 2^11 graph
/// and a filtered view of it, of two multilevel partitions (k-way on a
/// planted 2^12 graph, recursive on R-MAT scale 10), and of four
/// divisive runs (GN's full schedule and default pBD on Karate; pBD at
/// `exact_threshold` 48 on a planted 2^8 graph, which runs the bridge,
/// fine and coarse phases, and on R-MAT scale 7), of pMA on a planted
/// 2^10 graph, and of spectral modularity on Karate and a planted 2^8
/// graph: the "same numbers" invariant every refactor and optimisation
/// of those kernels is held to. The values are pinned by this crate's
/// `fixture_hashes_are_pinned` test, so any accumulation-order drift
/// fails tier-1; the `fixture_hash` binary prints them.
///
/// The four `_t2` rows run under a 2-thread pool so they hash the
/// chunked accumulate-and-reduce path: 32 sources in 16-source chunks,
/// and 4 sources one per chunk; pLA clusters its components one per
/// work unit. The bits depend on the source count only, so the values do
/// not depend on the host's core count; the two partitions and the four
/// divisive runs use the default pool and are the same at every thread
/// count, as are pMA and spectral modularity.
pub fn fixture_hashes() -> [(&'static str, u64); 20] {
    use snap::centrality::{
        betweenness_from_sources, brandes, closeness, sample_sources, sampled_closeness,
        weighted_betweenness,
    };
    use snap::community::{
        girvan_newman, pbd, pla, pla_view, pma, spectral_communities, GnConfig, PbdConfig,
        PlaConfig, PmaConfig,
    };
    use snap::gen::{erdos_renyi, planted_partition, rmat, watts_strogatz};
    use snap::gen::{PlantedConfig, RmatConfig};
    use snap::graph::{FilteredGraph, Graph};
    use snap::metrics::{path_stats_exact, path_stats_sampled};
    use snap::partition::{kway_partition, KwayConfig};

    let g1 = rmat(&RmatConfig::small_world(8, 1024), 42);
    let g2 = erdos_renyi(500, 2000, 7);
    let g3 = watts_strogatz(256, 8, 0.1, 11);
    let mut view = FilteredGraph::new(&g1);
    for e in g1.edge_ids().step_by(5) {
        view.delete_edge(e);
    }
    let planted = planted_partition(
        &PlantedConfig::with_target_degrees(1 << 11, 16, 8.0, 2.0),
        5,
    )
    .0;
    let mut cut = FilteredGraph::new(&planted);
    for e in planted.edge_ids().step_by(7) {
        cut.delete_edge(e);
    }
    let mut stcon = Fnv::new();
    for s in 0..8u32 {
        for t in 200..216u32 {
            let r = snap::kernels::st_connectivity(&g3, s, t);
            stcon.word(r.connected as u64);
            stcon.word(r.distance.map_or(u64::MAX, |d| d as u64));
        }
    }
    let (er500_t2, filtered_t2, k4_t2, pla_t2) = snap::with_threads(2, || {
        let sources = sample_sources(g2.num_vertices(), 32, 3);
        let vsources = sample_sources(g1.num_vertices(), 32, 3);
        let few = sample_sources(g1.num_vertices(), 4, 3);
        let mut labels = Fnv::new();
        let cfg = PlaConfig::default();
        for r in [pla(&planted, &cfg), pla_view(&cut, &cfg)] {
            for &c in &r.clustering.assignment {
                labels.word(c as u64);
            }
        }
        (
            hash_scores(&betweenness_from_sources(&g2, &sources)),
            hash_scores(&betweenness_from_sources(&view, &vsources)),
            hash_scores(&betweenness_from_sources(&g1, &few)),
            labels.0,
        )
    });
    let assignment = |g, cfg| {
        let mut h = Fnv::new();
        for &p in &kway_partition(g, &cfg).assignment {
            h.word(p as u64);
        }
        h.0
    };
    let planted12 = planted_partition(
        &PlantedConfig::with_target_degrees(1 << 12, 16, 8.0, 2.0),
        3,
    )
    .0;
    let rmat10 = rmat(&RmatConfig::small_world(10, 8 << 10), 5);
    let karate = snap::io::karate_club();
    let pbd48 = |g| {
        let cfg = PbdConfig {
            exact_threshold: 48,
            ..PbdConfig::default()
        };
        hash_divisive(&pbd(g, &cfg))
    };
    let planted8 =
        planted_partition(&PlantedConfig::with_target_degrees(1 << 8, 16, 8.0, 2.0), 3).0;
    let rmat7 = rmat(&RmatConfig::small_world(7, 8 << 7), 5);
    let planted10 = planted_partition(
        &PlantedConfig::with_target_degrees(1 << 10, 16, 8.0, 2.0),
        42,
    )
    .0;
    let pma10 = pma(&planted10, &PmaConfig::default());
    let spectral = |g| {
        let r = spectral_communities(g);
        hash_clustering(&r.clustering, r.q)
    };
    let planted8_42 = planted_partition(
        &PlantedConfig::with_target_degrees(1 << 8, 16, 8.0, 2.0),
        42,
    )
    .0;
    [
        ("brandes_rmat8", hash_scores(&brandes(&g1))),
        ("closeness_rmat8", Fnv::new().f64s(&closeness(&g1)).0),
        (
            "path_stats_exact_rmat8",
            hash_path_stats(&path_stats_exact(&g1)),
        ),
        (
            "closeness_er500",
            Fnv::new().f64s(&sampled_closeness(&g2, 16, 5)).0,
        ),
        (
            "path_stats_sampled_er500",
            hash_path_stats(&path_stats_sampled(&g2, 32, 9)),
        ),
        (
            "weighted_betweenness_ws256",
            hash_scores(&weighted_betweenness(&g3)),
        ),
        ("stcon_ws256", stcon.0),
        ("betweenness_k32_er500_t2", er500_t2),
        ("betweenness_k32_filtered_t2", filtered_t2),
        ("betweenness_k4_rmat8_t2", k4_t2),
        ("pla_planted_t2", pla_t2),
        (
            "kway4_planted12",
            assignment(&planted12, KwayConfig::kway(4, 1)),
        ),
        (
            "recursive8_rmat10",
            assignment(&rmat10, KwayConfig::recursive(8, 3)),
        ),
        (
            "gn_karate",
            hash_divisive(&girvan_newman(&karate, &GnConfig::default())),
        ),
        (
            "pbd_karate",
            hash_divisive(&pbd(&karate, &PbdConfig::default())),
        ),
        ("pbd_planted8", pbd48(&planted8)),
        ("pbd_rmat7", pbd48(&rmat7)),
        ("pma_planted10", hash_clustering(&pma10.clustering, pma10.q)),
        ("spectral_karate", spectral(&karate)),
        ("spectral_planted8", spectral(&planted8_42)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_duration_ranges() {
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.0ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(2.5)), "2.50s");
        assert_eq!(fmt_duration(Duration::from_secs(120)), "120s");
    }

    #[test]
    fn fixture_hashes_are_pinned() {
        let got = fixture_hashes().map(|(name, hash)| format!("{name} {hash:#018x}"));
        let pinned = [
            "brandes_rmat8 0x524946ceed636607",
            "closeness_rmat8 0xe39eae795028f9fb",
            "path_stats_exact_rmat8 0x34dc48ac574b50e9",
            "closeness_er500 0x4af0ca51af4db505",
            "path_stats_sampled_er500 0x378f7d192cd1ef1a",
            "weighted_betweenness_ws256 0x634ee6e8b26a79f3",
            "stcon_ws256 0x8f21a56e20180ee7",
            "betweenness_k32_er500_t2 0x2f2854eed08826d6",
            "betweenness_k32_filtered_t2 0x7bb67b92f8906a5b",
            "betweenness_k4_rmat8_t2 0xe3abf78ea10519e7",
            "pla_planted_t2 0x5ac1504d70fb15c1",
            "kway4_planted12 0x56ffd33a6722bf84",
            "recursive8_rmat10 0x27264e048c48ed84",
            "gn_karate 0x6457da3396057d5f",
            "pbd_karate 0xe333e041dd489517",
            "pbd_planted8 0xfb01c5430f632592",
            "pbd_rmat7 0x2af1f85783c004bb",
            "pma_planted10 0x8a55e4c3acf673ed",
            "spectral_karate 0xe4221aac072345fe",
            "spectral_planted8 0x375514f82c9390e9",
        ];
        assert_eq!(got, pinned);
    }
}

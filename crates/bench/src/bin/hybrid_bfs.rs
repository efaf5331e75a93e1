//! Direction-optimizing BFS work ablation: edges examined and wall time
//! for the hybrid engine vs the push-only and vertex-partitioned
//! baselines on low-diameter R-MAT instances.
//!
//! ```text
//! cargo run --release -p snap-bench --bin hybrid_bfs [--scale N] [--seed S]
//! ```
//!
//! Here `--scale` is the R-MAT scale exponent (n = 2^scale) rather than a
//! shrink divisor. The claim under test (Beamer et al., SC 2012, applied
//! to the SNAP BFS kernel): on small-world graphs the bottom-up levels
//! skip most arc inspections, so the hybrid examines a fraction of the
//! edges the push-only traversal must touch, at equal distances.

use snap::graph::Graph;
use snap::kernels::{par_bfs_hybrid_stats, par_bfs_vertex_partitioned, HybridConfig};
use snap_bench::{fmt_duration, time};

fn main() {
    let mut scale = 16u32;
    let mut seed = 0x5eedu64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => scale = it.next().expect("--scale needs a value").parse().unwrap(),
            "--seed" => seed = it.next().expect("--seed needs a value").parse().unwrap(),
            other => panic!("unknown flag {other}; supported: --scale N --seed S"),
        }
    }
    println!("=== Hybrid BFS work ablation (R-MAT, m = 8n) ===");
    println!();
    println!(
        "{:>6} {:>9} {:>10} | {:>14} {:>5} {:>9} | {:>14} {:>9} | {:>7} {:>9}",
        "scale",
        "n",
        "m",
        "hybrid edges",
        "pulls",
        "time",
        "push edges",
        "time",
        "ratio",
        "vp time"
    );
    for s in (12..=scale).step_by(2) {
        let n = 1usize << s;
        let g = snap::gen::rmat(&snap::gen::RmatConfig::small_world(s, n * 8), seed);
        let src = (0..g.num_vertices() as u32)
            .max_by_key(|&v| g.degree(v))
            .unwrap();
        let ((_, hybrid), t_hybrid) =
            time(|| par_bfs_hybrid_stats(&g, src, &HybridConfig::default()));
        // alpha = 0 makes the push → pull trigger unreachable: the same
        // engine, never pulling.
        let ((_, push), t_push) = time(|| {
            par_bfs_hybrid_stats(
                &g,
                src,
                &HybridConfig {
                    alpha: 0.0,
                    beta: 24.0,
                },
            )
        });
        let (_, t_vp) = time(|| par_bfs_vertex_partitioned(&g, src));
        let he = hybrid.total_edges_examined();
        let pe = push.total_edges_examined();
        println!(
            "{:>6} {:>9} {:>10} | {:>14} {:>5} {:>9} | {:>14} {:>9} | {:>6.2}x {:>9}",
            s,
            g.num_vertices(),
            g.num_edges(),
            he,
            hybrid.pull_levels(),
            fmt_duration(t_hybrid),
            pe,
            fmt_duration(t_push),
            pe as f64 / he as f64,
            fmt_duration(t_vp),
        );
        assert!(
            he < pe,
            "hybrid must examine fewer edges than push-only on R-MAT"
        );
    }
    println!();
    println!("ratio = push-only edges / hybrid edges (higher = more work skipped).");
}

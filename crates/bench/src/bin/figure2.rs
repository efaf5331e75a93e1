//! Regenerates **Figure 2**: execution time and relative speedup of the
//! three parallel community-detection algorithms (pBD, pMA, pLA) on the
//! RMAT-SF instance, swept over thread counts.
//!
//! ```text
//! cargo run --release -p snap-bench --bin figure2 \
//!     [--scale N | --full] [--threads 1,2,4,8,16,32]
//! ```
//!
//! Default scale divisor 4 (100k vertices / 400k edges); `--full` is the
//! paper's 400k/1.6M instance. NOTE: on a single-core host the sweep
//! still runs, but wall-clock speedup cannot exceed ~1 — the series shape
//! is meaningful only on multicore hardware (see EXPERIMENTS.md).

use snap::community::{pbd, pla, pma, PbdConfig, PlaConfig, PmaConfig};
use snap::graph::Graph;
use snap::with_threads;
use snap_bench::{banner, fmt_duration, parse_args, time};

fn main() {
    let mut args = parse_args(16);
    if !std::env::args().any(|a| a == "--threads") {
        args.threads = vec![1, 2, 4, 8];
    }
    banner("Figure 2: parallel community detection on RMAT-SF", &args);

    let inst = snap::gen::table3_instances(false)
        .into_iter()
        .find(|i| i.label == "RMAT-SF")
        .expect("RMAT-SF is in table 3");
    let (g, t_build) = time(|| inst.build_scaled(args.scale, args.seed));
    println!(
        "instance: RMAT-SF / {} (n = {}, m = {}, built in {})",
        args.scale,
        g.num_vertices(),
        g.num_edges(),
        fmt_duration(t_build)
    );
    println!();

    // pBD at figure-2 scale samples 1% of each component's vertices as
    // sources (at least 96); its cuts per pass follow the graph.
    let pbd_cfg = PbdConfig {
        sample_frac: 0.01,
        ..Default::default()
    };

    let mut baselines: Vec<Option<f64>> = vec![None, None, None];
    println!(
        "{:>8} | {:>12} {:>8} | {:>12} {:>8} | {:>12} {:>8}",
        "threads", "pBD time", "speedup", "pMA time", "speedup", "pLA time", "speedup"
    );
    for &t in &args.threads {
        let (pbd_r, t_pbd) = with_threads(t, || time(|| pbd(&g, &pbd_cfg)));
        let (pma_r, t_pma) = with_threads(t, || time(|| pma(&g, &PmaConfig::default())));
        let (pla_r, t_pla) = with_threads(t, || time(|| pla(&g, &PlaConfig::default())));
        let times = [
            t_pbd.as_secs_f64(),
            t_pma.as_secs_f64(),
            t_pla.as_secs_f64(),
        ];
        let mut cells = Vec::new();
        for (b, &tt) in baselines.iter_mut().zip(&times) {
            let base = *b.get_or_insert(tt);
            cells.push(base / tt);
        }
        println!(
            "{:>8} | {:>12} {:>8.2} | {:>12} {:>8.2} | {:>12} {:>8.2}",
            t,
            fmt_duration(t_pbd),
            cells[0],
            fmt_duration(t_pma),
            cells[1],
            fmt_duration(t_pla),
            cells[2]
        );
        eprintln!(
            "[threads = {t}] q: pBD {:.4}, pMA {:.4}, pLA {:.4}",
            pbd_r.q, pma_r.q, pla_r.q
        );
    }
    println!();
    println!("paper (Sun Fire T2000, 32 threads): speedups ~13 (pBD), ~9 (pMA), ~12 (pLA).");
}

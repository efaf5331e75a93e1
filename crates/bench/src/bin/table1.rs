//! Regenerates **Table 1**: edge cut of a 32-way partitioning of three
//! graph families (road / sparse random / small-world) under four
//! partitioners. Multilevel cells carry their imbalance (largest part
//! over the ideal part), which the per-bisection tolerance does not
//! bound (EXPERIMENTS.md "Known deviations"). The paper's claim: cuts
//! on the random and small-world instances are ~2 orders of magnitude
//! above the road instance, and the spectral heuristics can fail
//! outright on the small-world instance.
//!
//! ```text
//! cargo run --release -p snap-bench --bin table1 [--scale N | --full]
//! ```
//!
//! Default scale divisor is 16 (≈12.5k vertices per instance); `--full`
//! reproduces the paper's ≈200k-vertex instances.

use snap::graph::Graph;
use snap::partition::{edge_cut, imbalance, Method};
use snap_bench::{banner, fmt_duration, parse_args, time};

/// Paper-reported cuts, for the side-by-side print.
const PAPER: [(&str, [&str; 4]); 3] = [
    ("Physical (road)", ["1,856", "1,703", "2,937", "3,913"]),
    (
        "Sparse random",
        ["685,211", "706,625", "717,960", "737,747"],
    ),
    ("Small-world", ["805,903", "736,560", "-", "-"]),
];

fn main() {
    let args = parse_args(16);
    banner("Table 1: 32-way partition edge cuts", &args);
    let parts = 32;

    let methods = [
        Method::MultilevelKway,
        Method::MultilevelRecursive,
        Method::SpectralRqi,
        Method::SpectralLanczos,
    ];

    println!(
        "{:<18} {:>9} {:>9} | {:>13} {:>13} {:>13} {:>13}",
        "instance", "n", "m", "Metis-kway", "Metis-recur", "Chaco-RQI", "Chaco-LAN"
    );
    for (idx, inst) in snap::gen::table1_instances().iter().enumerate() {
        let (g, t_build) = time(|| inst.build_scaled(args.scale, args.seed));
        eprintln!(
            "[{}] built in {} (n = {}, m = {})",
            inst.label,
            fmt_duration(t_build),
            g.num_vertices(),
            g.num_edges()
        );
        let mut cells = Vec::new();
        for method in methods {
            let (result, t) = time(|| snap::partition::partition(&g, method, parts, args.seed));
            match result {
                Ok(p) => {
                    let cut = edge_cut(&g, &p);
                    let imb = imbalance(&p, None);
                    eprintln!(
                        "[{}] {}: cut {} (imbalance {:.2}) in {}",
                        inst.label,
                        method.label(),
                        cut,
                        imb,
                        fmt_duration(t)
                    );
                    cells.push(match method {
                        Method::MultilevelKway | Method::MultilevelRecursive => {
                            format!("{cut} ({imb:.2})")
                        }
                        _ => format!("{cut}"),
                    });
                }
                Err(e) => {
                    eprintln!("[{}] {}: {e}", inst.label, method.label());
                    cells.push("-".to_string());
                }
            }
        }
        println!(
            "{:<18} {:>9} {:>9} | {:>13} {:>13} {:>13} {:>13}",
            inst.label,
            g.num_vertices(),
            g.num_edges(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
        println!(
            "{:<18} {:>9} {:>9} | {:>13} {:>13} {:>13} {:>13}   (paper, full scale)",
            "",
            "200,000~",
            "1,000,000~",
            PAPER[idx].1[0],
            PAPER[idx].1[1],
            PAPER[idx].1[2],
            PAPER[idx].1[3]
        );
    }
    println!();
    println!("shape check: road cut should sit orders of magnitude below the random and");
    println!("small-world cuts, and spectral methods may fail ('-') on the small-world row.");
    println!("multilevel cells: cut (imbalance = largest part / ideal part).");
}

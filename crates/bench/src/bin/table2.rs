//! Regenerates **Table 2**: modularity achieved by GN / pBD / pMA / pLA
//! against a "best known" reference on six small networks. Karate is the
//! real Zachary dataset; the other five are seeded planted-partition
//! stand-ins matched to each network's size and density (see DESIGN.md).
//!
//! ```text
//! cargo run --release -p snap-bench --bin table2 [--seed S]
//! ```
//!
//! GN runs its full schedule on networks up to 1,200 vertices; larger
//! ones (E-mail and the key-signing stand-in) print '-' unless `--full`
//! forces the full schedule there too.

use snap::community::{
    anneal, girvan_newman, modularity, pbd, pla, pma, AnnealConfig, GnConfig, PbdConfig, PlaConfig,
    PmaConfig,
};
use snap::graph::{CsrGraph, Graph};
use snap_bench::{banner, fmt_duration, parse_args, time};

/// Paper-reported modularities: (network, GN, pBD, pMA, pLA, best known).
const PAPER: [(&str, [f64; 5]); 6] = [
    ("Karate", [0.401, 0.397, 0.381, 0.397, 0.431]),
    ("Political books", [0.509, 0.502, 0.498, 0.487, 0.527]),
    ("Jazz musicians", [0.405, 0.405, 0.439, 0.398, 0.445]),
    ("Metabolic", [0.403, 0.402, 0.402, 0.402, 0.435]),
    ("E-mail", [0.532, 0.547, 0.494, 0.487, 0.574]),
    ("Key signing", [0.816, 0.846, 0.733, 0.794, 0.855]),
];

fn main() {
    let args = parse_args(1);
    banner("Table 2: modularity comparison", &args);

    // Assemble the six networks: karate real, the rest planted stand-ins.
    let mut networks: Vec<(String, CsrGraph)> =
        vec![("Karate".to_string(), snap::io::karate_club())];
    for inst in snap::gen::table2_instances() {
        networks.push((inst.label.to_string(), inst.build(args.seed)));
    }

    println!(
        "{:<17} {:>7} | {:>7} {:>7} {:>7} {:>7} {:>11}",
        "network", "n", "GN", "pBD", "pMA", "pLA", "best known"
    );
    for (i, (label, g)) in networks.iter().enumerate() {
        let n = g.num_vertices();

        // GN's full schedule is O(m) exact betweenness recomputations —
        // the very cost the paper's pBD eliminates. On a single-core
        // host it is tractable up to ~1,200 vertices; beyond that the
        // cell prints '-' (the paper's own argument for pBD). Pass
        // `--full` to force the full schedule everywhere.
        let run_gn = n <= 1_200 || std::env::args().any(|a| a == "--full");
        let gn_r = if run_gn {
            let (r, t_gn) = time(|| girvan_newman(g, &GnConfig::default()));
            eprintln!("[{label}] GN: q = {:.3} in {}", r.q, fmt_duration(t_gn));
            Some(r)
        } else {
            eprintln!("[{label}] GN: skipped (n = {n} > 1,200; run with --full to force)");
            None
        };

        let (pbd_r, t_pbd) = time(|| pbd(g, &PbdConfig::default()));
        eprintln!(
            "[{label}] pBD: q = {:.3} in {}",
            pbd_r.q,
            fmt_duration(t_pbd)
        );

        let (pma_r, t_pma) = time(|| pma(g, &PmaConfig::default()));
        eprintln!(
            "[{label}] pMA: q = {:.3} in {}",
            pma_r.q,
            fmt_duration(t_pma)
        );

        let (pla_r, t_pla) = time(|| pla(g, &PlaConfig::default()));
        eprintln!(
            "[{label}] pLA: q = {:.3} in {}",
            pla_r.q,
            fmt_duration(t_pla)
        );

        // Best-known reference: anneal from the strongest heuristic
        // clustering (plus the default pMA/pLA warm starts inside
        // `anneal`), so the reference provably dominates every column.
        let sweeps = if n <= 2_000 { 200 } else { 60 };
        let anneal_cfg = AnnealConfig {
            sweeps,
            ..Default::default()
        };
        let (best_r, t_best) = time(|| {
            let base = anneal(g, &anneal_cfg);
            let mut candidates = vec![(&pbd_r.clustering, pbd_r.q)];
            if let Some(r) = &gn_r {
                candidates.push((&r.clustering, r.q));
            }
            let strongest = candidates
                .into_iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            let seeded = snap::community::anneal_from(g, strongest.0, &anneal_cfg);
            if seeded.q >= base.q {
                seeded
            } else {
                base
            }
        });
        eprintln!(
            "[{label}] best-known stand-in (annealing): q = {:.3} in {}",
            best_r.q,
            fmt_duration(t_best)
        );

        // Cross-check every reported q against direct evaluation.
        let mut checks = vec![
            ("pBD", pbd_r.q, &pbd_r.clustering),
            ("pMA", pma_r.q, &pma_r.clustering),
            ("pLA", pla_r.q, &pla_r.clustering),
        ];
        if let Some(r) = &gn_r {
            checks.push(("GN", r.q, &r.clustering));
        }
        for (name, q, c) in checks {
            let direct = modularity(g, c);
            assert!(
                (q - direct).abs() < 1e-6,
                "{label}/{name}: reported {q} != evaluated {direct}"
            );
        }

        let gn_cell = match &gn_r {
            Some(r) => format!("{:.3}", r.q),
            None => "-".to_string(),
        };
        println!(
            "{:<17} {:>7} | {:>7} {:>7.3} {:>7.3} {:>7.3} {:>11.3}",
            label, n, gn_cell, pbd_r.q, pma_r.q, pla_r.q, best_r.q
        );
        let p = PAPER[i].1;
        println!(
            "{:<17} {:>7} | {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>11.3}   (paper)",
            "", "", p[0], p[1], p[2], p[3], p[4]
        );
    }
    println!();
    println!("shape check: pBD tracks GN closely; pMA/pLA trail slightly; best-known dominates.");
}

//! `explore`: the analyst pipeline `snap-cli run` performs, file to five
//! answers — the paper's headline use. `snap-metrics`, `snap-community`
//! and `snap-partition` do most of the work, traversal and I/O almost
//! none. The planted-partition input has near-uniform degrees and real
//! community structure, the opposite of R-MAT, so an optimisation tuned
//! to hubs cannot win here. (pMA is left out: it is ~20x slower than the
//! rest of the pipeline together.)
//!
//! One pass takes the pipeline through `planted_graphs` graphs, each from
//! its own sub-seed. Multilevel partitioning, pLA and source sampling are
//! randomised, and their time on a single graph moves by ±5–7 % from
//! seed to seed; summed over three graphs the pass moves by far less, so
//! runs at different `--seed`s stay comparable.

use super::{common_metrics, first_setup, late_setups, pass_loop, write_file, Ops, Outcome, Run};
use crate::inputs::{arc_hash, file_len, fnv1a, mix64, Fingerprint, ScratchDir};
use crate::metrics::Values;
use crate::rec::Recorder;
use crate::stats::fastest;
use snap::gen::{planted_partition, PlantedConfig};
use snap::graph::Graph;
use snap::io::edgelist::{read_edge_list, write_edge_list};
use snap::partition::{edge_cut, imbalance, Method};
use snap::{CommunityAlgorithm, Network};
use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;

const PARTS: usize = 4;
const MIN_MODULARITY: f64 = 0.5;
const MAX_IMBALANCE: f64 = 1.5;

/// One generated graph: its file and what the reload must equal.
struct GraphFile {
    path: PathBuf,
    seed: u64,
    n: usize,
    m: usize,
    /// Sampled fraction giving `approx_bc_sources` sources.
    bc_frac: f64,
}

struct Inputs {
    /// Owns the directory the files live in.
    _dir: ScratchDir,
    graphs: Vec<GraphFile>,
    /// Of all graphs together: n, m and file bytes summed, arc hashes
    /// added up.
    fingerprint: Fingerprint,
}

fn setup(run: &Run) -> Inputs {
    let dir = ScratchDir::create("explore", run.seed);
    let mut fingerprint = Fingerprint {
        n: 0,
        m: 0,
        arc_hash: 0,
        file_bytes: vec![("edgelist", 0)],
    };
    let graphs = (0..run.sizes.planted_graphs as u64)
        .map(|i| {
            let seed = mix64(run.seed ^ (i << 56));
            let cfg = PlantedConfig::with_target_degrees(run.sizes.planted_n, 16, 8.0, 2.0);
            let (g, _) = planted_partition(&cfg, seed);
            let path = dir.path(&format!("graph-{i}.txt"));
            write_file(&path, |w| write_edge_list(w, &g));
            fingerprint.n += g.num_vertices();
            fingerprint.m += g.num_edges();
            fingerprint.arc_hash = fingerprint.arc_hash.wrapping_add(arc_hash(&g));
            fingerprint.file_bytes[0].1 += file_len(&path);
            GraphFile {
                path,
                seed,
                n: g.num_vertices(),
                m: g.num_edges(),
                // Half a source short of the target, so the library's
                // ceiling lands on it exactly.
                bc_frac: (run.sizes.approx_bc_sources as f64 - 0.5) / g.num_vertices() as f64,
            }
        })
        .collect();
    Inputs {
        _dir: dir,
        graphs,
        fingerprint,
    }
}

fn hash_u32s(words: &[u32]) -> u64 {
    fnv1a(
        &words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

fn hash_f64s(values: &[f64]) -> u64 {
    fnv1a(
        &values
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect::<Vec<u8>>(),
    )
}

/// What one pass answered: a hash per answer plus the quality numbers.
#[derive(Clone, Debug, PartialEq)]
struct Answers {
    hashes: [u64; 5],
    modularity: f64,
    edge_cut: u64,
    imbalance: f64,
}

/// File to five answers on one graph.
fn explore(rec: &mut Recorder, ops: &mut Ops, file: &GraphFile) -> Answers {
    let g = rec.time("io.read_edgelist", |_| {
        let reader = BufReader::new(File::open(&file.path).expect("opening edge list"));
        read_edge_list(reader, false, file.n).expect("parsing edge list")
    });
    ops.op(
        g.num_vertices() == file.n && g.num_edges() == file.m,
        || "edge-list reload differs".into(),
    );
    let net = rec.time("session.network_new", |_| Network::new(g));
    let summary = rec.time("metrics.summary", |_| net.summary_with_seed(file.seed));
    let (bfs, stats) = rec
        .time("session.bfs", |_| net.try_bfs_stats(0))
        .expect("unlimited budget");
    let communities = rec.time("community.pla", |_| {
        net.communities(CommunityAlgorithm::LocalAggregation)
    });
    let bc = rec.time("centrality.approx_bc", |_| {
        net.approx_betweenness(file.bc_frac, file.seed)
    });
    let partition = rec
        .time("partition.kway", |_| {
            net.partition(Method::MultilevelKway, PARTS, file.seed)
        })
        .expect("multilevel k-way does not fail");
    Answers {
        hashes: [
            hash_f64s(&[
                summary.n as f64,
                summary.m as f64,
                summary.components as f64,
                summary.giant_fraction,
                summary.clustering,
                summary.transitivity,
                summary.assortativity,
                summary.paths.average,
                f64::from(summary.paths.max),
            ]),
            hash_u32s(&bfs.dist) ^ stats.total_edges_examined(),
            hash_u32s(&communities.clustering.assignment),
            hash_f64s(&bc.vertex),
            hash_u32s(&partition.assignment),
        ],
        modularity: communities.modularity,
        edge_cut: edge_cut(net.graph(), &partition),
        imbalance: imbalance(&partition, None),
    }
}

pub fn run(run: &Run) -> Outcome {
    let (inputs, mut setups) = first_setup(|| setup(run));
    let mut ops = Ops::default();
    // The first pass's answers, one per graph; later passes must repeat them.
    let mut first: Vec<Answers> = Vec::new();

    let passes = pass_loop(run, |rec, _| {
        for (i, file) in inputs.graphs.iter().enumerate() {
            let before = rec.pass_busy();
            let answers = explore(rec, &mut ops, file);
            rec.add_sample("explore.graph", rec.pass_busy() - before);
            if first.len() == i {
                first.push(answers.clone());
            }
            for (stage, (got, want)) in ["summary", "bfs", "communities", "centrality", "partition"]
                .iter()
                .zip(answers.hashes.iter().zip(first[i].hashes))
            {
                ops.op(*got == want, || {
                    format!("{stage} answer changed between passes")
                });
            }
            ops.op(answers.modularity >= MIN_MODULARITY, || {
                format!("modularity {} below {MIN_MODULARITY}", answers.modularity)
            });
            ops.op(answers.imbalance <= MAX_IMBALANCE, || {
                format!("imbalance {} above {MAX_IMBALANCE}", answers.imbalance)
            });
        }
        rec.pass_busy()
    });
    late_setups(run, &mut setups, || setup(run));

    let mut values = Values::default();
    let rec = &passes.rec;
    common_metrics(
        &mut values,
        &passes,
        &setups,
        rec.per_pass_p50("explore.graph"),
    );
    for (metric, span) in [
        ("io.read_edgelist_ms", "io.read_edgelist"),
        ("session.network_new_ms", "session.network_new"),
        ("metrics.summary_ms", "metrics.summary"),
        ("session.bfs_ms", "session.bfs"),
        ("community.pla_ms", "community.pla"),
        ("centrality.approx_bc_ms", "centrality.approx_bc"),
        ("partition.kway_ms", "partition.kway"),
    ] {
        values.set_ms(metric, fastest(rec.per_pass(span)));
    }
    // Quality over the pass's graphs: mean modularity and imbalance,
    // total cut.
    let graphs = first.len() as f64;
    values.set(
        "community.modularity",
        first.iter().map(|a| a.modularity).sum::<f64>() / graphs,
    );
    values.set(
        "partition.edge_cut",
        first.iter().map(|a| a.edge_cut).sum::<u64>() as f64,
    );
    values.set(
        "partition.imbalance",
        first.iter().map(|a| a.imbalance).sum::<f64>() / graphs,
    );
    if let Some((_, traced)) = &passes.traced {
        values.set(
            "community.pla_label_flips",
            traced.obs_counter("community.pla", "label_flips") as f64,
        );
        values.set(
            "partition.fm_moves",
            traced.obs_counter("partition.kway", "fm_moves") as f64,
        );
    }

    let fingerprint = inputs.fingerprint.clone();
    passes.outcome(values, ops, fingerprint, setups)
}

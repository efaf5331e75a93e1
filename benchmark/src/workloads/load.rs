//! `load_read` and `load_write`: files in, graphs out, and back.
//! `snap-io` and `snap-graph`'s builder and compressor do all the work and
//! no kernel runs, so a parser or builder gain shows here and nowhere
//! else. The read side (edge list and METIS in, CSR built and compressed)
//! and the write side are workloads of their own, so a read-side gain
//! paid for on the write side shows.

use super::{
    common_metrics, first_setup, late_setups, pass_loop, rmat_graph, write_file, Ops, Outcome, Run,
};
use crate::inputs::{arc_hash, file_len, Fingerprint, ScratchDir};
use crate::metrics::{ratio, Values};
use crate::rec::Recorder;
use crate::stats::fastest;
use snap::graph::{CompressedCsrGraph, CsrGraph, Graph, GraphBuilder, WeightedGraph};
use snap::io::edgelist::{read_edge_list, write_edge_list};
use snap::io::metis::{read_metis, write_metis};
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Read,
    Write,
}

struct Inputs {
    dir: ScratchDir,
    edgelist: PathBuf,
    metis: PathBuf,
    edgelist_bytes: u64,
    metis_bytes: u64,
    /// The generated graph, which the write side stores.
    g: CsrGraph,
    /// The pre-parsed edge vector the builder-only row starts from.
    edges: Vec<(u32, u32, u32)>,
    fingerprint: Fingerprint,
    /// Write side: the file set-up stored reloads as the generated graph
    /// (the read side reloads it in every pass).
    stored_file_reloads: bool,
}

/// The graph is the generator's: same n, m and arc set.
fn same_graph<G: Graph>(g: &G, want: &Fingerprint) -> bool {
    g.num_vertices() == want.n && g.num_edges() == want.m && arc_hash(g) == want.arc_hash
}

/// R-MAT leaves the highest ids isolated now and then, so the vertex
/// count comes with the file, as `snap-cli` users pass it.
fn load_edge_list(path: &Path, n: usize) -> CsrGraph {
    let file = File::open(path).expect("opening edge list");
    read_edge_list(BufReader::new(file), false, n).expect("parsing edge list")
}

fn setup(run: &Run, side: Side) -> Inputs {
    let g = rmat_graph(run.sizes.rmat_scale, run.seed);
    let dir = ScratchDir::create("load", run.seed);
    let (edgelist, metis) = (dir.path("graph.txt"), dir.path("graph.metis"));
    write_file(&edgelist, |w| write_edge_list(w, &g));
    write_file(&metis, |w| write_metis(w, &g));
    let mut fingerprint = Fingerprint::of(&g);
    let (edgelist_bytes, metis_bytes) = (file_len(&edgelist), file_len(&metis));
    fingerprint.file_bytes = vec![("edgelist", edgelist_bytes), ("metis", metis_bytes)];
    let stored_file_reloads =
        side == Side::Read || same_graph(&load_edge_list(&edgelist, fingerprint.n), &fingerprint);
    Inputs {
        dir,
        edgelist,
        metis,
        edgelist_bytes,
        metis_bytes,
        edges: g
            .edges()
            .map(|(e, u, v)| (u, v, g.edge_weight(e)))
            .collect(),
        g,
        fingerprint,
        stored_file_reloads,
    }
}

/// Read side: edge list in, compressed, METIS in, built from edges.
/// Returns the compressed adjacency's bytes.
fn read_pass(rec: &mut Recorder, ops: &mut Ops, inputs: &Inputs) -> usize {
    let want = &inputs.fingerprint;
    let g = rec.time("io.read_edgelist", |_| {
        load_edge_list(&inputs.edgelist, want.n)
    });
    ops.op(same_graph(&g, want), || "edge-list reload differs".into());

    let c = rec.time("graph.compress", |_| CompressedCsrGraph::from_csr(&g));
    ops.op(same_graph(&c, want), || "compressed graph differs".into());
    let ccsr_bytes = c.adjacency_bytes();
    drop((g, c));

    let m = rec.time("io.read_metis", |_| {
        let file = File::open(&inputs.metis).expect("opening METIS file");
        read_metis(BufReader::new(file)).expect("parsing METIS file")
    });
    ops.op(same_graph(&m, want), || "METIS reload differs".into());
    drop(m);

    let b = rec.time("graph.build", |_| {
        GraphBuilder::undirected(want.n)
            .add_weighted_edges(inputs.edges.iter().copied())
            .build()
    });
    ops.op(same_graph(&b, want), || "built graph differs".into());
    ccsr_bytes
}

/// Write side: the resident graph out to a new edge-list file.
fn write_pass(rec: &mut Recorder, ops: &mut Ops, inputs: &Inputs, pass: u32) {
    let out = inputs.dir.path(&format!("rewrite-{pass}.txt"));
    rec.time("io.write_edgelist", |_| {
        write_file(&out, |w| write_edge_list(w, &inputs.g))
    });
    ops.op(file_len(&out) == inputs.edgelist_bytes, || {
        "rewritten edge list has another size".into()
    });
    std::fs::remove_file(&out).expect("removing rewritten file");
}

pub fn run(run: &Run, side: Side) -> Outcome {
    let (inputs, mut setups) = first_setup(|| setup(run, side));
    let want = &inputs.fingerprint;
    let mut ops = Ops::default();
    if side == Side::Write {
        ops.op(inputs.stored_file_reloads, || {
            "the stored edge list does not reload as the generated graph".into()
        });
    }
    let mut ccsr_bytes = 0usize;

    let passes = pass_loop(run, |rec, pass| {
        match side {
            Side::Read => ccsr_bytes = read_pass(rec, &mut ops, &inputs),
            Side::Write => write_pass(rec, &mut ops, &inputs, pass),
        }
        // The pass's fixed work is the timed calls, not the checks
        // between them.
        rec.pass_busy()
    });
    late_setups(run, &mut setups, || setup(run, side));

    let rec = &passes.rec;
    let fast = |name: &str| fastest(rec.per_pass(name));
    let (m, mb) = (want.m as f64 / 1e6, 1e-6);
    let mut values = Values::default();
    match side {
        Side::Read => {
            common_metrics(
                &mut values,
                &passes,
                &setups,
                rec.per_pass_p50("io.read_edgelist"),
            );
            let (read, metis) = (fast("io.read_edgelist"), fast("io.read_metis"));
            let (build, compress) = (fast("graph.build"), fast("graph.compress"));
            values.set("load_medges_s", ratio(m, read));
            values.set_ms("io.read_edgelist_ms", read);
            values.set(
                "io.read_edgelist_mb_s",
                ratio(inputs.edgelist_bytes as f64 * mb, read),
            );
            values.set_ms("io.parse_only_ms", read - build);
            values.set_ms("io.read_metis_ms", metis);
            values.set(
                "io.read_metis_mb_s",
                ratio(inputs.metis_bytes as f64 * mb, metis),
            );
            values.set_ms("graph.build_ms", build);
            values.set("graph.build_medges_s", ratio(m, build));
            values.set_ms("graph.compress_ms", compress);
            values.set("graph.compress_medges_s", ratio(m, compress));
            values.set(
                "graph.csr_bytes_per_edge",
                inputs.g.adjacency_bytes() as f64 / want.m as f64,
            );
            values.set(
                "graph.ccsr_bytes_per_edge",
                ccsr_bytes as f64 / want.m as f64,
            );
        }
        Side::Write => {
            common_metrics(
                &mut values,
                &passes,
                &setups,
                rec.per_pass_p50("io.write_edgelist"),
            );
            let write = fast("io.write_edgelist");
            values.set("store_medges_s", ratio(m, write));
            values.set_ms("io.write_edgelist_ms", write);
            values.set(
                "io.write_edgelist_mb_s",
                ratio(inputs.edgelist_bytes as f64 * mb, write),
            );
            values.set(
                "io.file_bytes_per_edge",
                inputs.edgelist_bytes as f64 / want.m as f64,
            );
        }
    }

    let fingerprint = inputs.fingerprint.clone();
    passes.outcome(values, ops, fingerprint, setups)
}

//! Source-shape rules of this repository, run in tier-1. Each rule is a
//! matcher over one line of Rust (one rule: over a whole file) plus a
//! sweep of the files it governs;
//! every matcher is first shown a violating and a clean sample, so a
//! lint that has stopped matching anything fails instead of passing.

use std::path::Path;

/// Every `.rs` file under `roots` (files or directories, relative to the
/// repository root) as `(relative path, contents)`.
fn rust_sources(roots: &[&str]) -> Vec<(String, String)> {
    fn walk(repo: &Path, rel: &str, out: &mut Vec<(String, String)>) {
        let path = repo.join(rel);
        if path.is_dir() {
            for entry in std::fs::read_dir(&path).unwrap() {
                let name = entry.unwrap().file_name().into_string().unwrap();
                walk(repo, &format!("{rel}/{name}"), out);
            }
        } else if rel.ends_with(".rs") {
            out.push((rel.to_string(), std::fs::read_to_string(&path).unwrap()));
        }
    }
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = Vec::new();
    for root in roots {
        walk(&repo, root, &mut out);
    }
    assert!(!out.is_empty(), "no sources under {roots:?}");
    out
}

/// The lines of `sources` that `matcher` flags, as `path: text` with the
/// text's whitespace collapsed.
fn flagged(sources: &[(String, String)], matcher: fn(&str) -> bool) -> Vec<String> {
    let mut hits = Vec::new();
    for (path, text) in sources {
        for line in text.lines().filter(|l| matcher(l)) {
            let words: Vec<&str> = line.split_whitespace().collect();
            hits.push(format!("{path}: {}", words.join(" ")));
        }
    }
    hits
}

/// `0..<receiver>num_edges()` outside a comment line.
fn flat_edge_sweep(line: &str) -> bool {
    let receiver = |c: char| c.is_ascii_alphanumeric() || "_.()".contains(c);
    !line.trim_start().starts_with("//")
        && line.match_indices("..").any(|(at, _)| {
            let upper = line[at + 2..].trim_start();
            line[..at].trim_end().ends_with('0')
                && upper
                    .match_indices("num_edges()")
                    .any(|(end, _)| upper[..end].trim_end().chars().all(receiver))
        })
}

/// Flat `0..num_edges()` edge sweeps silently read dead edges on a
/// `FilteredGraph` (its live ids are non-contiguous). Outside the
/// representation layer, iterate `Graph::edge_ids()` instead.
#[test]
fn no_flat_edge_id_sweeps_outside_the_representation_layer() {
    assert!(flat_edge_sweep("    for e in 0..g.num_edges() {"));
    assert!(flat_edge_sweep(
        "    (0 .. self.graph().num_edges() as u32)"
    ));
    assert!(!flat_edge_sweep("    for e in g.edge_ids() {"));
    assert!(!flat_edge_sweep(
        "    // 0..g.num_edges() would read dead ids"
    ));
    let mut sources = rust_sources(&["crates", "tests", "examples"]);
    sources.retain(|(path, _)| !path.starts_with("crates/graph/") && path != "tests/repo_lints.rs");
    let hits = flagged(&sources, flat_edge_sweep);
    assert!(
        hits.is_empty(),
        "use Graph::edge_ids():\n{}",
        hits.join("\n")
    );
}

/// `fn <name>_with_budget…` / `fn <name>_with_workspace…`.
fn resource_suffixed_fn(line: &str) -> bool {
    line.match_indices("fn ").any(|(at, _)| {
        let ident = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
        let name = line[at + 3..].split(|c| !ident(c)).next().unwrap();
        ["_with_budget", "_with_workspace"]
            .iter()
            .any(|suffix| name.find(suffix).is_some_and(|stem| stem > 0))
    })
}

/// How a kernel receives its budget and scratch is one value
/// (`snap_kernels::Exec`, DESIGN.md §10), not a function-name suffix:
/// each kernel has its plain name plus at most one `*_in` / `try_*` form
/// taking `&Exec`. A new suffixed function grows the variant matrix back.
#[test]
fn one_entry_point_per_kernel() {
    assert!(resource_suffixed_fn(
        "pub fn closeness_with_workspace<G: Graph>("
    ));
    assert!(resource_suffixed_fn(
        "fn path_stats_with_budget_and_workspace("
    ));
    assert!(!resource_suffixed_fn(
        "pub fn closeness_in<G: Graph>(g: &G, exec: &Exec)"
    ));
    assert!(!resource_suffixed_fn(
        "    pub fn with_budget(mut self, budget: Budget) -> Self {"
    ));
    let mut sources = rust_sources(&["crates"]);
    sources.retain(|(path, _)| path.split('/').nth(2) == Some("src"));
    let hits = flagged(&sources, resource_suffixed_fn);
    assert!(hits.is_empty(), "take &Exec instead:\n{}", hits.join("\n"));
}

/// `vec![<elem>; <len>]` with a per-graph length: `n`, `n + 1`, `m`,
/// `g.num_vertices()` or `g.edge_id_bound()`.
fn dense_alloc(line: &str) -> bool {
    line.match_indices("vec![").any(|(at, _)| {
        let parts = line[at + 5..].split_once(';');
        let len = parts.and_then(|(_, rest)| rest.split_once(']'));
        let per_graph = ["n", "n + 1", "m", "g.num_vertices()", "g.edge_id_bound()"];
        len.is_some_and(|(len, _)| per_graph.contains(&len.trim()))
    })
}

/// Multi-source kernels draw their per-source scratch from an
/// epoch-stamped `TraversalWorkspace` (DESIGN.md §11), the
/// dynamic-graph path allocates per batch, never per op (its merge fills
/// through `CsrGraph::fill`, which allocates per call), and the
/// multilevel partitioner's refinement allocates per call, never per
/// pass, and pLA allocates `local_of` and `labels` once per call, not
/// per component (its `g.num_vertices()` lines are the test oracle's).
/// Every
/// per-graph-sized `vec!` in the audited files is listed in
/// `tests/data/dense_alloc_allowlist.txt`; a new one fails here until it
/// is moved onto a workspace or — being per call or per worker chunk —
/// added to the list (the failure prints the lines to paste).
#[test]
fn dense_allocations_are_on_the_allow_list() {
    assert!(dense_alloc("        let mut dist = vec![u64::MAX; n];"));
    assert!(dense_alloc(
        "    let mut mark = vec![false; g.num_vertices()];"
    ));
    assert!(dense_alloc(
        "        let mut offsets = vec![0usize; n + 1];"
    ));
    assert!(!dense_alloc("        let mut acc = vec![0u64; levels];"));
    let mut found = flagged(
        &rust_sources(&[
            "crates/centrality/src",
            "crates/metrics/src",
            "crates/community/src/pla.rs",
            "crates/graph/src/csr.rs",
            "crates/graph/src/dynamic.rs",
            "crates/graph/src/treap.rs",
            "crates/graph/src/stream.rs",
            "crates/graph/src/compressed.rs",
            "crates/kernels/src/dyncc.rs",
            "crates/kernels/src/dynbfs.rs",
            "crates/kernels/src/buckets.rs",
            "crates/kernels/src/kcore.rs",
            "crates/partition/src/fm.rs",
            "crates/partition/src/bisect.rs",
            "crates/partition/src/kway.rs",
        ]),
        dense_alloc,
    );
    let list = include_str!("data/dense_alloc_allowlist.txt");
    let mut allowed: Vec<&str> = list.lines().collect();
    found.sort();
    allowed.sort();
    assert!(
        found == allowed,
        "dense per-graph allocations changed in an audited file; the list should read:\n{}",
        found.join("\n")
    );
}

/// `.par_chunks(<size>)` with any size but 1, or `div_ceil(64)`: an
/// explicit source chunking.
fn source_chunking(line: &str) -> bool {
    line.match_indices(".par_chunks(")
        .any(|(at, _)| !line[at..].starts_with(".par_chunks(1)"))
        || line.contains("div_ceil(64)")
}

/// How a list of sources is chunked, gated on the budget, traversed and
/// its partials reduced is one function (`snap_kernels::sweep`, DESIGN.md
/// §10): a second hand-rolled chunk loop is a second place for the
/// thread-count-independence rule to drift. `par_chunks(1)` — every item
/// its own work unit, as for the compressed backend's vertex chunks and
/// the per-component loops — chooses no grain and may appear anywhere.
#[test]
fn source_sweeps_are_chunked_in_one_place() {
    assert!(source_chunking("    let hist = sources.par_chunks(per)"));
    assert!(source_chunking("        .par_chunks(16)"));
    assert!(source_chunking(
        "    let per = sources.len().div_ceil(64).max(16);"
    ));
    assert!(!source_chunking(
        "    let (sums, used) = sweep(exec, sources, \"x.source\", 16, init, body, add);"
    ));
    assert!(!source_chunking("    for part in edges.chunks(1024) {"));
    assert!(!source_chunking(
        "    chunks.par_chunks(1).for_each(|unit| {"
    ));
    let mut sources = rust_sources(&["crates"]);
    sources.retain(|(path, _)| {
        path.split('/').nth(2) == Some("src") && path != "crates/kernels/src/sweep.rs"
    });
    let hits = flagged(&sources, source_chunking);
    assert!(
        hits.is_empty(),
        "go through snap_kernels::sweep:\n{}",
        hits.join("\n")
    );
}

/// A call into the request path: parse, admit, shed, handle or encode.
fn request_path_step(line: &str) -> bool {
    let steps = [
        "Request::parse",
        ".admit()",
        "shed_response",
        "handle_with_queue",
        "to_json_line",
    ];
    steps.iter().any(|step| line.contains(step))
}

/// The path from a request line to a response line is written once, in
/// `snap::serve::serve` (DESIGN.md §15), where it is unit-tested over
/// in-memory connections. `snap-cli serve` opens the input and calls it;
/// a step of the path in the binary is a second copy only a spawned
/// process can exercise.
#[test]
fn front_end_holds_no_protocol() {
    assert!(request_path_step(
        "            match Request::parse(line) {"
    ));
    assert!(request_path_step(
        "    None => respond_line(&engine.shed_response(&req).to_json_line()),"
    ));
    assert!(request_path_step(
        "        Ok(req) => match engine.admit() {"
    ));
    assert!(!request_path_step(
        "    snap::serve::serve(&engine, workers, std::iter::once(stdio));"
    ));
    let hits = flagged(&rust_sources(&["crates/core/src/bin"]), request_path_step);
    assert!(
        hits.is_empty(),
        "go through snap::serve::serve:\n{}",
        hits.join("\n")
    );
}

/// A line-based read or a `core::fmt` write of file content: `.lines()`,
/// `split_whitespace`, `str::parse` in any spelling, `writeln!`.
fn second_number_path(line: &str) -> bool {
    let calls = [
        ".lines()",
        "split_whitespace",
        ".parse()",
        ".parse::<",
        "str::parse",
        "writeln!",
    ];
    !line.trim_start().starts_with("//") && calls.iter().any(|call| line.contains(call))
}

/// `snap-io` has one way to read a number from a file and one way to
/// write one, both in `crates/io/src/scan.rs` (DESIGN.md §2): a reader
/// walks the file's bytes with its `Scanner`, a writer fills one buffer
/// through `push_decimal`. A per-line `String` loop or a `writeln!` per
/// edge beside it is the load path this crate had three copies of. Unit
/// tests (below a file's `#[cfg(test)]`) may use either.
#[test]
fn io_reads_and_writes_numbers_in_one_place() {
    assert!(second_number_path(
        "    for (lineno, line) in reader.lines().enumerate() {"
    ));
    assert!(second_number_path(
        "        let mut it = line.split_whitespace();"
    ));
    assert!(second_number_path("            .parse::<u32>()"));
    assert!(second_number_path(
        "            writeln!(writer, \"{u} {v}\")?;"
    ));
    assert!(!second_number_path(
        "            let u = sc.number(\"source vertex\", MAX_ID)? as VertexId;"
    ));
    assert!(!second_number_path("    // the old readers used .lines()"));
    let mut sources = rust_sources(&["crates/io/src"]);
    sources.retain(|(path, _)| path != "crates/io/src/scan.rs");
    for (_, text) in &mut sources {
        let end = text.find("#[cfg(test)]").unwrap_or(text.len());
        text.truncate(end);
    }
    let hits = flagged(&sources, second_number_path);
    assert!(hits.is_empty(), "go through scan.rs:\n{}", hits.join("\n"));
}

/// A `CsrGraph { .. }` struct literal: the name, optionally path-qualified,
/// where a value goes, not after `->`, `&`, `impl`, `for` or `struct`.
fn csr_literal(line: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    !line.trim_start().starts_with("//")
        && line.match_indices("CsrGraph {").any(|(at, _)| {
            let before = &line[..at];
            let head = before.trim_end_matches(|c: char| ident(c) || c == ':');
            let type_position = ["->", "&", "impl", "for", "struct"];
            !before.ends_with(ident) && !type_position.iter().any(|t| head.trim_end().ends_with(t))
        })
}

/// Every CSR is filled by one function, `CsrGraph::fill` in
/// `crates/graph/src/csr.rs` (DESIGN.md §2): the builder, the streaming
/// merge and `CsrGraph::empty` call it. A second hand-written prefix sum
/// and arc scatter is how the merge once drifted from the builder. Unit
/// tests (below a file's `#[cfg(test)]`) are not swept.
#[test]
fn csr_is_filled_in_one_place() {
    assert!(csr_literal("        let g = CsrGraph {"));
    assert!(csr_literal("    CsrGraph {"));
    assert!(csr_literal(
        "    Ok(snap_graph::CsrGraph { offsets, targets,"
    ));
    assert!(!csr_literal("    pub fn graph(&self) -> &CsrGraph {"));
    assert!(!csr_literal(
        "fn load(path: &str) -> snap_graph::CsrGraph {"
    ));
    assert!(!csr_literal("impl WeightedGraph for CsrGraph {"));
    assert!(!csr_literal("pub struct CsrGraph {"));
    assert!(!csr_literal("        let ccsr = CompressedCsrGraph {"));
    assert!(!csr_literal("    // a CsrGraph { .. } literal"));
    let mut sources = rust_sources(&["crates"]);
    sources.retain(|(path, _)| path.split('/').nth(2) == Some("src"));
    for (_, text) in &mut sources {
        let end = text.find("#[cfg(test)]").unwrap_or(text.len());
        text.truncate(end);
    }
    let hits = flagged(&sources, csr_literal);
    let fill = ["crates/graph/src/csr.rs: let g = CsrGraph {"];
    assert!(
        hits == fill,
        "build through CsrGraph::fill:\n{}",
        hits.join("\n")
    );
}

/// A sort of an edge list keyed on its `(u, v)` pair, outside a comment
/// line.
fn edge_sort(line: &str) -> bool {
    !line.trim_start().starts_with("//")
        && ["sort_unstable_by_key(|&(u, v", "sort_by_key(|&(u, v"]
            .iter()
            .any(|call| line.contains(call))
}

/// Edge lists are put in `(u, v)` order, the order that defines edge
/// ids, in one place: the builder's counting sort, which the builder, the
/// multilevel contraction and subgraph extraction all go through
/// (DESIGN.md §2). A second sort is how the contraction once carried a
/// private copy of it. Unit tests (below a file's `#[cfg(test)]`) are
/// not swept.
#[test]
fn edges_are_ordered_in_one_place() {
    assert!(edge_sort(
        "            edges.sort_unstable_by_key(|&(u, v, _)| (u, v));"
    ));
    assert!(edge_sort(
        "        edge_keys.sort_unstable_by_key(|&(u, v, _)| (u, v));"
    ));
    assert!(edge_sort("    pairs.sort_by_key(|&(u, v)| (v, u));"));
    assert!(!edge_sort(
        "            row.sort_unstable_by_key(|&(c, _)| c);"
    ));
    assert!(!edge_sort("        added.sort_unstable();"));
    assert!(!edge_sort(
        "    // edges.sort_unstable_by_key(|&(u, v, _)| (u, v))"
    ));
    let mut sources = rust_sources(&["crates"]);
    sources.retain(|(path, _)| path.split('/').nth(2) == Some("src"));
    for (_, text) in &mut sources {
        let end = text.find("#[cfg(test)]").unwrap_or(text.len());
        text.truncate(end);
    }
    let hits = flagged(&sources, edge_sort);
    assert!(
        hits.is_empty(),
        "order edges through the builder:\n{}",
        hits.join("\n")
    );
}

/// A line that names the dynamic representation (`DynGraph` or
/// `Treap`) outside a comment line.
fn dynamic_representation(line: &str) -> bool {
    !line.trim_start().starts_with("//") && (names(line, "DynGraph") || names(line, "Treap"))
}

/// The streaming engine and its incremental kernels hold one live graph:
/// the published CSR snapshot plus the net delta (DESIGN.md §13). A
/// second copy of every edge in the dynamic representation is how the
/// stream once held the graph three times over. Unit tests (below a
/// file's `#[cfg(test)]`) replay their ops into a `DynGraph` oracle and
/// are not swept. Reports the first line per file.
#[test]
fn stream_holds_one_live_graph() {
    assert!(dynamic_representation("use crate::dynamic::DynGraph;"));
    assert!(dynamic_representation("    live: DynGraph,"));
    assert!(dynamic_representation(
        "    pub fn end_batch(&mut self, g: &DynGraph) -> bool {"
    ));
    assert!(dynamic_representation("    by_degree: Treap<VertexId>,"));
    assert!(!dynamic_representation(
        "//! edge insert/delete ops into the [`DynGraph`] delta layer"
    ));
    assert!(!dynamic_representation("    /// see `DynGraph::to_csr`"));
    assert!(!dynamic_representation("    let treap = TreapNode::new();"));
    let hits: Vec<String> = rust_sources(&[
        "crates/graph/src/stream.rs",
        "crates/kernels/src/dynbfs.rs",
        "crates/kernels/src/dyncc.rs",
    ])
    .iter()
    .filter_map(|(path, text)| {
        let end = text.find("#[cfg(test)]").unwrap_or(text.len());
        let line = text[..end].lines().position(dynamic_representation)?;
        Some(format!("{path}:{}", line + 1))
    })
    .collect();
    assert!(
        hits.is_empty(),
        "the stream is its snapshot plus a net delta:\n{}",
        hits.join("\n")
    );
}

/// A line that names the compressed backend's second block format — an
/// identifier holding `raw_blocks`, `hub_threshold`, `HUB_THRESHOLD` or
/// `read_u32_le` — outside a comment line.
fn second_block_format(line: &str) -> bool {
    const WORDS: [&str; 4] = [
        "raw_blocks",
        "hub_threshold",
        "HUB_THRESHOLD",
        "read_u32_le",
    ];
    !line.trim_start().starts_with("//")
        && identifiers(line).any(|id| WORDS.iter().any(|w| id.contains(w)))
}

/// Every compressed row has one format: a degree header, then the
/// targets-first delta block (DESIGN.md §16). Fixed-width raw rows for
/// hubs above a degree threshold were a second format that no input
/// reached. Unit tests (below a file's `#[cfg(test)]`) are not swept.
#[test]
fn compressed_rows_have_one_format() {
    assert!(second_block_format(
        "pub const DEFAULT_HUB_THRESHOLD: usize = 1024;"
    ));
    assert!(second_block_format("    raw_blocks: usize,"));
    assert!(second_block_format(
        "        Self::try_from_csr(g, hub_threshold).expect(\"valid CSR adjacency\")"
    ));
    assert!(second_block_format(
        "            let nb = read_u32_le(self.stream, self.pos);"
    ));
    assert!(second_block_format(
        "pub use compressed::{CompressedCsrGraph, DecodeScratch, DEFAULT_HUB_THRESHOLD};"
    ));
    assert!(!second_block_format(
        "    /// How many vertices kept raw_blocks."
    ));
    assert!(!second_block_format("        let raw = header & 1 == 1;"));
    assert!(!second_block_format(
        "        let d = read_varint(stream, &mut pos) as usize;"
    ));
    let mut sources = rust_sources(&["crates/graph/src"]);
    for (_, text) in &mut sources {
        let end = text.find("#[cfg(test)]").unwrap_or(text.len());
        text.truncate(end);
    }
    let hits = flagged(&sources, second_block_format);
    assert!(
        hits.is_empty(),
        "compressed rows have one block format:\n{}",
        hits.join("\n")
    );
}

/// A betweenness pass (`betweenness_from_sources_in(` or
/// `approx_betweenness_in(`) outside a comment line.
fn betweenness_pass(line: &str) -> bool {
    !line.trim_start().starts_with("//")
        && ["betweenness_from_sources_in(", "approx_betweenness_in("]
            .iter()
            .any(|call| line.contains(call))
}

/// The divisive algorithms score edges in one place: the cut loop on
/// `DivisiveEngine` in `crates/community/src/divisive.rs`, which
/// rescores only the components the last round's cuts changed. GN and
/// every phase of pBD run through it; a betweenness pass elsewhere in
/// the crate is a second copy of that loop. Unit tests (below a file's
/// `#[cfg(test)]`) are not swept.
#[test]
fn divisive_rounds_run_in_one_place() {
    assert!(betweenness_pass(
        "        let partial = betweenness_from_sources_in(&engine.view, &all_sources, exec);"
    ));
    assert!(betweenness_pass(
        "        let partial = approx_betweenness_in(&engine.view, frac, cfg.seed ^ round, exec);"
    ));
    assert!(!betweenness_pass(
        "use snap_centrality::{approx_betweenness_in, betweenness_from_sources_in};"
    ));
    assert!(!betweenness_pass(
        "    // approx_betweenness_in(&view, frac, seed, exec) samples all n"
    ));
    let mut sources = rust_sources(&["crates/community/src"]);
    sources.retain(|(path, _)| path != "crates/community/src/divisive.rs");
    for (_, text) in &mut sources {
        let end = text.find("#[cfg(test)]").unwrap_or(text.len());
        text.truncate(end);
    }
    let hits = flagged(&sources, betweenness_pass);
    assert!(
        hits.is_empty(),
        "score edges through DivisiveEngine::cut_rounds:\n{}",
        hits.join("\n")
    );
}

/// A definition of a Sturm count or a tridiagonal eigen-step
/// (`fn sturm_count(` or `fn tridiag_`) outside a comment line.
fn eigensolver_step(line: &str) -> bool {
    !line.trim_start().starts_with("//")
        && ["fn sturm_count(", "fn tridiag_"]
            .iter()
            .any(|def| line.contains(def))
}

/// Eigenpairs are solved in one place: the Lanczos process in
/// `crates/kernels/src/lanczos.rs`, which spectral bisection and
/// spectral modularity both call with their own matvec. A second
/// tridiagonal solver is how spectral modularity once ran a shifted
/// power iteration that never converged. Unit tests (below a file's
/// `#[cfg(test)]`) are not swept.
#[test]
fn eigenpairs_are_solved_in_one_place() {
    assert!(eigensolver_step(
        "fn sturm_count(alphas: &[f64], betas: &[f64], x: f64) -> usize {"
    ));
    assert!(eigensolver_step(
        "fn tridiag_smallest_eig(alphas: &[f64], betas: &[f64], tol: f64) -> f64 {"
    ));
    assert!(eigensolver_step(
        "    pub(crate) fn tridiag_eigvec(alphas: &[f64], betas: &[f64], lambda: f64) -> Vec<f64> {"
    ));
    assert!(!eigensolver_step(
        "        if sturm_count(alphas, betas, mid) >= 1 {"
    ));
    assert!(!eigensolver_step(
        "    let w_t = tridiag_eigvec(&alphas, &betas, lambda);"
    ));
    assert!(!eigensolver_step(
        "    // fn tridiag_solve_shifted lives in kernels"
    ));
    let mut sources = rust_sources(&["crates"]);
    sources.retain(|(path, _)| {
        path.split('/').nth(2) == Some("src") && path != "crates/kernels/src/lanczos.rs"
    });
    for (_, text) in &mut sources {
        let end = text.find("#[cfg(test)]").unwrap_or(text.len());
        text.truncate(end);
    }
    let hits = flagged(&sources, eigensolver_step);
    assert!(
        hits.is_empty(),
        "solve eigenpairs through snap_kernels::smallest_eigenpair:\n{}",
        hits.join("\n")
    );
}

/// The binary's cap: a front end with one pipeline per command, one
/// copy of the synopsis and of the analysis commands' frame. A ratchet:
/// lower it when the file shrinks, never raise it past 1 150.
const CLI_LINES: usize = 1149;

/// A file's line cap: `CLI_LINES` for the binary, a front end over every
/// library module; 700 for a library file of the facade crate, which
/// holds one concept (`serve/` is protocol, cache, recorder, engine and
/// transport, not one 1 654-line file).
fn line_cap(path: &str) -> usize {
    if path == "crates/core/src/bin/snap-cli.rs" {
        CLI_LINES
    } else {
        700
    }
}

/// More lines than the file's cap.
fn over_long(path: &str, text: &str) -> bool {
    text.lines().count() > line_cap(path)
}

#[test]
fn core_files_hold_one_concept() {
    let lines = |n: usize| "fn f() {}\n".repeat(n);
    let (lib, cli) = (
        "crates/core/src/session.rs",
        "crates/core/src/bin/snap-cli.rs",
    );
    assert!(over_long(lib, &lines(701)));
    assert!(!over_long(lib, &lines(700)));
    assert!(over_long(cli, &lines(CLI_LINES + 1)));
    assert!(!over_long(cli, &lines(CLI_LINES)));
    const { assert!(CLI_LINES <= 1150, "the cap only goes down") };
    let sources = rust_sources(&["crates/core/src"]);
    let long = sources.iter().filter(|(path, text)| over_long(path, text));
    let long: Vec<&str> = long.map(|(path, _)| path.as_str()).collect();
    assert!(
        long.is_empty(),
        "split by concept, or below the cap: {long:?}"
    );
}

/// A boxed iterator or a scoped thread: per-call machinery the shim's
/// parked pool replaced.
fn per_call_machinery(line: &str) -> bool {
    !line.trim_start().starts_with("//")
        && (line.contains("dyn Iterator") || line.contains("thread::scope"))
}

/// A thread start outside a comment line.
fn spawn_site(line: &str) -> bool {
    !line.trim_start().starts_with("//") && line.contains("spawn(")
}

/// The rayon shim (`vendor/rayon`, DESIGN.md §18) starts its workers once,
/// at one site, and parks them between calls; its adapters are generic
/// types. A boxed iterator, a scoped thread or a second thread start is
/// the spawn-per-call, box-per-chunk design it replaced. Unit tests (below
/// the file's `#[cfg(test)]`) are not swept.
#[test]
fn rayon_shim_has_one_spawn_site() {
    assert!(per_call_machinery(
        "    type ChunkIter<'a, T> = Box<dyn Iterator<Item = T> + 'a>;"
    ));
    assert!(per_call_machinery("            std::thread::scope(|s| {"));
    assert!(!per_call_machinery(
        "    F: Fn(P::Item) -> I + Sync, I: IntoIterator,"
    ));
    assert!(spawn_site("                        s.spawn(move || {"));
    assert!(spawn_site(
        "                    .spawn(move || worker(index))"
    ));
    assert!(!spawn_site("    // a worker is never spawn()ed per call"));
    assert!(!spawn_site(
        "    pool::execute(units, threads, &body, || ());"
    ));
    let mut sources = rust_sources(&["vendor/rayon/src"]);
    for (_, text) in &mut sources {
        let end = text.find("#[cfg(test)]").unwrap_or(text.len());
        text.truncate(end);
    }
    let hits = flagged(&sources, per_call_machinery);
    assert!(hits.is_empty(), "use the pool:\n{}", hits.join("\n"));
    let spawns = flagged(&sources, spawn_site);
    assert_eq!(
        spawns.len(),
        1,
        "one worker start-up site:\n{}",
        spawns.join("\n")
    );
}

/// A manifest table header that adds build dependencies:
/// `[dependencies]`, `[dependencies.x]`, `[build-dependencies]` or a
/// target's `[target.….dependencies]`.
fn dependency_table(line: &str) -> bool {
    let header = line
        .trim()
        .strip_prefix('[')
        .and_then(|h| h.strip_suffix(']'));
    header.is_some_and(|h| {
        h.split('.')
            .any(|part| part == "dependencies" || part == "build-dependencies")
    })
}

/// `snap-obs` reaches the shim's workers through one context hook
/// (DESIGN.md §18). A shim that depended on `snap-obs` could call it
/// directly instead, and every scheduler change would become an
/// observability change; so the shim's manifest declares no dependencies.
#[test]
fn rayon_shim_has_no_dependencies() {
    assert!(dependency_table("[dependencies]"));
    assert!(dependency_table(" [dependencies.snap-obs]"));
    assert!(dependency_table("[target.'cfg(unix)'.dependencies]"));
    assert!(!dependency_table("[dev-dependencies]"));
    assert!(!dependency_table("# [dependencies]"));
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let manifest = std::fs::read_to_string(repo.join("vendor/rayon/Cargo.toml")).unwrap();
    let tables: Vec<&str> = manifest.lines().filter(|l| dependency_table(l)).collect();
    assert!(tables.is_empty(), "the shim depends on nothing: {tables:?}");
}

/// A `Mutex<Vec<(String, Arc<…>)>>` name-keyed cell list outside a comment.
fn cell_list(line: &str) -> bool {
    !line.trim_start().starts_with("//") && line.contains("Mutex<Vec<(String, Arc<")
}

/// Span counters, gauges and histograms and the telemetry registry all
/// get-or-create their cells by name through one generic table,
/// `snap_obs::Cells` (DESIGN.md §12); a second hand-written list is how
/// the crate came to carry six copies of the same find-or-push.
#[test]
fn obs_cells_live_in_one_place() {
    assert!(cell_list(
        "    counters: Mutex<Vec<(String, Arc<Counter>)>>,"
    ));
    assert!(cell_list(
        "    hists: Mutex<Vec<(String, Arc<Histogram>)>>,"
    ));
    assert!(!cell_list("    meta: Mutex<Vec<(String, String)>>,"));
    assert!(!cell_list("    // a Mutex<Vec<(String, Arc<T>)>> per kind"));
    let hits = flagged(&rust_sources(&["crates/obs/src"]), cell_list);
    let generic =
        ["crates/obs/src/lib.rs: pub(crate) struct Cells<T>(Mutex<Vec<(String, Arc<T>)>>);"];
    assert!(
        hits == generic,
        "get or create through snap_obs::Cells:\n{}",
        hits.join("\n")
    );
}

/// The name of the function a `pub fn` line declares.
fn pub_fn_name(line: &str) -> Option<&str> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let rest = line.trim_start().strip_prefix("pub fn ")?;
    Some(rest.split(|c| !ident(c)).next().unwrap()).filter(|name| !name.is_empty())
}

/// The identifiers `text` holds, in order.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.split(move |c| !ident(c)).filter(|w| !w.is_empty())
}

/// Whether `text` names `word` as a whole identifier.
fn names(text: &str, word: &str) -> bool {
    identifiers(text).any(|w| w == word)
}

/// `text` without its `pub use` statements (from a line that starts
/// one through the line that ends it), which re-export a name rather
/// than call it.
fn without_reexports(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_reexport = false;
    for line in text.lines() {
        in_reexport |= line.trim_start().starts_with("pub use ");
        if in_reexport {
            in_reexport = !line.contains(';');
        } else {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// The library sources of the crate `path` belongs to (`crates/X/src/`),
/// or `None` for a file outside every library, a binary under
/// `src/bin/` included: a binary is a crate of its own.
fn library_of(path: &str) -> Option<String> {
    let mut parts = path.split('/');
    let (Some("crates"), Some(krate), Some("src"), Some(next)) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return None;
    };
    (next != "bin").then(|| format!("crates/{krate}/src/"))
}

/// Whether `path` holds tests only: `tests/` or a crate's `tests/`.
fn is_test_file(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    parts[0] == "tests" || (parts[0] == "crates" && parts.get(2) == Some(&"tests"))
}

/// `text` without its `#[cfg(test)]` items: what builds outside tests.
/// A `mod x {` under the attribute is the unit-test module and runs to
/// the end of the file; a `mod x;` names a test file (see
/// [`test_module_files`]); any other item runs to the `}` that closes
/// its first `{`, or to its `;`.
fn non_test_code(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut lines = text.split_inclusive('\n');
    while let Some(line) = lines.next() {
        if line.trim() != "#[cfg(test)]" {
            out.push_str(line);
            continue;
        }
        let mut depth = 0i64;
        let mut opened = false;
        for item in lines.by_ref() {
            let code = item.split("//").next().unwrap().trim();
            if code.starts_with("mod ") && code.ends_with('{') {
                return out;
            }
            for c in code.chars() {
                depth += (c == '{') as i64 - (c == '}') as i64;
                opened |= c == '{';
            }
            if depth == 0 && (opened || code.ends_with(';')) {
                break;
            }
        }
    }
    out
}

/// The files of the modules `sources` declare as `#[cfg(test)] mod x;`:
/// they build only for tests.
fn test_module_files(sources: &[(String, String)]) -> Vec<String> {
    let mut files = Vec::new();
    for (path, text) in sources {
        let dir = match path.rsplit_once('/') {
            Some((dir, "lib.rs" | "main.rs" | "mod.rs")) => dir.to_string(),
            _ => path.trim_end_matches(".rs").to_string(),
        };
        let mut lines = text.lines().map(str::trim);
        while let Some(line) = lines.next() {
            if line != "#[cfg(test)]" {
                continue;
            }
            let declared = lines
                .next()
                .and_then(|l| l.strip_prefix("mod ")?.strip_suffix(';'));
            if let Some(name) = declared {
                files.push(format!("{dir}/{name}.rs"));
                files.push(format!("{dir}/{name}/mod.rs"));
            }
        }
    }
    files
}

/// Public functions that no non-test code calls and that stay public,
/// one `name: reason` line each (`#` starts a comment). Two kinds of name belong here: an analysis of
/// the paper (DESIGN.md §19), tested from its crate's `tests/`, and a
/// test seam that several integration-test binaries share to force a
/// condition or read a report. The third block is not a kind: it is the
/// names whose tests still sit in a `tests/` directory, each public
/// only until its tests move into its crate. It may only shrink.
const TEST_ONLY_SURFACE: &str = "
# The paper's analyses (PAPER.md §1).
degree_centrality: degree centrality
normalized_degree_centrality: degree centrality, normalised by n - 1
top_degree_vertices: degree centrality: the top-k hubs
closeness_of: closeness centrality of one vertex
adaptive_edge_betweenness: adaptive-sampling betweenness of one edge
triangle_count: triangles
triangles_per_vertex: triangles through each vertex
local_clustering: clustering coefficient per vertex
average_clustering: average clustering coefficient
degree_assortativity: assortativity
average_neighbor_degree: neighbour connectivity per vertex
neighbor_connectivity: neighbour connectivity per degree
rich_club_coefficient: rich-club coefficient at one degree
rich_club_curve: rich-club coefficient over degrees
degree_histogram: degree distribution
degree_ccdf: degree distribution, complementary CDF
spanning_forest: spanning forest
par_spanning_forest: spanning forest, parallel
boruvka_msf: Borůvka minimum spanning forest
is_bridge: bridges: whether one edge is a bridge
conductance: conductance of each part
weighted_modularity: modularity of a weighted graph
difference: treap set operations: difference
write_dimacs: the DIMACS writer
# Test seams several integration-test binaries share.
with_work_cap: forces budget exhaustion at a chosen work count
well_formed: reads a run report: checks its structure
total_counter: reads a run report: sums a counter over spans
meta_value: reads a run report: one metadata value
disable_mem_tracking: snap_obs::alloc probe: switches tracking off
reset_peak_live: snap_obs::alloc probe: restarts the peak window
mem_snapshot: snap_obs::alloc probe: the global counters
thread_mem: snap_obs::alloc probe: the calling thread's counters
trace_capacity: reads the trace ring size a test has set
# Public until their tests move into their crates.
to_csr: DynGraph freeze: graph tests/prop.rs dyngraph_csr_roundtrip
with_self_loops: builder option: graph tests/build_prop.rs, all four tests
is_weighted: graph, io and partition tests/prop.rs compare it
apply_merge: community tests/prop.rs tracker_merge_consistency
heavy_edge_matching: partition tests/prop.rs matching_valid and the coarsen oracle
is_valid_matching: partition tests/prop.rs matching_valid
fm_refine: partition tests/prop.rs FM proptests and tests/refinement.rs
bisection_cut: partition tests/prop.rs fm_never_worsens and tests/refinement.rs
merge_from: obs tests/hist_props.rs merge proptests
put: serve cache: tests/serve.rs eviction_honors_byte_budget_by_allocator_ground_truth
";

/// A `pub fn` of a library that no non-test code outside the library
/// names: its file, its name and the test files that name it.
struct Uncalled<'a> {
    path: &'a str,
    name: &'a str,
    tests: Vec<&'a str>,
}

/// Every `pub fn` in a library of `sources` whose name appears in no
/// non-test code outside that library. Non-test code is another crate's
/// library without its `#[cfg(test)]` items, a binary, a bench, an
/// example or the benchmark; a test file, a unit-test module or a module
/// declared under `#[cfg(test)]` is never a caller.
fn uncalled_public_functions(sources: &[(String, String)]) -> Vec<Uncalled<'_>> {
    use std::collections::{BTreeMap, BTreeSet, HashSet};
    let test_modules = test_module_files(sources);
    let builds = |path: &String| !is_test_file(path) && !test_modules.contains(path);
    let texts: Vec<(Option<String>, String)> = sources
        .iter()
        .filter(|(path, _)| builds(path))
        .map(|(path, text)| (library_of(path), without_reexports(&non_test_code(text))))
        .collect();
    let libraries: BTreeSet<&String> = texts.iter().filter_map(|(lib, _)| lib.as_ref()).collect();
    // Per library, every identifier the non-test code outside it names.
    let named_outside: BTreeMap<&String, HashSet<&str>> = libraries
        .into_iter()
        .map(|lib| {
            let others = texts.iter().filter(|(own, _)| own.as_ref() != Some(lib));
            (
                lib,
                others.flat_map(|(_, text)| identifiers(text)).collect(),
            )
        })
        .collect();
    let mut uncalled = Vec::new();
    for (path, text) in sources.iter().filter(|(path, _)| builds(path)) {
        let Some(lib) = library_of(path) else {
            continue;
        };
        for name in text.lines().filter_map(pub_fn_name) {
            if named_outside[&lib].contains(name) {
                continue;
            }
            // Outside the library, only test code can still name it.
            let tests = sources
                .iter()
                .filter(|(p, t)| {
                    library_of(p).as_ref() != Some(&lib) && names(&without_reexports(t), name)
                })
                .map(|(p, _)| p.as_str())
                .collect();
            uncalled.push(Uncalled { path, name, tests });
        }
    }
    uncalled
}

/// The entries of `uncalled` whose name is not in `kept`, as
/// `path: name (test files)`.
fn unlisted(uncalled: &[Uncalled], kept: &[&str]) -> Vec<String> {
    uncalled
        .iter()
        .filter(|u| !kept.contains(&u.name))
        .map(|u| match u.tests.is_empty() {
            true => format!("{}: {} (named by no test)", u.path, u.name),
            false => format!("{}: {} ({})", u.path, u.name, u.tests.join(", ")),
        })
        .collect()
}

/// Every public function of every crate has a caller in non-test code
/// outside the crate's library sources: another crate, a binary, the
/// benches, `examples/` or the benchmark. A test is not a caller: a
/// function only tests reach is crate-private, tested in its crate, or
/// on `TEST_ONLY_SURFACE` with its reason. A surface nothing uses is
/// code to read, document and keep compiling for nobody.
#[test]
fn public_functions_have_callers() {
    assert_eq!(
        pub_fn_name("    pub fn export_hist(name: &str) -> HistHandle {"),
        Some("export_hist")
    );
    assert_eq!(
        pub_fn_name("pub fn explain(report: &RunReport) -> Explain {"),
        Some("explain")
    );
    assert_eq!(
        pub_fn_name("    pub(crate) fn fmt_bytes(bytes: u64) -> String {"),
        None
    );
    assert_eq!(
        pub_fn_name("    fn top(report: &RunReport) -> Vec<TopEntry> {"),
        None
    );
    assert!(names(
        "let e = snap::obs::analyze::explain(&report);",
        "explain"
    ));
    assert!(!names("obs explain_all", "explain"));
    assert!(!names("fn is_active_now()", "is_active"));
    assert!(is_test_file("tests/t.rs") && is_test_file("crates/b/tests/t.rs"));
    assert!(!is_test_file("crates/bench/benches/x.rs") && !is_test_file("examples/q.rs"));
    assert_eq!(
        non_test_code("pub fn f() {}\n#[cfg(test)]\nmod tests {\n}\nfn g() {}\n"),
        "pub fn f() {}\n"
    );
    assert_eq!(
        non_test_code("#[cfg(test)]\n#[inline]\nfn t() {\n    {}\n}\nfn f() {}\n"),
        "fn f() {}\n"
    );
    let file = |path: &str, text: &str| (path.to_string(), text.to_string());
    let planted = [
        file(
            "crates/a/src/lib.rs",
            "pub fn by_bin() {}\npub fn by_bench() {}\npub fn by_root_test() {}\n\
             pub fn by_crate_test() {}\npub fn by_unit_test() {}\npub fn by_test_module() {}\n\
             pub fn by_test_item() {}\npub fn below_test_item() {}\npub fn listed() {}\n\
             pub fn by_nobody() {}\n",
        ),
        file(
            "crates/a/src/bin/tool.rs",
            "fn main() { a::by_bin(); b::run() }\n",
        ),
        file("crates/bench/benches/x.rs", "fn main() { a::by_bench() }\n"),
        file(
            "crates/b/src/lib.rs",
            "pub use a::by_unit_test;\n#[cfg(test)]\nmod oracle;\n\
             #[cfg(test)]\nfn helper() {\n    a::by_test_item()\n}\n\
             pub fn run() {\n    a::below_test_item()\n}\n\
             #[cfg(test)]\nmod tests {\n    fn t() { a::by_unit_test() }\n}\n",
        ),
        file(
            "crates/b/src/oracle.rs",
            "pub fn o() { a::by_test_module() }\n",
        ),
        file("crates/b/tests/t.rs", "fn t() { a::by_crate_test() }\n"),
        file("tests/t.rs", "fn t() { a::by_root_test(); a::listed() }\n"),
    ];
    assert_eq!(
        unlisted(&uncalled_public_functions(&planted), &["listed"]),
        [
            "crates/a/src/lib.rs: by_root_test (tests/t.rs)",
            "crates/a/src/lib.rs: by_crate_test (crates/b/tests/t.rs)",
            "crates/a/src/lib.rs: by_unit_test (crates/b/src/lib.rs)",
            "crates/a/src/lib.rs: by_test_module (crates/b/src/oracle.rs)",
            "crates/a/src/lib.rs: by_test_item (crates/b/src/lib.rs)",
            "crates/a/src/lib.rs: by_nobody (named by no test)",
        ]
    );
    let mut sources = rust_sources(&["crates", "tests", "examples", "benchmark/src"]);
    sources.retain(|(path, _)| path != "tests/repo_lints.rs");
    let uncalled = uncalled_public_functions(&sources);
    let kept: Vec<&str> = TEST_ONLY_SURFACE
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.split_once(": ").expect("name: reason").0)
        .collect();
    let flagged = unlisted(&uncalled, &kept);
    assert!(
        flagged.is_empty(),
        "call from non-test code outside the crate, make pub(crate) and move \
         its tests into the crate, or delete (test files that name it in brackets):\n{}",
        flagged.join("\n")
    );
    let stale: Vec<&str> = kept
        .into_iter()
        .filter(|name| !uncalled.iter().any(|u| u.name == *name))
        .collect();
    assert!(
        stale.is_empty(),
        "on TEST_ONLY_SURFACE but not an uncalled pub fn: {stale:?}"
    );
}

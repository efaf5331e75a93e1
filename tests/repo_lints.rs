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

/// More than 700 lines.
fn over_long(text: &str) -> bool {
    text.lines().count() > 700
}

/// A library file of the facade crate holds one concept (`serve/` is
/// protocol, cache, recorder, engine and transport, not one 1 654-line
/// file). The binary is a front end over all of them and is exempt.
#[test]
fn core_files_hold_one_concept() {
    assert!(over_long(&"fn f() {}\n".repeat(701)));
    assert!(!over_long(&"fn f() {}\n".repeat(700)));
    let mut sources = rust_sources(&["crates/core/src"]);
    sources.retain(|(path, _)| !path.starts_with("crates/core/src/bin/"));
    let long = sources.iter().filter(|(_, text)| over_long(text));
    let long: Vec<&str> = long.map(|(path, _)| path.as_str()).collect();
    assert!(long.is_empty(), "split by concept: {long:?}");
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

/// Whether `text` names `word` as a whole identifier.
fn names(text: &str, word: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(word)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + word.len()..].starts_with(ident))
}

/// Every public function of `snap-obs` has a caller outside the crate's
/// sources (the CLI, another crate, a test or the benchmark); one that
/// only its own unit tests call is crate-private or gone. A surface
/// nothing uses is code to read, document and keep compiling for
/// nobody.
#[test]
fn obs_public_functions_have_callers() {
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
    let mut outside = rust_sources(&["crates", "tests", "benchmark/src"]);
    outside
        .retain(|(path, _)| !path.starts_with("crates/obs/src/") && path != "tests/repo_lints.rs");
    let mut uncalled: Vec<String> = Vec::new();
    for (path, text) in rust_sources(&["crates/obs/src"]) {
        for name in text.lines().filter_map(pub_fn_name) {
            if !outside.iter().any(|(_, other)| names(other, name)) {
                uncalled.push(format!("{path}: {name}"));
            }
        }
    }
    assert!(
        uncalled.is_empty(),
        "call from outside snap-obs, make pub(crate), or delete:\n{}",
        uncalled.join("\n")
    );
}

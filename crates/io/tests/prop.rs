//! Round-trip properties for every serialization format.

use proptest::prelude::*;
use snap_graph::{Graph, GraphBuilder, WeightedGraph};
use snap_io::{dimacs, edgelist, metis};

fn arb_weighted_graph() -> impl Strategy<Value = snap_graph::CsrGraph> {
    (2usize..20).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32, 1u32..100), 0..40).prop_map(move |edges| {
            let mut uniq: Vec<(u32, u32, u32)> = edges
                .into_iter()
                .filter(|&(u, v, _)| u != v)
                .map(|(u, v, w)| (u.min(v), u.max(v), w))
                .collect();
            uniq.sort_unstable_by_key(|&(u, v, _)| (u, v));
            uniq.dedup_by_key(|&mut (u, v, _)| (u, v));
            GraphBuilder::undirected(n).add_weighted_edges(uniq).build()
        })
    })
}

fn graphs_equal(a: &snap_graph::CsrGraph, b: &snap_graph::CsrGraph) -> bool {
    if a.num_vertices() != b.num_vertices() || a.num_edges() != b.num_edges() {
        return false;
    }
    for e in a.edge_ids() {
        if a.edge_endpoints(e) != b.edge_endpoints(e) || a.edge_weight(e) != b.edge_weight(e) {
            return false;
        }
    }
    true
}

proptest! {
    #[test]
    fn edge_list_roundtrip(g in arb_weighted_graph()) {
        let mut buf = Vec::new();
        edgelist::write_edge_list(&mut buf, &g).unwrap();
        let h = edgelist::read_edge_list(buf.as_slice(), false, g.num_vertices()).unwrap();
        prop_assert!(graphs_equal(&g, &h));
    }

    #[test]
    fn metis_roundtrip(g in arb_weighted_graph()) {
        let mut buf = Vec::new();
        metis::write_metis(&mut buf, &g).unwrap();
        let h = metis::read_metis(buf.as_slice()).unwrap();
        prop_assert!(graphs_equal(&g, &h));
    }

    #[test]
    fn dimacs_roundtrip(g in arb_weighted_graph()) {
        let mut buf = Vec::new();
        dimacs::write_dimacs(&mut buf, &g).unwrap();
        let h = dimacs::read_dimacs(buf.as_slice(), false).unwrap();
        prop_assert!(graphs_equal(&g, &h));
    }

    /// Reader rejects any truncation of a valid METIS file that cuts
    /// into the adjacency section (header stays intact).
    #[test]
    fn metis_truncation_detected(g in arb_weighted_graph()) {
        prop_assume!(g.num_vertices() >= 3 && g.num_edges() >= 1);
        let mut buf = Vec::new();
        metis::write_metis(&mut buf, &g).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // Drop the last vertex line entirely.
        let truncated = lines[..lines.len() - 1].join("\n");
        prop_assert!(metis::read_metis(truncated.as_bytes()).is_err());
    }
}

// ---------------------------------------------------------------------
// The grammar, pinned. `oracle` holds the line-based readers this crate
// had before `scan.rs` — `lines()`, `trim`, `split_whitespace`,
// `str::parse` — as the reference the byte-level readers are compared
// with. Where a reader now rejects what the old one panicked on or
// mis-read, the oracle carries the same rule and says so.
// ---------------------------------------------------------------------

mod oracle {
    use snap_graph::{CsrGraph, Graph, GraphBuilder};
    use std::collections::HashSet;

    /// The graph, or the 1-based line of the error (0: the file as a whole).
    pub type Outcome = Result<CsrGraph, usize>;

    fn field<T: std::str::FromStr>(token: Option<&str>, line: usize) -> Result<T, usize> {
        token.ok_or(line)?.parse().map_err(|_| line)
    }

    fn numbered_lines(text: &str) -> impl Iterator<Item = (usize, &str)> {
        text.lines().enumerate().map(|(at, l)| (at + 1, l.trim()))
    }

    fn builder(n: usize, directed: bool) -> GraphBuilder {
        if directed {
            GraphBuilder::directed(n)
        } else {
            GraphBuilder::undirected(n)
        }
    }

    pub fn edge_list(text: &str, directed: bool) -> Outcome {
        let mut edges = Vec::new();
        let mut n = 0usize;
        for (at, line) in numbered_lines(text) {
            if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                continue;
            }
            let mut it = line.split_whitespace();
            let (u, v): (u32, u32) = (field(it.next(), at)?, field(it.next(), at)?);
            let w: u32 = it.next().map_or(Ok(1), |token| field(Some(token), at))?;
            // New rule (the old reader panicked in the builder): `n = id + 1`
            // must fit in u32.
            if u.max(v) == u32::MAX {
                return Err(at);
            }
            n = n.max(u.max(v) as usize + 1);
            edges.push((u, v, w));
        }
        Ok(builder(n, directed).add_weighted_edges(edges).build())
    }

    pub fn metis(text: &str) -> Outcome {
        let mut lines = numbered_lines(text);
        let (header, n, m, has_ewts) = loop {
            let (at, line) = lines.next().ok_or(0usize)?;
            if line.is_empty() || line.starts_with('%') {
                continue;
            }
            let mut it = line.split_whitespace();
            let (n, m): (u64, u64) = (field(it.next(), at)?, field(it.next(), at)?);
            // New rules: n and m fit in u32 (the old reader panicked in the
            // builder), and fmt is a number that is 0 or 1 (it used to test
            // `ends_with('1')` and a three-byte prefix).
            if n.max(m) > u64::from(u32::MAX) {
                return Err(at);
            }
            let has_ewts = match it.next() {
                None => false,
                Some(fmt) => match field::<u32>(Some(fmt), at)? {
                    0 => false,
                    1 => true,
                    _ => return Err(at),
                },
            };
            break (at, n as usize, m as usize, has_ewts);
        };
        let mut b = GraphBuilder::undirected(n);
        let mut vertex = 0usize;
        for (at, line) in lines {
            if line.starts_with('%') {
                continue;
            }
            if vertex >= n {
                if line.is_empty() {
                    continue;
                }
                return Err(at);
            }
            let mut it = line.split_whitespace();
            while let Some(token) = it.next() {
                let nbr: u64 = field(Some(token), at)?;
                if nbr == 0 || nbr as usize > n {
                    return Err(at);
                }
                let w: u32 = if has_ewts { field(it.next(), at)? } else { 1 };
                let (u, v) = (vertex as u32, (nbr - 1) as u32);
                if u <= v {
                    b.add_weighted_edge(u, v, w);
                }
            }
            vertex += 1;
        }
        let g = b.build();
        if vertex != n || g.num_edges() != m {
            return Err(header);
        }
        Ok(g)
    }

    pub fn dimacs(text: &str, directed: bool) -> Outcome {
        let mut problem: Option<(GraphBuilder, u64, u64)> = None;
        let mut seen_arcs = 0u64;
        let mut added = HashSet::new();
        for (at, line) in numbered_lines(text) {
            if line.is_empty() || line.starts_with('c') {
                continue;
            }
            let mut it = line.split_whitespace();
            match it.next() {
                Some("p") => {
                    if problem.is_some() || it.next() != Some("sp") {
                        return Err(at);
                    }
                    let (n, arcs): (u64, u64) = (field(it.next(), at)?, field(it.next(), at)?);
                    // New rule: n fits in u32 (the old reader panicked in
                    // the builder) and the arc count in twice that.
                    if n > u64::from(u32::MAX) || arcs > 2 * u64::from(u32::MAX) {
                        return Err(at);
                    }
                    problem = Some((builder(n as usize, directed), n, arcs));
                }
                Some("a") => {
                    let (b, n, _) = problem.as_mut().ok_or(at)?;
                    let (u, v): (u64, u64) = (field(it.next(), at)?, field(it.next(), at)?);
                    let w: u32 = it.next().map_or(Ok(1), |token| field(Some(token), at))?;
                    // New rule: ids are in 1..=n (the old reader panicked
                    // above n and wrapped above u32).
                    if u == 0 || v == 0 || u.max(v) > *n {
                        return Err(at);
                    }
                    let (su, sv) = ((u - 1) as u32, (v - 1) as u32);
                    if directed || added.insert((su.min(sv), su.max(sv))) {
                        b.add_weighted_edge(su, sv, w);
                    }
                    seen_arcs += 1;
                }
                _ => return Err(at),
            }
        }
        let (b, _, declared_arcs) = problem.ok_or(0usize)?;
        if seen_arcs != declared_arcs {
            return Err(0);
        }
        Ok(b.build())
    }
}

/// A replayable stream of small choices.
struct Noise {
    bytes: Vec<u8>,
    at: usize,
}

impl Noise {
    fn below(&mut self, k: usize) -> usize {
        self.at += 1;
        self.bytes[self.at % self.bytes.len()] as usize % k
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[self.below(options.len())]
    }

    fn one_in(&mut self, k: usize) -> bool {
        self.below(k) == 0
    }

    /// A number as the grammar allows it: bare, signed or zero-padded.
    fn number(&mut self, value: usize) -> String {
        format!("{}{value}", self.pick(&["", "", "", "+", "0", "+00"]))
    }
}

fn arb_noise() -> impl Strategy<Value = Noise> {
    prop::collection::vec(0u16..256, 97usize..98).prop_map(|bytes| Noise {
        bytes: bytes.into_iter().map(|b| b as u8).collect(),
        at: 0,
    })
}

/// Lay `lines` (tokens each) out as a file: blanks before, between and
/// after the tokens, `\n` or `\r\n`, `filler` lines (comments, and blank
/// lines where the format ignores them) in between, and now and then no
/// newline at the end. Then, one time in two, swap one token of the file
/// for something hostile.
fn render(lines: &[Vec<String>], filler: &[&str], noise: &mut Noise) -> String {
    let mut text = String::new();
    for (at, tokens) in lines.iter().enumerate() {
        while noise.one_in(4) {
            text += noise.pick(filler);
            text += noise.pick(&["\n", "\r\n"]);
        }
        text += noise.pick(&["", "", " ", "\t", " \x0c"]);
        for token in tokens {
            text += token;
            text += noise.pick(&[" ", " ", "\t", "  ", "\x0b", " \r"]);
        }
        let last = at + 1 == lines.len();
        text += match noise.below(4) {
            0 if last => "",
            1 => "\r\n",
            _ => "\n",
        };
    }
    if noise.one_in(2) {
        return text;
    }
    let is_blank = char::is_whitespace;
    let starts: Vec<usize> = text
        .char_indices()
        .filter(|&(at, c)| !is_blank(c) && text[..at].chars().next_back().is_none_or(is_blank))
        .map(|(at, _)| at)
        .collect();
    if starts.is_empty() {
        return text;
    }
    let start = noise.pick(&starts);
    let len = text[start..].find(is_blank).unwrap_or(text.len() - start);
    // No number between 17 and 2^32: a mutated `n` or id must not make a
    // reader build a graph of billions of vertices.
    const HOSTILE: [&str; 15] = [
        "",
        "x",
        "-1",
        "1.5",
        "+",
        "1\u{e9}",
        "0",
        "1",
        "3",
        "17",
        "99999999999",
        "4294967296",
        "a",
        "p",
        "%",
    ];
    text.replace_range(start..start + len, noise.pick(&HOSTILE));
    text
}

/// Same n, m, edge ids, weights, direction and adjacency.
fn same_graph(a: &snap_graph::CsrGraph, b: &snap_graph::CsrGraph) -> bool {
    graphs_equal(a, b)
        && a.is_directed() == b.is_directed()
        && a.is_weighted() == b.is_weighted()
        && a.vertices()
            .all(|v| a.neighbor_slice(v) == b.neighbor_slice(v))
}

/// Both read the same graph, or both fail on the same line. The kind of
/// error may differ, and the oracle's line 0 matches any line.
fn agree(
    text: &str,
    new: Result<snap_graph::CsrGraph, snap_io::IoError>,
    old: oracle::Outcome,
) -> Result<(), TestCaseError> {
    match (new, old) {
        (Ok(new), Ok(old)) => prop_assert!(same_graph(&new, &old), "graphs differ on {text:?}"),
        (Err(snap_io::IoError::Parse { line, .. }), Err(old)) => {
            prop_assert!(old == 0 || old == line, "line {line} vs {old} on {text:?}")
        }
        (new, old) => prop_assert!(false, "{new:?} vs {old:?} on {text:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn edge_list_reads_as_the_line_based_reader_did(
        g in arb_weighted_graph(),
        noise in arb_noise(),
    ) {
        let mut noise = noise;
        let lines: Vec<Vec<String>> = g.edge_ids().map(|e| {
            let (u, v) = g.edge_endpoints(e);
            let mut line = vec![noise.number(u as usize), noise.number(v as usize)];
            if g.edge_weight(e) != 1 || noise.one_in(2) {
                line.push(noise.number(g.edge_weight(e) as usize));
                if noise.one_in(4) {
                    line.extend(["extra".to_string(), "7".to_string()]);
                }
            }
            line
        }).collect();
        let text = render(&lines, &["", "  ", "# 1 2", "%", " #x", "\t% 3 4 5"], &mut noise);
        let directed = noise.one_in(2);
        agree(
            &text,
            edgelist::read_edge_list(text.as_bytes(), directed, 0),
            oracle::edge_list(&text, directed),
        )?;
    }

    #[test]
    fn metis_reads_as_the_line_based_reader_did(
        g in arb_weighted_graph(),
        noise in arb_noise(),
    ) {
        let mut noise = noise;
        let fmt = noise.pick(&["", "0", "000", "1", "01", "001", "001 3", "11", "010", "100"]);
        let weighted = fmt.contains('1');
        let mut lines = vec![vec![noise.number(g.num_vertices()), noise.number(g.num_edges())]];
        lines[0].extend((!fmt.is_empty()).then(|| fmt.to_string()));
        for v in g.vertices() {
            let mut line = Vec::new();
            for (u, e) in g.neighbors_with_eid(v) {
                line.push(noise.number(u as usize + 1));
                if weighted {
                    line.push(noise.number(g.edge_weight(e) as usize));
                }
            }
            lines.push(line);
        }
        let text = render(&lines, &["%", "% 1 2", "\t%x"], &mut noise);
        agree(&text, metis::read_metis(text.as_bytes()), oracle::metis(&text))?;
    }

    #[test]
    fn dimacs_reads_as_the_line_based_reader_did(
        g in arb_weighted_graph(),
        noise in arb_noise(),
    ) {
        let mut noise = noise;
        let mut lines = Vec::new();
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            for (u, v) in [(u, v), (v, u)].into_iter().take(noise.pick(&[1, 2, 2])) {
                let mut line = vec!["a".to_string()];
                line.extend([noise.number(u as usize + 1), noise.number(v as usize + 1)]);
                if g.edge_weight(e) != 1 || noise.one_in(2) {
                    line.push(noise.number(g.edge_weight(e) as usize));
                    line.extend(noise.one_in(4).then(|| "extra".to_string()));
                }
                lines.push(line);
            }
        }
        let problem = ["p", "sp", &noise.number(g.num_vertices()), &noise.number(lines.len())];
        lines.insert(0, problem.map(str::to_string).to_vec());
        let text = render(&lines, &["", "c", "c 1 2", " comment", "\tc x"], &mut noise);
        let directed = noise.one_in(2);
        agree(
            &text,
            dimacs::read_dimacs(text.as_bytes(), directed),
            oracle::dimacs(&text, directed),
        )?;
    }

    /// Any bytes at all: a reader returns, and an error names a line the
    /// file has. The pieces hold no number between 65 535 and 2^32, so no
    /// case makes a reader build a graph that large; a header count has
    /// to be refused or bounded by the file's length to pass here.
    #[test]
    fn readers_survive_arbitrary_bytes(
        pieces in prop::collection::vec((0usize..48, 0u16..256), 0usize..60),
    ) {
        const WORDS: [&str; 40] = [
            "0", "1", "2", "3", "4", "7", "+1", "001", "10", "11", "100", "65535", "4294967296",
            "99999999999", "18446744073709551616", "-1", "1x", "x", "1.5", "+", "\u{e9}", "p",
            "sp", "a", "c", "#", "%", "p sp 4 2", "p sp 3 0", "a 1 2 5", "a 2 1", "3 2", "3 2 1",
            "2 1 011", "1 2", "2 3 9", "\n", "\n", "\r\n", "\t",
        ];
        let mut bytes = Vec::new();
        for (word, raw) in pieces {
            match WORDS.get(word) {
                Some(word) => bytes.extend_from_slice(word.as_bytes()),
                // Not a digit: two pieces never fuse into a larger number.
                None => bytes.push(if (raw as u8).is_ascii_digit() { b'x' } else { raw as u8 }),
            }
            bytes.extend_from_slice([" ", " ", "\n", "\t", "\r\n"][raw as usize % 5].as_bytes());
        }
        let lines = 1 + bytes.iter().filter(|&&b| b == b'\n').count();
        let directed = bytes.len() % 2 == 1;
        let results = [
            edgelist::read_edge_list(bytes.as_slice(), directed, 0),
            metis::read_metis(bytes.as_slice()),
            dimacs::read_dimacs(bytes.as_slice(), directed),
        ];
        for result in results {
            match result {
                Ok(g) => prop_assert!(g.num_vertices() <= 65_536 && g.validate().is_ok()),
                Err(snap_io::IoError::Parse { line, .. }) => {
                    prop_assert!((1..=lines).contains(&line), "line {line} of {lines}")
                }
                Err(other) => prop_assert!(false, "{other}"),
            }
        }
    }
}

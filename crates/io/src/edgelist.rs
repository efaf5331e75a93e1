//! Whitespace-separated edge lists: `u v [w]` per line, `#` or `%`
//! comments. The most common interchange format for the network datasets
//! the paper draws on (Newman's collections, SNAP-Stanford dumps).

use crate::scan::{Printer, Scanner, U32};
use crate::IoError;
use snap_graph::{CsrGraph, Graph, GraphBuilder, VertexId, Weight, WeightedGraph};
use std::io::{BufRead, Write};

/// Read an edge list. Vertex ids are 0-based; `n` is inferred as
/// `max id + 1` unless a larger `min_vertices` is given (for graphs with
/// trailing isolated vertices). Tokens after the weight are ignored.
pub fn read_edge_list<R: BufRead>(
    mut reader: R,
    directed: bool,
    min_vertices: usize,
) -> Result<CsrGraph, IoError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    let mut sc = Scanner::new(&buf);
    let mut edges: Vec<(VertexId, VertexId, Weight)> = Vec::new();
    let mut n = min_vertices;
    // `n = max id + 1` must itself fit in u32.
    let ids = || 0..=u32::MAX as u64 - 1;
    while !sc.at_eof() {
        if !matches!(sc.peek(), None | Some(b'#' | b'%')) {
            let u = sc.number("source vertex", ids())? as VertexId;
            let v = sc.number("target vertex", ids())? as VertexId;
            let w = sc.optional("weight", U32)?.unwrap_or(1) as Weight;
            n = n.max(u.max(v) as usize + 1);
            edges.push((u, v, w));
        }
        sc.next_line();
    }
    let builder = if directed {
        GraphBuilder::directed(n)
    } else {
        GraphBuilder::undirected(n)
    };
    Ok(builder.with_edges(edges).build())
}

/// Write a graph as an edge list with a `# n m directed` header comment.
pub fn write_edge_list<W: Write, G: Graph + WeightedGraph>(
    writer: W,
    g: &G,
) -> Result<(), IoError> {
    let mut out = Printer::new(writer);
    let kind = if g.is_directed() {
        "directed"
    } else {
        "undirected"
    };
    out.word("#").number(g.num_vertices() as u64);
    out.number(g.num_edges() as u64).word(kind).end_line()?;
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        out.number(u).number(v);
        if g.edge_weight(e) != 1 {
            out.number(g.edge_weight(e));
        }
        out.end_line()?;
    }
    Ok(out.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::Graph;

    #[test]
    fn reads_simple_list() {
        let text = "# comment\n0 1\n1 2\n% other comment\n2 0\n";
        let g = read_edge_list(text.as_bytes(), false, 0).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn reads_weights() {
        let g = read_edge_list("0 1 5\n".as_bytes(), false, 0).unwrap();
        assert_eq!(g.edge_weight(0), 5);
    }

    #[test]
    fn min_vertices_pads_isolated() {
        let g = read_edge_list("0 1\n".as_bytes(), false, 10).unwrap();
        assert_eq!(g.num_vertices(), 10);
    }

    #[test]
    fn bad_token_reports_line() {
        let err = read_edge_list("0 1\nx 2\n".as_bytes(), false, 0).unwrap_err();
        match err {
            IoError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected: {other}"),
        }
    }

    fn parse_line(text: &str) -> usize {
        crate::parse_error(read_edge_list(text.as_bytes(), false, 0)).0
    }

    #[test]
    fn grammar_blanks_signs_extra_tokens_and_no_final_newline() {
        let text = "  # n m\r\n\t0\t+1\r\n\n 1 2 5 trailing tokens\n%\n2\x0b0 \x0c";
        let g = read_edge_list(text.as_bytes(), false, 0).unwrap();
        let rows: Vec<_> = g
            .edges()
            .map(|(e, u, v)| (u, v, g.edge_weight(e)))
            .collect();
        assert_eq!(rows, [(0, 1, 1), (0, 2, 1), (1, 2, 5)]);
    }

    #[test]
    fn ids_that_leave_no_room_for_n_are_errors() {
        assert_eq!(parse_line("0 1\n4294967295 0"), 2);
        assert_eq!(parse_line("0 4294967295\n"), 1);
        assert_eq!(parse_line("\n\n99999999999999999999999 0\n"), 3);
        assert_eq!(parse_line("0 1 4294967296\n"), 1);
        let g = read_edge_list("0 1 4294967295\n".as_bytes(), false, 0).unwrap();
        assert_eq!(g.edge_weight(0), Weight::MAX);
    }

    #[test]
    fn malformed_lines_name_their_line() {
        assert_eq!(parse_line("0 1\n2\n"), 2);
        assert_eq!(parse_line("0 1\n2"), 2);
        assert_eq!(parse_line("0 1\n\n0 -1\n"), 3);
        assert_eq!(parse_line("0 1 # comment\n"), 1);
        assert_eq!(parse_line("# ok\n0 1\n0 1\u{e9}\n"), 3);
        // Not UTF-8: a parse error with its line, and only where a number
        // is expected.
        let err = read_edge_list(&b"0 1\n\xff 2\n"[..], false, 0).unwrap_err();
        assert!(matches!(err, IoError::Parse { line: 2, .. }), "{err}");
        assert!(read_edge_list(&b"# \xff\n0 1\n"[..], false, 0).is_ok());
        assert_eq!(parse_line("0 1.5\n"), 1);
    }

    #[test]
    fn round_trip() {
        let g = snap_graph::GraphBuilder::undirected(5)
            .add_weighted_edges([(0, 1, 1), (1, 2, 3), (3, 4, 1)])
            .build();
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &g).unwrap();
        let h = read_edge_list(buf.as_slice(), false, 0).unwrap();
        assert_eq!(h.num_vertices(), 5);
        assert_eq!(h.num_edges(), 3);
        assert_eq!(h.edge_weight(1), 3);
    }

    #[test]
    fn directed_round_trip() {
        let g = snap_graph::GraphBuilder::directed(3)
            .add_edges([(2, 0), (0, 1)])
            .build();
        let mut buf = Vec::new();
        write_edge_list(&mut buf, &g).unwrap();
        let h = read_edge_list(buf.as_slice(), true, 0).unwrap();
        assert!(h.is_directed());
        assert_eq!(h.num_edges(), 2);
    }

    #[test]
    fn empty_input() {
        let g = read_edge_list("".as_bytes(), false, 0).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
    }
}

//! METIS / Chaco adjacency format: header `n m [fmt]`, then one line per
//! vertex listing its (1-based) neighbors, with interleaved edge weights
//! when `fmt` has the edge-weight bit (001) set. This is the native input
//! format of the partitioning packages Table 1 compares against.

use crate::scan::{Printer, Scanner, U32};
use crate::IoError;
use snap_graph::{CsrGraph, Graph, GraphBuilder, VertexId, Weight, WeightedGraph};
use std::io::{BufRead, Write};

/// Read a METIS graph file (always undirected, per the format spec).
pub fn read_metis<R: BufRead>(mut reader: R) -> Result<CsrGraph, IoError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    let mut sc = Scanner::new(&buf);

    // Header: the first line that is neither blank nor a comment.
    while matches!(sc.peek(), None | Some(b'%')) {
        if sc.at_eof() {
            return Err(sc.error("missing METIS header"));
        }
        sc.next_line();
    }
    let header = sc.pos();
    let n = sc.number("n", U32)? as usize;
    let m = sc.number("m", U32)? as usize;
    // `fmt` is up to three flag digits, leading zeros optional: vertex
    // sizes / vertex weights / edge weights. Only the last is supported.
    let has_ewts = match sc.optional("fmt", 0..=999)? {
        None | Some(0) => false,
        Some(1) => true,
        Some(_) => return Err(sc.error("vertex weights not supported")),
    };
    sc.next_line();

    // An edge takes at least four bytes of the file ("2\n1\n"), so the
    // header cannot reserve more than the file could hold.
    let mut edges = Vec::with_capacity(m.min(buf.len() / 4));
    let mut vertex = 0usize;
    while !sc.at_eof() {
        match sc.peek() {
            Some(b'%') => {}
            None if vertex >= n => {}
            Some(_) if vertex >= n => {
                return Err(sc.error("more adjacency lines than vertices"));
            }
            _ => {
                let u = vertex as VertexId;
                while sc.peek().is_some() {
                    let v = (sc.number("neighbor", 1..=n as u64)? - 1) as VertexId;
                    let w = if has_ewts {
                        sc.number("edge weight", U32)? as Weight
                    } else {
                        1
                    };
                    // Each undirected edge appears in both endpoint lines; add once.
                    if u <= v {
                        edges.push((u, v, w));
                    }
                }
                vertex += 1;
            }
        }
        sc.next_line();
    }
    if vertex != n {
        let message = format!("expected {n} adjacency lines, found {vertex}");
        return Err(sc.error_at(header, message));
    }
    let g = GraphBuilder::undirected(n).with_edges(edges).build();
    if g.num_edges() != m {
        let message = format!("header declared {m} edges, found {}", g.num_edges());
        return Err(sc.error_at(header, message));
    }
    Ok(g)
}

/// Write an undirected graph in METIS format. Weighted graphs get the
/// `001` fmt flag with interleaved weights.
pub fn write_metis<W: Write, G: Graph + WeightedGraph>(writer: W, g: &G) -> Result<(), IoError> {
    assert!(!g.is_directed(), "METIS format is undirected");
    // Probe only the live edges: on a filtered view, flat ids up to
    // `num_edges()` would read weights of edges that may be deleted (or
    // miss live ones above the count).
    let weighted = g.edge_ids().any(|e| g.edge_weight(e) != 1);
    let mut out = Printer::new(writer);
    out.number(g.num_vertices() as u64);
    out.number(g.num_edges() as u64);
    if weighted {
        out.word("001");
    }
    out.end_line()?;
    for v in g.vertices() {
        for (u, e) in g.neighbors_with_eid(v) {
            out.number(u + 1);
            if weighted {
                out.number(g.edge_weight(e));
            }
        }
        out.end_line()?;
    }
    Ok(out.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;
    use snap_graph::Graph;

    #[test]
    fn reads_triangle() {
        let text = "3 3\n2 3\n1 3\n1 2\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn reads_edge_weights() {
        let text = "2 1 001\n2 7\n1 7\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.edge_weight(0), 7);
    }

    #[test]
    fn comments_and_isolated_vertices() {
        let text = "% a comment\n3 1\n2\n1\n\n";
        let g = read_metis(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn edge_count_mismatch_is_error() {
        let text = "3 2\n2\n1\n\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    #[test]
    fn out_of_range_neighbor_is_error() {
        let text = "2 1\n3\n\n";
        assert!(read_metis(text.as_bytes()).is_err());
    }

    fn parse_error(text: &str) -> (usize, String) {
        crate::parse_error(read_metis(text.as_bytes()))
    }

    #[test]
    fn header_counts_are_bounded_before_anything_is_allocated() {
        assert_eq!(parse_error("99999999999 0\n").0, 1);
        assert_eq!(parse_error("% c\n1 99999999999\n\n").0, 2);
        // In range, but more than the file could hold.
        assert_eq!(parse_error("2 4294967295\n2\n1\n").0, 1);
        assert_eq!(parse_error("4294967295 0\n\n").0, 1);
        assert_eq!(parse_error("% only a comment\n\n").0, 3);
    }

    #[test]
    fn fmt_is_three_flag_digits_with_optional_leading_zeros() {
        for fmt in ["", "0", "00", "000"] {
            let g = read_metis(format!("2 1 {fmt}\n2\n1\n").as_bytes()).unwrap();
            assert!(!g.is_weighted(), "{fmt:?}");
        }
        for fmt in ["1", "01", "001", "1 3"] {
            let g = read_metis(format!("2 1 {fmt}\n2 9\n1 9\n").as_bytes()).unwrap();
            assert_eq!(g.edge_weight(0), 9, "{fmt:?}");
        }
        for fmt in ["10", "11", "010", "011", "100", "101", "110", "111", "2"] {
            let (line, message) = parse_error(&format!("%\n2 1 {fmt}\n2 1 1\n1 1 1\n"));
            assert_eq!(
                (line, message.as_str()),
                (2, "vertex weights not supported")
            );
        }
        // Used to slice `&fmt[..2]` inside the two-byte `é`.
        assert_eq!(parse_error("1 0 1\u{e9}\n\n").0, 1);
        assert_eq!(parse_error("1 0 0x1\n\n").0, 1);
    }

    #[test]
    fn body_errors_name_their_line() {
        assert_eq!(parse_error("2 1\n2\n0\n").0, 3);
        assert_eq!(parse_error("2 1\n2\n3\n").0, 3);
        assert_eq!(parse_error("2 1\n2\n4294967297\n").0, 3);
        assert_eq!(parse_error("2 1 1\n2 7\n1\n").0, 3);
        assert_eq!(parse_error("2 1\n2\n1\n\n% fine\n1\n").0, 6);
        assert_eq!(parse_error("2 1\n2 x\n1\n").0, 2);
    }

    #[test]
    fn round_trip_through_filtered_view() {
        // Deleting edges leaves the view's live ids sparse in the base id
        // space; the writer must still emit exactly the live topology and
        // weights. Compare against the compacted rebuild.
        let g = snap_graph::GraphBuilder::undirected(5)
            .add_weighted_edges([(0, 1, 3), (1, 2, 1), (2, 3, 5), (3, 4, 1), (0, 4, 2)])
            .build();
        let mut view = snap_graph::FilteredGraph::new(&g);
        view.delete_edge(0); // weight-3 edge: detection must not see it
        view.delete_edge(2);
        let mut buf = Vec::new();
        write_metis(&mut buf, &view).unwrap();
        let h = read_metis(buf.as_slice()).unwrap();
        let rebuilt = view.rebuild();
        assert_eq!(h.num_vertices(), rebuilt.num_vertices());
        assert_eq!(h.num_edges(), rebuilt.num_edges());
        for v in rebuilt.vertices() {
            let mut a: Vec<_> = rebuilt
                .neighbors_with_eid(v)
                .map(|(u, e)| (u, rebuilt.edge_weight(e)))
                .collect();
            let mut b: Vec<_> = h
                .neighbors_with_eid(v)
                .map(|(u, e)| (u, h.edge_weight(e)))
                .collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "vertex {v}");
        }
    }

    #[test]
    fn filtered_view_weight_detection_ignores_dead_edges() {
        // Only the *deleted* edge is weighted: the writer must fall back
        // to the unweighted format.
        let g = snap_graph::GraphBuilder::undirected(3)
            .add_weighted_edges([(0, 1, 9), (1, 2, 1)])
            .build();
        let mut view = snap_graph::FilteredGraph::new(&g);
        view.delete_edge(0);
        let mut buf = Vec::new();
        write_metis(&mut buf, &view).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.starts_with("3 1\n"), "{text}");
    }

    #[test]
    fn round_trip() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]);
        let mut buf = Vec::new();
        write_metis(&mut buf, &g).unwrap();
        let h = read_metis(buf.as_slice()).unwrap();
        assert_eq!(h.num_vertices(), g.num_vertices());
        assert_eq!(h.num_edges(), g.num_edges());
        for v in g.vertices() {
            let a: Vec<_> = g.neighbors(v).collect();
            let b: Vec<_> = h.neighbors(v).collect();
            assert_eq!(a, b);
        }
    }
}

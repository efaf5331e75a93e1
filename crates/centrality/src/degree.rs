//! Degree centrality — the paper's "simple local measure based on the
//! notion of neighborhood".

use rayon::prelude::*;
use snap_graph::{Graph, VertexId};

/// Raw degree of every vertex.
pub fn degree_centrality<G: Graph>(g: &G) -> Vec<usize> {
    (0..g.num_vertices() as VertexId)
        .into_par_iter()
        .map(|v| g.degree(v))
        .collect()
}

/// Degree normalized by the maximum possible `n - 1`.
pub fn normalized_degree_centrality<G: Graph>(g: &G) -> Vec<f64> {
    let n = g.num_vertices();
    if n <= 1 {
        return vec![0.0; n];
    }
    let denom = (n - 1) as f64;
    degree_centrality(g)
        .into_iter()
        .map(|d| d as f64 / denom)
        .collect()
}

/// Vertices sorted by decreasing degree (ties by id), typically used to
/// shortlist hub candidates before a more expensive centrality pass.
pub fn top_degree_vertices<G: Graph>(g: &G, k: usize) -> Vec<(VertexId, usize)> {
    let mut all: Vec<(VertexId, usize)> = degree_centrality(g)
        .into_iter()
        .enumerate()
        .map(|(v, d)| (v as VertexId, d))
        .collect();
    all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

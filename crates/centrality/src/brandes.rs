//! Exact betweenness centrality (Brandes, J. Math. Sociol. 2001), for
//! vertices and edges simultaneously.
//!
//! The paper's exact kernel is `O(mn)` work: one BFS-like dependency
//! accumulation per source. SNAP's *coarse-grained* parallelization
//! distributes the `n` source traversals over workers, each with private
//! accumulators that are summed at the end — `O(p(m + n))` memory, no
//! fine-grained synchronization on the hot path. This module implements
//! the per-source kernel; the coarse-grained scheme around it is
//! [`snap_kernels::sweep`].

use snap_graph::scratch::{stamped, BrandesSlot, PredArc};
use snap_graph::{Graph, TraversalWorkspace, VertexId};
use snap_kernels::sweep::sweep;
use snap_kernels::Exec;

/// Betweenness scores for all vertices and edges.
///
/// For undirected graphs each unordered pair is counted once (the raw
/// two-directional Brandes sums are halved), matching the textbook
/// definition `BC(v) = Σ_{s≠v≠t} σ_st(v)/σ_st`.
#[derive(Clone, Debug)]
pub struct BetweennessScores {
    /// Per-vertex betweenness.
    pub vertex: Vec<f64>,
    /// Per-edge betweenness (indexed by edge id).
    pub edge: Vec<f64>,
}

impl BetweennessScores {
    /// Edge id with the maximum betweenness (ties → smallest id).
    pub fn max_edge(&self) -> Option<(u32, f64)> {
        self.edge
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
            .map(|(e, &s)| (e as u32, s))
    }

    /// Vertex id with the maximum betweenness (ties → smallest id).
    pub fn max_vertex(&self) -> Option<(VertexId, f64)> {
        self.vertex
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
            .map(|(v, &s)| (v as VertexId, s))
    }
}

/// One Brandes accumulation from `s`: adds the dependencies of all
/// shortest paths out of `s` into `vacc` (vertices) and `eacc` (edges).
/// Returns the arcs the forward phase read and how many of its levels
/// it pulled.
///
/// `ws` must have its predecessor buffer bound to `g` (see
/// [`TraversalWorkspace::bind_preds`]) — callers bind once per kernel
/// call, then run every source through the same workspace. Clearing
/// between sources is the epoch bump inside [`TraversalWorkspace::begin`];
/// no per-source allocation or `O(n)` reset happens here.
pub(crate) fn accumulate_source<G: Graph>(
    g: &G,
    s: VertexId,
    ws: &mut TraversalWorkspace,
    vacc: &mut [f64],
    eacc: &mut [f64],
) -> (u64, u64) {
    let n = g.num_vertices();
    let tag = ws.begin(n);
    let snap_graph::scratch::Slots {
        dist,
        bslot: slot,
        order,
        pred,
        ..
    } = ws.slots();

    let si = s as usize;
    dist[si] = tag; // distance 0
    slot[si].sigma = 1.0;
    slot[si].delta = 0.0;
    slot[si].pred_end = slot[si].pred_off;
    // Level-synchronous over the discovery order: `order[lo..hi]` is the
    // frontier at stamp `dcur`, so the depth is a loop counter and a
    // shortest-path arc is a whole-word compare against a precomputed
    // stamp. Each level reads the smaller side's arcs (Beamer et al.,
    // SC 2012): a push reads the frontier's `mf`, a pull every unstamped
    // vertex's `unstamped` plus its `n` stamps. Brandes needs every
    // parent, so a pull cannot stop at the first hit and the rule is the
    // cost comparison itself. Out-arcs are not in-arcs, so directed
    // graphs never pull. Every scanned arc probes the dense `dist`
    // array; only shortest-path arcs touch the packed [`BrandesSlot`],
    // where σ and the predecessor cursor share a line.
    order.push(s);
    let pull_allowed = !g.is_directed();
    let mut unstamped = g.num_arcs() as u64;
    let (mut arcs, mut pull_levels) = (0u64, 0u64);
    let (mut lo, mut dcur) = (0usize, tag);
    while lo < order.len() {
        let (hi, dnext) = (order.len(), dcur + 1);
        let mf: u64 = order[lo..hi].iter().map(|&u| g.degree(u) as u64).sum();
        unstamped = unstamped.saturating_sub(mf);
        if pull_allowed && unstamped + (n as u64) < mf {
            // Pull: every unstamped vertex sums σ over its frontier
            // neighbours and appends their arcs into its own region in
            // adjacency order, so the level lists its vertices by id.
            pull_levels += 1;
            for v in 0..n as VertexId {
                let vi = v as usize;
                if stamped(dist[vi], tag) {
                    continue;
                }
                let off = slot[vi].pred_off;
                let (mut end, mut sigma) = (off, 0.0);
                for (u, e) in g.neighbors_with_eid(v) {
                    arcs += 1;
                    if dist[u as usize] == dcur {
                        sigma += slot[u as usize].sigma;
                        pred[end as usize] = PredArc { v: u, e };
                        end += 1;
                    }
                }
                if end > off {
                    dist[vi] = dnext;
                    let sv = &mut slot[vi];
                    sv.sigma = sigma;
                    sv.delta = 0.0;
                    sv.pred_end = end;
                    order.push(v);
                }
            }
        } else {
            arcs += mf;
            for i in lo..hi {
                let u = order[i];
                // σ(u) is loop-invariant over u's adjacency: a neighbor at
                // distance du + 1 can never feed back into σ(u) mid-scan.
                let su = slot[u as usize].sigma;
                for (v, e) in g.neighbors_with_eid(u) {
                    let vi = v as usize;
                    let wv = dist[vi];
                    if wv == dnext {
                        // Already discovered at the next level: another
                        // shortest path; append this arc to v's list.
                        let sv = &mut slot[vi];
                        sv.sigma += su;
                        pred[sv.pred_end as usize] = PredArc { v: u, e };
                        sv.pred_end += 1;
                    } else if !stamped(wv, tag) {
                        // First touch this epoch: stamp and write the
                        // slot's live fields outright (σ = σ(u), first
                        // pred arc) — pure stores, no read-modify-write.
                        dist[vi] = dnext;
                        let sv = &mut slot[vi];
                        let off = sv.pred_off;
                        sv.sigma = su;
                        sv.delta = 0.0;
                        sv.pred_end = off + 1;
                        pred[off as usize] = PredArc { v: u, e };
                        order.push(v);
                    }
                }
            }
        }
        (lo, dcur) = (hi, dnext);
    }
    // Dependency accumulation in reverse BFS order, reading each
    // vertex's predecessor arcs from the flat CSR buffer.
    for i in (0..order.len()).rev() {
        let w = order[i];
        let wi = w as usize;
        let BrandesSlot {
            sigma: sw,
            delta: dw,
            pred_off,
            pred_end,
            ..
        } = slot[wi];
        let coeff = (1.0 + dw) / sw;
        for &PredArc { v, e } in &pred[pred_off as usize..pred_end as usize] {
            let c = slot[v as usize].sigma * coeff;
            slot[v as usize].delta += c;
            eacc[e as usize] += c;
        }
        if w != s {
            vacc[wi] += dw;
        }
    }
    (arcs, pull_levels)
}

/// Sum two per-chunk `(vertex, edge)` accumulators element-wise.
pub(crate) fn add_accumulators(
    (mut va, mut ea): (Vec<f64>, Vec<f64>),
    (vb, eb): (Vec<f64>, Vec<f64>),
) -> (Vec<f64>, Vec<f64>) {
    for (x, y) in va.iter_mut().zip(vb) {
        *x += y;
    }
    for (x, y) in ea.iter_mut().zip(eb) {
        *x += y;
    }
    (va, ea)
}

pub(crate) fn finalize<G: Graph>(
    g: &G,
    mut vertex: Vec<f64>,
    mut edge: Vec<f64>,
) -> BetweennessScores {
    if !g.is_directed() {
        for x in vertex.iter_mut() {
            *x *= 0.5;
        }
        for x in edge.iter_mut() {
            *x *= 0.5;
        }
    }
    BetweennessScores { vertex, edge }
}

/// Exact betweenness from all sources, sequential.
pub fn brandes<G: Graph>(g: &G) -> BetweennessScores {
    let n = g.num_vertices();
    let m = g.edge_id_bound();
    let mut vertex = vec![0.0; n];
    let mut edge = vec![0.0; m];
    let mut ws = TraversalWorkspace::new();
    ws.bind_preds(g);
    for s in 0..n as VertexId {
        accumulate_source(g, s, &mut ws, &mut vertex, &mut edge);
    }
    finalize(g, vertex, edge)
}

/// Exact betweenness, coarse-grained parallel: sources are distributed
/// over the rayon pool; each worker owns private accumulators which are
/// reduced by summation (`O(p(m + n))` memory, as in the paper).
///
/// ```
/// use snap_centrality::par_brandes;
///
/// // Two triangles joined by a bridge: the bridge carries every
/// // cross-community shortest path.
/// let g = snap_graph::builder::from_edges(
///     6,
///     &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
/// );
/// let bc = par_brandes(&g);
/// let (top_edge, _) = bc.max_edge().unwrap();
/// assert_eq!(snap_graph::Graph::edge_endpoints(&g, top_edge), (2, 3));
/// ```
pub fn par_brandes<G: Graph>(g: &G) -> BetweennessScores {
    let all: Vec<VertexId> = (0..g.num_vertices() as VertexId).collect();
    betweenness_from_sources(g, &all)
}

/// Betweenness accumulated from an explicit set of sources, scaled by
/// `n / sources.len()` (which turns a k-source sample into an unbiased
/// estimate of the full sum, and is exactly 1 for all sources).
pub fn betweenness_from_sources<G: Graph>(g: &G, sources: &[VertexId]) -> BetweennessScores {
    betweenness_from_sources_in(g, sources, &Exec::default()).scores
}

/// A betweenness estimate computed from however many sources the budget
/// allowed.
#[derive(Clone, Debug)]
pub struct PartialBetweenness {
    /// The (scaled) scores. With `sources_used == sources_requested` this
    /// is exactly what the unbudgeted call would have returned.
    pub scores: BetweennessScores,
    /// Sources actually accumulated before the budget tripped.
    pub sources_used: usize,
    /// Sources the caller asked for.
    pub sources_requested: usize,
}

impl PartialBetweenness {
    /// Whether the budget cut the source loop short.
    pub fn degraded(&self) -> bool {
        self.sources_used < self.sources_requested
    }
}

/// [`betweenness_from_sources`] with `exec`'s budget and workspace pool.
///
/// Sources are processed until the budget trips; the accumulated sums are
/// then scaled by `n / sources_used`, turning the processed prefix into a
/// sampled estimate (pass a *shuffled* source order — e.g. from
/// [`crate::sample_sources`] — so the prefix is a uniform sample).
/// Callers that recompute betweenness repeatedly (GN rounds, pBD phases,
/// a serving session) hold one `Exec` across calls so every traversal
/// after the first reuses warm slot arrays.
pub fn betweenness_from_sources_in<G: Graph>(
    g: &G,
    sources: &[VertexId],
    exec: &Exec,
) -> PartialBetweenness {
    let n = g.num_vertices();
    let m = g.edge_id_bound();
    let (sums, used) = {
        let _span = snap_obs::span("centrality.betweenness");
        sweep(
            exec,
            sources,
            "brandes.source",
            16,
            // The offsets bind is amortized over every source the chunk
            // runs.
            |ws| {
                ws.bind_preds(g);
                (vec![0.0; n], vec![0.0; m])
            },
            |(vacc, eacc), s, ws| {
                let (arcs, pulls) = accumulate_source(g, s, ws, vacc, eacc);
                snap_obs::add("frontier_vertices", ws.order.len() as u64);
                snap_obs::add("arcs_scanned", arcs);
                snap_obs::add("pull_levels", pulls);
                ws.order.len() as u64 + 1
            },
            add_accumulators,
        )
    };
    let (vertex, edge) = sums.unwrap_or_else(|| (vec![0.0; n], vec![0.0; m]));
    let scale = if used == 0 {
        1.0
    } else {
        n as f64 / used as f64
    };
    let vertex = vertex.into_iter().map(|x| x * scale).collect();
    let edge = edge.into_iter().map(|x| x * scale).collect();
    PartialBetweenness {
        scores: finalize(g, vertex, edge),
        sources_used: used,
        sources_requested: sources.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    const EPS: f64 = 1e-9;

    #[test]
    fn path_graph_vertex_bc() {
        // Path 0-1-2-3-4: BC(center 2) = pairs {0,1}x{3,4} + ... = 4;
        // BC(1) = pairs {0}x{2,3,4} = 3; endpoints 0.
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let bc = brandes(&g);
        assert!((bc.vertex[0] - 0.0).abs() < EPS);
        assert!((bc.vertex[1] - 3.0).abs() < EPS);
        assert!((bc.vertex[2] - 4.0).abs() < EPS);
        assert!((bc.vertex[3] - 3.0).abs() < EPS);
    }

    #[test]
    fn path_graph_edge_bc() {
        // Edge (i, i+1) lies on (i+1) * (n-1-i) shortest paths.
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let bc = brandes(&g);
        assert!((bc.edge[0] - 4.0).abs() < EPS); // 1*4
        assert!((bc.edge[1] - 6.0).abs() < EPS); // 2*3
        assert!((bc.edge[2] - 6.0).abs() < EPS);
        assert!((bc.edge[3] - 4.0).abs() < EPS);
    }

    #[test]
    fn star_center_has_all_betweenness() {
        // Star K_{1,4}: center on all C(4,2) = 6 pairs.
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let bc = brandes(&g);
        assert!((bc.vertex[0] - 6.0).abs() < EPS);
        for v in 1..5 {
            assert!(bc.vertex[v].abs() < EPS);
        }
        // Each spoke: 1 (own endpoint pair) + 3 paths through = 4... the
        // edge (0, i) carries paths from i to the 3 others plus (i, 0):
        // σ-share = 3 + 1 = 4.
        for e in 0..4 {
            assert!((bc.edge[e] - 4.0).abs() < EPS, "edge {e}: {}", bc.edge[e]);
        }
    }

    #[test]
    fn cycle_splits_shortest_paths() {
        // C4: opposite vertices have two shortest paths; BC(v) = 0.5 for
        // each vertex (each vertex carries half of one opposite pair).
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let bc = brandes(&g);
        for v in 0..4 {
            assert!((bc.vertex[v] - 0.5).abs() < EPS, "v{v}: {}", bc.vertex[v]);
        }
    }

    #[test]
    fn barbell_bridge_dominates() {
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let bc = brandes(&g);
        let (e, _) = bc.max_edge().unwrap();
        assert_eq!(g.edge_endpoints(e), (2, 3));
        let (v, _) = bc.max_vertex().unwrap();
        assert!(v == 2 || v == 3);
    }

    #[test]
    fn par_matches_seq() {
        let g = from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (2, 4),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
            ],
        );
        let a = brandes(&g);
        let b = par_brandes(&g);
        for v in 0..8 {
            assert!((a.vertex[v] - b.vertex[v]).abs() < 1e-7);
        }
        for e in g.edge_ids() {
            assert!((a.edge[e as usize] - b.edge[e as usize]).abs() < 1e-7);
        }
    }

    #[test]
    fn full_source_sample_equals_exact() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let sources: Vec<VertexId> = (0..5).collect();
        let a = brandes(&g);
        let b = betweenness_from_sources(&g, &sources);
        for e in g.edge_ids() {
            assert!((a.edge[e as usize] - b.edge[e as usize]).abs() < 1e-7);
        }
    }

    #[test]
    fn directed_predecessors_fit_in_degree_regions() {
        // Vertex 0 has two in-arcs and one out-arc, vertex 3 one in-arc
        // and none out: predecessor regions sized by out-degree overflow.
        let g = snap_graph::GraphBuilder::directed(4)
            .add_edges([(1, 0), (2, 0), (0, 3)])
            .build();
        let bc = par_brandes(&g);
        assert_eq!(bc.vertex, [2.0, 0.0, 0.0, 0.0]);
        let e03 = g
            .edge_ids()
            .find(|&e| g.edge_endpoints(e) == (0, 3))
            .unwrap();
        assert_eq!(bc.edge[e03 as usize], 3.0);
    }

    #[test]
    fn disconnected_graph_is_fine() {
        let g = from_edges(5, &[(0, 1), (1, 2), (3, 4)]);
        let bc = brandes(&g);
        assert!((bc.vertex[1] - 1.0).abs() < EPS);
        assert!(bc.vertex[3].abs() < EPS);
    }

    #[test]
    fn vertex_bc_sum_identity_on_tree() {
        // On a tree, Σ_v BC(v) = Σ_pairs (path length - 1).
        let g = from_edges(6, &[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)]);
        let bc = brandes(&g);
        let mut expected = 0.0;
        for s in 0..6u32 {
            let d = snap_kernels::bfs(&g, s);
            for t in 0..6usize {
                if (t as u32) > s {
                    expected += (d.dist[t] - 1) as f64;
                }
            }
        }
        let total: f64 = bc.vertex.iter().sum();
        assert!((total - expected).abs() < EPS);
    }
}

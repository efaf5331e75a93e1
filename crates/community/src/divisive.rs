//! Shared engine for the divisive (edge-cutting) clustering algorithms.
//!
//! Both Girvan–Newman and the paper's pBD repeat the same inner loop:
//! delete an edge from a filtered view, detect whether its component
//! split, and update the modularity of the partition induced by the
//! current components — always measured against the *base* graph. The
//! engine keeps that bookkeeping incremental: a deletion costs a
//! connectivity check plus work proportional to the smaller split side,
//! not O(m).

use crate::clustering::Clustering;
use snap_graph::{CsrGraph, EdgeId, FilteredGraph, Graph, VertexId};
use snap_kernels::connected_components;

/// Incremental divisive-clustering state over a base graph.
pub(crate) struct DivisiveEngine<'g> {
    /// The filtered view edges are deleted from.
    pub(crate) view: FilteredGraph<'g>,
    base: &'g CsrGraph,
    /// Current cluster (= component) label per vertex.
    comp: Vec<u32>,
    /// Per-label intra-cluster base-edge count.
    intra: Vec<f64>,
    /// Per-label base-degree sum.
    degsum: Vec<f64>,
    /// Effective degree per vertex: base degree plus any external bonus
    /// (edges to vertices outside this engine's base graph, when refining
    /// an extracted component of a larger graph).
    deg: Vec<f64>,
    /// Modularity normalizer (the *global* edge count: differs from the
    /// base edge count when the engine runs inside an extracted
    /// component).
    m_norm: f64,
    q: f64,
    best_q: f64,
    best_comp: Vec<u32>,
    /// Scratch markers for the two sides of the bidirectional
    /// connectivity search.
    mark: Vec<bool>,
    mark2: Vec<bool>,
}

impl<'g> DivisiveEngine<'g> {
    /// Start from the connected components of `base`. `m_norm` is the
    /// edge count modularity is normalized by (pass `base.num_edges()`
    /// unless refining a component of a larger graph).
    pub(crate) fn new(base: &'g CsrGraph, m_norm: f64) -> Self {
        Self::with_degree_bonus(base, m_norm, None)
    }

    /// Like [`Self::new`], but each vertex's degree is taken as
    /// `base.degree(v) + bonus[v]`. Used when the engine refines an
    /// extracted component: the bonus accounts for the vertex's base-graph
    /// edges into *other* components, which contribute to its degree term
    /// in the global modularity but are not present in the local graph.
    pub(crate) fn with_degree_bonus(
        base: &'g CsrGraph,
        m_norm: f64,
        bonus: Option<&[f64]>,
    ) -> Self {
        let comps = connected_components(base);
        let n = base.num_vertices();
        let k = comps.count;
        let deg: Vec<f64> = (0..n)
            .map(|v| base.degree(v as VertexId) as f64 + bonus.map_or(0.0, |b| b[v]))
            .collect();
        let mut intra = vec![0.0; k];
        let mut degsum = vec![0.0; k];
        for e in base.edge_ids() {
            let (u, _) = base.edge_endpoints(e);
            intra[comps.comp[u as usize] as usize] += 1.0;
        }
        for v in 0..n {
            degsum[comps.comp[v] as usize] += deg[v];
        }
        let q = if m_norm == 0.0 {
            0.0
        } else {
            intra
                .iter()
                .zip(&degsum)
                .map(|(&i, &d)| i / m_norm - (d / (2.0 * m_norm)).powi(2))
                .sum()
        };
        DivisiveEngine {
            view: FilteredGraph::new(base),
            base,
            best_comp: comps.comp.clone(),
            comp: comps.comp,
            intra,
            degsum,
            deg,
            m_norm,
            q,
            best_q: q,
            mark: vec![false; n],
            mark2: vec![false; n],
        }
    }

    /// Forget the best-so-far state and restart best tracking from the
    /// current state. Used after replaying historic deletions into a
    /// freshly extracted component engine.
    pub(crate) fn reset_best(&mut self) {
        self.best_q = self.q;
        self.best_comp.clone_from(&self.comp);
    }

    /// Current modularity (contribution, when running inside a component).
    pub(crate) fn q(&self) -> f64 {
        self.q
    }

    /// Best modularity seen so far.
    pub(crate) fn best_q(&self) -> f64 {
        self.best_q
    }

    /// Number of still-live edges in the view.
    pub(crate) fn live_edges(&self) -> usize {
        self.view.num_edges()
    }

    /// Current cluster labels (not renumbered).
    pub(crate) fn labels(&self) -> &[u32] {
        &self.comp
    }

    /// The best clustering seen, renumbered consecutively.
    pub(crate) fn best_clustering(&self) -> Clustering {
        Clustering::from_labels(&self.best_comp)
    }

    /// The current clustering, renumbered consecutively.
    pub(crate) fn current_clustering(&self) -> Clustering {
        Clustering::from_labels(&self.comp)
    }

    /// Members of each current cluster, keyed by raw label.
    pub(crate) fn cluster_members(&self) -> std::collections::HashMap<u32, Vec<VertexId>> {
        let mut map: std::collections::HashMap<u32, Vec<VertexId>> =
            std::collections::HashMap::new();
        for (v, &c) in self.comp.iter().enumerate() {
            map.entry(c).or_default().push(v as VertexId);
        }
        map
    }

    /// Delete edge `e`; returns the modularity after the deletion (which
    /// changes only if the deletion disconnects its component). Deleting
    /// an already-dead edge is a no-op.
    ///
    /// The connectivity check is a bidirectional BFS from both endpoints,
    /// so its cost is `O(min(side))` — crucial when the divisive
    /// algorithms perform `O(m)` deletions, most of which carve small
    /// pieces off a large component.
    pub(crate) fn delete_edge(&mut self, e: EdgeId) -> f64 {
        if !self.view.delete_edge(e) {
            return self.q;
        }
        let (u, v) = self.base.edge_endpoints(e);
        if u == v {
            return self.q;
        }

        fn expand_level(
            view: &FilteredGraph<'_>,
            frontier: &mut Vec<VertexId>,
            side: &mut Vec<VertexId>,
            own: &mut [bool],
            other: &[bool],
        ) -> bool {
            let mut next = Vec::new();
            for &x in frontier.iter() {
                for y in view.neighbors(x) {
                    if other[y as usize] {
                        return true; // searches met: still connected
                    }
                    if !own[y as usize] {
                        own[y as usize] = true;
                        side.push(y);
                        next.push(y);
                    }
                }
            }
            *frontier = next;
            false
        }

        self.mark[u as usize] = true;
        self.mark2[v as usize] = true;
        let mut side_u: Vec<VertexId> = vec![u];
        let mut side_v: Vec<VertexId> = vec![v];
        let mut front_u: Vec<VertexId> = vec![u];
        let mut front_v: Vec<VertexId> = vec![v];
        let mut connected = false;
        // `None` until a side exhausts; then Some(true) = u-side split off.
        let mut u_side_split: Option<bool> = None;
        loop {
            // Expand the side that has explored less so far.
            if side_u.len() <= side_v.len() {
                if expand_level(
                    &self.view,
                    &mut front_u,
                    &mut side_u,
                    &mut self.mark,
                    &self.mark2,
                ) {
                    connected = true;
                    break;
                }
                if front_u.is_empty() {
                    u_side_split = Some(true);
                    break;
                }
            } else {
                if expand_level(
                    &self.view,
                    &mut front_v,
                    &mut side_v,
                    &mut self.mark2,
                    &self.mark,
                ) {
                    connected = true;
                    break;
                }
                if front_v.is_empty() {
                    u_side_split = Some(false);
                    break;
                }
            }
        }
        if connected {
            for &x in &side_u {
                self.mark[x as usize] = false;
            }
            for &x in &side_v {
                self.mark2[x as usize] = false;
            }
            return self.q;
        }

        // Component split: the exhausted side becomes a new cluster. Use
        // its (complete) explored set; membership tests go through its
        // mark array.
        let split_u = u_side_split.expect("loop exits via connected or exhaustion");
        let old = self.comp[u as usize];
        debug_assert_eq!(old, self.comp[v as usize]);
        let mut part_intra = 0.0f64;
        let mut part_degsum = 0.0f64;
        let mut cut = 0.0f64;
        {
            let (side, own): (&[VertexId], &[bool]) = if split_u {
                (&side_u, &self.mark)
            } else {
                (&side_v, &self.mark2)
            };
            for &x in side {
                part_degsum += self.deg[x as usize];
                for y in self.base.neighbor_slice(x) {
                    if own[*y as usize] {
                        part_intra += 1.0; // counted from both sides
                    } else if self.comp[*y as usize] == old {
                        cut += 1.0;
                    }
                }
            }
        }
        part_intra /= 2.0;
        let side: Vec<VertexId> = if split_u {
            side_u.clone()
        } else {
            side_v.clone()
        };
        // Clear both mark arrays now that membership queries are done.
        for &x in &side_u {
            self.mark[x as usize] = false;
        }
        for &x in &side_v {
            self.mark2[x as usize] = false;
        }

        let new_label = self.intra.len() as u32;
        // Remove old term, add the two new terms.
        let m_norm = self.m_norm;
        let term = move |i: f64, d: f64| {
            if m_norm == 0.0 {
                0.0
            } else {
                i / m_norm - (d / (2.0 * m_norm)).powi(2)
            }
        };
        self.q -= term(self.intra[old as usize], self.degsum[old as usize]);
        let rem_intra = self.intra[old as usize] - part_intra - cut;
        let rem_degsum = self.degsum[old as usize] - part_degsum;
        self.intra[old as usize] = rem_intra;
        self.degsum[old as usize] = rem_degsum;
        self.intra.push(part_intra);
        self.degsum.push(part_degsum);
        self.q += term(rem_intra, rem_degsum) + term(part_intra, part_degsum);

        for &x in &side {
            self.comp[x as usize] = new_label;
        }
        if self.q > self.best_q {
            self.best_q = self.q;
            self.best_comp.clone_from(&self.comp);
        }
        self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::modularity;
    use snap_graph::builder::from_edges;

    fn barbell() -> CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn initial_q_matches_direct() {
        let g = barbell();
        let eng = DivisiveEngine::new(&g, g.num_edges() as f64);
        let direct = modularity(&g, &Clustering::from_labels(&[0; 6]));
        assert!((eng.q() - direct).abs() < 1e-12);
    }

    #[test]
    fn cutting_bridge_splits_and_matches_direct() {
        let g = barbell();
        let mut eng = DivisiveEngine::new(&g, g.num_edges() as f64);
        // Edge (2,3) is edge id... find it.
        let bridge = g.edges().find(|&(_, u, v)| (u, v) == (2, 3)).unwrap().0;
        let q = eng.delete_edge(bridge);
        assert_eq!(eng.current_clustering().count, 2);
        let direct = modularity(&g, &Clustering::from_labels(&[0, 0, 0, 1, 1, 1]));
        assert!((q - direct).abs() < 1e-12, "q {q} direct {direct}");
        assert!((eng.best_q() - q).abs() < 1e-12);
    }

    #[test]
    fn non_disconnecting_deletion_keeps_q() {
        let g = barbell();
        let mut eng = DivisiveEngine::new(&g, g.num_edges() as f64);
        let q0 = eng.q();
        let tri_edge = g.edges().find(|&(_, u, v)| (u, v) == (0, 1)).unwrap().0;
        let q = eng.delete_edge(tri_edge);
        assert_eq!(eng.current_clustering().count, 1);
        assert!((q - q0).abs() < 1e-12);
    }

    #[test]
    fn full_deletion_reaches_singletons() {
        let g = barbell();
        let mut eng = DivisiveEngine::new(&g, g.num_edges() as f64);
        for e in g.edge_ids().collect::<Vec<_>>() {
            eng.delete_edge(e);
        }
        assert_eq!(eng.current_clustering().count, 6);
        let direct = modularity(&g, &Clustering::singletons(6));
        assert!((eng.q() - direct).abs() < 1e-12);
        // Best tracks the peak along this (id-order) deletion schedule
        // and must dominate both endpoints.
        assert!(eng.best_q() >= 0.0);
        assert!(eng.best_q() >= eng.q());
        let best = eng.best_clustering();
        assert!((eng.best_q() - modularity(&g, &best)).abs() < 1e-12);
    }

    #[test]
    fn every_q_along_the_way_matches_direct() {
        let g = from_edges(
            7,
            &[
                (0, 1),
                (1, 2),
                (2, 0),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (6, 4),
            ],
        );
        let mut eng = DivisiveEngine::new(&g, g.num_edges() as f64);
        for e in g.edge_ids().collect::<Vec<_>>() {
            let q = eng.delete_edge(e);
            let direct = modularity(&g, &eng.current_clustering());
            assert!((q - direct).abs() < 1e-10, "edge {e}: {q} vs {direct}");
        }
    }

    #[test]
    fn double_deletion_is_noop() {
        let g = barbell();
        let mut eng = DivisiveEngine::new(&g, g.num_edges() as f64);
        let q1 = eng.delete_edge(0);
        let q2 = eng.delete_edge(0);
        assert_eq!(q1, q2);
    }
}

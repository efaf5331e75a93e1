//! Shared engine for the divisive (edge-cutting) clustering algorithms.
//!
//! Both Girvan–Newman and the paper's pBD repeat the same inner loop:
//! score the live edges, cut the top one(s), detect whether a component
//! split, and update the modularity of the partition induced by the
//! current components — always measured against the *base* graph. That
//! loop is written once, [`DivisiveEngine::cut_rounds`], and its
//! bookkeeping is incremental: a deletion costs a connectivity check plus
//! work proportional to the smaller split side, not O(m), and a round
//! rescores only the components the previous round's cuts changed.

use crate::clustering::Clustering;
use snap_centrality::betweenness_from_sources_in;
use snap_graph::perm::sample_sources;
use snap_graph::{CsrGraph, EdgeId, FilteredGraph, Graph, InducedSubgraph, VertexId};
use snap_kernels::{connected_components, Exec};

/// Lower bound on sampled sources per component: on small components a
/// bare percentage gives too noisy a ranking to cut by.
const MIN_SOURCES: usize = 96;

/// Candidate count at which a sampled round's cuts start to grow: see
/// [`cuts_per_round`].
const CUT_SCALE: usize = 4096;

/// Edges a sampled round cuts, from its candidate count:
/// `max(1, ⌊(cand / CUT_SCALE)²⌋)`, so 1 up to 5 792 candidates. A
/// round's pass costs about `k·cand`, so cutting `(cand / CUT_SCALE)²`
/// edges per pass brings the phase from `O(k·m²)` to
/// `O(k·CUT_SCALE²·log(m / CUT_SCALE))` for `m` edges.
fn cuts_per_round(cand: usize) -> usize {
    (cand.saturating_mul(cand) / (CUT_SCALE * CUT_SCALE)).max(1)
}

/// How [`DivisiveEngine::cut_rounds`] scores edges and when it stops.
pub(crate) struct CutRule {
    /// `None` scores exactly: every vertex of a component is a source.
    /// `Some((frac, seed))` draws a seeded sample of
    /// `k_C = min(|C|, max(⌈frac·|C|⌉, MIN_SOURCES))` sources from each
    /// component `C`.
    pub(crate) sample: Option<(f64, u64)>,
    /// Only edges of components with more vertices than this are scored
    /// and cut.
    pub(crate) threshold: usize,
    /// Stop once the removal list holds this many cuts.
    pub(crate) cap: usize,
}

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
    /// Per-label vertex count.
    size: Vec<usize>,
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
        let mut size = vec![0; k];
        for e in base.edge_ids() {
            let (u, _) = base.edge_endpoints(e);
            intra[comps.comp[u as usize] as usize] += 1.0;
        }
        for v in 0..n {
            degsum[comps.comp[v] as usize] += deg[v];
            size[comps.comp[v] as usize] += 1;
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
            size,
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

    /// The best clustering seen, renumbered consecutively.
    pub(crate) fn best_clustering(&self) -> Clustering {
        Clustering::from_labels(&self.best_comp)
    }

    /// The members of every current cluster whose raw label and size
    /// pass `keep`, as `(label, vertices)` in label order, vertices
    /// ascending.
    pub(crate) fn members_where(
        &self,
        keep: impl Fn(usize, usize) -> bool,
    ) -> Vec<(usize, Vec<VertexId>)> {
        let mut slot = vec![usize::MAX; self.size.len()];
        let mut groups = Vec::new();
        for (label, &size) in self.size.iter().enumerate() {
            if keep(label, size) {
                slot[label] = groups.len();
                groups.push((label, Vec::with_capacity(size)));
            }
        }
        if !groups.is_empty() {
            for (v, &c) in self.comp.iter().enumerate() {
                if let Some((_, verts)) = groups.get_mut(slot[c as usize]) {
                    verts.push(v as VertexId);
                }
            }
        }
        groups
    }

    /// Run the divisive cut loop: each round scores the candidate edges,
    /// cuts the top-scoring ones (score descending, then edge id
    /// ascending), and appends each cut as `(edge, q after it)` to
    /// `removals`. Candidates are the live edges of components with more
    /// than `rule.threshold` vertices. An exact rule cuts one edge per
    /// round; a sampled rule cuts [`cuts_per_round`] of them.
    ///
    /// The loop stops at `rule.cap` removals, when no candidate is left,
    /// or when `exec`'s budget cuts a round's sweep short: that round cuts
    /// nothing, since a partial sum ranks edges by whichever sources
    /// happened to run, and the best prefix of the cuts made so far is
    /// the answer ([`Self::best_clustering`]). Each round adds to the
    /// `rounds` counter and the `round_us` histogram.
    pub(crate) fn cut_rounds(
        &mut self,
        rule: &CutRule,
        exec: &Exec,
        removals: &mut Vec<(EdgeId, f64)>,
    ) {
        let mut rounds = CutLoop::new(self, rule);
        // Per-round latency: rounds that rescore a giant component dwarf
        // the rest, so the spread is the signal.
        let round_us = snap_obs::hist("round_us");
        loop {
            let timer = round_us.start();
            if !rounds.round(self, exec, removals) {
                break;
            }
            round_us.stop_us(timer);
            snap_obs::add("rounds", 1);
        }
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
        let (mut side_u, mut side_v) = (vec![u], vec![v]);
        let (mut front_u, mut front_v) = (vec![u], vec![v]);
        // Expand the side that has explored less so far, until the
        // searches meet (`None`: still connected) or a side exhausts
        // (`Some(true)`: the u side split off).
        let split_u = loop {
            if side_u.len() <= side_v.len() {
                if expand_level(
                    &self.view,
                    &mut front_u,
                    &mut side_u,
                    &mut self.mark,
                    &self.mark2,
                ) {
                    break None;
                }
                if front_u.is_empty() {
                    break Some(true);
                }
            } else {
                if expand_level(
                    &self.view,
                    &mut front_v,
                    &mut side_v,
                    &mut self.mark2,
                    &self.mark,
                ) {
                    break None;
                }
                if front_v.is_empty() {
                    break Some(false);
                }
            }
        };

        // On a split the exhausted side becomes a new cluster. Its
        // explored set is complete; membership tests go through its mark
        // array.
        let old = self.comp[u as usize];
        debug_assert_eq!(old, self.comp[v as usize]);
        let (mut part_intra, mut part_degsum, mut cut) = (0.0f64, 0.0f64, 0.0f64);
        if let Some(split_u) = split_u {
            let (side, own) = if split_u {
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
        // Clear both mark arrays now that membership queries are done.
        for &x in &side_u {
            self.mark[x as usize] = false;
        }
        for &x in &side_v {
            self.mark2[x as usize] = false;
        }
        let Some(split_u) = split_u else {
            return self.q;
        };
        part_intra /= 2.0;
        let side = if split_u { side_u } else { side_v };

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
        self.size[old as usize] -= side.len();
        self.size.push(side.len());
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

/// The state [`DivisiveEngine::cut_rounds`] keeps between rounds.
///
/// Betweenness in a component `C` gets contributions only from sources
/// in `C`, so the scores of a component no cut has touched since they
/// were computed are still what a fresh pass would give, and are kept.
struct CutLoop<'r> {
    rule: &'r CutRule,
    /// Per edge id: the score it was last given, on the scale of its
    /// component's exact betweenness (`sums × |C| / k_C`), so scores of
    /// different components and rounds compare.
    score: Vec<f64>,
    /// Per label: whether a cut has changed the component since its
    /// scores were computed (every label before the first round).
    stale: Vec<bool>,
    round: u64,
}

impl<'r> CutLoop<'r> {
    fn new(engine: &DivisiveEngine<'_>, rule: &'r CutRule) -> Self {
        CutLoop {
            rule,
            score: vec![0.0; engine.base.edge_id_bound()],
            stale: vec![true; engine.intra.len()],
            round: 0,
        }
    }

    /// One round: rescore the stale candidate components, then cut.
    /// Returns `false`, having cut nothing, at the removal cap, when no
    /// candidate is left, or when the budget cut the sweep short.
    fn round(
        &mut self,
        engine: &mut DivisiveEngine<'_>,
        exec: &Exec,
        removals: &mut Vec<(EdgeId, f64)>,
    ) -> bool {
        let rule = self.rule;
        if removals.len() >= rule.cap || !self.rescore(engine, exec) {
            return false;
        }
        self.round += 1;

        let mut cand: Vec<EdgeId> = engine
            .view
            .live_edge_ids()
            .filter(|&e| {
                let label = engine.comp[engine.base.edge_endpoints(e).0 as usize];
                engine.size[label as usize] > rule.threshold
            })
            .collect();
        if cand.is_empty() {
            return false;
        }
        let score = &self.score;
        let by_score = |a: &EdgeId, b: &EdgeId| {
            score[*b as usize]
                .partial_cmp(&score[*a as usize])
                .expect("betweenness scores are never NaN")
                .then(a.cmp(b))
        };
        let cuts = match rule.sample {
            Some(_) => cuts_per_round(cand.len()),
            None => 1,
        };
        if cuts < cand.len() {
            cand.select_nth_unstable_by(cuts - 1, by_score);
            cand.truncate(cuts);
        }
        cand.sort_unstable_by(by_score);
        let first = removals.len();
        for e in cand {
            if removals.len() >= rule.cap {
                break;
            }
            let q = engine.delete_edge(e);
            removals.push((e, q));
        }
        // Every component a cut changed holds one of its endpoints: mark
        // both sides of every cut, split or not.
        self.stale.resize(engine.intra.len(), false);
        for &(e, _) in &removals[first..] {
            let (u, v) = engine.base.edge_endpoints(e);
            self.stale[engine.comp[u as usize] as usize] = true;
            self.stale[engine.comp[v as usize] as usize] = true;
        }
        true
    }

    /// Score every stale component above the threshold, in label order,
    /// and clear its mark. Each is scored on its own extracted live
    /// subgraph, so `betweenness_from_sources_in`'s `n / sources` scaling
    /// is the component's `|C| / k_C`: exactly 1 for an exact pass.
    /// Returns `false` when the budget cut a sweep short.
    fn rescore(&mut self, engine: &DivisiveEngine<'_>, exec: &Exec) -> bool {
        let rule = self.rule;
        let stale = engine.members_where(|c, size| self.stale[c] && size > rule.threshold);
        for (label, verts) in stale {
            let size = verts.len();
            self.stale[label] = false;
            let sub = InducedSubgraph::extract(&engine.view, &verts);
            let sources = match rule.sample {
                Some((frac, seed)) => {
                    let k = ((frac * size as f64).ceil() as usize).max(MIN_SOURCES);
                    let seed = seed ^ (self.round << 32) ^ label as u64;
                    (k < size).then(|| sample_sources(size, k, seed))
                }
                None => None,
            }
            .unwrap_or_else(|| (0..size as VertexId).collect());
            let partial = betweenness_from_sources_in(&sub.graph, &sources, exec);
            if partial.degraded() {
                return false;
            }
            for (local, &e) in sub.edge_to_global.iter().enumerate() {
                self.score[e as usize] = partial.scores.edge[local];
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity::modularity;
    use proptest::prelude::*;
    use snap_graph::builder::from_edges;

    impl DivisiveEngine<'_> {
        /// The current clustering, renumbered consecutively.
        fn current_clustering(&self) -> Clustering {
            Clustering::from_labels(&self.comp)
        }
    }

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

    /// Blocks of the given sizes, each a random spanning tree plus each
    /// other pair with probability `p`: a graph of several components.
    fn blocks(sizes: &[usize], p: f64, seed: u64) -> CsrGraph {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let (mut edges, mut first) = (Vec::new(), 0u32);
        for &size in sizes {
            for v in 1..size as u32 {
                edges.push((first + rng.gen_range(0..v), first + v));
            }
            for u in 0..size as u32 {
                for v in u + 1..size as u32 {
                    if rng.gen_bool(p) {
                        edges.push((first + u, first + v));
                    }
                }
            }
            first += size as u32;
        }
        from_edges(first as usize, &edges)
    }

    /// Run `rule` on `g` to its end and check, after every round with the
    /// stale components rescored, that every live edge's kept score
    /// equals a fresh exact betweenness pass over the whole view: the
    /// components the loop did not mark are exactly the ones no cut
    /// changed. `rule` must score exactly. Returns the rounds that cut
    /// and the cuts.
    fn check_kept_scores(g: &CsrGraph, rule: &CutRule) -> Result<(usize, usize), TestCaseError> {
        let mut eng = DivisiveEngine::new(g, g.num_edges() as f64);
        let exec = Exec::default();
        let mut rounds = CutLoop::new(&eng, rule);
        let (mut removals, mut cut_rounds) = (Vec::new(), 0);
        while rounds.round(&mut eng, &exec, &mut removals) {
            cut_rounds += 1;
            prop_assert!(rounds.rescore(&eng, &exec));
            let exact = snap_centrality::brandes(&eng.view);
            for e in eng.view.live_edge_ids() {
                let (kept, fresh) = (rounds.score[e as usize], exact.edge[e as usize]);
                prop_assert!(
                    (kept - fresh).abs() <= 1e-12 * fresh.abs().max(1.0),
                    "edge {} after {} cuts: kept {} fresh {}",
                    e,
                    removals.len(),
                    kept,
                    fresh
                );
            }
        }
        Ok((cut_rounds, removals.len()))
    }

    #[test]
    fn cuts_per_round_is_one_up_to_5500_candidates_and_monotone() {
        assert!((0..=5_500).all(|cand| cuts_per_round(cand) == 1));
        let mut prev = 1;
        for cand in 0..=1 << 18 {
            let cuts = cuts_per_round(cand);
            assert!(cuts >= prev, "{cand} candidates: {cuts} < {prev}");
            prev = cuts;
        }
        assert!(cuts_per_round(32_052) > 1);
        assert!(cuts_per_round(usize::MAX) >= prev);
    }

    /// A sampled rule cuts several edges per round on a large candidate
    /// set; with every vertex a source its scores are exact, and the
    /// kept ones stay fresh across multi-edge rounds. The three blocks
    /// are copies of one, so a round's top scores tie across blocks and
    /// its cuts land in different components.
    #[test]
    fn multi_cut_rounds_keep_scores_fresh() {
        let block = blocks(&[70], 0.85, 3);
        let copies: Vec<(u32, u32)> = (0..3u32)
            .flat_map(|c| block.edges().map(move |(_, u, v)| (u + 70 * c, v + 70 * c)))
            .collect();
        let g = from_edges(210, &copies);
        assert!(g.num_edges() > 6_000, "{} edges", g.num_edges());
        let rule = CutRule {
            sample: Some((1.0, 7)),
            threshold: 0,
            cap: 60,
        };
        let (rounds, cuts) = check_kept_scores(&g, &rule).unwrap();
        assert_eq!(cuts, 60);
        assert!(rounds < 60, "{rounds} rounds for {cuts} cuts");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// An exact run's kept scores stay fresh through every round.
        #[test]
        fn kept_scores_equal_a_fresh_exact_pass(
            sizes in prop::collection::vec(1usize..14, 2usize..6),
            p in 0.0f64..0.6,
            seed in 0u64..u64::MAX,
        ) {
            let g = blocks(&sizes, p, seed);
            let rule = CutRule { sample: None, threshold: 0, cap: usize::MAX };
            let (rounds, cuts) = check_kept_scores(&g, &rule)?;
            prop_assert_eq!(cuts, g.num_edges());
            prop_assert_eq!(rounds, cuts);
        }
    }
}

//! High-level exploratory-analysis API: the paper's "simple and intuitive
//! interface for network analysis application design, effectively hiding
//! the parallel programming complexity involved in the low-level kernel
//! design from the user".

use snap_budget::{Budget, Exhausted};
use snap_centrality::BetweennessScores;
use snap_community::{Clustering, GnConfig, PbdConfig, PlaConfig, PmaConfig};
use snap_graph::{CsrGraph, Graph, VertexId};
use snap_kernels::{BfsResult, Exec, HybridConfig, TraversalStats};
use snap_metrics::GraphSummary;
use snap_partition::{Method as PartitionMethod, Partition, SpectralError};
use std::sync::Arc;

/// Which community-detection algorithm to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommunityAlgorithm {
    /// Exact Girvan–Newman (baseline; slow).
    GirvanNewman,
    /// Approximate-betweenness divisive (pBD).
    Divisive,
    /// Greedy agglomerative (pMA).
    Agglomerative,
    /// Greedy local aggregation (pLA).
    LocalAggregation,
    /// Leading-eigenvector spectral modularity (Newman 2006) — the
    /// paper's "ongoing work" direction, included as an extension.
    Spectral,
}

impl CommunityAlgorithm {
    /// Every algorithm, in declaration order.
    pub const ALL: [CommunityAlgorithm; 5] = [
        CommunityAlgorithm::GirvanNewman,
        CommunityAlgorithm::Divisive,
        CommunityAlgorithm::Agglomerative,
        CommunityAlgorithm::LocalAggregation,
        CommunityAlgorithm::Spectral,
    ];

    /// Canonical query name: what the CLI's `--algorithm` and the serve
    /// protocol's `"algorithm"` accept (via [`FromStr`](std::str::FromStr))
    /// and what serve cache keys are built from.
    pub fn name(&self) -> &'static str {
        match self {
            CommunityAlgorithm::GirvanNewman => "gn",
            CommunityAlgorithm::Divisive => "pbd",
            CommunityAlgorithm::Agglomerative => "pma",
            CommunityAlgorithm::LocalAggregation => "pla",
            CommunityAlgorithm::Spectral => "spectral",
        }
    }
}

impl std::str::FromStr for CommunityAlgorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<CommunityAlgorithm, String> {
        CommunityAlgorithm::ALL
            .into_iter()
            .find(|a| a.name() == s)
            .ok_or_else(|| format!("unknown algorithm {s:?}"))
    }
}

/// A community-detection outcome.
#[derive(Clone, Debug)]
pub struct Communities {
    /// The partition into communities.
    pub clustering: Clustering,
    /// Its modularity.
    pub modularity: f64,
}

/// An interaction network under exploratory analysis.
///
/// Wraps a frozen [`CsrGraph`] and exposes SNAP's analysis pipeline:
/// topology summary, centrality, community detection, partitioning.
///
/// ```
/// use snap::Network;
///
/// let net = Network::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
/// let summary = net.summary();
/// assert_eq!(summary.n, 5);
/// assert_eq!(summary.components, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    // Arc-shared so sessions over streaming snapshots
    // (`snap_graph::stream::Snapshot`) analyze the published epoch
    // without copying the CSR; `&self.graph` derefs transparently.
    graph: Arc<CsrGraph>,
    // The budget attached via `with_budget`, and the traversal scratch
    // shared by every analysis call on this session (clones share the
    // pool too — it is a cache, not state): the slot arrays warm up on
    // the first multi-source query and are reused by every later one.
    exec: Exec,
}

impl Network {
    /// Wrap an existing graph.
    pub fn new(graph: CsrGraph) -> Self {
        Self::from_shared(Arc::new(graph))
    }

    /// Wrap an `Arc`-shared graph without copying it — the entry point
    /// for analyzing an epoch snapshot published by a
    /// [`snap_graph::StreamingGraph`] while the writer keeps ingesting.
    ///
    /// ```
    /// use snap::graph::{stream::EdgeOp, StreamingGraph};
    /// use snap::Network;
    ///
    /// let mut sg = StreamingGraph::new(3);
    /// sg.apply_batch(&[EdgeOp::Insert(0, 1), EdgeOp::Insert(1, 2)]);
    /// let snap = sg.merge();
    /// let net = Network::from_shared(snap.graph);
    /// assert_eq!(net.summary().components, 1);
    /// ```
    pub fn from_shared(graph: Arc<CsrGraph>) -> Self {
        Network {
            graph,
            exec: Exec::default(),
        }
    }

    /// Build an undirected network from an edge list.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Self {
        Network::new(snap_graph::builder::from_edges(n, edges))
    }

    /// Attach a compute [`Budget`] to every subsequent analysis call.
    /// Long-running kernels check it cooperatively and degrade gracefully
    /// (sampling, coarser results) or cancel cleanly instead of running
    /// past the deadline or work cap. With [`Budget::unlimited`] (the
    /// default) results are identical to the unbudgeted API.
    ///
    /// The attached handle normally *shares state* with the caller's
    /// clone — that is what lets an external `cancel()` reach a running
    /// query, and a whole pipeline share one deadline. The one exception:
    /// a budget that is **already exhausted** at attach time is renewed
    /// ([`Budget::renew`]) instead of shared. Exhaustion is sticky per
    /// handle, so without the renewal a session rebuilt from a timed-out
    /// request's budget would refuse every later query forever — the
    /// reused-session poisoning this guards against. A session never
    /// *starts* spent.
    ///
    /// ```
    /// use snap::{Budget, Network};
    /// use std::time::Duration;
    ///
    /// let net = Network::from_edges(3, &[(0, 1), (1, 2)])
    ///     .with_budget(Budget::with_deadline(Duration::from_secs(30)));
    /// let _ = net.summary();
    /// ```
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.exec.budget = if budget.is_exhausted() {
            budget.renew()
        } else {
            budget
        };
        self
    }

    /// The budget attached via [`Self::with_budget`] (unlimited by
    /// default).
    pub fn budget(&self) -> &Budget {
        &self.exec.budget
    }

    /// The underlying graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Vertex count.
    pub fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    /// Edge count.
    pub fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// One-call topology report (degree stats, components, clustering
    /// coefficients, assortativity, path lengths). Uses sample seed 0;
    /// see [`Self::summary_with_seed`] to vary it.
    pub fn summary(&self) -> GraphSummary {
        self.summary_with_seed(0)
    }

    /// [`Self::summary`] with an explicit seed for the sampled
    /// path-length estimates (recorded in the observability report for
    /// reproducibility).
    pub fn summary_with_seed(&self, seed: u64) -> GraphSummary {
        snap_metrics::summarize_in(self.graph(), seed, &self.exec)
    }

    /// Start an observed analysis session: enables `snap-obs` collection
    /// on this thread and returns a wrapper exposing the same analysis
    /// API plus report extraction. Collection stops when the wrapper is
    /// dropped or [`Observed::finish`] is called.
    pub fn observed(&self) -> Observed<'_> {
        snap_obs::enable();
        Observed { network: self }
    }

    /// Parallel direction-optimizing BFS from `source` with per-level
    /// [`TraversalStats`]: direction taken (push/pull), frontier size,
    /// vertices discovered, and edges examined at every level. A partial
    /// traversal has no meaningful interpretation, so an exhausted budget
    /// cancels the run with [`Exhausted`] instead of degrading.
    pub fn try_bfs_stats(
        &self,
        source: VertexId,
    ) -> Result<(BfsResult, TraversalStats), Exhausted> {
        self.try_bfs_stats_with(source, &HybridConfig::default())
    }

    /// [`Self::try_bfs_stats`] with explicit α/β thresholds.
    pub fn try_bfs_stats_with(
        &self,
        source: VertexId,
        cfg: &HybridConfig,
    ) -> Result<(BfsResult, TraversalStats), Exhausted> {
        snap_kernels::try_par_bfs_hybrid_stats(self.graph(), source, cfg, &self.exec)
    }

    /// Exact betweenness centrality (vertices and edges), parallel over
    /// sources.
    pub fn betweenness(&self) -> BetweennessScores {
        let n = self.graph.num_vertices();
        // A budget that trips keeps a prefix of the source order and
        // rescales by the sources processed, so under a limit the order
        // is a uniform shuffle (its prefix is itself a uniform sample).
        // Without one, vertex order keeps the f64 accumulation order —
        // and so every bit — of `par_brandes`.
        let sources = if self.exec.budget.is_limited() {
            snap_centrality::sample_sources(n, n, 0)
        } else {
            (0..n as VertexId).collect()
        };
        snap_centrality::betweenness_from_sources_in(self.graph(), &sources, &self.exec).scores
    }

    /// Sampled approximate betweenness (fraction of sources).
    pub fn approx_betweenness(&self, frac: f64, seed: u64) -> BetweennessScores {
        snap_centrality::approx_betweenness_in(self.graph(), frac, seed, &self.exec).scores
    }

    /// Closeness centrality for every vertex.
    pub fn closeness(&self) -> Vec<f64> {
        snap_centrality::closeness_in(self.graph(), &self.exec)
    }

    /// Weighted betweenness centrality (shortest paths by edge weight;
    /// equals [`Self::betweenness`] on unweighted graphs).
    pub fn weighted_betweenness(&self) -> BetweennessScores {
        snap_centrality::weighted_betweenness(self.graph())
    }

    /// Detect communities with the chosen algorithm (default
    /// configurations).
    pub fn communities(&self, algorithm: CommunityAlgorithm) -> Communities {
        let (g, exec) = (self.graph(), &self.exec);
        let (clustering, modularity) = match algorithm {
            CommunityAlgorithm::GirvanNewman | CommunityAlgorithm::Divisive
                if exec.budget.is_exhausted() =>
            {
                // The divisive algorithms cannot even bootstrap on a spent
                // budget; fall back to pLA, whose degraded form (singleton
                // leftovers) is still a valid clustering.
                snap_obs::meta("degraded", "divisive->pla (budget exhausted)");
                snap_obs::add("budget_degradations", 1);
                let r = snap_community::pla_in(g, &PlaConfig::default(), exec);
                (r.clustering, r.q)
            }
            CommunityAlgorithm::GirvanNewman => {
                let r = snap_community::girvan_newman_in(g, &GnConfig::default(), exec);
                (r.clustering, r.q)
            }
            CommunityAlgorithm::Divisive => {
                let r = snap_community::pbd_in(g, &PbdConfig::default(), exec);
                (r.clustering, r.q)
            }
            CommunityAlgorithm::Agglomerative => {
                let r = snap_community::pma_in(g, &PmaConfig::default(), exec);
                (r.clustering, r.q)
            }
            CommunityAlgorithm::LocalAggregation => {
                let r = snap_community::pla_in(g, &PlaConfig::default(), exec);
                (r.clustering, r.q)
            }
            CommunityAlgorithm::Spectral => {
                let r = snap_community::spectral_communities_in(g, exec);
                (r.clustering, r.q)
            }
        };
        Communities {
            clustering,
            modularity,
        }
    }

    /// K-core decomposition: the coreness (largest k such that the
    /// vertex survives in the k-core) of every vertex, by parallel
    /// bucket peeling. A partial peel is not a valid decomposition, so an
    /// exhausted budget cancels with [`Exhausted`] instead of degrading.
    pub fn try_coreness(&self) -> Result<snap_kernels::CorenessResult, Exhausted> {
        snap_kernels::try_coreness(self.graph(), &self.exec)
    }

    /// Modularity of an arbitrary clustering against this network.
    pub fn modularity(&self, clustering: &Clustering) -> f64 {
        snap_community::modularity(self.graph(), clustering)
    }

    /// Partition into `parts` balanced parts.
    pub fn partition(
        &self,
        method: PartitionMethod,
        parts: usize,
        seed: u64,
    ) -> Result<Partition, SpectralError> {
        snap_partition::partition_in(self.graph(), method, parts, seed, &self.exec)
    }
}

/// A [`Network`] with `snap-obs` collection live on the current thread:
/// every instrumented kernel called through it lands spans and counters
/// in one report tree. Created by [`Network::observed`].
///
/// Dereferences to [`Network`], so the full analysis API is available.
/// Collection is disabled again when this guard drops.
///
/// ```
/// use snap::Network;
///
/// let net = Network::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
/// let obs = net.observed();
/// let _ = obs.try_bfs_stats(0);
/// let report = obs.finish();
/// assert!(report.find("bfs.hybrid").is_some());
/// ```
pub struct Observed<'a> {
    network: &'a Network,
}

impl std::ops::Deref for Observed<'_> {
    type Target = Network;

    fn deref(&self) -> &Network {
        self.network
    }
}

impl Observed<'_> {
    /// Snapshot everything recorded so far and reset the tree; collection
    /// continues.
    ///
    /// The snapshot is *consistent*: spans still open at the call (for
    /// example when reporting from inside a long pipeline) appear with
    /// their wall time accrued up to this instant and a call counted,
    /// rather than being silently truncated. Their remaining time after
    /// the snapshot accrues to the next report, so consecutive reports
    /// tile the timeline without double counting.
    pub fn report(&self) -> snap_obs::RunReport {
        snap_obs::take_report().unwrap_or_default()
    }

    /// Stop collecting and return the final report.
    pub fn finish(self) -> snap_obs::RunReport {
        let report = snap_obs::finish().unwrap_or_default();
        // `finish` already consumed this guard's enable level; letting
        // Drop run would disable a second time and pop an *outer* nested
        // scope's level (enable/disable are depth-counted).
        std::mem::forget(self);
        report
    }
}

impl Drop for Observed<'_> {
    fn drop(&mut self) {
        // Pops exactly this guard's nesting level: with depth-counted
        // enable/disable, overlapping `observed()` scopes on one thread
        // (per-request guards on pooled workers) are safe — the inner
        // drop no longer kills the outer scope's collection.
        snap_obs::disable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn barbell() -> Network {
        Network::from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn summary_roundtrip() {
        let net = barbell();
        let s = net.summary();
        assert_eq!(s.n, 6);
        assert_eq!(s.m, 7);
        assert_eq!(s.components, 1);
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algorithm in CommunityAlgorithm::ALL {
            assert_eq!(algorithm.name().parse(), Ok(algorithm));
        }
        assert!("louvain".parse::<CommunityAlgorithm>().is_err());
    }

    #[test]
    fn all_community_algorithms_run() {
        let net = barbell();
        for alg in [
            CommunityAlgorithm::GirvanNewman,
            CommunityAlgorithm::Divisive,
            CommunityAlgorithm::Agglomerative,
            CommunityAlgorithm::LocalAggregation,
            CommunityAlgorithm::Spectral,
        ] {
            let c = net.communities(alg);
            assert!(c.modularity > 0.2, "{alg:?}: q = {}", c.modularity);
            assert!((net.modularity(&c.clustering) - c.modularity).abs() < 1e-9);
        }
    }

    #[test]
    fn bfs_stats_cover_the_traversal() {
        let net = barbell();
        let (r, stats) = net.try_bfs_stats(0).unwrap();
        assert_eq!(r.dist[5], 3);
        assert_eq!(stats.depth(), 3);
        let discovered: usize = stats.levels.iter().map(|l| l.discovered).sum();
        assert_eq!(discovered, 5); // everyone but the source
        assert!(stats.total_edges_examined() > 0);
        // Push-only run must examine every arc of this connected graph.
        let push_only = HybridConfig {
            alpha: 0.0,
            beta: 24.0,
        };
        let (_, push) = net.try_bfs_stats_with(0, &push_only).unwrap();
        assert_eq!(push.pull_levels(), 0);
        assert_eq!(push.total_edges_examined(), net.graph().num_arcs() as u64);
    }

    #[test]
    fn centrality_finds_the_bridge() {
        let net = barbell();
        let bc = net.betweenness();
        let (e, _) = bc.max_edge().unwrap();
        assert_eq!(net.graph().edge_endpoints(e), (2, 3));
    }

    #[test]
    fn nested_observed_guards_do_not_kill_the_outer_scope() {
        let net = barbell();
        let outer = net.observed();
        let _ = outer.try_bfs_stats(0);
        {
            // Overlapping guard on the same thread (the per-request shape
            // on a pooled worker). Before the depth-counted fix, dropping
            // it disabled collection for the outer scope too.
            let inner = net.observed();
            let _ = inner.try_bfs_stats(1);
        }
        assert!(snap_obs::is_enabled(), "outer scope must still collect");
        let _ = outer.try_bfs_stats(2);
        let report = outer.finish();
        assert!(!snap_obs::is_enabled());
        let bfs = report.find("bfs.hybrid").expect("bfs spans collected");
        // All three traversals (outer, inner, post-inner) in one tree.
        assert_eq!(bfs.calls, 3, "{}", report.render());
    }

    #[test]
    fn observed_finish_pops_exactly_one_nesting_level() {
        let net = barbell();
        let outer = net.observed();
        let inner = net.observed();
        let _ = inner.try_bfs_stats(0);
        let _ = inner.finish();
        // `finish()` = snapshot + one disable; the guard must not disable
        // again on drop, or the outer scope would be popped here too.
        assert!(snap_obs::is_enabled(), "outer scope survived finish()");
        drop(outer);
        assert!(!snap_obs::is_enabled());
    }

    #[test]
    fn exhausted_budget_does_not_poison_a_rebuilt_session() {
        let net = barbell();
        let budget = Budget::with_deadline(std::time::Duration::from_secs(3600));
        let session = net.clone().with_budget(budget.clone());
        // The request times out mid-flight (external cancellation is how
        // a serve deadline reaches a running kernel).
        budget.cancel();
        assert!(session.try_bfs_stats(0).is_err(), "query was cancelled");
        assert!(budget.is_exhausted());
        // Rebuilding a session from the same (now spent) budget must not
        // inherit the sticky exhaustion: the next query runs normally.
        let next = net.clone().with_budget(budget.clone());
        assert!(!next.budget().is_exhausted());
        let (r, _) = next.try_bfs_stats(0).expect("fresh request succeeds");
        assert_eq!(r.dist[5], 3);
        // The original handle keeps its record — renewal is one-way.
        assert!(budget.is_exhausted());
    }

    #[test]
    fn live_budgets_still_share_state_with_the_session() {
        let net = barbell();
        let budget = Budget::with_deadline(std::time::Duration::from_secs(3600));
        let session = net.clone().with_budget(budget.clone());
        // Attaching a *live* budget shares it: cancellation from outside
        // must keep reaching queries on the session (the CLI relies on
        // observing exhaustion through its own handle after a run).
        budget.cancel();
        assert!(session.try_bfs_stats(0).is_err());
    }

    #[test]
    fn cancelled_budget_stops_every_traversal_entry_point() {
        let net = barbell();
        let budget = Budget::with_deadline(std::time::Duration::from_secs(3600));
        let session = net.clone().with_budget(budget.clone());
        budget.cancel();
        // Single traversals cancel ...
        assert!(session.try_bfs_stats(0).is_err());
        let cfg = HybridConfig::default();
        assert!(session.try_bfs_stats_with(0, &cfg).is_err());
        assert!(session.try_coreness().is_err());
        // ... and the multi-source sweeps run no source at all.
        let untouched = |scores: &[f64]| scores.iter().all(|&x| x == 0.0);
        assert!(!untouched(&net.closeness()));
        assert!(untouched(&session.closeness()));
        assert!(untouched(&session.betweenness().vertex));
        assert!(untouched(&session.approx_betweenness(1.0, 0).edge));
        assert_eq!(net.summary().paths.pairs, 30);
        assert_eq!(session.summary().paths.pairs, 0);
    }

    #[test]
    fn coreness_on_barbell() {
        // Two triangles joined by a bridge: everything sits in the
        // 2-core, nothing in a 3-core.
        let net = barbell();
        let r = net.try_coreness().unwrap();
        assert_eq!(r.coreness, vec![2; 6]);
        assert_eq!(r.max_core, 2);
        let budgeted = net
            .clone()
            .with_budget(Budget::with_deadline(std::time::Duration::from_secs(3600)));
        assert_eq!(budgeted.try_coreness().unwrap().coreness, r.coreness);
    }

    #[test]
    fn partitioning_works() {
        let net = barbell();
        let p = net
            .partition(PartitionMethod::MultilevelRecursive, 2, 1)
            .unwrap();
        assert_eq!(snap_partition::edge_cut(net.graph(), &p), 1);
    }
}

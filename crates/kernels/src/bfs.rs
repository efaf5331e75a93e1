//! Breadth-first search: sequential, lock-free level-synchronous parallel,
//! and direction-optimizing (hybrid push/pull) variants.
//!
//! The parallel BFS follows the paper's design (and [Bader & Madduri,
//! ICPP 2006]): vertices of the current frontier are expanded in parallel,
//! a shared atomic visited bitmap arbitrates ownership without locks, and
//! work is assigned degree-aware — each frontier vertex contributes work
//! proportional to its degree, so the skewed degree distributions of
//! small-world graphs do not serialize a level on whichever worker drew
//! the hub.
//!
//! On low-diameter small-world graphs most of the edge examinations of a
//! push-only BFS are wasted: once the frontier covers a sizable fraction
//! of the graph, almost every scanned arc lands on an already-visited
//! vertex. The direction-optimizing scheme (Beamer, Asanović & Patterson,
//! SC 2012) expands such levels bottom-up instead — every *unvisited*
//! vertex scans its own adjacency for a frontier parent and stops at the
//! first hit — and [`par_bfs`] switches between the two directions
//! per level with the classic α/β occupancy heuristics, backed by the
//! sparse/dense [`Frontier`] representation from `snap-graph`.

use crate::Exec;
use rayon::prelude::*;
use snap_budget::Exhausted;
use snap_graph::scratch::{dist_of, stamped};
use snap_graph::{AtomicBitmap, Frontier, Graph, TraversalWorkspace, VertexId};
use std::sync::atomic::{AtomicU32, Ordering};

/// Distance assigned to unreachable vertices.
pub const UNREACHABLE: u32 = u32::MAX;

/// Parent marker for the source / unreachable vertices.
pub const NO_PARENT: VertexId = VertexId::MAX;

/// Result of a (single-source) BFS.
#[derive(Clone, Debug)]
pub struct BfsResult {
    /// Hop distance from the source (`UNREACHABLE` if not reached).
    pub dist: Vec<u32>,
    /// BFS-tree parent (`NO_PARENT` for the source and unreached vertices).
    pub parent: Vec<VertexId>,
}

impl BfsResult {
    /// Number of vertices reached, including the source.
    pub fn reached(&self) -> usize {
        self.dist.iter().filter(|&&d| d != UNREACHABLE).count()
    }

    /// Eccentricity of the source within its component.
    pub fn max_distance(&self) -> u32 {
        self.dist
            .iter()
            .copied()
            .filter(|&d| d != UNREACHABLE)
            .max()
            .unwrap_or(0)
    }
}

/// Expansion direction of one BFS level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Top-down: frontier vertices push to their neighbors.
    Push,
    /// Bottom-up: unvisited vertices pull a parent from the frontier.
    Pull,
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Direction::Push => write!(f, "push"),
            Direction::Pull => write!(f, "pull"),
        }
    }
}

/// Per-level observability record of a traversal.
#[derive(Clone, Copy, Debug)]
pub struct LevelStats {
    /// Depth assigned to the vertices discovered by this level (1-based).
    pub depth: u32,
    /// Direction the level was expanded in.
    pub direction: Direction,
    /// Size of the frontier that was expanded.
    pub frontier: usize,
    /// Vertices discovered (claimed) by this expansion.
    pub discovered: usize,
    /// Arcs examined while expanding it (push: every arc out of the
    /// frontier; pull: arcs scanned before each vertex found a parent or
    /// exhausted its list).
    pub edges_examined: u64,
}

/// Traversal statistics collected by [`par_bfs_hybrid_stats`].
#[derive(Clone, Debug, Default)]
pub struct TraversalStats {
    /// One record per expanded level, in order.
    pub levels: Vec<LevelStats>,
}

impl TraversalStats {
    /// Eccentricity of the source: deepest level that discovered a
    /// vertex. (The level list may hold one final record beyond this —
    /// the expansion of the deepest frontier, which examines arcs but
    /// discovers nothing.)
    pub fn depth(&self) -> u32 {
        self.levels
            .iter()
            .filter(|l| l.discovered > 0)
            .map(|l| l.depth)
            .max()
            .unwrap_or(0)
    }

    /// Total arcs examined across all levels.
    pub fn total_edges_examined(&self) -> u64 {
        self.levels.iter().map(|l| l.edges_examined).sum()
    }

    /// How many levels ran bottom-up.
    pub fn pull_levels(&self) -> usize {
        self.levels
            .iter()
            .filter(|l| l.direction == Direction::Pull)
            .count()
    }

    /// Largest frontier expanded.
    pub fn peak_frontier(&self) -> usize {
        self.levels.iter().map(|l| l.frontier).max().unwrap_or(0)
    }
}

/// Switching thresholds for [`par_bfs_hybrid_stats`] (Beamer's α and β).
#[derive(Clone, Copy, Debug)]
pub struct HybridConfig {
    /// Switch push → pull when the arcs out of the frontier exceed
    /// `unexplored_arcs / alpha`: the frontier is about to touch a large
    /// share of the remaining graph, so pulling is cheaper.
    pub alpha: f64,
    /// Switch pull → push when the frontier shrinks below `n / beta`:
    /// scanning all unvisited vertices no longer pays off.
    pub beta: f64,
}

impl Default for HybridConfig {
    fn default() -> Self {
        // Beamer's published constants; robust across the paper's
        // small-world instances.
        HybridConfig {
            alpha: 14.0,
            beta: 24.0,
        }
    }
}

/// Sequential queue-based BFS.
///
/// ```
/// use snap_kernels::{bfs, UNREACHABLE};
///
/// let g = snap_graph::builder::from_edges(5, &[(0, 1), (1, 2), (2, 3)]);
/// let r = bfs(&g, 0);
/// assert_eq!(r.dist[3], 3);
/// assert_eq!(r.dist[4], UNREACHABLE);
/// ```
pub fn bfs<G: Graph>(g: &G, source: VertexId) -> BfsResult {
    let mut ws = TraversalWorkspace::new();
    let tag = bfs_into(g, source, &mut ws);
    export_bfs(g.num_vertices(), &ws, tag)
}

/// Sequential BFS into a reusable [`TraversalWorkspace`] — the zero-
/// allocation engine behind [`bfs`]. Returns the epoch tag of this
/// traversal; afterwards `ws.dist[v]` is `tag | distance` for every
/// reached `v` (stale otherwise), `ws.parent[v]` is the BFS-tree parent
/// (`NO_PARENT` for the source), and `ws.order` lists the reached
/// vertices in discovery order — which is what lets multi-source callers
/// (closeness, path statistics) aggregate over the *touched* set instead
/// of scanning all `n` slots.
pub fn bfs_into<G: Graph>(g: &G, source: VertexId, ws: &mut TraversalWorkspace) -> u64 {
    let tag = ws.begin(g.num_vertices());
    ws.ensure_parent();
    let slots = ws.slots();
    let (dist, parent) = (slots.dist, slots.parent);
    let order = slots.order;
    dist[source as usize] = tag;
    parent[source as usize] = NO_PARENT;
    // The discovery-order vector doubles as the FIFO queue: `head` chases
    // the push end, so the level structure is identical to an explicit
    // queue without moving each vertex through one. `level_end` marks
    // where the current level stops, so depth is a counter and the
    // expansion never reads dist[u] back.
    order.push(source);
    let mut head = 0usize;
    let mut level_end = 1usize;
    let mut dnext = tag | 1;
    while head < order.len() {
        if head == level_end {
            level_end = order.len();
            dnext += 1;
        }
        let u = order[head];
        head += 1;
        for v in g.neighbors(u) {
            if !stamped(dist[v as usize], tag) {
                dist[v as usize] = dnext;
                parent[v as usize] = u;
                order.push(v);
            }
        }
    }
    tag
}

/// [`bfs_into`] without parent tracking: distances and discovery order
/// only. The per-source engine for aggregate metrics (closeness, path
/// statistics) that never look at the BFS tree — skipping the parent
/// writes removes one random store per discovered vertex.
pub fn bfs_levels_into<G: Graph>(g: &G, source: VertexId, ws: &mut TraversalWorkspace) -> u64 {
    let tag = ws.begin(g.num_vertices());
    let slots = ws.slots();
    let dist = slots.dist;
    let order = slots.order;
    dist[source as usize] = tag;
    order.push(source);
    let mut head = 0usize;
    let mut level_end = 1usize;
    let mut dnext = tag | 1;
    while head < order.len() {
        if head == level_end {
            level_end = order.len();
            dnext += 1;
        }
        let u = order[head];
        head += 1;
        for v in g.neighbors(u) {
            if !stamped(dist[v as usize], tag) {
                dist[v as usize] = dnext;
                order.push(v);
            }
        }
    }
    tag
}

/// Densify a [`bfs_into`] traversal into the classic [`BfsResult`]
/// layout (`UNREACHABLE` / `NO_PARENT` fills, then touched slots copied
/// over in discovery order).
pub fn export_bfs(n: usize, ws: &TraversalWorkspace, tag: u64) -> BfsResult {
    debug_assert_eq!(ws.tag(), tag, "workspace was re-begun since bfs_into");
    let mut dist = vec![UNREACHABLE; n];
    let mut parent = vec![NO_PARENT; n];
    for &v in &ws.order {
        dist[v as usize] = dist_of(ws.dist[v as usize]);
        parent[v as usize] = ws.parent[v as usize];
    }
    BfsResult { dist, parent }
}

/// Parallel BFS: the direction-optimizing hybrid with default
/// [`HybridConfig`] thresholds. Distances are exact BFS distances
/// (identical to [`bfs`]); parents are *a* valid BFS-tree parent, which
/// may differ from the sequential tree when several frontier vertices
/// race for a child.
///
/// Directed graphs run the same engine and simply never pull: the
/// bottom-up step scans out-arcs, which only coincide with in-arcs on an
/// undirected adjacency.
pub fn par_bfs<G: Graph>(g: &G, source: VertexId) -> BfsResult {
    par_bfs_hybrid_stats(g, source, &HybridConfig::default()).0
}

/// Direction-optimizing BFS returning per-level [`TraversalStats`].
///
/// Each level is expanded either top-down (sparse frontier, degree-aware
/// work splitting, atomic claims) or bottom-up (dense frontier bitmap;
/// every unvisited vertex scans its adjacency for a frontier parent and
/// stops at the first hit — no synchronization needed, each vertex is
/// owned by exactly one task). Directed graphs never switch to pull: the
/// bottom-up scan walks out-arcs, which only coincide with in-arcs on
/// undirected CSR.
pub fn par_bfs_hybrid_stats<G: Graph>(
    g: &G,
    source: VertexId,
    cfg: &HybridConfig,
) -> (BfsResult, TraversalStats) {
    try_par_bfs_hybrid_stats(g, source, cfg, &Exec::default())
        .expect("unlimited budget cannot be exhausted")
}

/// [`par_bfs_hybrid_stats`] under `exec`'s compute budget: the budget is
/// probed once per level (a traversal has O(diameter) levels) and charged
/// for the arcs each level examined. A partial BFS has no meaningful
/// distances, so exhaustion aborts with `Err` rather than degrading.
pub fn try_par_bfs_hybrid_stats<G: Graph>(
    g: &G,
    source: VertexId,
    cfg: &HybridConfig,
    exec: &Exec,
) -> Result<(BfsResult, TraversalStats), Exhausted> {
    let _span = snap_obs::span("bfs.hybrid");
    let budget = &exec.budget;
    let n = g.num_vertices();
    let visited = AtomicBitmap::new(n);
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHABLE)).collect();
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NO_PARENT)).collect();

    visited.test_and_set(source as usize);
    dist[source as usize].store(0, Ordering::Relaxed);

    let mut frontier = Frontier::singleton(n, source);
    let mut stats = TraversalStats::default();
    let mut level: u32 = 0;
    let mut direction = Direction::Push;
    let pull_allowed = !g.is_directed();
    // Arcs incident to not-yet-visited vertices (Beamer's m_u).
    let mut unexplored: u64 = g.num_arcs() as u64;
    // Per-level wall-time distribution: skewed levels (the hub level of
    // an R-MAT) stand out where the summed span duration hides them.
    let level_us = snap_obs::hist("level_us");

    while !frontier.is_empty() {
        if let Err(why) = budget.check() {
            snap_obs::meta("cancelled", why);
            snap_obs::add("budget_cancellations", 1);
            return Err(why);
        }
        let level_timer = level_us.start();
        level += 1;
        let nf = frontier.len();
        // Arcs out of the frontier (Beamer's m_f). Its vertices are
        // visited, so their arcs also leave the unexplored pool now.
        let mf: u64 = frontier.iter().map(|v| g.degree(v) as u64).sum();
        unexplored = unexplored.saturating_sub(mf);

        direction = match direction {
            Direction::Push if pull_allowed && (mf as f64) > (unexplored as f64) / cfg.alpha => {
                Direction::Pull
            }
            Direction::Pull if (nf as f64) < (n as f64) / cfg.beta => Direction::Push,
            d => d,
        };

        let (next, edges_examined) = match direction {
            Direction::Push => {
                let members = frontier.ensure_sparse();
                // Degree-aware expansion: flat_map over (vertex, adjacency)
                // pairs lets rayon split a hub's adjacency across workers.
                let next: Vec<VertexId> = members
                    .par_iter()
                    .flat_map_iter(|&u| g.neighbors(u).map(move |v| (u, v)))
                    .filter_map(|(u, v)| {
                        if visited.test_and_set(v as usize) {
                            dist[v as usize].store(level, Ordering::Relaxed);
                            parent[v as usize].store(u, Ordering::Relaxed);
                            Some(v)
                        } else {
                            None
                        }
                    })
                    .collect();
                (next, mf)
            }
            Direction::Pull => {
                let bits = frontier.ensure_dense();
                let (next, scanned) = (0..n as VertexId)
                    .into_par_iter()
                    .fold(
                        || (Vec::new(), 0u64),
                        |(mut acc, mut scanned), v| {
                            if !visited.get(v as usize) {
                                for u in g.neighbors(v) {
                                    scanned += 1;
                                    if bits.get(u as usize) {
                                        visited.test_and_set(v as usize);
                                        dist[v as usize].store(level, Ordering::Relaxed);
                                        parent[v as usize].store(u, Ordering::Relaxed);
                                        acc.push(v);
                                        break;
                                    }
                                }
                            }
                            (acc, scanned)
                        },
                    )
                    .reduce(
                        || (Vec::new(), 0u64),
                        |(mut a, sa), (mut b, sb)| {
                            a.append(&mut b);
                            (a, sa + sb)
                        },
                    );
                (next, scanned)
            }
        };

        // Cap accounting; an overdraft surfaces at the next level's check.
        let _ = budget.charge(edges_examined.max(nf as u64));
        stats.levels.push(LevelStats {
            depth: level,
            direction,
            frontier: nf,
            discovered: next.len(),
            edges_examined,
        });
        frontier = Frontier::from_vec(n, next);
        frontier.normalize();
        level_us.stop_us(level_timer);
    }

    // Fold the per-level stats (collected regardless) into the report
    // tree; nothing here touches the hot per-level loop.
    if snap_obs::is_enabled() {
        snap_obs::add("levels", stats.levels.len() as u64);
        snap_obs::add("edges_examined", stats.total_edges_examined());
        snap_obs::add("pull_levels", stats.pull_levels() as u64);
        snap_obs::add(
            "vertices_discovered",
            stats.levels.iter().map(|l| l.discovered as u64).sum(),
        );
        snap_obs::record_max("depth", stats.depth() as u64);
        snap_obs::record_max("peak_frontier", stats.peak_frontier() as u64);
    }

    Ok((
        BfsResult {
            dist: dist.into_iter().map(|d| d.into_inner()).collect(),
            parent: parent.into_iter().map(|p| p.into_inner()).collect(),
        },
        stats,
    ))
}

/// Naive parallel BFS: the frontier is split per *vertex* (one task per
/// frontier vertex, adjacency scanned serially inside the task). On
/// skewed degree distributions one worker draws the hub and serializes
/// the level — this is the ablation baseline showing why the
/// degree-aware assignment in the hybrid's push step matters.
pub fn par_bfs_vertex_partitioned<G: Graph>(g: &G, source: VertexId) -> BfsResult {
    let n = g.num_vertices();
    let visited = AtomicBitmap::new(n);
    let dist: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNREACHABLE)).collect();
    let parent: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(NO_PARENT)).collect();

    visited.test_and_set(source as usize);
    dist[source as usize].store(0, Ordering::Relaxed);
    let mut frontier: Vec<VertexId> = vec![source];
    let mut level: u32 = 0;

    while !frontier.is_empty() {
        level += 1;
        let next: Vec<VertexId> = frontier
            .par_iter()
            .map(|&u| {
                // Whole adjacency handled by one task — the load imbalance
                // under test.
                let mut local = Vec::new();
                for v in g.neighbors(u) {
                    if visited.test_and_set(v as usize) {
                        dist[v as usize].store(level, Ordering::Relaxed);
                        parent[v as usize].store(u, Ordering::Relaxed);
                        local.push(v);
                    }
                }
                local
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        frontier = next;
    }

    BfsResult {
        dist: dist.into_iter().map(|d| d.into_inner()).collect(),
        parent: parent.into_iter().map(|p| p.into_inner()).collect(),
    }
}

/// BFS that only records distances and stops once `limit` vertices have
/// been reached — the "path-limited search" primitive the paper uses for
/// concurrent local explorations.
///
/// Returns exactly `min(limit, reachable)` `(vertex, distance)` pairs in
/// discovery order (the source counts as reached at distance 0). In
/// particular `limit == 0` returns an empty list.
pub fn bfs_limited<G: Graph>(g: &G, source: VertexId, limit: usize) -> Vec<(VertexId, u32)> {
    if limit == 0 {
        return Vec::new();
    }
    let n = g.num_vertices();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::new();
    let mut order = Vec::with_capacity(limit.min(n));
    dist[source as usize] = 0;
    queue.push_back(source);
    order.push((source, 0));
    'outer: while let Some(u) = queue.pop_front() {
        if order.len() >= limit {
            break;
        }
        let du = dist[u as usize];
        for v in g.neighbors(u) {
            if dist[v as usize] == UNREACHABLE {
                dist[v as usize] = du + 1;
                order.push((v, du + 1));
                if order.len() >= limit {
                    break 'outer;
                }
                queue.push_back(v);
            }
        }
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    fn path5() -> snap_graph::CsrGraph {
        from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)])
    }

    #[test]
    fn seq_distances_on_path() {
        let g = path5();
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.parent[4], 3);
        assert_eq!(r.parent[0], NO_PARENT);
        assert_eq!(r.max_distance(), 4);
    }

    #[test]
    fn unreachable_marked() {
        let g = from_edges(4, &[(0, 1)]);
        let r = bfs(&g, 0);
        assert_eq!(r.dist[2], UNREACHABLE);
        assert_eq!(r.reached(), 2);
    }

    #[test]
    fn par_matches_seq_distances() {
        let g = from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (4, 7),
            ],
        );
        let seq = bfs(&g, 0);
        let par = par_bfs(&g, 0);
        assert_eq!(seq.dist, par.dist);
    }

    #[test]
    fn par_parents_are_valid() {
        let g = from_edges(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (4, 7),
            ],
        );
        let r = par_bfs(&g, 0);
        for v in 1..8u32 {
            let p = r.parent[v as usize];
            if r.dist[v as usize] != UNREACHABLE {
                assert_eq!(r.dist[v as usize], r.dist[p as usize] + 1);
                assert!(g.neighbors(p).any(|x| x == v));
            }
        }
    }

    #[test]
    fn hybrid_forced_pull_matches_seq() {
        // Huge alpha switches to pull immediately (the m_f > m_u / alpha
        // trigger fires on any frontier); tiny beta never switches back.
        // alpha = 0 keeps the trigger unreachable (threshold +inf/NaN):
        // push-only.
        let g = from_edges(
            10,
            &[
                (0, 1),
                (0, 2),
                (0, 3),
                (1, 4),
                (2, 4),
                (3, 5),
                (4, 6),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
                (2, 9),
            ],
        );
        let cfg = HybridConfig {
            alpha: 0.0,
            beta: 0.001,
        };
        let (forced_push, s1) = par_bfs_hybrid_stats(&g, 0, &cfg);
        assert_eq!(s1.pull_levels(), 0);
        let cfg = HybridConfig {
            alpha: 1e9,
            beta: 0.001,
        };
        let (forced_pull, s2) = par_bfs_hybrid_stats(&g, 0, &cfg);
        assert!(s2.pull_levels() > 0, "stats: {:?}", s2.levels);
        let seq = bfs(&g, 0);
        assert_eq!(seq.dist, forced_push.dist);
        assert_eq!(seq.dist, forced_pull.dist);
    }

    #[test]
    fn hybrid_parents_are_valid_in_pull_mode() {
        let g = from_edges(
            9,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 7),
                (6, 8),
                (7, 8),
            ],
        );
        let cfg = HybridConfig {
            alpha: 1e9,
            beta: 0.001,
        };
        let (r, _) = par_bfs_hybrid_stats(&g, 0, &cfg);
        for v in 1..9u32 {
            if r.dist[v as usize] != UNREACHABLE {
                let p = r.parent[v as usize];
                assert_eq!(r.dist[v as usize], r.dist[p as usize] + 1);
                assert!(g.neighbors(p).any(|x| x == v));
            }
        }
    }

    #[test]
    fn hybrid_stats_account_every_level() {
        let g = path5();
        let (r, stats) = par_bfs_hybrid_stats(&g, 0, &HybridConfig::default());
        assert_eq!(stats.depth(), r.max_distance());
        // Four discovering levels plus the final empty expansion of the
        // deepest frontier.
        assert_eq!(stats.levels.len(), 5);
        for (i, l) in stats.levels.iter().enumerate() {
            assert_eq!(l.depth, i as u32 + 1);
            assert_eq!(l.frontier, 1);
        }
        assert!(stats.levels[..4].iter().all(|l| l.discovered == 1));
        assert_eq!(stats.levels[4].discovered, 0);
        assert!(stats.total_edges_examined() > 0);
        assert_eq!(stats.peak_frontier(), 1);
        // Push-only run on a path: each level examines exactly the
        // expanded frontier's arcs (degree ≤ 2), and the totals agree.
        let push_cfg = HybridConfig {
            alpha: 0.0,
            beta: 24.0,
        };
        let (_, ps) = par_bfs_hybrid_stats(&g, 0, &push_cfg);
        assert_eq!(ps.pull_levels(), 0);
        assert_eq!(ps.levels[0].edges_examined, 1); // source degree 1
        let arc_total: u64 = ps.levels.iter().map(|l| l.edges_examined).sum();
        // Every vertex's arcs are examined exactly once over the run.
        assert_eq!(arc_total, g.num_arcs() as u64);
    }

    #[test]
    fn hybrid_on_directed_graph_stays_push() {
        use snap_graph::GraphBuilder;
        let g = GraphBuilder::directed(4)
            .add_edges([(0, 1), (1, 2), (2, 3)])
            .build();
        let cfg = HybridConfig {
            alpha: f64::INFINITY, // would force pull if allowed
            beta: 0.001,
        };
        let (r, stats) = par_bfs_hybrid_stats(&g, 0, &cfg);
        assert_eq!(stats.pull_levels(), 0);
        assert_eq!(r.dist, vec![0, 1, 2, 3]);
    }

    #[test]
    fn limited_bfs_stops_early() {
        let g = path5();
        let order = bfs_limited(&g, 0, 3);
        assert_eq!(order.len(), 3);
        assert_eq!(order[0], (0, 0));
    }

    #[test]
    fn limited_bfs_zero_limit_is_empty() {
        let g = path5();
        assert!(bfs_limited(&g, 0, 0).is_empty());
    }

    #[test]
    fn limited_bfs_exact_clamp() {
        // Star: source + 6 leaves, 7 reachable. Every limit must yield
        // exactly min(limit, reachable) entries, even mid-adjacency.
        let g = from_edges(8, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]);
        for limit in 0..=9 {
            let order = bfs_limited(&g, 0, limit);
            assert_eq!(order.len(), limit.min(7), "limit {limit}");
        }
        // Vertex 7 is unreachable and must never appear.
        assert!(bfs_limited(&g, 0, 9).iter().all(|&(v, _)| v != 7));
    }

    #[test]
    fn limited_bfs_distances_are_bfs_distances() {
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 3), (3, 4), (4, 5)]);
        let full = bfs(&g, 0);
        for limit in 1..=6 {
            for (v, d) in bfs_limited(&g, 0, limit) {
                assert_eq!(d, full.dist[v as usize]);
            }
        }
    }

    #[test]
    fn single_vertex_graph() {
        let g = from_edges(1, &[]);
        let r = bfs(&g, 0);
        assert_eq!(r.dist, vec![0]);
        let p = par_bfs(&g, 0);
        assert_eq!(p.dist, vec![0]);
    }
}

//! Shortest-path-length statistics: average path length, diameter, and
//! the sampled estimators the paper's exploratory workflow uses on large
//! graphs (where all-pairs BFS is out of reach).
//!
//! Every entry point reads its statistics off one histogram of distance
//! counts, filled by a multi-source BFS: up to 64 sources traverse
//! together, one bit of a `u64` per source. Where sources share levels,
//! as on small-world graphs, a dense level reads each adjacency once for
//! the whole batch rather than once per source; where they do not, a
//! sparse level costs what its frontier touches, as one BFS per source
//! would.

use crate::blocks;
use rayon::prelude::*;
use snap_budget::Budget;
use snap_graph::{Graph, VertexId};
use snap_kernels::sweep::{record_skipped, sample_sources};
use snap_kernels::Exec;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Path-length statistics over (a sample of) source vertices; all zero
/// when no reachable pair was observed.
#[derive(Clone, Copy, Debug, Default)]
pub struct PathStats {
    /// Mean distance over reachable ordered pairs.
    pub average: f64,
    /// Maximum observed distance (the diameter when exact).
    pub max: u32,
    /// 90th-percentile distance ("effective diameter").
    pub effective_diameter: f64,
    /// Ordered reachable pairs observed.
    pub pairs: u64,
}

/// Exact statistics via all-pairs BFS (`O(n(m + n))`; small graphs only).
/// The statistics are read off a histogram of integer distance counts,
/// so the order the sources are swept in cannot change them.
pub fn path_stats_exact<G: Graph>(g: &G) -> PathStats {
    path_stats_in(g, g.num_vertices(), 0, &Exec::default()).stats
}

/// Sampled statistics from `k` random sources.
pub fn path_stats_sampled<G: Graph>(g: &G, k: usize, seed: u64) -> PathStats {
    path_stats_in(g, k, seed, &Exec::default()).stats
}

/// Path statistics computed from however many BFS sources the budget
/// allowed.
#[derive(Clone, Copy, Debug)]
pub struct PartialPathStats {
    /// Statistics over the pairs observed from the processed sources.
    pub stats: PathStats,
    /// Sources actually traversed before the budget tripped.
    pub sources_used: usize,
    /// Sources the caller asked for.
    pub sources_requested: usize,
}

impl PartialPathStats {
    /// Whether the budget cut the source sweep short.
    pub fn degraded(&self) -> bool {
        self.sources_used < self.sources_requested
    }
}

/// [`path_stats_sampled`] under `exec`'s budget: traverses batches of
/// sampled sources until the budget trips. The processed prefix of the
/// shuffled sample is itself a uniform sample, so the averages stay
/// unbiased — only the variance grows. Pass `k = n` for budget-degraded
/// "exact" statistics.
pub(crate) fn path_stats_in<G: Graph>(g: &G, k: usize, seed: u64, exec: &Exec) -> PartialPathStats {
    let sources = sample_sources(g.num_vertices(), k.max(1), seed);
    let (hist, used) = distance_histogram(g, &sources, exec);
    PartialPathStats {
        stats: stats_of(&hist),
        sources_used: used,
        sources_requested: sources.len(),
    }
}

/// Sources per MS-BFS batch: one bit of a `u64` each.
const BATCH: usize = 64;

/// A level whose frontier entries carry more than `arcs / DENSE_SHARE`
/// arcs runs dense: the entries are merged into one word per vertex, and
/// the level runs over vertex ranges — as a pull on an undirected graph,
/// as a push from each vertex's merged word on a directed one. A pull
/// reads every vertex and, until its unseen sources are all covered, its
/// whole adjacency; a merged push reads each frontier vertex's arcs once
/// however many entries listed it. Below the share a level pushes
/// straight from the entries, so it costs what its frontier touches, not
/// `n + m`: a small-world batch runs its few middle levels dense, a
/// high-diameter graph's thin rings push.
const DENSE_SHARE: u64 = 4;

/// Histogram of the distances from `sources` (small-world graphs have
/// tiny diameters, so a growable histogram beats storing all pair
/// distances), plus how many sources were traversed before the budget
/// tripped. Sources run in batches of [`BATCH`]. The budget is checked
/// before every level and charged each level's work (the vertices and
/// arcs it read); a batch cut short by a trip adds nothing, so a tripped
/// sweep keeps a whole-batch prefix of `sources`. The counts are
/// integers, so neither the batching, the kind of a level nor the
/// thread count can change them.
fn distance_histogram<G: Graph>(g: &G, sources: &[VertexId], exec: &Exec) -> (Vec<u64>, usize) {
    let budget = &exec.budget;
    let words = || (0..g.num_vertices()).map(|_| AtomicU64::new(0)).collect();
    let (seen, frontier): (Vec<_>, Vec<_>) = (words(), words());
    let mut hist = Vec::new();
    let mut used = 0;
    for batch in sources.chunks(BATCH) {
        let Some(counts) = traverse(g, &seen, &frontier, batch, budget) else {
            break;
        };
        if hist.len() < counts.len() {
            hist.resize(counts.len(), 0);
        }
        for (h, c) in hist.iter_mut().zip(counts) {
            *h += c;
        }
        used += batch.len();
    }
    snap_obs::add("sources_processed", used as u64);
    record_skipped(budget, sources.len(), used);
    (hist, used)
}

/// A vertex and sources that reached it at the previous level.
type Entry = (VertexId, u64);

/// What one work unit of a level found: the vertices it reached, each
/// with the sources that reached it first through this unit, the pairs
/// reached and the work done.
#[derive(Default)]
struct Found {
    entries: Vec<Entry>,
    pairs: u64,
    work: u64,
}

impl Found {
    fn reach(&mut self, v: VertexId, sources: u64) {
        self.entries.push((v, sources));
        self.pairs += u64::from(sources.count_ones());
    }

    /// Offer `bits` to every out-neighbour of `u`: the `fetch_or` on the
    /// neighbour's `seen` word says which sources are new, so each
    /// (source, vertex) pair is found by exactly one unit.
    fn offer<G: Graph>(&mut self, g: &G, seen: &[AtomicU64], u: VertexId, bits: u64) {
        for v in g.neighbors(u) {
            self.work += 1;
            let w = &seen[v as usize];
            if bits & !get(w) != 0 {
                let new = bits & !w.fetch_or(bits, Relaxed);
                if new != 0 {
                    self.reach(v, new);
                }
            }
        }
    }
}

fn get(w: &AtomicU64) -> u64 {
    w.load(Relaxed)
}

fn set(w: &AtomicU64, x: u64) {
    w.store(x, Relaxed)
}

/// Traverse from `batch` (at most [`BATCH`] distinct sources) as a
/// multi-source BFS (Then et al., "The More the Merrier", PVLDB 8(4),
/// 2014): source `i` of the batch is bit `i`, and `seen[v]` holds the
/// sources that have reached `v`. Returns the number of (source, vertex)
/// pairs first reached at each level `d >= 1` at index `d`, or `None`
/// when the budget trips before the traversal ends. `frontier` is all
/// zero on entry and on return; every access is `Relaxed`, as the
/// pool's join orders one parallel call before the next.
///
/// A level's frontier is a list of entries. A push may list a vertex
/// once per unit that reached it with new sources, but the sources of
/// its entries are disjoint, so a batch lists at most `64 n` entries in
/// all — one per (source, vertex) pair, as one BFS per source would.
fn traverse<G: Graph>(
    g: &G,
    seen: &[AtomicU64],
    frontier: &[AtomicU64],
    batch: &[VertexId],
    budget: &Budget,
) -> Option<Vec<u64>> {
    let all = u64::MAX >> (BATCH - batch.len());
    let arcs = g.num_arcs() as u64;
    seen.iter().for_each(|w| set(w, 0));
    let mut active: Vec<Entry> = Vec::with_capacity(batch.len());
    for (i, &s) in batch.iter().enumerate() {
        set(&seen[s as usize], 1 << i);
        active.push((s, 1 << i));
    }
    let mut counts = vec![0];
    while !active.is_empty() {
        budget.check().ok()?;
        let frontier_arcs: u64 = active.iter().map(|&(u, _)| g.degree(u) as u64).sum();
        let units = if frontier_arcs > arcs / DENSE_SHARE {
            dense(g, seen, frontier, &active, all)
        } else {
            push(g, seen, &active)
        };
        let (mut pairs, mut work) = (0, 0);
        active.clear();
        for unit in units {
            active.extend(unit.entries);
            pairs += unit.pairs;
            work += unit.work;
        }
        if pairs > 0 {
            counts.push(pairs);
        }
        let _ = budget.charge(work);
    }
    Some(counts)
}

/// A dense level: the entries are merged into `frontier` words, then the
/// level runs over vertex ranges, one work unit (and one `pathlen.level`
/// trace task) each. On an undirected graph it pulls: `new(v) =
/// OR(frontier[u] for u in N(v)) & !seen[v]`, leaving the scan of `N(v)`
/// once every unseen source is covered; a unit writes only its own
/// range's `seen` words and lists each vertex it reaches once, in id
/// order. Pull needs in-arcs (the rule the hybrid BFS's direction switch
/// follows), so on a directed graph each unit pushes its own range's
/// merged words instead.
fn dense<G: Graph>(
    g: &G,
    seen: &[AtomicU64],
    frontier: &[AtomicU64],
    active: &[Entry],
    all: u64,
) -> Vec<Found> {
    let runs = blocks(active.len());
    runs.par_chunks(1).for_each(|run| {
        for &(u, bits) in &active[run[0].clone()] {
            frontier[u as usize].fetch_or(bits, Relaxed);
        }
    });
    let units = blocks(seen.len())
        .par_chunks(1)
        .map(|block| {
            let _task = snap_obs::task("pathlen.level");
            let mut found = Found {
                work: block[0].len() as u64,
                ..Found::default()
            };
            for v in block[0].clone() {
                if g.is_directed() {
                    let bits = frontier[v].swap(0, Relaxed);
                    if bits != 0 {
                        found.offer(g, seen, v as VertexId, bits);
                    }
                    continue;
                }
                let was = get(&seen[v]);
                let unseen = !was & all;
                if unseen == 0 {
                    continue;
                }
                let mut bits = 0;
                for u in g.neighbors(v as VertexId) {
                    found.work += 1;
                    bits |= get(&frontier[u as usize]);
                    if bits & unseen == unseen {
                        break;
                    }
                }
                let new = bits & unseen;
                if new != 0 {
                    set(&seen[v], was | new);
                    found.reach(v as VertexId, new);
                }
            }
            found
        })
        .collect();
    if !g.is_directed() {
        runs.par_chunks(1).for_each(|run| {
            for &(u, _) in &active[run[0].clone()] {
                set(&frontier[u as usize], 0);
            }
        });
    }
    units
}

/// A sparse level: a push straight from the frontier entries, over runs
/// of them, one work unit (and `pathlen.level` task) each.
fn push<G: Graph>(g: &G, seen: &[AtomicU64], active: &[Entry]) -> Vec<Found> {
    blocks(active.len())
        .par_chunks(1)
        .map(|run| {
            let _task = snap_obs::task("pathlen.level");
            let mut found = Found::default();
            for &(u, bits) in &active[run[0].clone()] {
                found.offer(g, seen, u, bits);
            }
            found
        })
        .collect()
}

/// Read the statistics off a distance histogram.
fn stats_of(hist: &[u64]) -> PathStats {
    let pairs: u64 = hist.iter().sum();
    if pairs == 0 {
        return PathStats::default();
    }
    let total: u64 = hist.iter().enumerate().map(|(d, &c)| d as u64 * c).sum();
    let max = (hist.len() - 1) as u32;
    // Effective diameter: smallest d such that >= 90% of pairs are within
    // d, with linear interpolation inside the bucket.
    let target = 0.9 * pairs as f64;
    let mut cum = 0u64;
    let mut eff = max as f64;
    for (d, &c) in hist.iter().enumerate() {
        let prev = cum as f64;
        cum += c;
        if cum as f64 >= target {
            let need = target - prev;
            eff = if c == 0 {
                d as f64
            } else {
                (d as f64 - 1.0) + need / c as f64
            };
            break;
        }
    }
    PathStats {
        average: total as f64 / pairs as f64,
        max,
        effective_diameter: eff.max(0.0),
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snap_graph::builder::from_edges;
    use snap_graph::{CsrGraph, FilteredGraph};
    use snap_kernels::bfs::{bfs, UNREACHABLE};

    /// The histogram one sequential BFS per source builds.
    fn oracle<G: Graph>(g: &G, sources: &[VertexId]) -> Vec<u64> {
        let mut hist = Vec::new();
        for &s in sources {
            for (v, &d) in bfs(g, s).dist.iter().enumerate() {
                if d != UNREACHABLE && v as VertexId != s {
                    if d as usize >= hist.len() {
                        hist.resize(d as usize + 1, 0);
                    }
                    hist[d as usize] += 1;
                }
            }
        }
        hist
    }

    fn check<G: Graph>(g: &G, k: usize, seed: u64, threads: usize) -> Result<(), TestCaseError> {
        let sources = sample_sources(g.num_vertices(), k, seed);
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
        let (hist, used) = pool
            .build()
            .unwrap()
            .install(|| distance_histogram(g, &sources, &Exec::default()));
        prop_assert_eq!(used, sources.len());
        prop_assert_eq!(hist, oracle(g, &sources));
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// MS-BFS equals one BFS per source on every graph family —
        /// small-world ones that run dense levels, a directed one, a
        /// holed view and a high-diameter grid — for source counts on
        /// both sides of the 64-source batch edge.
        #[test]
        fn ms_bfs_equals_one_bfs_per_source(
            family in 0usize..6,
            which_k in 0usize..5,
            seed in 0u64..1000,
            which_threads in 0usize..3,
        ) {
            let k = [1, 63, 64, 65, 200][which_k];
            let threads = [1, 2, 8][which_threads];
            let rmat = |directed| {
                let mut cfg = snap_gen::RmatConfig::small_world(10, 3000);
                cfg.directed = directed;
                snap_gen::rmat(&cfg, seed)
            };
            let g: CsrGraph = match family {
                0 | 3 => rmat(false),
                1 => {
                    let cfg = snap_gen::PlantedConfig::with_target_degrees(1024, 8, 6.0, 1.0);
                    snap_gen::planted_partition(&cfg, seed).0
                }
                2 => snap_gen::erdos_renyi(1000, 1500, seed),
                4 => rmat(true),
                // High diameter: every level is a thin ring that pushes.
                _ => snap_gen::road_grid(16, 64, 0.05, 0.3, seed),
            };
            if family == 3 {
                let mut holed = FilteredGraph::new(&g);
                for e in g.edge_ids().step_by(3) {
                    holed.delete_edge(e);
                }
                check(&holed, k, seed, threads)?;
            } else {
                check(&g, k, seed, threads)?;
            }
        }
    }

    /// The budget is checked before every level and charged each level's
    /// work, so a cap far below one batch's work stops the batch part
    /// way, and the tripped batch adds nothing to the histogram.
    #[test]
    fn a_trip_inside_a_batch_drops_the_batch() {
        let n = 4000;
        let edges: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
        let g = from_edges(n as usize, &edges);
        let sources = sample_sources(g.num_vertices(), 64, 1);
        // One batch reads every arc once per source at least: 64 × 2n.
        let exec = Exec {
            budget: Budget::with_work_cap(1000),
            ..Exec::default()
        };
        let (hist, used) = distance_histogram(&g, &sources, &exec);
        assert!(exec.budget.is_exhausted());
        assert_eq!(used, 0);
        assert!(hist.is_empty());
        let p = path_stats_in(&g, 64, 1, &exec);
        assert!(p.degraded());
        assert_eq!(p.stats.pairs, 0);
    }

    #[test]
    fn path_graph_stats() {
        // Path 0-1-2-3: ordered pairs symmetric; avg = (1*6 + 2*4 + 3*2)/12.
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let s = path_stats_exact(&g);
        assert_eq!(s.max, 3);
        assert_eq!(s.pairs, 12);
        assert!((s.average - (6.0 + 8.0 + 6.0) / 12.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_diameter_one() {
        let g = from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        let s = path_stats_exact(&g);
        assert_eq!(s.max, 1);
        assert!((s.average - 1.0).abs() < 1e-12);
        assert!(s.effective_diameter <= 1.0);
    }

    #[test]
    fn disconnected_pairs_ignored() {
        let g = from_edges(4, &[(0, 1), (2, 3)]);
        let s = path_stats_exact(&g);
        assert_eq!(s.pairs, 4);
        assert_eq!(s.max, 1);
    }

    #[test]
    fn sampled_full_equals_exact() {
        let g = from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let a = path_stats_exact(&g);
        let b = path_stats_sampled(&g, 5, 3);
        assert_eq!(a.pairs, b.pairs);
        assert!((a.average - b.average).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(2, &[]);
        let s = path_stats_exact(&g);
        assert_eq!(s.pairs, 0);
        assert_eq!(s.average, 0.0);
    }

    #[test]
    fn effective_diameter_below_max() {
        // Star + long tail: most pairs are short, the tail stretches max.
        let g = from_edges(8, &[(0, 1), (0, 2), (0, 3), (0, 4), (4, 5), (5, 6), (6, 7)]);
        let s = path_stats_exact(&g);
        assert!(s.effective_diameter < s.max as f64);
    }

    /// A small small-world instance; `seed` varies the shape.
    fn reuse_graph(seed: u64) -> CsrGraph {
        let scale = 5 + (seed % 3) as u32;
        snap_gen::rmat(&snap_gen::RmatConfig::small_world(scale, 4 << scale), seed)
    }

    fn check_reuse<G: Graph>(g: &G, exec: &Exec, round: u64) {
        let pa = path_stats_sampled(g, 8, round);
        let pb = path_stats_in(g, 8, round, exec).stats;
        assert_eq!(pa.average.to_bits(), pb.average.to_bits(), "round {round}");
        assert_eq!(pa.max, pb.max, "round {round}");
        assert_eq!(pa.pairs, pb.pairs, "round {round}");
    }

    /// The workspace-history contract (DESIGN.md §11) for the pooled
    /// sweep: one `Exec` driven across 50 differing graphs, every 5th a
    /// filtered view, gives what a fresh pool gives on every call.
    #[test]
    fn a_reused_pool_matches_a_fresh_one() {
        let exec = Exec::default();
        for round in 0..50u64 {
            let base = reuse_graph(round);
            if round % 5 == 4 {
                let mut view = FilteredGraph::new(&base);
                for e in (0..base.edge_id_bound() as u32).step_by(3) {
                    view.delete_edge(e);
                }
                check_reuse(&view, &exec, round);
            } else {
                check_reuse(&base, &exec, round);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Random interleavings: whatever graph the pool saw last, the
        /// next call's statistics are exactly those of a fresh pool.
        #[test]
        fn reuse_is_invisible(seeds in prop::collection::vec(0u64..1000, 2..6)) {
            let exec = Exec::default();
            for (i, &seed) in seeds.iter().enumerate() {
                check_reuse(&reuse_graph(seed), &exec, i as u64 + seed);
            }
        }
    }
}

//! Shortest-path-length statistics: average path length, diameter, and
//! the sampled estimators the paper's exploratory workflow uses on large
//! graphs (where all-pairs BFS is out of reach).

use snap_graph::{Graph, TraversalWorkspace, VertexId};
use snap_kernels::bfs::{bfs_levels_into, par_bfs, UNREACHABLE};
use snap_kernels::sweep::{record_skipped, sample_sources, sweep};
use snap_kernels::Exec;

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

/// [`path_stats_sampled`] with `exec`'s budget and workspace pool:
/// traverses sampled sources until the budget trips. The processed prefix
/// of the shuffled sample is itself a uniform sample, so the averages
/// stay unbiased — only the variance grows. Pass `k = n` for
/// budget-degraded "exact" statistics.
pub fn path_stats_in<G: Graph>(g: &G, k: usize, seed: u64, exec: &Exec) -> PartialPathStats {
    let sources = sample_sources(g.num_vertices(), k.max(1), seed);
    let (hist, used) = distance_histogram(g, &sources, exec);
    PartialPathStats {
        stats: stats_of(&hist),
        sources_used: used,
        sources_requested: sources.len(),
    }
}

/// Fold one source's distance array into the distance histogram.
fn add_distances(acc: &mut Vec<u64>, s: VertexId, dist: &[u32]) {
    for (v, &d) in dist.iter().enumerate() {
        if d != UNREACHABLE && v as VertexId != s {
            if d as usize >= acc.len() {
                acc.resize(d as usize + 1, 0);
            }
            acc[d as usize] += 1;
        }
    }
}

/// [`add_distances`] over a finished [`bfs_levels_into`] traversal: each
/// BFS level contributes its size to one histogram bucket, so the whole
/// fold is `O(D log n)` dist reads (run boundaries by binary search over
/// the depth-sorted discovery order). The depth-0 run is exactly the
/// source, which the dense scan excludes. Histogram counts are
/// order-independent, so the result is identical to the dense scan.
fn add_distances_ws(acc: &mut Vec<u64>, ws: &TraversalWorkspace) {
    for (d, run) in ws.depth_runs() {
        if d == 0 {
            continue;
        }
        let d = d as usize;
        if d >= acc.len() {
            acc.resize(d + 1, 0);
        }
        acc[d] += run.len() as u64;
    }
}

/// Histogram of the distances from `sources` (small-world graphs have
/// tiny diameters, so a growable histogram beats storing all pair
/// distances), plus how many sources were traversed before the budget
/// tripped.
fn distance_histogram<G: Graph>(g: &G, sources: &[VertexId], exec: &Exec) -> (Vec<u64>, usize) {
    // Too few sources cannot saturate a source-parallel sweep, so below
    // one source per worker each traversal runs on the parallel
    // direction-optimizing engine instead. With plenty of sources, one
    // sequential BFS per worker wins: no atomic traffic, no level
    // barriers.
    let n = g.num_vertices();
    if sources.len() < rayon::current_num_threads() {
        let budget = &exec.budget;
        let mut acc = Vec::new();
        let mut used = 0;
        for &s in sources {
            if budget.check().is_err() {
                break;
            }
            let r = par_bfs(g, s);
            let _ = budget.charge(n as u64 + 1);
            used += 1;
            add_distances(&mut acc, s, &r.dist);
        }
        record_skipped(budget, sources.len(), used);
        return (acc, used);
    }
    // The counts are integers, so chunking cannot change them.
    let (hist, used) = sweep(
        exec,
        sources,
        "pathlen.source",
        16,
        |_| Vec::new(),
        |acc, s, ws| {
            bfs_levels_into(g, s, ws);
            add_distances_ws(acc, ws);
            n as u64 + 1
        },
        |mut a, b| {
            if a.len() < b.len() {
                a.resize(b.len(), 0);
            }
            for (i, y) in b.into_iter().enumerate() {
                a[i] += y;
            }
            a
        },
    );
    (hist.unwrap_or_default(), used)
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
    use snap_graph::builder::from_edges;

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
}

//! Clustering coefficients via oriented triangle counting.
//!
//! Vertices are ranked by `(degree, id)` and every edge points from its
//! lower- to its higher-ranked endpoint (GBBS, arXiv 1805.05208). A
//! triangle whose corners rank `u < v < w` is then found exactly once:
//! at `u`, as `v ∈ out(u)` and `w ∈ out(u) ∩ out(v)`, where each `out`
//! list keeps id order so the intersection is a merge. Ranking by
//! degree keeps every out-list within `O(√m)`. Directed graphs are
//! counted on their underlying undirected graph, as Stanford SNAP's
//! `GetClustCf` does.

use crate::blocks;
use rayon::prelude::*;
use snap_budget::Budget;
use snap_graph::{CsrGraph, Graph, GraphBuilder, VertexId};
use snap_kernels::Exec;
use std::borrow::Cow;

/// Number of triangles through each vertex.
pub fn triangles_per_vertex(g: &CsrGraph) -> Vec<u64> {
    triangles(&undirected(g), &Budget::default()).t
}

/// Total number of triangles in the graph.
pub fn triangle_count(g: &CsrGraph) -> u64 {
    triangles_per_vertex(g).into_iter().sum::<u64>() / 3
}

/// Local clustering coefficient of every vertex:
/// `C(v) = 2·T(v) / (deg(v)·(deg(v) - 1))`, 0 for degree < 2.
pub fn local_clustering(g: &CsrGraph) -> Vec<f64> {
    let g = undirected(g);
    triangles(&g, &Budget::default())
        .t
        .into_iter()
        .enumerate()
        .map(|(v, t)| coefficient(t, g.degree(v as VertexId) as u64))
        .collect()
}

/// Average of the local clustering coefficients (Watts–Strogatz "C").
pub fn average_clustering(g: &CsrGraph) -> f64 {
    clustering_in(g, &Exec::default()).average
}

/// Global transitivity: `3·triangles / open-or-closed wedges`.
pub fn transitivity(g: &CsrGraph) -> f64 {
    clustering_in(g, &Exec::default()).transitivity
}

fn coefficient(t: u64, d: u64) -> f64 {
    if d < 2 {
        0.0
    } else {
        2.0 * t as f64 / (d * (d - 1)) as f64
    }
}

/// `g` itself when undirected, else its underlying undirected graph: one
/// edge per arc, antiparallel arcs merged.
fn undirected(g: &CsrGraph) -> Cow<'_, CsrGraph> {
    if !g.is_directed() {
        return Cow::Borrowed(g);
    }
    let arcs = g.edges().map(|(_, u, v)| (u, v));
    Cow::Owned(
        GraphBuilder::undirected(g.num_vertices())
            .add_edges(arcs)
            .build(),
    )
}

/// What a triangle sweep found: the triangles through every vertex, how
/// many vertices' out-lists were intersected before the budget tripped,
/// and the share of all oriented wedges (pairs in one out-list, the
/// triangles a vertex could find) that those out-lists hold.
struct Sweep {
    t: Vec<u64>,
    owners: usize,
    wedge_share: f64,
}

/// Triangles through every vertex of the undirected `g`.
///
/// The out-lists are built serially. Intersections run in parallel over
/// vertex ranges, and each credits its three corners without atomics: `u`
/// directly, `v` and `w` through a per-arc count on `u`'s own arcs
/// `u → v` and `u → w`, scattered to their heads afterwards. Every count
/// is an exact integer, so the thread count cannot change it. Each
/// processed vertex charges `1 + Σ (|out(u)| + |out(v)|)`, the merge
/// work; once the budget trips the remaining vertices are skipped, and
/// the triangles they would have found are missing from all three
/// corners.
fn triangles(g: &CsrGraph, budget: &Budget) -> Sweep {
    let n = g.num_vertices();
    let rank = |v: VertexId| (g.degree(v), v);
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0);
    let mut out: Vec<VertexId> = Vec::with_capacity(g.num_edges());
    for v in 0..n as VertexId {
        out.extend(g.neighbor_slice(v).iter().filter(|&&w| rank(w) > rank(v)));
        offsets.push(out.len());
    }
    let out_of = |v: usize| &out[offsets[v]..offsets[v + 1]];
    // Per range: triangles whose lowest-ranked corner is each vertex,
    // triangles through each out-arc (as `u → v` or `u → w`), and how
    // many vertices ran.
    let blocks = blocks(n);
    let units: Vec<(Vec<u64>, Vec<u32>, usize)> = blocks
        .par_chunks(1)
        .map(|block| {
            let range = block[0].clone();
            let base = offsets[range.start];
            let mut lowest = vec![0u64; range.len()];
            let mut through = vec![0u32; offsets[range.end] - base];
            let mut processed = 0;
            for u in range.clone() {
                if budget.is_exhausted() {
                    break;
                }
                let (ou, arcs) = (out_of(u), offsets[u] - base);
                let mut cost = 1;
                for (k, &v) in ou.iter().enumerate() {
                    let ov = out_of(v as usize);
                    cost += (ou.len() + ov.len()) as u64;
                    let (mut i, mut j, mut found) = (0, 0, 0);
                    while i < ou.len() && j < ov.len() {
                        let (a, b) = (ou[i], ov[j]);
                        if a == b {
                            through[arcs + i] += 1;
                            found += 1;
                        }
                        i += usize::from(a <= b);
                        j += usize::from(b <= a);
                    }
                    through[arcs + k] += found;
                    lowest[u - range.start] += u64::from(found);
                }
                processed += 1;
                let _ = budget.charge(cost);
            }
            (lowest, through, processed)
        })
        .collect();
    let mut t = Vec::with_capacity(n);
    for (lowest, _, _) in &units {
        t.extend(lowest);
    }
    for (block, (_, through, _)) in blocks.iter().zip(&units) {
        let heads = &out[offsets[block.start]..offsets[block.end]];
        for (&head, &c) in heads.iter().zip(through) {
            t[head as usize] += u64::from(c);
        }
    }
    let owners = units.iter().map(|&(_, _, processed)| processed).sum();
    let mut wedge_share = 1.0;
    if owners < n {
        let wedges = |u: usize| {
            let k = (offsets[u + 1] - offsets[u]) as u64;
            k * k.saturating_sub(1) / 2
        };
        let processed = blocks.iter().zip(&units).flat_map(|(block, unit)| {
            let &(_, _, processed) = unit;
            block.start..block.start + processed
        });
        let all: u64 = (0..n).map(wedges).sum();
        wedge_share = processed.map(wedges).sum::<u64>() as f64 / all.max(1) as f64;
    }
    Sweep {
        t,
        owners,
        wedge_share,
    }
}

/// Clustering-coefficient estimates from a budgeted triangle sweep.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PartialClustering {
    /// Average local clustering coefficient over all vertices.
    pub average: f64,
    /// Transitivity `Σ t(v) / Σ wedges(v)`.
    pub transitivity: f64,
    /// Vertices whose out-lists were actually intersected.
    pub vertices_used: usize,
    /// Total vertex count.
    pub vertices_total: usize,
}

impl PartialClustering {
    /// True when the budget cut the sweep short.
    pub fn degraded(&self) -> bool {
        self.vertices_used < self.vertices_total
    }
}

/// [`average_clustering`] and [`transitivity`] from one triangle sweep
/// under `exec`'s compute budget. Untripped, both are exact and
/// bit-identical at any thread count: the per-vertex counts are integers
/// and the coefficients are summed in vertex order.
///
/// Tripped, the sweep skips the vertices it had not reached, and their
/// triangles are missing from every corner. The counts found are then
/// scaled up by the share of oriented wedges the processed out-lists
/// hold: each triangle is found by exactly one wedge, so the estimate is
/// exact when every out-list closes the same fraction of its wedges.
/// Both scaled values are capped at 1, so they stay in `[0, 1]`.
pub(crate) fn clustering_in(g: &CsrGraph, exec: &Exec) -> PartialClustering {
    let g = undirected(g);
    let n = g.num_vertices();
    let sweep = triangles(&g, &exec.budget);
    let used = sweep.owners;
    let scale = |x: f64| {
        if used == n {
            x
        } else if sweep.wedge_share == 0.0 {
            0.0
        } else {
            (x / sweep.wedge_share).min(1.0)
        }
    };
    if used < n {
        snap_obs::add("clustering_vertices_skipped", (n - used) as u64);
    }
    let degree = |v: usize| g.degree(v as VertexId) as u64;
    let coeff: f64 = sweep
        .t
        .iter()
        .enumerate()
        .map(|(v, &t)| coefficient(t, degree(v)))
        .sum();
    let tri: u64 = sweep.t.iter().sum();
    let wedges: u64 = (0..n)
        .map(|v| degree(v) * degree(v).saturating_sub(1) / 2)
        .sum();
    PartialClustering {
        average: if n == 0 { 0.0 } else { scale(coeff / n as f64) },
        transitivity: if wedges == 0 {
            0.0
        } else {
            scale(tri as f64 / wedges as f64)
        },
        vertices_used: used,
        vertices_total: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn triangle_graph() {
        let g = from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(triangle_count(&g), 1);
        assert_eq!(triangles_per_vertex(&g), vec![1, 1, 1]);
        assert_eq!(local_clustering(&g), vec![1.0, 1.0, 1.0]);
        assert!((transitivity(&g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn square_has_no_triangles() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(average_clustering(&g), 0.0);
    }

    #[test]
    fn square_with_diagonal() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]);
        assert_eq!(triangle_count(&g), 2);
        // Vertices 0 and 2 have degree 3, each in 2 triangles: C = 2/3.
        let c = local_clustering(&g);
        assert!((c[0] - 2.0 / 3.0).abs() < 1e-12);
        assert!((c[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn complete_graph_k5() {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in u + 1..5 {
                edges.push((u, v));
            }
        }
        let g = from_edges(5, &edges);
        assert_eq!(triangle_count(&g), 10); // C(5,3)
        assert!((average_clustering(&g) - 1.0).abs() < 1e-12);
        assert!((transitivity(&g) - 1.0).abs() < 1e-12);
    }

    /// Triangles through each vertex by intersecting `N(u) ∩ N(v)` for
    /// every arc, which finds each triangle six times.
    fn six_way(g: &CsrGraph) -> Vec<u64> {
        (0..g.num_vertices() as VertexId)
            .map(|u| {
                let nu = g.neighbor_slice(u);
                let common = |v: VertexId| {
                    let nv = g.neighbor_slice(v);
                    nu.iter().filter(|w| nv.binary_search(w).is_ok()).count() as u64
                };
                nu.iter().map(|&v| common(v)).sum::<u64>() / 2
            })
            .collect()
    }

    #[test]
    fn one_sweep_equals_the_oracles_bit_for_bit() {
        // 2048 vertices: above the size where the sweep is actually split
        // across workers, so a chunk-order-dependent sum would show.
        let g = snap_gen::rmat(&snap_gen::RmatConfig::small_world(11, 16384), 5);
        let t = six_way(&g);
        let degree = |v: usize| g.degree(v as VertexId) as u64;
        let average = (0..g.num_vertices())
            .map(|v| coefficient(t[v], degree(v)))
            .sum::<f64>()
            / g.num_vertices() as f64;
        let wedges: u64 = (0..g.num_vertices())
            .map(|v| degree(v) * degree(v).saturating_sub(1) / 2)
            .sum();
        let trans = 3.0 * (t.iter().sum::<u64>() / 3) as f64 / wedges as f64;
        let untripped = Exec {
            budget: Budget::with_deadline(std::time::Duration::from_secs(3600)),
            ..Exec::default()
        };
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            assert_eq!(pool.install(|| triangles_per_vertex(&g)), t);
            for exec in [&Exec::default(), &untripped] {
                let c = pool.install(|| clustering_in(&g, exec));
                assert!(!c.degraded());
                assert_eq!(c.average.to_bits(), average.to_bits(), "{threads} threads");
                assert_eq!(
                    c.transitivity.to_bits(),
                    trans.to_bits(),
                    "{threads} threads"
                );
            }
        }
    }

    #[test]
    fn directed_graph_is_counted_on_its_symmetrised_copy() {
        // Arcs 0→1, 1→2, 2→0 close a triangle; 2→3 and 3→2 are one
        // undirected edge; 3→4, 4→1 and 1→3 close a second triangle, and
        // 1→2, 2→3, 1→3 a third.
        let arcs = [
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 3),
            (3, 2),
            (3, 4),
            (4, 1),
            (1, 3),
        ];
        let directed = GraphBuilder::directed(5).add_edges(arcs).build();
        let both = arcs.iter().flat_map(|&(u, v)| [(u, v), (v, u)]);
        let symmetric = GraphBuilder::undirected(5).add_edges(both).build();
        assert_eq!(triangles_per_vertex(&directed), vec![1, 3, 2, 2, 1]);
        assert_eq!(
            triangles_per_vertex(&directed),
            triangles_per_vertex(&symmetric)
        );
        assert_eq!(local_clustering(&directed), local_clustering(&symmetric));
        let (a, b) = (
            clustering_in(&directed, &Exec::default()),
            clustering_in(&symmetric, &Exec::default()),
        );
        assert_eq!(a.average.to_bits(), b.average.to_bits());
        assert_eq!(a.transitivity.to_bits(), b.transitivity.to_bits());
    }

    #[test]
    fn a_tripped_sweep_is_a_degraded_estimate_in_the_unit_interval() {
        let g = snap_gen::rmat(&snap_gen::RmatConfig::small_world(10, 8192), 3);
        for cap in [0, 2000, 20_000] {
            let tripped = Exec {
                budget: Budget::with_work_cap(cap),
                ..Exec::default()
            };
            let c = clustering_in(&g, &tripped);
            assert!(c.degraded(), "cap {cap}");
            assert!(c.vertices_used < c.vertices_total);
            assert!((0.0..=1.0).contains(&c.average));
            assert!((0.0..=1.0).contains(&c.transitivity));
        }
    }

    #[test]
    fn a_tripped_sweep_scales_by_the_wedges_it_processed() {
        // A ring lattice with three neighbours a side: every vertex has
        // the same local coefficient, 0.6, so the owners processed before
        // the trip stand for all of them.
        let g = snap_gen::watts_strogatz(3000, 3, 0.0, 1);
        let exact = clustering_in(&g, &Exec::default());
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let tripped = Exec {
            budget: Budget::with_work_cap(10_000),
            ..Exec::default()
        };
        let c = pool.install(|| clustering_in(&g, &tripped));
        assert!(c.degraded());
        assert!(c.vertices_used < c.vertices_total / 2, "{c:?}");
        assert!((exact.average - 0.6).abs() < 1e-3);
        assert!((c.average - exact.average).abs() < 0.01, "{c:?}");
        assert!((c.transitivity - exact.transitivity).abs() < 0.01, "{c:?}");
    }

    #[test]
    fn star_has_zero_clustering() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        assert_eq!(triangle_count(&g), 0);
        assert_eq!(transitivity(&g), 0.0);
    }
}

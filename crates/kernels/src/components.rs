//! Connected components: sequential BFS sweep, parallel label
//! propagation, and Shiloach–Vishkin.
//!
//! Connected components are the inner loop of the divisive clustering
//! algorithms (run after every edge cut) and of the preprocessing pipeline
//! (decompose, then analyze components concurrently), so all three
//! variants are tuned and cross-checked against each other.

use crate::bfs::{par_bfs, UNREACHABLE};
use rayon::prelude::*;
use snap_graph::{Graph, VertexId};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

/// A labeling of vertices by connected component.
#[derive(Clone, Debug)]
pub struct Components {
    /// Component label per vertex, in `0..count`, consecutive.
    pub comp: Vec<u32>,
    /// Number of components.
    pub count: usize,
}

impl Components {
    /// Vertices of each component, indexed by label.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.count];
        for (v, &c) in self.comp.iter().enumerate() {
            out[c as usize].push(v as VertexId);
        }
        out
    }

    /// Size of each component, indexed by label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.count];
        for &c in &self.comp {
            out[c as usize] += 1;
        }
        out
    }

    /// Size of the largest component (0 for an empty graph).
    pub fn giant_size(&self) -> usize {
        self.sizes().into_iter().max().unwrap_or(0)
    }

    /// Renumber arbitrary labels to consecutive `0..count`.
    fn from_raw_labels(mut labels: Vec<u32>) -> Self {
        let mut remap = std::collections::HashMap::new();
        let mut next = 0u32;
        for l in labels.iter_mut() {
            let id = *remap.entry(*l).or_insert_with(|| {
                let id = next;
                next += 1;
                id
            });
            *l = id;
        }
        Components {
            comp: labels,
            count: next as usize,
        }
    }
}

/// Sequential connected components via repeated BFS. Ground truth for the
/// parallel variants.
pub fn connected_components<G: Graph>(g: &G) -> Components {
    label_remaining(g, vec![u32::MAX; g.num_vertices()], 0)
}

/// The sequential sweep: BFS from every vertex still labelled `u32::MAX`
/// in `comp`, numbering the components it finds from `count` up.
fn label_remaining<G: Graph>(g: &G, mut comp: Vec<u32>, mut count: u32) -> Components {
    let mut queue = std::collections::VecDeque::new();
    for s in 0..comp.len() {
        if comp[s] != u32::MAX {
            continue;
        }
        comp[s] = count;
        queue.push_back(s as VertexId);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbors(u) {
                if comp[v as usize] == u32::MAX {
                    comp[v as usize] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    Components {
        comp,
        count: count as usize,
    }
}

/// Connected components with the giant component swept by the
/// direction-optimizing parallel BFS ([`par_bfs`]) and the
/// remainder by a sequential sweep.
///
/// Small-world graphs concentrate almost every vertex in one giant
/// component; seeding the hybrid traversal at the maximum-degree vertex
/// (almost surely inside it) makes the dominant cost parallel *and*
/// direction-optimized, while the leftover components cost only their own
/// size.
pub fn par_components_hybrid<G: Graph>(g: &G) -> Components {
    let n = g.num_vertices();
    let Some(seed) = (0..n as VertexId).max_by_key(|&v| g.degree(v)) else {
        return connected_components(g);
    };
    let mut comp = vec![u32::MAX; n];
    let r = par_bfs(g, seed);
    for (v, &d) in r.dist.iter().enumerate() {
        if d != UNREACHABLE {
            comp[v] = 0;
        }
    }
    label_remaining(g, comp, 1)
}

/// Parallel label propagation: every vertex repeatedly adopts the minimum
/// label in its closed neighborhood until a fixpoint. Converges in
/// O(diameter) rounds — fast on low-diameter small-world graphs, which is
/// exactly the optimization the paper leans on.
pub fn par_components_lp<G: Graph>(g: &G) -> Components {
    let n = g.num_vertices();
    let labels: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    let changed = AtomicBool::new(true);
    while changed.swap(false, Ordering::Relaxed) {
        (0..n).into_par_iter().for_each(|u| {
            let mut best = labels[u].load(Ordering::Relaxed);
            for v in g.neighbors(u as VertexId) {
                let lv = labels[v as usize].load(Ordering::Relaxed);
                if lv < best {
                    best = lv;
                }
            }
            let cur = labels[u].load(Ordering::Relaxed);
            if best < cur {
                labels[u].store(best, Ordering::Relaxed);
                changed.store(true, Ordering::Relaxed);
            }
        });
    }
    Components::from_raw_labels(labels.into_iter().map(|l| l.into_inner()).collect())
}

/// Shiloach–Vishkin connected components with atomic hooking and pointer
/// jumping. `O(log n)` rounds independent of diameter, which wins on
/// high-diameter inputs (road networks) where label propagation crawls.
pub fn par_components_sv<G: Graph>(g: &G) -> Components {
    let n = g.num_vertices();
    if n == 0 {
        return Components {
            comp: Vec::new(),
            count: 0,
        };
    }
    let parent: Vec<AtomicU32> = (0..n as u32).map(AtomicU32::new).collect();
    loop {
        // Hook: for each edge (u, v), attach the root of the larger label
        // to the smaller. Grafting onto roots only keeps trees shallow.
        let hooked = AtomicBool::new(false);
        (0..n).into_par_iter().for_each(|u| {
            for v in g.neighbors(u as VertexId) {
                let pu = parent[u].load(Ordering::Relaxed);
                let pv = parent[v as usize].load(Ordering::Relaxed);
                if pu == pv {
                    continue;
                }
                let (hi, lo) = if pu > pv { (pu, pv) } else { (pv, pu) };
                // Only hook roots (star roots point to themselves).
                if parent[hi as usize]
                    .compare_exchange(hi, lo, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    hooked.store(true, Ordering::Relaxed);
                }
            }
        });
        // Pointer jumping until every tree is a star.
        loop {
            let jumped = AtomicBool::new(false);
            (0..n).into_par_iter().for_each(|u| {
                let p = parent[u].load(Ordering::Relaxed);
                let gp = parent[p as usize].load(Ordering::Relaxed);
                if p != gp {
                    parent[u].store(gp, Ordering::Relaxed);
                    jumped.store(true, Ordering::Relaxed);
                }
            });
            if !jumped.load(Ordering::Relaxed) {
                break;
            }
        }
        if !hooked.load(Ordering::Relaxed) {
            break;
        }
    }
    Components::from_raw_labels(parent.into_iter().map(|p| p.into_inner()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;
    use snap_graph::FilteredGraph;

    fn two_triangles() -> snap_graph::CsrGraph {
        from_edges(7, &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn seq_counts_components() {
        let g = two_triangles();
        let c = connected_components(&g);
        assert_eq!(c.count, 3); // two triangles + isolated vertex 6
        assert_eq!(c.comp[0], c.comp[1]);
        assert_eq!(c.comp[3], c.comp[5]);
        assert_ne!(c.comp[0], c.comp[3]);
        assert_eq!(c.giant_size(), 3);
    }

    #[test]
    fn members_partition_vertices() {
        let g = two_triangles();
        let c = connected_components(&g);
        let members = c.members();
        let total: usize = members.iter().map(|m| m.len()).sum();
        assert_eq!(total, 7);
        assert_eq!(members.len(), 3);
    }

    #[test]
    fn lp_matches_seq() {
        let g = two_triangles();
        let a = connected_components(&g);
        let b = par_components_lp(&g);
        assert_eq!(a.count, b.count);
        // Same partition up to relabeling.
        for (u, v) in [(0usize, 1usize), (3, 4), (0, 3), (6, 0)] {
            assert_eq!(
                a.comp[u] == a.comp[v],
                b.comp[u] == b.comp[v],
                "pair ({u}, {v})"
            );
        }
    }

    #[test]
    fn sv_matches_seq() {
        let g = two_triangles();
        let a = connected_components(&g);
        let b = par_components_sv(&g);
        assert_eq!(a.count, b.count);
        for u in 0..7usize {
            for v in 0..7usize {
                assert_eq!(a.comp[u] == a.comp[v], b.comp[u] == b.comp[v]);
            }
        }
    }

    #[test]
    fn hybrid_matches_seq() {
        let g = two_triangles();
        let a = connected_components(&g);
        let b = par_components_hybrid(&g);
        assert_eq!(a.count, b.count);
        for u in 0..7usize {
            for v in 0..7usize {
                assert_eq!(a.comp[u] == a.comp[v], b.comp[u] == b.comp[v]);
            }
        }
        let max = *b.comp.iter().max().unwrap() as usize;
        assert_eq!(max + 1, b.count);
    }

    #[test]
    fn hybrid_empty_and_isolated() {
        let g = from_edges(0, &[]);
        assert_eq!(par_components_hybrid(&g).count, 0);
        let g = from_edges(3, &[]); // all isolated
        let c = par_components_hybrid(&g);
        assert_eq!(c.count, 3);
        assert_eq!(c.giant_size(), 1);
    }

    #[test]
    fn works_on_filtered_views() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut f = FilteredGraph::new(&g);
        f.delete_edge(1); // cut (1, 2)
        let c = connected_components(&f);
        assert_eq!(c.count, 2);
        let c2 = par_components_sv(&f);
        assert_eq!(c2.count, 2);
    }

    #[test]
    fn empty_graph() {
        let g = from_edges(0, &[]);
        assert_eq!(connected_components(&g).count, 0);
        assert_eq!(par_components_sv(&g).count, 0);
        assert_eq!(par_components_lp(&g).count, 0);
    }

    #[test]
    fn labels_are_consecutive() {
        let g = two_triangles();
        for c in [
            connected_components(&g),
            par_components_lp(&g),
            par_components_sv(&g),
        ] {
            let max = *c.comp.iter().max().unwrap() as usize;
            assert_eq!(max + 1, c.count);
        }
    }
}

//! st-connectivity via bidirectional BFS — one of the original SNAP
//! kernels (Bader & Madduri, ICPP 2006 study BFS and st-connectivity
//! together). Expanding the smaller frontier from each side bounds the
//! work by the meeting ball, typically `O(sqrt)` of a full traversal on
//! low-diameter graphs.
//!
//! The two frontiers are [`Frontier`] values shared with the
//! direction-optimizing BFS: on hub-heavy small-world graphs a ball
//! around a high-degree vertex covers a large vertex fraction within two
//! hops, and `normalize` flips that side to the dense bitmap
//! representation instead of a proportionally huge membership vector.

use snap_graph::scratch::stamped;
use snap_graph::{Frontier, Graph, TraversalWorkspace, VertexId};

/// Result of an st-connectivity query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StResult {
    /// Whether `s` and `t` are connected.
    pub connected: bool,
    /// Shortest-path length when connected (hops).
    pub distance: Option<u32>,
}

/// Bidirectional BFS between `s` and `t`.
pub fn st_connectivity<G: Graph>(g: &G, s: VertexId, t: VertexId) -> StResult {
    st_connectivity_into(g, s, t, &mut TraversalWorkspace::new())
}

/// Side marker packed into bit 31 of the workspace distance word: clear
/// for the `s`-side ball, set for the `t`-side. Depths are bounded by
/// `n < 2^31`, so the bit never collides with a real depth.
const T_SIDE: u64 = 1 << 31;

/// Depth mask stripping the side marker.
const DEPTH: u32 = !(T_SIDE as u32);

/// [`st_connectivity`] on a reusable [`TraversalWorkspace`]: the side
/// ownership and per-vertex depth both live in the epoch-stamped `dist`
/// word (unvisited ⇔ stale slot, side ⇔ bit 31), so a batch of queries
/// pays no per-query allocation or clear for the per-vertex state.
pub(crate) fn st_connectivity_into<G: Graph>(
    g: &G,
    s: VertexId,
    t: VertexId,
    ws: &mut TraversalWorkspace,
) -> StResult {
    if s == t {
        return StResult {
            connected: true,
            distance: Some(0),
        };
    }
    let n = g.num_vertices();
    let tag = ws.begin(n);
    let dist = ws.slots().dist;
    dist[s as usize] = tag;
    dist[t as usize] = tag | T_SIDE;
    let mut front_s = Frontier::singleton(n, s);
    let mut front_t = Frontier::singleton(n, t);
    let (mut d_s, mut d_t) = (0u32, 0u32);

    loop {
        if front_s.is_empty() || front_t.is_empty() {
            return StResult {
                connected: false,
                distance: None,
            };
        }
        // Expand the smaller frontier.
        let expand_s = front_s.len() <= front_t.len();
        let (front, own, depth) = if expand_s {
            d_s += 1;
            (&mut front_s, 0u64, d_s)
        } else {
            d_t += 1;
            (&mut front_t, T_SIDE, d_t)
        };
        let mut next = Vec::new();
        let mut best_meet: Option<u32> = None;
        for x in front.iter() {
            for y in g.neighbors(x) {
                let w = dist[y as usize];
                if stamped(w, tag) {
                    if w & T_SIDE == own {
                        continue;
                    }
                    // Frontiers meet: total = depth of x's side + 1 +
                    // y's recorded depth on the other side.
                    let total = (depth - 1) + 1 + (w as u32 & DEPTH);
                    best_meet = Some(best_meet.map_or(total, |b: u32| b.min(total)));
                    continue;
                }
                dist[y as usize] = tag | own | depth as u64;
                next.push(y);
            }
        }
        if let Some(d) = best_meet {
            return StResult {
                connected: true,
                distance: Some(d),
            };
        }
        *front = Frontier::from_vec(n, next);
        front.normalize();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs;
    use snap_graph::builder::from_edges;

    #[test]
    fn path_distances() {
        let g = from_edges(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]);
        for t in 0..6u32 {
            let r = st_connectivity(&g, 0, t);
            assert!(r.connected);
            assert_eq!(r.distance, Some(t));
        }
    }

    #[test]
    fn disconnected_pair() {
        let g = from_edges(4, &[(0, 1), (2, 3)]);
        let r = st_connectivity(&g, 0, 3);
        assert!(!r.connected);
        assert_eq!(r.distance, None);
    }

    #[test]
    fn same_vertex() {
        let g = from_edges(2, &[(0, 1)]);
        let r = st_connectivity(&g, 1, 1);
        assert_eq!(r.distance, Some(0));
    }

    #[test]
    fn matches_bfs_on_random_graph() {
        let g = snap_gen_lite(64, 160);
        let d = bfs(&g, 0);
        for t in 0..64u32 {
            let r = st_connectivity(&g, 0, t);
            if d.dist[t as usize] == crate::bfs::UNREACHABLE {
                assert!(!r.connected, "t = {t}");
            } else {
                assert_eq!(r.distance, Some(d.dist[t as usize]), "t = {t}");
            }
        }
    }

    /// Small deterministic pseudo-random graph without pulling in
    /// snap-gen (dev-dependency cycle hygiene).
    fn snap_gen_lite(n: u32, m: u32) -> snap_graph::CsrGraph {
        let mut edges = Vec::new();
        let mut x = 0x12345678u64;
        for _ in 0..m {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = (x % n as u64) as u32;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % n as u64) as u32;
            if u != v {
                edges.push((u, v));
            }
        }
        from_edges(n as usize, &edges)
    }
}

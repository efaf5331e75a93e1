//! Modularity (Newman & Girvan, Phys. Rev. E 2004):
//!
//! ```text
//! q(C) = Σ_i [ m(C_i)/m − (Σ_{v∈C_i} deg(v) / 2m)² ]
//! ```
//!
//! with `m(C_i)` the intra-cluster edge count. Values land in
//! `[-1/2, 1)`; `q > 0.3` is the paper's rule of thumb for significant
//! community structure.
//!
//! Besides the one-shot evaluator this module provides
//! [`ModularityTracker`], the incremental bookkeeping that the divisive
//! and local-aggregation algorithms lean on: cluster splits, merges, and
//! single-vertex gains in O(affected) instead of O(m).

use crate::clustering::Clustering;
use rayon::prelude::*;
use snap_graph::{Graph, VertexId};

/// Evaluate modularity of `clustering` on `g` (parallel over edges).
///
/// Modularity is always measured against the *original* graph: the
/// divisive algorithms pass the pristine graph here even while they cut
/// edges in a filtered view.
///
/// ```
/// use snap_community::{modularity, Clustering};
///
/// let g = snap_graph::builder::from_edges(
///     6,
///     &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)],
/// );
/// let split = Clustering::from_labels(&[0, 0, 0, 1, 1, 1]);
/// let q = modularity(&g, &split);
/// assert!(q > 0.3, "the natural split has significant structure");
/// assert!(modularity(&g, &Clustering::from_labels(&[0; 6])) < q);
/// ```
pub fn modularity<G: Graph>(g: &G, clustering: &Clustering) -> f64 {
    let m = g.num_edges();
    if m == 0 {
        return 0.0;
    }
    assert_eq!(clustering.len(), g.num_vertices());
    let k = clustering.count;

    // Intra-cluster edge counts. Live ids are contiguous on plain graphs
    // (keep the range-parallel fast path) but sparse on filtered views,
    // where they must come from `edge_ids()`.
    let fold = |mut acc: Vec<u64>, e: u32| {
        let (u, v) = g.edge_endpoints(e);
        let (cu, cv) = (clustering.cluster_of(u), clustering.cluster_of(v));
        if cu == cv {
            acc[cu as usize] += 1;
        }
        acc
    };
    let reduce = |mut a: Vec<u64>, b: Vec<u64>| {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
        a
    };
    let intra = if g.edge_id_bound() == m {
        (0..m as u32)
            .into_par_iter()
            .fold(|| vec![0u64; k], fold)
            .reduce(|| vec![0u64; k], reduce)
    } else {
        g.edge_ids()
            .collect::<Vec<_>>()
            .into_par_iter()
            .fold(|| vec![0u64; k], fold)
            .reduce(|| vec![0u64; k], reduce)
    };

    // Cluster degree sums.
    let mut degsum = vec![0u64; k];
    for v in 0..g.num_vertices() {
        degsum[clustering.cluster_of(v as VertexId) as usize] += g.degree(v as VertexId) as u64;
    }

    let m = m as f64;
    (0..k)
        .map(|c| intra[c] as f64 / m - (degsum[c] as f64 / (2.0 * m)).powi(2))
        .sum()
}

/// Weighted modularity: the same functional with edge weights in place
/// of counts — `q = Σ_i [ w(C_i)/W − (S_i/2W)² ]` where `W` is the total
/// edge weight, `w(C_i)` the intra-cluster weight, and `S_i` the
/// weighted-degree sum. Reduces to [`modularity`] on unit weights. This
/// is the measure the paper's `l: E → R` length function calls for on
/// weighted interaction graphs.
pub fn weighted_modularity<G: snap_graph::WeightedGraph>(g: &G, clustering: &Clustering) -> f64 {
    let m = g.num_edges();
    if m == 0 {
        return 0.0;
    }
    assert_eq!(clustering.len(), g.num_vertices());
    let k = clustering.count;
    let mut total = 0.0f64;
    let mut intra = vec![0.0f64; k];
    let mut degsum = vec![0.0f64; k];
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        let w = g.edge_weight(e) as f64;
        total += w;
        let (cu, cv) = (clustering.cluster_of(u), clustering.cluster_of(v));
        if cu == cv {
            intra[cu as usize] += w;
        }
        degsum[cu as usize] += w;
        degsum[cv as usize] += w;
    }
    (0..k)
        .map(|c| intra[c] / total - (degsum[c] / (2.0 * total)).powi(2))
        .sum()
}

/// Incremental modularity bookkeeping over a fixed base graph.
///
/// Tracks, per cluster, the intra-cluster edge count and the degree sum;
/// `q()` is then an O(k) fold, and the update operations cost time
/// proportional to the vertices/edges they touch.
#[derive(Clone, Debug)]
pub struct ModularityTracker {
    /// Intra-cluster edges per cluster.
    intra: Vec<f64>,
    /// Degree sum per cluster.
    degsum: Vec<f64>,
    /// Total edges of the base graph.
    m: f64,
    /// Current modularity.
    q: f64,
}

impl ModularityTracker {
    /// Initialize from an explicit clustering. O(n + m).
    pub fn new<G: Graph>(g: &G, clustering: &Clustering) -> Self {
        let k = clustering.count;
        let mut intra = vec![0.0; k];
        let mut degsum = vec![0.0; k];
        for e in g.edge_ids() {
            let (u, v) = g.edge_endpoints(e);
            if clustering.cluster_of(u) == clustering.cluster_of(v) {
                intra[clustering.cluster_of(u) as usize] += 1.0;
            }
        }
        for v in 0..g.num_vertices() {
            degsum[clustering.cluster_of(v as VertexId) as usize] += g.degree(v as VertexId) as f64;
        }
        let m = g.num_edges() as f64;
        let mut t = ModularityTracker {
            intra,
            degsum,
            m,
            q: 0.0,
        };
        t.q = t.recompute_q();
        t
    }

    fn recompute_q(&self) -> f64 {
        if self.m == 0.0 {
            return 0.0;
        }
        self.intra
            .iter()
            .zip(&self.degsum)
            .map(|(&i, &d)| i / self.m - (d / (2.0 * self.m)).powi(2))
            .sum()
    }

    /// Current modularity.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// Modularity gain of merging clusters `a` and `b`, given the number
    /// of edges running between them: `ΔQ = m_ab/m − d_a·d_b/(2m²)`.
    pub fn merge_gain(&self, a: u32, b: u32, edges_between: f64) -> f64 {
        if self.m == 0.0 {
            return 0.0;
        }
        edges_between / self.m
            - self.degsum[a as usize] * self.degsum[b as usize] / (2.0 * self.m * self.m)
    }

    /// Apply a merge of `b` into `a`; the caller supplies the inter-
    /// cluster edge count. Returns the new modularity. **Labels are NOT
    /// renumbered** — cluster `b` stays allocated but empty; pair this
    /// with a caller-side label map (as the agglomerative algorithms do).
    pub fn apply_merge(&mut self, a: u32, b: u32, edges_between: f64) -> f64 {
        let gain = self.merge_gain(a, b, edges_between);
        self.intra[a as usize] += self.intra[b as usize] + edges_between;
        self.degsum[a as usize] += self.degsum[b as usize];
        self.intra[b as usize] = 0.0;
        self.degsum[b as usize] = 0.0;
        self.q += gain;
        self.q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    fn barbell() -> snap_graph::CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn single_cluster_is_near_zero() {
        // One cluster: q = m/m - 1 = 0... (2m/2m)^2 = 1, so q = 0.
        let g = barbell();
        let c = Clustering::from_labels(&[0; 6]);
        assert!((modularity(&g, &c) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn natural_split_is_positive() {
        let g = barbell();
        let c = Clustering::from_labels(&[0, 0, 0, 1, 1, 1]);
        let q = modularity(&g, &c);
        // intra = 3 + 3 of 7 edges; degsums 7 and 7.
        let expected = 2.0 * (3.0 / 7.0 - (7.0 / 14.0f64).powi(2));
        assert!((q - expected).abs() < 1e-12);
        assert!(q > 0.3);
    }

    #[test]
    fn random_chance_clustering_scores_zero_expected() {
        // Singletons: q = -Σ (d_v/2m)² < 0.
        let g = barbell();
        let c = Clustering::singletons(6);
        assert!(modularity(&g, &c) < 0.0);
    }

    #[test]
    fn modularity_bounds() {
        let g = barbell();
        for labels in [
            vec![0u32, 0, 0, 1, 1, 1],
            vec![0, 1, 2, 3, 4, 5],
            vec![0, 0, 1, 1, 2, 2],
            vec![0, 0, 0, 0, 0, 0],
        ] {
            let q = modularity(&g, &Clustering::from_labels(&labels));
            assert!((-0.5..1.0).contains(&q), "q = {q}");
        }
    }

    #[test]
    fn tracker_matches_direct_evaluation() {
        let g = barbell();
        let c = Clustering::from_labels(&[0, 0, 1, 1, 2, 2]);
        let t = ModularityTracker::new(&g, &c);
        assert!((t.q() - modularity(&g, &c)).abs() < 1e-12);
    }

    #[test]
    fn tracker_merge_matches_rebuild() {
        let g = barbell();
        let c = Clustering::from_labels(&[0, 0, 1, 1, 2, 2]);
        let mut t = ModularityTracker::new(&g, &c);
        // Merge clusters 1 and 2: edges between them = (3,4),(3,5) = 2.
        let q = t.apply_merge(1, 2, 2.0);
        let merged = Clustering::from_labels(&[0, 0, 1, 1, 1, 1]);
        assert!((q - modularity(&g, &merged)).abs() < 1e-12);
    }

    #[test]
    fn tracker_merge_gain_is_delta() {
        let g = barbell();
        let c = Clustering::from_labels(&[0, 0, 1, 1, 2, 2]);
        let t = ModularityTracker::new(&g, &c);
        let before = t.q();
        let gain = t.merge_gain(1, 2, 2.0);
        let merged = Clustering::from_labels(&[0, 0, 1, 1, 1, 1]);
        assert!((before + gain - modularity(&g, &merged)).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_q_zero() {
        let g = from_edges(3, &[]);
        assert_eq!(modularity(&g, &Clustering::singletons(3)), 0.0);
    }
}

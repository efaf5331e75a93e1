//! Dendrograms: the merge (or cut) history of a hierarchical clustering,
//! with extraction of the cut that maximizes modularity.

use crate::clustering::Clustering;

/// One agglomeration step.
#[derive(Clone, Copy, Debug)]
pub struct Merge {
    /// Surviving cluster label.
    pub into: u32,
    /// Absorbed cluster label.
    pub from: u32,
    /// Modularity after applying this merge.
    pub q_after: f64,
}

/// The agglomeration history of an agglomerative clustering run: starting
/// from `n` singletons, each [`Merge`] joins two live clusters. Internal
/// nodes of the paper's dendrogram correspond to entries of `merges`.
#[derive(Clone, Debug)]
pub struct Dendrogram {
    /// Number of leaves (vertices).
    pub n: usize,
    /// Modularity of the singleton clustering (the root state).
    pub q_initial: f64,
    /// Merge steps in application order.
    pub merges: Vec<Merge>,
}

impl Dendrogram {
    /// New dendrogram over `n` singleton leaves.
    pub fn new(n: usize, q_initial: f64) -> Self {
        Dendrogram {
            n,
            q_initial,
            merges: Vec::new(),
        }
    }

    /// Record a merge.
    pub fn push(&mut self, into: u32, from: u32, q_after: f64) {
        self.merges.push(Merge {
            into,
            from,
            q_after,
        });
    }

    /// Index (number of merges applied) of the prefix with maximum
    /// modularity; 0 means "no merges" (singletons).
    fn best_step(&self) -> usize {
        let mut best = self.q_initial;
        let mut best_idx = 0usize;
        for (i, m) in self.merges.iter().enumerate() {
            if m.q_after > best {
                best = m.q_after;
                best_idx = i + 1;
            }
        }
        best_idx
    }

    /// Modularity of the best prefix.
    pub(crate) fn best_q(&self) -> f64 {
        self.merges
            .iter()
            .map(|m| m.q_after)
            .fold(self.q_initial, f64::max)
    }

    /// Replay the first `steps` merges and return the resulting
    /// clustering.
    pub(crate) fn clustering_at(&self, steps: usize) -> Clustering {
        assert!(steps <= self.merges.len());
        // Union-find over original singleton labels.
        let mut parent: Vec<u32> = (0..self.n as u32).collect();
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        for m in &self.merges[..steps] {
            let (ri, rf) = (find(&mut parent, m.into), find(&mut parent, m.from));
            if ri != rf {
                parent[rf as usize] = ri;
            }
        }
        let labels: Vec<u32> = (0..self.n as u32).map(|v| find(&mut parent, v)).collect();
        Clustering::from_labels(&labels)
    }

    /// The clustering with maximum modularity over the whole history.
    pub(crate) fn best_clustering(&self) -> Clustering {
        self.clustering_at(self.best_step())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{pma, PmaConfig};
    use proptest::prelude::*;
    use snap_graph::{Graph, GraphBuilder};

    #[test]
    fn best_step_tracks_peak() {
        let mut d = Dendrogram::new(4, -0.25);
        d.push(0, 1, 0.1);
        d.push(0, 2, 0.3);
        d.push(0, 3, 0.0);
        assert_eq!(d.best_step(), 2);
        assert!((d.best_q() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn clustering_at_replays_merges() {
        let mut d = Dendrogram::new(4, -0.25);
        d.push(0, 1, 0.1);
        d.push(2, 3, 0.2);
        let c = d.clustering_at(2);
        assert_eq!(c.count, 2);
        assert_eq!(c.cluster_of(0), c.cluster_of(1));
        assert_eq!(c.cluster_of(2), c.cluster_of(3));
        assert_ne!(c.cluster_of(0), c.cluster_of(2));
    }

    #[test]
    fn zero_steps_is_singletons() {
        let d = Dendrogram::new(3, 0.0);
        let c = d.clustering_at(0);
        assert_eq!(c.count, 3);
    }

    #[test]
    fn merges_through_moved_labels() {
        // Merge 0<-1, then 1<-2: the second references the absorbed label
        // 1, which union-find resolves to the live root.
        let mut d = Dendrogram::new(3, -0.3);
        d.push(0, 1, 0.0);
        d.push(1, 2, 0.1);
        let c = d.clustering_at(2);
        assert_eq!(c.count, 1);
    }

    #[test]
    fn best_clustering_beats_or_ties_everything() {
        let mut d = Dendrogram::new(4, -0.1);
        d.push(0, 1, 0.2);
        d.push(2, 3, 0.15);
        let best = d.best_clustering();
        assert_eq!(best.count, 3); // after first merge only
    }

    fn arb_graph() -> impl Strategy<Value = snap_graph::CsrGraph> {
        (4usize..24).prop_flat_map(|n| {
            prop::collection::vec((0..n as u32, 0..n as u32), 2..60).prop_map(move |edges| {
                let mut uniq: Vec<(u32, u32)> = edges
                    .into_iter()
                    .filter(|&(u, v)| u != v)
                    .map(|(u, v)| (u.min(v), u.max(v)))
                    .collect();
                uniq.sort_unstable();
                uniq.dedup();
                GraphBuilder::undirected(n).add_edges(uniq).build()
            })
        })
    }

    proptest! {
        /// Dendrogram replay: clustering_at(k) has exactly n - k clusters
        /// when all merges join distinct clusters.
        #[test]
        fn dendrogram_counts(g in arb_graph()) {
            let r = pma(&g, &PmaConfig::default());
            let n = g.num_vertices();
            for steps in 0..=r.dendrogram.merges.len() {
                let c = r.dendrogram.clustering_at(steps);
                prop_assert_eq!(c.count, n - steps);
            }
        }
    }
}

//! Partition quality metrics: edge cut and balance.

use snap_graph::WeightedGraph;

/// A k-way partition of the vertex set.
#[derive(Clone, Debug)]
pub struct Partition {
    /// Part label per vertex, in `0..parts`.
    pub assignment: Vec<u32>,
    /// Number of parts.
    pub parts: usize,
}

impl Partition {
    /// Part sizes (vertex counts).
    pub fn sizes(&self) -> Vec<usize> {
        let mut s = vec![0usize; self.parts];
        for &p in &self.assignment {
            s[p as usize] += 1;
        }
        s
    }

    /// Validate labels are in range.
    pub fn validate(&self) -> Result<(), String> {
        for (v, &p) in self.assignment.iter().enumerate() {
            if p as usize >= self.parts {
                return Err(format!("vertex {v} in out-of-range part {p}"));
            }
        }
        Ok(())
    }
}

/// Total weight of edges whose endpoints land in different parts.
pub fn edge_cut<G: WeightedGraph>(g: &G, p: &Partition) -> u64 {
    let mut cut = 0u64;
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        if p.assignment[u as usize] != p.assignment[v as usize] {
            cut += g.edge_weight(e) as u64;
        }
    }
    cut
}

/// Conductance of each part: `cut(S) / min(vol(S), vol(V \ S))`, the
/// measure the paper notes cut-based clustering heuristics optimize
/// (§2.2). Returns one value per part; parts with zero volume get 1.0.
pub fn conductance<G: WeightedGraph>(g: &G, p: &Partition) -> Vec<f64> {
    let mut vol = vec![0u64; p.parts];
    let mut cut = vec![0u64; p.parts];
    let mut total_vol = 0u64;
    for e in g.edge_ids() {
        let (u, v) = g.edge_endpoints(e);
        let w = g.edge_weight(e) as u64;
        let (pu, pv) = (p.assignment[u as usize], p.assignment[v as usize]);
        vol[pu as usize] += w;
        vol[pv as usize] += w;
        total_vol += 2 * w;
        if pu != pv {
            cut[pu as usize] += w;
            cut[pv as usize] += w;
        }
    }
    (0..p.parts)
        .map(|i| {
            let denom = vol[i].min(total_vol - vol[i]);
            if denom == 0 {
                1.0
            } else {
                cut[i] as f64 / denom as f64
            }
        })
        .collect()
}

/// Load imbalance: `max part weight / ceil(total / parts)`; 1.0 is
/// perfectly balanced. Weighted by `vwgt` when given (coarse graphs),
/// else unit vertex weights.
pub fn imbalance(p: &Partition, vwgt: Option<&[u32]>) -> f64 {
    let n = p.assignment.len();
    if n == 0 || p.parts == 0 {
        return 1.0;
    }
    let mut loads = vec![0u64; p.parts];
    let mut total = 0u64;
    for (v, &part) in p.assignment.iter().enumerate() {
        let w = vwgt.map_or(1, |w| w[v]) as u64;
        loads[part as usize] += w;
        total += w;
    }
    let max = *loads.iter().max().unwrap();
    let ideal = total.div_ceil(p.parts as u64).max(1);
    max as f64 / ideal as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn cut_counts_cross_edges() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let p = Partition {
            assignment: vec![0, 0, 1, 1],
            parts: 2,
        };
        assert_eq!(edge_cut(&g, &p), 1);
    }

    #[test]
    fn weighted_cut() {
        let g = snap_graph::GraphBuilder::undirected(3)
            .add_weighted_edges([(0, 1, 5), (1, 2, 2)])
            .build();
        let p = Partition {
            assignment: vec![0, 1, 1],
            parts: 2,
        };
        assert_eq!(edge_cut(&g, &p), 5);
    }

    #[test]
    fn perfect_balance() {
        let p = Partition {
            assignment: vec![0, 0, 1, 1],
            parts: 2,
        };
        assert!((imbalance(&p, None) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn imbalanced_partition_detected() {
        let p = Partition {
            assignment: vec![0, 0, 0, 1],
            parts: 2,
        };
        assert!(imbalance(&p, None) > 1.4);
    }

    #[test]
    fn vertex_weights_respected() {
        let p = Partition {
            assignment: vec![0, 1],
            parts: 2,
        };
        // Weights 3 and 1: max load 3, ideal 2 → 1.5.
        assert!((imbalance(&p, Some(&[3, 1])) - 1.5).abs() < 1e-12);
    }
}

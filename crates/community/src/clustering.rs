//! The `Clustering` type: a partition of the vertex set.

use snap_graph::VertexId;

/// A partition `C = (C_1, ..., C_k)` of the vertices: non-empty, disjoint
/// clusters covering `V`, stored as a label per vertex.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clustering {
    /// Cluster label per vertex, in `0..count`.
    pub assignment: Vec<u32>,
    /// Number of clusters.
    pub count: usize,
}

impl Clustering {
    /// Every vertex in its own cluster — the starting state of the
    /// agglomerative algorithms.
    pub fn singletons(n: usize) -> Self {
        Clustering {
            assignment: (0..n as u32).collect(),
            count: n,
        }
    }

    /// Build from arbitrary labels, renumbering to consecutive `0..count`
    /// in first-appearance order.
    pub fn from_labels(labels: &[u32]) -> Self {
        let mut remap = std::collections::HashMap::new();
        let mut next = 0u32;
        let assignment = labels
            .iter()
            .map(|&l| {
                *remap.entry(l).or_insert_with(|| {
                    let id = next;
                    next += 1;
                    id
                })
            })
            .collect();
        Clustering {
            assignment,
            count: next as usize,
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        self.assignment.len()
    }

    /// True for the empty vertex set.
    pub fn is_empty(&self) -> bool {
        self.assignment.is_empty()
    }

    /// Cluster of vertex `v`.
    #[inline]
    pub(crate) fn cluster_of(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }

    /// Cluster sizes, indexed by label.
    pub fn sizes(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.count];
        for &c in &self.assignment {
            out[c as usize] += 1;
        }
        out
    }

    /// Members of each cluster, indexed by label.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.count];
        for (v, &c) in self.assignment.iter().enumerate() {
            out[c as usize].push(v as VertexId);
        }
        out
    }

    /// Validate the partition invariants (labels in range, every cluster
    /// non-empty).
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.count];
        for (v, &c) in self.assignment.iter().enumerate() {
            if c as usize >= self.count {
                return Err(format!("vertex {v} has out-of-range cluster {c}"));
            }
            seen[c as usize] = true;
        }
        if let Some(missing) = seen.iter().position(|&s| !s) {
            return Err(format!("cluster {missing} is empty"));
        }
        Ok(())
    }

    /// Merge clusters `a` and `b` (the union keeps `min(a, b)`),
    /// renumbering so labels stay consecutive. O(n).
    pub fn merge(&mut self, a: u32, b: u32) {
        assert!(a != b && (a as usize) < self.count && (b as usize) < self.count);
        let keep = a.min(b);
        let freed = a.max(b);
        let last = (self.count - 1) as u32;
        for c in self.assignment.iter_mut() {
            if *c == freed {
                *c = keep;
            } else if *c == last && freed != last {
                *c = freed; // move the last label into the freed slot
            }
        }
        self.count -= 1;
    }
}

/// Normalized mutual information between two clusterings — used in tests
/// to check that an algorithm recovers planted structure.
pub fn normalized_mutual_information(a: &Clustering, b: &Clustering) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len();
    if n == 0 || (a.count <= 1 && b.count <= 1) {
        return if a.count == b.count { 1.0 } else { 0.0 };
    }
    let mut joint = vec![vec![0usize; b.count]; a.count];
    for v in 0..n {
        joint[a.assignment[v] as usize][b.assignment[v] as usize] += 1;
    }
    let pa: Vec<f64> = a.sizes().iter().map(|&s| s as f64 / n as f64).collect();
    let pb: Vec<f64> = b.sizes().iter().map(|&s| s as f64 / n as f64).collect();
    let mut mi = 0.0;
    for i in 0..a.count {
        for j in 0..b.count {
            let pij = joint[i][j] as f64 / n as f64;
            if pij > 0.0 {
                mi += pij * (pij / (pa[i] * pb[j])).ln();
            }
        }
    }
    let ha: f64 = -pa
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>();
    let hb: f64 = -pb
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| p * p.ln())
        .sum::<f64>();
    if ha <= 0.0 || hb <= 0.0 {
        return if mi.abs() < 1e-12 { 1.0 } else { 0.0 };
    }
    mi / (ha * hb).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_and_single() {
        let s = Clustering::singletons(4);
        assert_eq!(s.count, 4);
        s.validate().unwrap();
        let one = Clustering::from_labels(&[0; 4]);
        assert_eq!(one.count, 1);
        one.validate().unwrap();
    }

    #[test]
    fn from_labels_renumbers() {
        let c = Clustering::from_labels(&[7, 3, 7, 9]);
        assert_eq!(c.count, 3);
        assert_eq!(c.assignment, vec![0, 1, 0, 2]);
        c.validate().unwrap();
    }

    #[test]
    fn sizes_and_members() {
        let c = Clustering::from_labels(&[0, 0, 1, 1, 1]);
        assert_eq!(c.sizes(), vec![2, 3]);
        assert_eq!(c.members()[1], vec![2, 3, 4]);
    }

    #[test]
    fn merge_keeps_labels_consecutive() {
        let mut c = Clustering::from_labels(&[0, 1, 2, 2]);
        c.merge(0, 1);
        assert_eq!(c.count, 2);
        c.validate().unwrap();
        assert_eq!(c.cluster_of(0), c.cluster_of(1));
        assert_ne!(c.cluster_of(0), c.cluster_of(2));
    }

    #[test]
    fn merge_last_label() {
        let mut c = Clustering::from_labels(&[0, 1, 2]);
        c.merge(0, 2);
        assert_eq!(c.count, 2);
        c.validate().unwrap();
        assert_eq!(c.cluster_of(0), c.cluster_of(2));
    }

    #[test]
    fn nmi_identical_is_one() {
        let a = Clustering::from_labels(&[0, 0, 1, 1]);
        let b = Clustering::from_labels(&[5, 5, 2, 2]);
        assert!((normalized_mutual_information(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nmi_independent_is_low() {
        let a = Clustering::from_labels(&[0, 0, 1, 1]);
        let b = Clustering::from_labels(&[0, 1, 0, 1]);
        assert!(normalized_mutual_information(&a, &b) < 0.1);
    }
}

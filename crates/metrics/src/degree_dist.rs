//! Degree-distribution statistics: histogram, CCDF, and the skewness
//! summary the paper uses to pick representations and load-balancing
//! strategies (small-world graphs: most vertices low-degree, few hubs).

use snap_graph::{Graph, VertexId};

/// Summary statistics of a degree distribution.
#[derive(Clone, Debug)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree.
    pub max: usize,
    /// Mean degree.
    pub mean: f64,
    /// Degree variance.
    pub variance: f64,
    /// `max / mean` — the skew indicator SNAP's heuristics branch on.
    pub skew_ratio: f64,
}

/// Compute a degree histogram: `hist[d]` = number of vertices of degree d.
pub fn degree_histogram<G: Graph>(g: &G) -> Vec<usize> {
    let mut hist = Vec::new();
    for v in 0..g.num_vertices() as VertexId {
        let d = g.degree(v);
        if d >= hist.len() {
            hist.resize(d + 1, 0);
        }
        hist[d] += 1;
    }
    hist
}

/// Complementary CDF: fraction of vertices with degree > d, for each d up
/// to the max degree.
pub fn degree_ccdf<G: Graph>(g: &G) -> Vec<f64> {
    let hist = degree_histogram(g);
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let mut above = n;
    hist.iter()
        .map(|&c| {
            above -= c;
            above as f64 / n as f64
        })
        .collect()
}

/// Summary statistics.
pub(crate) fn degree_stats<G: Graph>(g: &G) -> DegreeStats {
    let n = g.num_vertices();
    if n == 0 {
        return DegreeStats {
            min: 0,
            max: 0,
            mean: 0.0,
            variance: 0.0,
            skew_ratio: 0.0,
        };
    }
    let degrees: Vec<usize> = (0..n as VertexId).map(|v| g.degree(v)).collect();
    let min = *degrees.iter().min().unwrap();
    let max = *degrees.iter().max().unwrap();
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    let variance = degrees
        .iter()
        .map(|&d| (d as f64 - mean).powi(2))
        .sum::<f64>()
        / n as f64;
    DegreeStats {
        min,
        max,
        mean,
        variance,
        skew_ratio: if mean > 0.0 { max as f64 / mean } else { 0.0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn histogram_of_star() {
        let g = from_edges(5, &[(0, 1), (0, 2), (0, 3), (0, 4)]);
        let h = degree_histogram(&g);
        assert_eq!(h, vec![0, 4, 0, 0, 1]);
    }

    #[test]
    fn ccdf_monotone_nonincreasing() {
        let g = from_edges(6, &[(0, 1), (0, 2), (0, 3), (1, 2), (4, 5)]);
        let c = degree_ccdf(&g);
        assert!(c.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(*c.last().unwrap(), 0.0);
    }

    #[test]
    fn stats_of_regular_graph() {
        let g = from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        let s = degree_stats(&g);
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert_eq!(s.variance, 0.0);
        assert!((s.skew_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph_stats() {
        let g = from_edges(0, &[]);
        let s = degree_stats(&g);
        assert_eq!(s.max, 0);
        assert!(degree_ccdf(&g).is_empty());
    }
}

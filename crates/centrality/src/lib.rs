//! # snap-centrality
//!
//! Centrality metrics of the SNAP framework (Bader & Madduri, IPDPS 2008,
//! §2.1): degree, closeness, exact betweenness (Brandes, vertices and
//! edges, with the paper's coarse-grained source-parallel scheme), and the
//! adaptive-sampling approximate betweenness (Bader, Kintali, Madduri &
//! Mihail, WAW 2007) that powers the pBD divisive clustering algorithm.

pub mod approx;
pub mod brandes;
pub mod closeness;
pub mod degree;
pub mod weighted;

pub use approx::{
    adaptive_edge_betweenness, adaptive_vertex_betweenness, approx_betweenness,
    approx_betweenness_in, AdaptiveEstimate,
};
pub use brandes::{
    betweenness_from_sources, betweenness_from_sources_in, brandes, par_brandes, BetweennessScores,
    PartialBetweenness,
};
pub use closeness::{closeness, closeness_in, closeness_of, closeness_of_into, sampled_closeness};
pub use degree::{degree_centrality, normalized_degree_centrality, top_degree_vertices};
pub use snap_kernels::sweep::sample_sources;
pub use weighted::weighted_betweenness;

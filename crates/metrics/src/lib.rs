//! # snap-metrics
//!
//! Network-analysis metrics and preprocessing routines for small-world
//! networks (Bader & Madduri, IPDPS 2008, §3): clustering coefficients,
//! shortest-path-length statistics, rich-club coefficient, assortativity,
//! average neighbor connectivity, degree distributions, and a one-call
//! exploratory [`summary::GraphSummary`].
//!
//! Most metrics are linear or near-linear; the paper's workflow runs them
//! first to pick the right algorithms (e.g. pronounced community
//! structure -> local aggregation) and to split the work by connected
//! component.

pub mod assortativity;
pub mod clustering;
pub mod degree_dist;
pub mod pathlen;
pub mod richclub;
pub mod summary;

pub use assortativity::{average_neighbor_degree, degree_assortativity, neighbor_connectivity};
pub use clustering::{
    average_clustering, clustering_in, local_clustering, transitivity, triangle_count,
    triangles_per_vertex, PartialClustering,
};
pub use degree_dist::{degree_ccdf, degree_histogram, degree_stats, DegreeStats};
pub use pathlen::{
    path_stats_exact, path_stats_in, path_stats_sampled, PartialPathStats, PathStats,
};
pub use richclub::{rich_club_coefficient, rich_club_curve};
pub use summary::{summarize, summarize_in, GraphSummary};

//! # SNAP — Small-world Network Analysis and Partitioning
//!
//! A Rust reproduction of the parallel graph framework of Bader &
//! Madduri (IPDPS 2008): exploratory analysis and partitioning of
//! large-scale small-world networks.
//!
//! This facade crate re-exports the whole workspace and adds the
//! high-level [`Network`] API. The layers, bottom-up (mirroring Figure 1
//! of the paper):
//!
//! | Layer | Crate | Contents |
//! |---|---|---|
//! | Graph representation | [`graph`] | CSR adjacency arrays, dynamic graphs with treaps, filtered views |
//! | Graph kernels | [`kernels`] | parallel BFS, connected/biconnected components, MST, SSSP |
//! | Metrics & preprocessing | [`metrics`], [`centrality`] | clustering coefficients, assortativity, betweenness (exact & approximate) |
//! | Advanced analysis | [`community`], [`partition`] | pBD / pMA / pLA community detection, multilevel & spectral partitioning |
//! | Input | [`gen`], [`io`] | seeded generators for the paper's instances, graph formats |
//!
//! ## Quickstart
//!
//! ```
//! use snap::{CommunityAlgorithm, Network};
//!
//! // Zachary's karate club, the classic community-detection benchmark.
//! let net = Network::new(snap::io::karate_club());
//! let communities = net.communities(CommunityAlgorithm::Agglomerative);
//! assert!(communities.modularity > 0.35);
//! ```

pub use snap_budget as budget;
pub use snap_centrality as centrality;
pub use snap_community as community;
pub use snap_gen as gen;
pub use snap_graph as graph;
pub use snap_io as io;
pub use snap_kernels as kernels;
pub use snap_metrics as metrics;
pub use snap_obs as obs;
pub use snap_partition as partition;

pub mod serve;
mod session;

pub use session::{Communities, CommunityAlgorithm, Network, Observed};
pub use snap_budget::{Budget, Exhausted};
pub use snap_kernels::Exec;

/// Commonly used items in one import.
pub mod prelude {
    pub use crate::serve::{Engine as ServeEngine, Request, Response, ServeConfig};
    pub use crate::session::{Communities, CommunityAlgorithm, Network, Observed};
    pub use snap_budget::{Budget, Exhausted};
    pub use snap_community::{Clustering, GnConfig, PbdConfig, PlaConfig, PmaConfig};
    pub use snap_graph::{
        BatchStats, CsrGraph, EdgeOp, Frontier, Graph, GraphBuilder, Snapshot, SnapshotReader,
        StreamingGraph, VertexId, WeightedGraph,
    };
    pub use snap_kernels::{BfsResult, Direction, HybridConfig, LevelStats, TraversalStats};
    pub use snap_kernels::{DynamicComponents, IncrementalBfs, IncrementalComponents};
    pub use snap_obs::{ReportNode, RunReport};
    pub use snap_partition::Method as PartitionMethod;
}

/// Run a closure on a rayon pool with exactly `threads` workers — the
/// handle used by the benchmark harness to reproduce the paper's
/// thread-count sweeps.
pub fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("building rayon pool")
        .install(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_threads_runs_in_sized_pool() {
        let inside = with_threads(3, rayon::current_num_threads);
        assert_eq!(inside, 3);
    }
}

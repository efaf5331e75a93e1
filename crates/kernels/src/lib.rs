//! # snap-kernels
//!
//! The fundamental parallel graph kernels of the SNAP framework
//! (Bader & Madduri, IPDPS 2008, §3): breadth-first search, connected
//! components, biconnected components (articulation points and bridges),
//! spanning forests, minimum spanning forests, and single-source shortest
//! paths.
//!
//! Design notes, following the paper:
//!
//! * **Level-synchronous traversal** with lock-free visited claims and
//!   degree-aware work splitting ([`bfs::par_bfs`]) — the building block
//!   for centrality and the divisive clustering algorithms.
//! * **Fine-grained synchronization kept cheap**: atomic bitmaps and
//!   label arrays instead of locks throughout.
//! * Everything is generic over [`snap_graph::Graph`], so the same kernel
//!   runs on a frozen CSR graph, a compressed CSR graph, a filtered view
//!   with deleted edges, or an extracted component.
//! * **Julienne-style bucketing** ([`buckets::Buckets`]) shared between
//!   Δ-stepping SSSP and k-core decomposition ([`kcore::coreness`]).
//! * **Coarse-grained source parallelism** written once
//!   ([`sweep::sweep`]) for the centrality and path-length crates.
//!
//! Parallel kernels use the ambient rayon thread pool; callers control
//! parallelism by installing a pool (`ThreadPool::install`).

pub mod bfs;
pub mod bicc;
pub mod boruvka;
pub mod buckets;
pub mod components;
pub mod dynbfs;
pub mod dyncc;
mod exec;
pub mod kcore;
pub mod spanning;
pub mod sssp;
pub mod stcon;
pub mod sweep;

pub use bfs::{
    bfs, bfs_into, bfs_limited, export_bfs, par_bfs, par_bfs_hybrid_stats,
    par_bfs_vertex_partitioned, try_par_bfs_hybrid_stats, BfsResult, Direction, HybridConfig,
    LevelStats, TraversalStats, NO_PARENT, UNREACHABLE,
};
pub use bicc::{biconnected_components, Bicc};
pub use boruvka::{boruvka_msf, Msf};
pub use buckets::{Buckets, UNBUCKETED};
pub use components::{
    connected_components, par_components_hybrid, par_components_lp, par_components_sv, Components,
};
pub use dynbfs::IncrementalBfs;
pub use dyncc::{DynamicComponents, IncrementalComponents};
pub use exec::Exec;
pub use kcore::{coreness, try_coreness, CorenessResult};
pub use spanning::{par_spanning_forest, spanning_forest, SpanningForest};
pub use sssp::{delta_stepping, dijkstra, try_delta_stepping, SsspResult, INF};
pub use stcon::{st_connectivity, st_connectivity_into, StResult};

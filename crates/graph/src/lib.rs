//! # snap-graph
//!
//! Graph representations for the SNAP (Small-world Network Analysis and
//! Partitioning) framework, a Rust reproduction of Bader & Madduri,
//! IPDPS 2008.
//!
//! The paper's data-representation layer provides:
//!
//! * a **static, cache-friendly adjacency-array (CSR) representation**
//!   ([`CsrGraph`]) — the preferred choice for static graph algorithms;
//! * a **compressed CSR** ([`CompressedCsrGraph`]) with delta/varint
//!   difference-encoded adjacency, one block format for every row, and
//!   chunked parallel decode — the same graph resident at a fraction of
//!   the flat adjacency bytes (see `compressed`);
//! * a **dynamic representation** ([`DynGraph`]) with resizable adjacency
//!   arrays for low-degree vertices and **treaps** ([`Treap`]) for
//!   high-degree vertices, so that insertions/deletions and set operations
//!   on large adjacency lists stay logarithmic (the streaming engine's
//!   tests replay their ops into one as the oracle);
//! * **filtered views** ([`FilteredGraph`]) that support cheap edge
//!   deletion via an edge-liveness bitmap — the workhorse of the divisive
//!   community-detection algorithms, which repeatedly cut edges;
//! * **induced subgraphs** ([`subgraph::InducedSubgraph`]) used when the
//!   coarse-grained phase of the divisive algorithms processes connected
//!   components independently;
//! * a **streaming engine** ([`StreamingGraph`]): the last published
//!   `Arc<CsrGraph>` snapshot plus a net delta of the edges whose
//!   liveness differs from it. It ingests batched edge insert/delete ops
//!   into the delta and delta-merges them into epoch-versioned immutable
//!   snapshots, so readers analyze complete frozen epochs while writers
//!   keep ingesting.
//!
//! All representations implement the [`Graph`] trait so the kernels in
//! `snap-kernels` and above remain representation-agnostic.

pub mod bitset;
pub mod builder;
pub mod compressed;
pub mod csr;
pub mod dynamic;
pub mod frontier;
pub mod perm;
pub mod scratch;
pub mod stream;
pub mod subgraph;
pub mod traits;
pub mod treap;
pub mod view;

pub use bitset::{AtomicBitmap, Bitmap};
pub use builder::GraphBuilder;
pub use compressed::{CompressedCsrGraph, DecodeScratch};
pub use csr::CsrGraph;
pub use dynamic::DynGraph;
pub use frontier::Frontier;
pub use scratch::{PooledScratch, Scratch, ScratchPool, TraversalWorkspace, WorkspaceStats};
pub use stream::{BatchStats, EdgeOp, Snapshot, SnapshotReader, StreamingGraph};
pub use subgraph::InducedSubgraph;
pub use traits::{Graph, WeightedGraph};
pub use treap::Treap;
pub use view::FilteredGraph;

/// Vertex identifier. Graphs in the paper's target range (up to billions of
/// edges) still fit vertex ids in 32 bits, halving the memory traffic of the
/// adjacency arrays relative to `usize` ids.
pub type VertexId = u32;

/// Undirected-edge (or directed-arc, for digraphs) identifier. Both arcs of
/// an undirected edge share one `EdgeId`, which is what lets the divisive
/// clustering algorithms delete an edge with a single bitmap write.
pub type EdgeId = u32;

/// Edge weight. The paper assumes positive integer weights with
/// `w(e) = 1` for unweighted graphs.
pub type Weight = u32;

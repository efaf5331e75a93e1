//! # snap-community
//!
//! The headline contribution of SNAP (Bader & Madduri, IPDPS 2008, §4):
//! three parallel community-detection algorithms that maximize
//! modularity, plus the exact Girvan-Newman baseline and a simulated-
//! annealing reference optimizer.
//!
//! * [`gn`] — Girvan-Newman divisive clustering with exact edge
//!   betweenness recomputed after every cut (the baseline; `O(n^3)` for
//!   sparse graphs).
//! * [`pbd()`](fn@pbd) — the paper's Algorithm 1: divisive clustering driven by
//!   **approximate** (sampled) betweenness, with biconnected-components
//!   bridge preprocessing and a fine-to-coarse parallelism-granularity
//!   switch. Two orders of magnitude faster than GN at comparable
//!   modularity.
//! * [`pma()`](fn@pma) — Algorithm 2: greedy agglomerative (CNM-schedule)
//!   clustering over a sparse dQ structure with sorted dynamic rows, a
//!   lazy max-heap, and parallel row updates.
//! * [`pla()`](fn@pla) — Algorithm 3: greedy local aggregation; bridge removal
//!   decomposes the graph, components are clustered concurrently by local
//!   seed-growth, and a top-level pass amalgamates across bridges.
//! * [`anneal()`](fn@anneal) — simulated annealing, standing in for the paper's
//!   "best known" modularity column.
//!
//! Supporting types: [`Clustering`], [`modularity()`](fn@modularity) and [`Dendrogram`].

pub mod anneal;
pub mod clustering;
pub mod dendrogram;
mod divisive;
mod dq;
pub mod gn;
pub mod modularity;
pub mod pbd;
pub mod pla;
pub mod pma;
pub mod spectral;

pub use anneal::{anneal, anneal_from, AnnealConfig, AnnealResult};
pub use clustering::{normalized_mutual_information, Clustering};
pub use dendrogram::{Dendrogram, Merge};
pub use gn::{girvan_newman, girvan_newman_in, DivisiveResult, GnConfig};
pub use modularity::{modularity, weighted_modularity, ModularityTracker};
pub use pbd::{pbd, pbd_in, PbdConfig};
pub use pla::{pla, pla_in, pla_view, PlaConfig, PlaResult};
pub use pma::{pma, pma_in, AgglomerativeResult, PmaConfig};
pub use spectral::{spectral_communities, spectral_communities_in, SpectralCommunityResult};

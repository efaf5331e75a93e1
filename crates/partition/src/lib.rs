//! # snap-partition
//!
//! Graph-partitioning baselines for the SNAP reproduction — the
//! partitioners Table 1 evaluates to show that cut-based, balance-
//! constrained partitioning works on physical meshes but degrades by two
//! orders of magnitude on random and small-world networks:
//!
//! * **Multilevel** (Metis-style): heavy-edge matching coarsening,
//!   BFS-grown initial bisection, Fiduccia-Mattheyses refinement —
//!   recursive-bisection ("pmetis") and direct-k-way-refined ("kmetis")
//!   variants.
//! * **Spectral** (Chaco-style): Fiedler-vector recursive bisection via
//!   CG inverse iteration ("RQI") or the Lanczos solver of
//!   `snap_kernels::lanczos`; either can
//!   legitimately fail to converge on hub-dominated small-world spectra,
//!   matching the "-" entries of Table 1.

pub mod bisect;
pub mod coarsen;
pub mod fm;
pub mod kway;
pub mod matching;
pub mod metrics;
pub mod spectral;

pub use coarsen::{coarsen, CoarseLevel};
pub use fm::{bisection_cut, fm_refine};
pub use kway::{kway_partition, KwayConfig};
pub use matching::{heavy_edge_matching, is_valid_matching};
pub use metrics::{conductance, edge_cut, imbalance, Partition};
pub use spectral::SpectralError;

use kway::kway_partition_in;
use snap_graph::CsrGraph;
use snap_kernels::Exec;
use spectral::{spectral_partition, SpectralConfig};

/// The four partitioning methods of Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// Multilevel k-way (kmetis-like).
    MultilevelKway,
    /// Multilevel recursive bisection (pmetis-like).
    MultilevelRecursive,
    /// Spectral with power/RQI-flavored solver (Chaco-RQI-like).
    SpectralRqi,
    /// Spectral with Lanczos solver (Chaco-Lanczos-like).
    SpectralLanczos,
}

impl Method {
    /// Label as printed in Table 1.
    pub fn label(&self) -> &'static str {
        match self {
            Method::MultilevelKway => "Metis-kway",
            Method::MultilevelRecursive => "Metis-recur",
            Method::SpectralRqi => "Chaco-RQI",
            Method::SpectralLanczos => "Chaco-LAN",
        }
    }

    /// Every method, in Table 1 order.
    pub const ALL: [Method; 4] = [
        Method::MultilevelKway,
        Method::MultilevelRecursive,
        Method::SpectralRqi,
        Method::SpectralLanczos,
    ];

    /// Canonical query name: what the CLI's `--method` and the serve
    /// protocol's `"method"` accept (via [`FromStr`](std::str::FromStr))
    /// and what serve cache keys are built from.
    pub fn name(&self) -> &'static str {
        match self {
            Method::MultilevelKway => "kway",
            Method::MultilevelRecursive => "recursive",
            Method::SpectralRqi => "rqi",
            Method::SpectralLanczos => "lanczos",
        }
    }
}

impl std::str::FromStr for Method {
    type Err = String;

    /// Parses a [`Method::name`]; `recur` is accepted as an alias of
    /// `recursive`.
    fn from_str(s: &str) -> Result<Method, String> {
        match s {
            "recur" => Ok(Method::MultilevelRecursive),
            _ => Method::ALL
                .into_iter()
                .find(|m| m.name() == s)
                .ok_or_else(|| format!("unknown method {s:?}")),
        }
    }
}

/// Partition `g` into `parts` parts with the chosen method. Spectral
/// methods may fail with [`SpectralError`]; the multilevel methods always
/// succeed.
///
/// ```
/// use snap_partition::{edge_cut, partition, Method};
///
/// // A 4-cycle splits into two balanced halves cutting 2 edges.
/// let g = snap_graph::builder::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
/// let p = partition(&g, Method::MultilevelRecursive, 2, 1).unwrap();
/// assert_eq!(edge_cut(&g, &p), 2);
/// assert_eq!(p.sizes(), vec![2, 2]);
/// ```
pub fn partition(
    g: &CsrGraph,
    method: Method,
    parts: usize,
    seed: u64,
) -> Result<Partition, SpectralError> {
    partition_in(g, method, parts, seed, &Exec::default())
}

/// [`partition`] under `exec`'s compute budget. Every method degrades
/// gracefully: once the budget trips, the bisections still to run fall
/// back to round-robin splits, the multilevel methods' FM and k-way
/// refinement stop early, and a spectral solve stops at its next matvec.
pub fn partition_in(
    g: &CsrGraph,
    method: Method,
    parts: usize,
    seed: u64,
    exec: &Exec,
) -> Result<Partition, SpectralError> {
    let _span = snap_obs::span("partition");
    snap_obs::meta("method", method.label());
    snap_obs::meta("parts", parts);
    snap_obs::meta("seed", seed);
    let result = match method {
        Method::MultilevelKway => Ok(kway_partition_in(g, &KwayConfig::kway(parts, seed), exec)),
        Method::MultilevelRecursive => Ok(kway_partition_in(
            g,
            &KwayConfig::recursive(parts, seed),
            exec,
        )),
        Method::SpectralRqi => spectral_partition(g, &SpectralConfig::rqi(parts, seed), exec),
        Method::SpectralLanczos => {
            spectral_partition(g, &SpectralConfig::lanczos(parts, seed), exec)
        }
    };
    // The cut is a derived quantity: only pay the O(m) sweep when someone
    // is actually collecting a report.
    if snap_obs::is_enabled() {
        if let Ok(p) = &result {
            snap_obs::gauge("edge_cut", edge_cut(g, p) as f64);
            snap_obs::gauge("imbalance", imbalance(p, None));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_names_round_trip() {
        for method in Method::ALL {
            assert_eq!(method.name().parse(), Ok(method));
        }
        assert_eq!("recur".parse(), Ok(Method::MultilevelRecursive));
        assert!("metis".parse::<Method>().is_err());
    }
}

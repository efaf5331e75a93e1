//! Spectral bisection: split along the Fiedler vector (the eigenvector of
//! the graph Laplacian's second-smallest eigenvalue), computed either by
//! inverse iteration with conjugate-gradient solves (the RQI-flavored
//! variant) or by the Lanczos process of [`snap_kernels::lanczos`] — the
//! two Chaco heuristics of Table 1.
//!
//! The paper's point stands in the numerics: small-world graphs have
//! near-degenerate leading eigenvalues dominated by hub neighborhoods
//! (Mihail & Papadimitriou), so the iteration either converges to a
//! hub-indicator (useless cut) or fails to converge within the budget —
//! which Table 1 renders as "–" for Chaco on the small-world instance.

use crate::kway::round_robin;
use crate::metrics::Partition;
use rand::Rng;
use rand::SeedableRng;
use rayon::prelude::*;
use snap_budget::{Budget, Exhausted};
use snap_graph::{CsrGraph, Graph, InducedSubgraph, VertexId, WeightedGraph};
use snap_kernels::Exec;

/// Why a spectral partition attempt failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpectralError {
    /// Eigensolver did not converge within its iteration budget.
    NoConvergence {
        /// Which solver ("power" / "lanczos").
        method: &'static str,
        /// Iterations spent.
        iterations: usize,
    },
}

impl std::fmt::Display for SpectralError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpectralError::NoConvergence { method, iterations } => write!(
                f,
                "spectral solver '{method}' failed to converge within {iterations} iterations"
            ),
        }
    }
}

impl std::error::Error for SpectralError {}

/// Which eigensolver drives the bisection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Eigensolver {
    /// Inverse iteration with conjugate-gradient solves (RQI-flavored).
    Power,
    /// Lanczos tridiagonalization with Sturm-bisection Ritz extraction.
    Lanczos,
}

/// Configuration for the spectral partitioner.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SpectralConfig {
    /// Number of parts (recursive bisection).
    parts: usize,
    /// Eigensolver choice.
    solver: Eigensolver,
    /// Iteration budget per bisection.
    max_iterations: usize,
    /// Relative eigenvalue-change tolerance for convergence.
    tolerance: f64,
    /// RNG seed for the start vector.
    seed: u64,
}

impl SpectralConfig {
    /// The Chaco-RQI-flavored preset.
    pub(crate) fn rqi(parts: usize, seed: u64) -> Self {
        SpectralConfig {
            parts,
            solver: Eigensolver::Power,
            max_iterations: 8_000,
            tolerance: 1e-5,
            seed,
        }
    }

    /// The Chaco-Lanczos-flavored preset.
    pub(crate) fn lanczos(parts: usize, seed: u64) -> Self {
        SpectralConfig {
            parts,
            solver: Eigensolver::Lanczos,
            max_iterations: 300,
            tolerance: 1e-8,
            seed,
        }
    }
}

/// `y = L x` for the weighted Laplacian `L = D - A` (parallel over rows),
/// charged to `budget` one unit per arc; refused, with `y` untouched,
/// once the budget has tripped.
fn laplacian_matvec(
    g: &CsrGraph,
    x: &[f64],
    y: &mut [f64],
    budget: &Budget,
) -> Result<(), Exhausted> {
    budget.charge(g.num_arcs() as u64 + 1)?;
    y.par_iter_mut().enumerate().for_each(|(v, yv)| {
        let v = v as VertexId;
        let mut acc = 0.0;
        let mut deg_w = 0.0;
        for (u, e) in g.neighbors_with_eid(v) {
            let w = g.edge_weight(e) as f64;
            deg_w += w;
            acc += w * x[u as usize];
        }
        *yv = deg_w * x[v as usize] - acc;
    });
    Ok(())
}

fn project_out_ones(x: &mut [f64]) {
    let n = x.len() as f64;
    let mean: f64 = x.iter().sum::<f64>() / n;
    for v in x.iter_mut() {
        *v -= mean;
    }
}

fn normalize(x: &mut [f64]) -> f64 {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 0.0 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    }
    norm
}

/// Fiedler vector by inverse iteration (the RQI-style solver): each outer
/// step solves `L y = x` on the subspace orthogonal to the constant
/// vector with projected conjugate gradient, amplifying the eigenvector
/// of the *smallest* nonzero eigenvalue. On meshes (large λ3/λ2 ratio
/// after a few steps) this converges in a handful of outer iterations; on
/// hub-dominated small-world spectra the leading eigenvalues are
/// near-degenerate (Mihail & Papadimitriou) and the iteration stalls —
/// reported as [`SpectralError::NoConvergence`], the paper's "-". So is
/// a solve that `budget` stops.
fn fiedler_power(
    g: &CsrGraph,
    max_iterations: usize,
    tolerance: f64,
    seed: u64,
    budget: &Budget,
) -> Result<Vec<f64>, SpectralError> {
    let n = g.num_vertices();
    if n < 2 {
        return Err(SpectralError::NoConvergence {
            method: "power",
            iterations: 0,
        });
    }
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut x: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    project_out_ones(&mut x);
    if normalize(&mut x) == 0.0 {
        return Err(SpectralError::NoConvergence {
            method: "power",
            iterations: 0,
        });
    }
    // Budget: `max_iterations` counts total CG matvecs across outer
    // steps, mirroring the single budget knob of the other solver.
    let cg_budget_per_solve = (max_iterations / 8).max(50);
    let mut spent = 0usize;
    let mut scratch = vec![0.0; n];
    let mut prev_lambda = f64::INFINITY;
    let stopped = |iterations| SpectralError::NoConvergence {
        method: "power",
        iterations,
    };
    loop {
        if spent >= max_iterations {
            break;
        }
        let cap = cg_budget_per_solve.min(max_iterations - spent);
        let (mut y, used) =
            cg_solve_projected(g, &x, cap, 1e-8, budget).map_err(|_| stopped(spent))?;
        spent += used.max(1); // guard: a degenerate solve must still make progress toward the budget
        project_out_ones(&mut y);
        if normalize(&mut y) == 0.0 {
            return Err(stopped(spent));
        }
        x = y;
        laplacian_matvec(g, &x, &mut scratch, budget).map_err(|_| stopped(spent))?;
        let lambda: f64 = x.iter().zip(&scratch).map(|(a, b)| a * b).sum();
        if (lambda - prev_lambda).abs() <= tolerance * lambda.abs().max(1e-30) {
            return Ok(x);
        }
        prev_lambda = lambda;
    }
    Err(stopped(spent.max(1)))
}

/// Approximately solve `L y = b` on the complement of the constant vector
/// with conjugate gradient; returns the iterate and the matvecs spent,
/// or `Err` when `budget` refuses a matvec. The solve need not be
/// accurate — inverse iteration only needs enough amplification of the
/// low end of the spectrum.
fn cg_solve_projected(
    g: &CsrGraph,
    b: &[f64],
    max_iters: usize,
    rtol: f64,
    budget: &Budget,
) -> Result<(Vec<f64>, usize), Exhausted> {
    let n = g.num_vertices();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    project_out_ones(&mut r);
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let b_norm2: f64 = r.iter().map(|v| v * v).sum();
    if b_norm2 == 0.0 {
        return Ok((x, 0));
    }
    let mut rs_old: f64 = b_norm2;
    let mut used = 0usize;
    for _ in 0..max_iters {
        laplacian_matvec(g, &p, &mut ap, budget)?;
        used += 1;
        let p_ap: f64 = p.iter().zip(&ap).map(|(a, c)| a * c).sum();
        if p_ap <= 1e-300 {
            break; // p fell into the kernel; bail with the current iterate
        }
        let alpha = rs_old / p_ap;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        // Periodic re-projection guards against kernel drift.
        if used.is_multiple_of(32) {
            project_out_ones(&mut r);
        }
        let rs_new: f64 = r.iter().map(|v| v * v).sum();
        if rs_new <= rtol * rtol * b_norm2 {
            break;
        }
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    Ok((x, used))
}

/// Fiedler vector by Lanczos ([`snap_kernels::smallest_eigenpair`] on
/// the Laplacian, from a seeded random start vector), stopped by `budget`
/// at its next matvec.
fn fiedler_lanczos(
    g: &CsrGraph,
    max_steps: usize,
    tolerance: f64,
    seed: u64,
    budget: &Budget,
) -> Result<Vec<f64>, SpectralError> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let start = (0..g.num_vertices())
        .map(|_| rng.gen::<f64>() - 0.5)
        .collect();
    let matvec = |x: &[f64], y: &mut [f64]| laplacian_matvec(g, x, y, budget);
    snap_kernels::smallest_eigenpair(matvec, start, max_steps, tolerance)
        .map(|(_, fiedler)| fiedler)
        .map_err(|e| SpectralError::NoConvergence {
            method: "lanczos",
            iterations: e.steps,
        })
}

/// Spectral recursive bisection into `cfg.parts` parts under `exec`'s
/// budget: a bisection whose solve the budget stops falls back to a
/// round-robin split, as the multilevel methods' do, and the result is
/// marked `degraded`.
pub(crate) fn spectral_partition(
    g: &CsrGraph,
    cfg: &SpectralConfig,
    exec: &Exec,
) -> Result<Partition, SpectralError> {
    assert!(cfg.parts >= 1);
    let n = g.num_vertices();
    let mut assignment = vec![0u32; n];
    if cfg.parts > 1 && n > 1 {
        let all: Vec<VertexId> = (0..n as VertexId).collect();
        let mut next = 0u32;
        spectral_rb(
            g,
            &all,
            cfg.parts,
            cfg,
            cfg.seed,
            &mut next,
            &mut assignment,
            &exec.budget,
        )?;
    }
    if let Some(why) = exec.budget.exhaustion() {
        snap_obs::meta("degraded", why);
    }
    Ok(Partition {
        assignment,
        parts: cfg.parts,
    })
}

#[allow(clippy::too_many_arguments)]
fn spectral_rb(
    g: &CsrGraph,
    vertices: &[VertexId],
    parts: usize,
    cfg: &SpectralConfig,
    seed: u64,
    next_label: &mut u32,
    out: &mut [u32],
    budget: &Budget,
) -> Result<(), SpectralError> {
    if parts == 1 || vertices.len() <= 1 {
        let label = *next_label;
        *next_label += 1;
        for &v in vertices {
            out[v as usize] = label;
        }
        return Ok(());
    }
    let sub = InducedSubgraph::extract(g, vertices);
    let solve = |graph: &CsrGraph| match cfg.solver {
        Eigensolver::Power => fiedler_power(graph, cfg.max_iterations, cfg.tolerance, seed, budget),
        Eigensolver::Lanczos => {
            fiedler_lanczos(graph, cfg.max_iterations, cfg.tolerance, seed, budget)
        }
    };
    let fiedler = match fiedler_values(&sub.graph, solve) {
        Err(_) if budget.is_exhausted() => {
            round_robin(vertices, parts, next_label, out);
            return Ok(());
        }
        solved => solved?,
    };
    // Balanced split at the weighted median of the Fiedler values.
    let kl = parts / 2;
    let kr = parts - kl;
    let take_left = vertices.len() * kl / parts;
    let mut order: Vec<usize> = (0..vertices.len()).collect();
    order.sort_by(|&a, &b| fiedler[a].partial_cmp(&fiedler[b]).unwrap().then(a.cmp(&b)));
    let mut left = Vec::with_capacity(take_left);
    let mut right = Vec::with_capacity(vertices.len() - take_left);
    for (rank, &local) in order.iter().enumerate() {
        let global = sub.to_global[local];
        if rank < take_left {
            left.push(global);
        } else {
            right.push(global);
        }
    }
    let (seed_l, seed_r) = (
        seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(11),
        seed.wrapping_mul(0xc2b2ae3d27d4eb4f).wrapping_add(13),
    );
    spectral_rb(g, &left, kl, cfg, seed_l, next_label, out, budget)?;
    spectral_rb(g, &right, kr, cfg, seed_r, next_label, out, budget)?;
    Ok(())
}

/// The values a bisection of `sub` splits at the median: `solve`'s
/// Fiedler vector when `sub` is connected. Disconnected subgraphs have
/// λ2 = 0 with component-indicator eigenvectors, which iterative solvers
/// cannot resolve. Handle them the way production spectral partitioners
/// do: solve the Fiedler vector on the *largest* component and pack the
/// remaining components (kept whole, ordered by component) onto the low
/// end of the value axis, so the median split separates dust from one
/// flank of the giant rather than bisecting by vertex id.
fn fiedler_values(
    sub: &CsrGraph,
    solve: impl Fn(&CsrGraph) -> Result<Vec<f64>, SpectralError>,
) -> Result<Vec<f64>, SpectralError> {
    let comps = snap_kernels::connected_components(sub);
    if comps.count > 1 {
        let sizes = comps.sizes();
        let giant = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &s)| s)
            .map(|(c, _)| c as u32)
            .expect("at least one component");
        let giant_members: Vec<VertexId> = (0..sub.num_vertices() as VertexId)
            .filter(|&v| comps.comp[v as usize] == giant)
            .collect();
        let giant_fiedler = if giant_members.len() >= 2 {
            let gsub = InducedSubgraph::extract(sub, &giant_members);
            let f = solve(&gsub.graph)?;
            let mut map = std::collections::HashMap::new();
            for (local, &gv) in gsub.to_global.iter().enumerate() {
                map.insert(gv, f[local]);
            }
            map
        } else {
            std::collections::HashMap::new()
        };
        Ok((0..sub.num_vertices() as VertexId)
            .map(|v| {
                let c = comps.comp[v as usize];
                if c == giant {
                    giant_fiedler.get(&v).copied().unwrap_or(0.0)
                } else {
                    // Dust components stay grouped, far below any
                    // normalized Fiedler value (|f| <= 1).
                    -1e6 - c as f64
                }
            })
            .collect())
    } else {
        solve(sub)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{edge_cut, imbalance};
    use snap_graph::builder::from_edges;

    fn barbell() -> CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn power_fiedler_splits_barbell() {
        let g = barbell();
        let f = fiedler_power(&g, 5_000, 1e-10, 1, &Budget::unlimited()).unwrap();
        // Fiedler sign separates the triangles.
        assert_eq!(f[0].signum(), f[1].signum());
        assert_eq!(f[3].signum(), f[4].signum());
        assert_ne!(f[0].signum(), f[3].signum());
    }

    #[test]
    fn lanczos_fiedler_splits_barbell() {
        let g = barbell();
        let f = fiedler_lanczos(&g, 50, 1e-10, 1, &Budget::unlimited()).unwrap();
        assert_eq!(f[0].signum(), f[1].signum());
        assert_ne!(f[0].signum(), f[3].signum());
    }

    #[test]
    fn power_and_lanczos_agree_on_path() {
        let g = from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let a = fiedler_power(&g, 20_000, 1e-12, 3, &Budget::unlimited()).unwrap();
        let b = fiedler_lanczos(&g, 50, 1e-12, 3, &Budget::unlimited()).unwrap();
        // Same up to sign.
        let dot: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!(dot.abs() > 0.99, "dot {dot}");
    }

    #[test]
    fn spectral_partition_grid() {
        let mut edges = Vec::new();
        let id = |r: u32, c: u32| r * 8 + c;
        for r in 0..8u32 {
            for c in 0..8u32 {
                if c + 1 < 8 {
                    edges.push((id(r, c), id(r, c + 1)));
                }
                if r + 1 < 8 {
                    edges.push((id(r, c), id(r + 1, c)));
                }
            }
        }
        let g = from_edges(64, &edges);
        let p = spectral_partition(&g, &SpectralConfig::rqi(4, 7), &Exec::default()).unwrap();
        p.validate().unwrap();
        assert!(imbalance(&p, None) < 1.10);
        assert!(edge_cut(&g, &p) <= 40, "cut {}", edge_cut(&g, &p));
    }

    #[test]
    fn tiny_budget_reports_no_convergence() {
        let g = barbell();
        let err = fiedler_power(&g, 1, 1e-14, 0, &Budget::unlimited()).unwrap_err();
        assert!(matches!(
            err,
            SpectralError::NoConvergence {
                method: "power",
                ..
            }
        ));
    }
}

//! Spectral bisection: split along the Fiedler vector (the eigenvector of
//! the graph Laplacian's second-smallest eigenvalue), computed either by
//! deflated power iteration (the RQI-flavored variant) or by a Lanczos
//! process — the two Chaco heuristics of Table 1.
//!
//! The paper's point stands in the numerics: small-world graphs have
//! near-degenerate leading eigenvalues dominated by hub neighborhoods
//! (Mihail & Papadimitriou), so the iteration either converges to a
//! hub-indicator (useless cut) or fails to converge within the budget —
//! which Table 1 renders as "–" for Chaco on the small-world instance.

use crate::metrics::Partition;
use rand::Rng;
use rand::SeedableRng;
use rayon::prelude::*;
use snap_graph::{CsrGraph, Graph, InducedSubgraph, VertexId, WeightedGraph};

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
    /// Deflated power iteration on `cI - L` (RQI-flavored).
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

/// `y = L x` for the weighted Laplacian `L = D - A` (parallel over rows).
fn laplacian_matvec(g: &CsrGraph, x: &[f64], y: &mut [f64]) {
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
/// reported as [`SpectralError::NoConvergence`], the paper's "-".
fn fiedler_power(
    g: &CsrGraph,
    max_iterations: usize,
    tolerance: f64,
    seed: u64,
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
    loop {
        if spent >= max_iterations {
            break;
        }
        let budget = cg_budget_per_solve.min(max_iterations - spent);
        let (mut y, used) = cg_solve_projected(g, &x, budget, 1e-8);
        spent += used.max(1); // guard: a degenerate solve must still make progress toward the budget
        project_out_ones(&mut y);
        if normalize(&mut y) == 0.0 {
            return Err(SpectralError::NoConvergence {
                method: "power",
                iterations: spent,
            });
        }
        x = y;
        laplacian_matvec(g, &x, &mut scratch);
        let lambda: f64 = x.iter().zip(&scratch).map(|(a, b)| a * b).sum();
        if (lambda - prev_lambda).abs() <= tolerance * lambda.abs().max(1e-30) {
            return Ok(x);
        }
        prev_lambda = lambda;
    }
    Err(SpectralError::NoConvergence {
        method: "power",
        iterations: spent.max(1),
    })
}

/// Approximately solve `L y = b` on the complement of the constant vector
/// with conjugate gradient; returns the iterate and the matvecs spent.
/// The solve need not be accurate — inverse iteration only needs enough
/// amplification of the low end of the spectrum.
fn cg_solve_projected(g: &CsrGraph, b: &[f64], max_iters: usize, rtol: f64) -> (Vec<f64>, usize) {
    let n = g.num_vertices();
    let mut x = vec![0.0; n];
    let mut r = b.to_vec();
    project_out_ones(&mut r);
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let b_norm2: f64 = r.iter().map(|v| v * v).sum();
    if b_norm2 == 0.0 {
        return (x, 0);
    }
    let mut rs_old: f64 = b_norm2;
    let mut used = 0usize;
    for _ in 0..max_iters {
        laplacian_matvec(g, &p, &mut ap);
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
    (x, used)
}

/// Fiedler vector by Lanczos: build a Krylov basis orthogonal to the
/// all-ones vector, extract the smallest Ritz pair of the tridiagonal
/// matrix by Sturm-sequence bisection.
fn fiedler_lanczos(
    g: &CsrGraph,
    max_steps: usize,
    tolerance: f64,
    seed: u64,
) -> Result<Vec<f64>, SpectralError> {
    let n = g.num_vertices();
    let steps = max_steps.min(n.saturating_sub(1)).max(1);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    let mut alphas: Vec<f64> = Vec::with_capacity(steps);
    let mut betas: Vec<f64> = Vec::with_capacity(steps);
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(steps);

    let mut q: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
    project_out_ones(&mut q);
    if normalize(&mut q) == 0.0 {
        return Err(SpectralError::NoConvergence {
            method: "lanczos",
            iterations: 0,
        });
    }
    let mut q_prev = vec![0.0; n];
    let mut w = vec![0.0; n];
    let mut beta_prev = 0.0f64;

    for _ in 0..steps {
        laplacian_matvec(g, &q, &mut w);
        let alpha: f64 = q.iter().zip(&w).map(|(a, b)| a * b).sum();
        for v in 0..n {
            w[v] -= alpha * q[v] + beta_prev * q_prev[v];
        }
        // Full reorthogonalization (against ones and the basis) keeps the
        // small problem numerically clean.
        project_out_ones(&mut w);
        for b in &basis {
            let dot: f64 = w.iter().zip(b).map(|(a, c)| a * c).sum();
            for v in 0..n {
                w[v] -= dot * b[v];
            }
        }
        alphas.push(alpha);
        basis.push(q.clone());
        let beta = w.iter().map(|v| v * v).sum::<f64>().sqrt();
        if beta < 1e-12 {
            break; // invariant subspace found — exact Ritz values
        }
        betas.push(beta);
        q_prev.clone_from(&q);
        for v in 0..n {
            q[v] = w[v] / beta;
        }
        beta_prev = beta;
    }

    let k = alphas.len();
    if k == 0 {
        return Err(SpectralError::NoConvergence {
            method: "lanczos",
            iterations: 0,
        });
    }
    betas.truncate(k.saturating_sub(1));

    // Smallest Ritz value by Sturm bisection.
    let lambda = tridiag_smallest_eig(&alphas, &betas, tolerance);
    // Ritz vector: eigenvector of T by inverse-iteration-free recurrence
    // with a tiny shift for numerical safety.
    let w_t = tridiag_eigvec(&alphas, &betas, lambda);
    // Residual check: ‖T w - λ w‖ must be small, else report failure
    // (this is where hub-dominated small-world spectra break down).
    let mut resid = 0.0f64;
    for i in 0..k {
        let mut t = alphas[i] * w_t[i] - lambda * w_t[i];
        if i > 0 {
            t += betas[i - 1] * w_t[i - 1];
        }
        if i + 1 < k {
            t += betas[i] * w_t[i + 1];
        }
        resid += t * t;
    }
    if resid.sqrt() > 3e-3 {
        return Err(SpectralError::NoConvergence {
            method: "lanczos",
            iterations: k,
        });
    }

    let mut fiedler = vec![0.0; n];
    for (i, b) in basis.iter().enumerate() {
        for v in 0..n {
            fiedler[v] += w_t[i] * b[v];
        }
    }
    project_out_ones(&mut fiedler);
    if normalize(&mut fiedler) == 0.0 {
        return Err(SpectralError::NoConvergence {
            method: "lanczos",
            iterations: k,
        });
    }
    Ok(fiedler)
}

/// Number of eigenvalues of the tridiagonal `(alphas, betas)` below `x`
/// (Sturm sequence count).
fn sturm_count(alphas: &[f64], betas: &[f64], x: f64) -> usize {
    let mut count = 0usize;
    let mut d = 1.0f64;
    for i in 0..alphas.len() {
        let b2 = if i > 0 {
            betas[i - 1] * betas[i - 1]
        } else {
            0.0
        };
        d = alphas[i]
            - x
            - b2 / if d.abs() < 1e-300 {
                1e-300f64.copysign(d)
            } else {
                d
            };
        if d < 0.0 {
            count += 1;
        }
    }
    count
}

fn tridiag_smallest_eig(alphas: &[f64], betas: &[f64], tol: f64) -> f64 {
    // Gershgorin bounds.
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for i in 0..alphas.len() {
        let mut r = 0.0;
        if i > 0 {
            r += betas[i - 1].abs();
        }
        if i < betas.len() {
            r += betas[i].abs();
        }
        lo = lo.min(alphas[i] - r);
        hi = hi.max(alphas[i] + r);
    }
    let (mut lo, mut hi) = (lo, hi);
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if sturm_count(alphas, betas, mid) >= 1 {
            hi = mid;
        } else {
            lo = mid;
        }
        if hi - lo <= tol * hi.abs().max(1.0) {
            break;
        }
    }
    0.5 * (lo + hi)
}

/// Eigenvector of the tridiagonal `(alphas, betas)` for eigenvalue
/// `lambda`, by two rounds of inverse iteration with a partially pivoted
/// tridiagonal LU solve (the forward three-term recurrence is
/// exponentially unstable for long recurrences).
fn tridiag_eigvec(alphas: &[f64], betas: &[f64], lambda: f64) -> Vec<f64> {
    let k = alphas.len();
    // Small shift keeps (T - λI) invertible at machine precision.
    let shift = lambda - 1e-10 * lambda.abs().max(1.0);
    let mut w = vec![1.0 / (k as f64).sqrt(); k];
    for _ in 0..2 {
        w = tridiag_solve_shifted(alphas, betas, shift, &w);
        let norm = w.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 || !norm.is_finite() {
            // Degenerate solve; fall back to the unnormalized iterate.
            return vec![1.0 / (k as f64).sqrt(); k];
        }
        for v in w.iter_mut() {
            *v /= norm;
        }
    }
    w
}

/// Solve `(T - shift·I) x = b` for tridiagonal `T` by Gaussian
/// elimination with partial pivoting (introduces one extra superdiagonal
/// of fill-in).
fn tridiag_solve_shifted(alphas: &[f64], betas: &[f64], shift: f64, b: &[f64]) -> Vec<f64> {
    let k = alphas.len();
    // Band storage: sub[i] (row i, col i-1), diag[i], sup1[i] (col i+1),
    // sup2[i] (col i+2, fill-in).
    let mut sub: Vec<f64> = (0..k)
        .map(|i| if i > 0 { betas[i - 1] } else { 0.0 })
        .collect();
    let mut diag: Vec<f64> = alphas.iter().map(|&a| a - shift).collect();
    let mut sup1: Vec<f64> = (0..k)
        .map(|i| if i + 1 < k { betas[i] } else { 0.0 })
        .collect();
    let mut sup2 = vec![0.0f64; k];
    let mut rhs = b.to_vec();

    for i in 0..k - 1 {
        if sub[i + 1].abs() > diag[i].abs() {
            // Pivot: swap row i and i+1.
            let (a, b2) = diag.split_at_mut(i + 1);
            std::mem::swap(&mut a[i], &mut sub[i + 1]);
            // careful: after swap, diag[i] holds old sub[i+1]; we must
            // also swap the remaining row entries.
            std::mem::swap(&mut sup1[i], &mut b2[0]);
            if i + 2 < k {
                std::mem::swap(&mut sup2[i], &mut sup1[i + 1]);
            }
            rhs.swap(i, i + 1);
        }
        let d = if diag[i].abs() < 1e-300 {
            1e-300f64.copysign(diag[i])
        } else {
            diag[i]
        };
        let factor = sub[i + 1] / d;
        sub[i + 1] = 0.0;
        diag[i + 1] -= factor * sup1[i];
        if i + 2 < k {
            sup1[i + 1] -= factor * sup2[i];
        }
        rhs[i + 1] -= factor * rhs[i];
    }

    // Back substitution.
    let mut x = vec![0.0f64; k];
    for i in (0..k).rev() {
        let mut acc = rhs[i];
        if i + 1 < k {
            acc -= sup1[i] * x[i + 1];
        }
        if i + 2 < k {
            acc -= sup2[i] * x[i + 2];
        }
        let d = if diag[i].abs() < 1e-300 {
            1e-300f64.copysign(diag[i])
        } else {
            diag[i]
        };
        x[i] = acc / d;
    }
    x
}

/// Spectral recursive bisection into `cfg.parts` parts.
pub(crate) fn spectral_partition(
    g: &CsrGraph,
    cfg: &SpectralConfig,
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
        )?;
    }
    Ok(Partition {
        assignment,
        parts: cfg.parts,
    })
}

fn spectral_rb(
    g: &CsrGraph,
    vertices: &[VertexId],
    parts: usize,
    cfg: &SpectralConfig,
    seed: u64,
    next_label: &mut u32,
    out: &mut [u32],
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
    // Disconnected subgraphs have λ2 = 0 with component-indicator
    // eigenvectors, which iterative solvers cannot resolve. Handle them
    // the way production spectral partitioners do: solve the Fiedler
    // vector on the *largest* component and pack the remaining
    // components (kept whole, ordered by component) onto the low end of
    // the value axis, so the median split separates dust from one flank
    // of the giant rather than bisecting by vertex id.
    let comps = snap_kernels::connected_components(&sub.graph);
    let solve = |graph: &CsrGraph| -> Result<Vec<f64>, SpectralError> {
        match cfg.solver {
            Eigensolver::Power => fiedler_power(graph, cfg.max_iterations, cfg.tolerance, seed),
            Eigensolver::Lanczos => fiedler_lanczos(graph, cfg.max_iterations, cfg.tolerance, seed),
        }
    };
    let fiedler: Vec<f64> = if comps.count > 1 {
        let sizes = comps.sizes();
        let giant = sizes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &s)| s)
            .map(|(c, _)| c as u32)
            .expect("at least one component");
        let giant_members: Vec<VertexId> = (0..sub.graph.num_vertices() as VertexId)
            .filter(|&v| comps.comp[v as usize] == giant)
            .collect();
        let giant_fiedler = if giant_members.len() >= 2 {
            let gsub = InducedSubgraph::extract(&sub.graph, &giant_members);
            let f = solve(&gsub.graph)?;
            let mut map = std::collections::HashMap::new();
            for (local, &gv) in gsub.to_global.iter().enumerate() {
                map.insert(gv, f[local]);
            }
            map
        } else {
            std::collections::HashMap::new()
        };
        (0..sub.graph.num_vertices() as VertexId)
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
            .collect()
    } else {
        solve(&sub.graph)?
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
    spectral_rb(g, &left, kl, cfg, seed_l, next_label, out)?;
    spectral_rb(g, &right, kr, cfg, seed_r, next_label, out)?;
    Ok(())
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
        let f = fiedler_power(&g, 5_000, 1e-10, 1).unwrap();
        // Fiedler sign separates the triangles.
        assert_eq!(f[0].signum(), f[1].signum());
        assert_eq!(f[3].signum(), f[4].signum());
        assert_ne!(f[0].signum(), f[3].signum());
    }

    #[test]
    fn lanczos_fiedler_splits_barbell() {
        let g = barbell();
        let f = fiedler_lanczos(&g, 50, 1e-10, 1).unwrap();
        assert_eq!(f[0].signum(), f[1].signum());
        assert_ne!(f[0].signum(), f[3].signum());
    }

    #[test]
    fn power_and_lanczos_agree_on_path() {
        let g = from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]);
        let a = fiedler_power(&g, 20_000, 1e-12, 3).unwrap();
        let b = fiedler_lanczos(&g, 50, 1e-12, 3).unwrap();
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
        let p = spectral_partition(&g, &SpectralConfig::rqi(4, 7)).unwrap();
        p.validate().unwrap();
        assert!(imbalance(&p, None) < 1.10);
        assert!(edge_cut(&g, &p) <= 40, "cut {}", edge_cut(&g, &p));
    }

    #[test]
    fn tiny_budget_reports_no_convergence() {
        let g = barbell();
        let err = fiedler_power(&g, 1, 1e-14, 0).unwrap_err();
        assert!(matches!(
            err,
            SpectralError::NoConvergence {
                method: "power",
                ..
            }
        ));
    }

    #[test]
    fn sturm_count_on_known_matrix() {
        // T = [[2,1],[1,2]] has eigenvalues 1 and 3.
        let alphas = [2.0, 2.0];
        let betas = [1.0];
        assert_eq!(sturm_count(&alphas, &betas, 0.5), 0);
        assert_eq!(sturm_count(&alphas, &betas, 2.0), 1);
        assert_eq!(sturm_count(&alphas, &betas, 3.5), 2);
        let smallest = tridiag_smallest_eig(&alphas, &betas, 1e-12);
        assert!((smallest - 1.0).abs() < 1e-9);
    }
}

//! The one symmetric eigensolver: a Lanczos process on the complement of
//! the all-ones vector, with the smallest Ritz pair of its tridiagonal
//! matrix found by Sturm-sequence bisection and inverse iteration.
//!
//! Two callers share it. Spectral bisection (`snap-partition`, Table 1's
//! "chaco-lan") passes the graph Laplacian `L = D − A`, whose smallest
//! eigenpair off the constant vector is the Fiedler pair. Spectral
//! modularity (`snap-community`) passes `−B^(S)`, the negated generalized
//! modularity matrix of one community: its rows sum to zero too, so its
//! smallest eigenpair off the constant vector is the leading eigenpair of
//! `B^(S)`, with no shift.
//!
//! The caller owns the operator (a matvec closure) and the start vector,
//! so the solver needs neither a graph nor a random source. The matvec
//! may refuse (a budget that tripped), which stops the process at once.

use snap_budget::Exhausted;

/// The tridiagonal Ritz problem was not solved to the residual bound,
/// the start vector had no component off the constant vector, or the
/// matvec refused a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NoConvergence {
    /// Lanczos steps taken.
    pub steps: usize,
}

/// The smallest eigenpair `(λ, x)` of the symmetric operator `matvec`
/// (`y = M x`) on the complement of the all-ones vector, by at most
/// `max_steps` Lanczos steps from `start`, with the Ritz value bisected
/// to relative tolerance `tol`. `x` is unit length and orthogonal to the
/// all-ones vector; `M` must map that complement into itself (zero row
/// sums). Full reorthogonalization keeps the basis clean, so a run of
/// `len − 1` steps is exact. A matvec that returns `Err` ends the solve
/// with [`NoConvergence`].
pub fn smallest_eigenpair(
    mut matvec: impl FnMut(&[f64], &mut [f64]) -> Result<(), Exhausted>,
    start: Vec<f64>,
    max_steps: usize,
    tol: f64,
) -> Result<(f64, Vec<f64>), NoConvergence> {
    let n = start.len();
    let steps = max_steps.min(n.saturating_sub(1)).max(1);

    let mut alphas: Vec<f64> = Vec::with_capacity(steps);
    let mut betas: Vec<f64> = Vec::with_capacity(steps);
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(steps);

    let mut q = start;
    project_out_ones(&mut q);
    if normalize(&mut q) == 0.0 {
        return Err(NoConvergence { steps: 0 });
    }
    let mut q_prev = vec![0.0; n];
    let mut w = vec![0.0; n];
    let mut beta_prev = 0.0f64;

    for _ in 0..steps {
        if matvec(&q, &mut w).is_err() {
            return Err(NoConvergence {
                steps: alphas.len(),
            });
        }
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
    betas.truncate(k - 1);

    // Smallest Ritz value by Sturm bisection.
    let lambda = tridiag_smallest_eig(&alphas, &betas, tol);
    // Ritz vector: eigenvector of T by inverse iteration.
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
        return Err(NoConvergence { steps: k });
    }

    let mut x = vec![0.0; n];
    for (i, b) in basis.iter().enumerate() {
        for v in 0..n {
            x[v] += w_t[i] * b[v];
        }
    }
    project_out_ones(&mut x);
    if normalize(&mut x) == 0.0 {
        return Err(NoConvergence { steps: k });
    }
    Ok((lambda, x))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `y = L x` for the path 0 – 1 – … – (n−1).
    fn path_laplacian(x: &[f64], y: &mut [f64]) -> Result<(), Exhausted> {
        let n = x.len();
        for v in 0..n {
            let mut acc = 0.0;
            if v > 0 {
                acc += x[v] - x[v - 1];
            }
            if v + 1 < n {
                acc += x[v] - x[v + 1];
            }
            y[v] = acc;
        }
        Ok(())
    }

    /// The indicator of vertex 0, which overlaps every eigenvector of
    /// the path, so the Krylov space fills the complement of ones.
    fn start(n: usize) -> Vec<f64> {
        let mut x = vec![0.0; n];
        x[0] = 1.0;
        x
    }

    #[test]
    fn path_fiedler_pair() {
        // The path's Laplacian spectrum is 2 − 2cos(πk/n); its Fiedler
        // vector is monotone along the path.
        let n = 8;
        let (lambda, x) = smallest_eigenpair(path_laplacian, start(n), 50, 1e-12).unwrap();
        let exact = 2.0 - 2.0 * (std::f64::consts::PI / n as f64).cos();
        assert!((lambda - exact).abs() < 1e-9, "λ {lambda} vs {exact}");
        assert!(x
            .windows(2)
            .all(|p| (p[1] - p[0]) * (x[n - 1] - x[0]) > 0.0));
        assert!(x.iter().sum::<f64>().abs() < 1e-12);
        assert!((x.iter().map(|v| v * v).sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_convergence_is_reported() {
        // A constant start vector has nothing off the all-ones vector.
        let err = smallest_eigenpair(path_laplacian, vec![1.0; 8], 50, 1e-12).unwrap_err();
        assert_eq!(err, NoConvergence { steps: 0 });
        // A tolerance of 1 stops the bisection after one halving of the
        // Gershgorin interval, so the Ritz value misses the spectrum and
        // the tridiagonal residual check fails after all seven steps.
        let err = smallest_eigenpair(path_laplacian, start(8), 50, 1.0).unwrap_err();
        assert_eq!(err, NoConvergence { steps: 7 });
    }

    #[test]
    fn a_refused_matvec_stops_the_solve() {
        let mut calls = 0;
        let refuse_third = |x: &[f64], y: &mut [f64]| {
            calls += 1;
            if calls == 3 {
                return Err(Exhausted::Deadline);
            }
            path_laplacian(x, y)
        };
        let err = smallest_eigenpair(refuse_third, start(8), 50, 1e-12).unwrap_err();
        assert_eq!(err, NoConvergence { steps: 2 });
        assert_eq!(calls, 3);
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

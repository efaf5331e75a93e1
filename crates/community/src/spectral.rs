//! Spectral modularity maximization (Newman, PNAS 2006) — the paper's
//! stated ongoing work: "our current focus is on support for spectral
//! analysis of small-world networks, and efficient parallel
//! implementations of spectral algorithms that optimize modularity."
//!
//! The method recursively splits communities along the sign of the
//! leading eigenvector of the (generalized) modularity matrix
//! `B_ij = A_ij − d_i d_j / 2m`, with a Kernighan–Lin-style fine-tuning
//! sweep after each split, stopping when no split increases modularity.
//! `B` is never materialized: the matvec needs one adjacency scan plus
//! two dot products (`O(m + n)`), parallelized with rayon.

use crate::clustering::Clustering;
use crate::modularity::modularity;
use rand::Rng;
use rand::SeedableRng;
use rayon::prelude::*;
use snap_graph::{CsrGraph, Graph, VertexId};

/// Power-iteration budget per split attempt.
const MAX_ITERATIONS: usize = 400;

/// Relative eigenvalue tolerance.
const TOLERANCE: f64 = 1e-9;

/// Run the KL-style fine-tuning sweep after each spectral split.
const FINE_TUNE: bool = true;

/// RNG seed for start vectors.
const SEED: u64 = 0x59ec;

/// Result of a spectral community run.
#[derive(Clone, Debug)]
pub struct SpectralCommunityResult {
    /// The detected communities.
    pub clustering: Clustering,
    /// Modularity of the clustering.
    pub q: f64,
    /// Number of successful splits performed.
    pub splits: usize,
}

/// Why a split attempt found no split.
#[derive(Debug)]
enum NoSplit {
    /// The community is indivisible: spectrally, or because the refined
    /// split gains nothing.
    Indivisible,
    /// The power iteration ran out of steps before it converged.
    Unconverged,
}

/// Detect communities by recursive leading-eigenvector splitting. A
/// community whose split attempt ran out of power-iteration steps is kept
/// whole, and counted as `unconverged` on the `community.spectral` span,
/// which then carries the `degraded` meta.
pub fn spectral_communities(g: &CsrGraph) -> SpectralCommunityResult {
    let _span = snap_obs::span("community.spectral");
    let n = g.num_vertices();
    let m2 = 2.0 * g.num_edges() as f64; // 2m
    if n == 0 || g.num_edges() == 0 {
        return SpectralCommunityResult {
            clustering: Clustering::singletons(n),
            q: 0.0,
            splits: 0,
        };
    }
    let deg: Vec<f64> = (0..n as VertexId).map(|v| g.degree(v) as f64).collect();

    let mut labels = vec![0u32; n];
    let mut next_label = 1u32;
    let (mut splits, mut unconverged) = (0usize, 0u64);
    // Work queue of communities to attempt splitting.
    let mut queue: Vec<Vec<VertexId>> = vec![(0..n as VertexId).collect()];

    while let Some(members) = queue.pop() {
        if members.len() < 2 {
            continue;
        }
        let signs = match split(g, &deg, m2, &members, FINE_TUNE) {
            Ok(signs) => signs,
            Err(NoSplit::Indivisible) => continue,
            Err(NoSplit::Unconverged) => {
                unconverged += 1;
                continue;
            }
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (i, &v) in members.iter().enumerate() {
            if signs[i] {
                a.push(v);
            } else {
                b.push(v);
            }
        }
        if a.is_empty() || b.is_empty() {
            continue;
        }
        splits += 1;
        let new = next_label;
        next_label += 1;
        for &v in &b {
            labels[v as usize] = new;
        }
        queue.push(a);
        queue.push(b);
    }

    snap_obs::add("splits", splits as u64);
    snap_obs::add("unconverged", unconverged);
    if unconverged > 0 {
        snap_obs::meta(
            "degraded",
            format!("{unconverged} split attempts ran out of power-iteration steps"),
        );
    }
    let clustering = Clustering::from_labels(&labels);
    let q = modularity(g, &clustering);
    SpectralCommunityResult {
        clustering,
        q,
        splits,
    }
}

/// One split attempt on `members`: the sign vector of the leading
/// eigenvector, fine-tuned when `fine_tune` is set.
fn split(
    g: &CsrGraph,
    deg: &[f64],
    m2: f64,
    members: &[VertexId],
    fine_tune: bool,
) -> Result<Vec<bool>, NoSplit> {
    let mut signs = leading_split(g, deg, m2, members)?;
    if fine_tune {
        self::fine_tune(g, deg, m2, members, &mut signs);
    }
    if split_gain(g, deg, m2, members, &signs) > 1e-12 {
        Ok(signs)
    } else {
        Err(NoSplit::Indivisible)
    }
}

/// `y = (B^(S) + σI) x` for the generalized modularity matrix of the
/// subset, where `local_of` maps global→local indices.
#[allow(clippy::too_many_arguments)]
fn modularity_matvec(
    g: &CsrGraph,
    deg: &[f64],
    m2: f64,
    members: &[VertexId],
    local_of: &std::collections::HashMap<VertexId, usize>,
    rowsum: &[f64],
    sigma: f64,
    x: &[f64],
    y: &mut [f64],
) {
    let dsum: f64 = members
        .iter()
        .enumerate()
        .map(|(i, &v)| deg[v as usize] * x[i])
        .sum();
    y.par_iter_mut().enumerate().for_each(|(i, yi)| {
        let v = members[i];
        let mut adj = 0.0;
        for u in g.neighbor_slice(v) {
            if let Some(&j) = local_of.get(u) {
                adj += x[j];
            }
        }
        *yi = adj - deg[v as usize] * dsum / m2 - rowsum[i] * x[i] + sigma * x[i];
    });
}

/// Attempt a spectral split of `members`; returns the sign vector of the
/// leading eigenvector, [`NoSplit::Indivisible`] when the leading
/// eigenvalue is non-positive, or [`NoSplit::Unconverged`] when the
/// iteration runs out of steps.
fn leading_split(
    g: &CsrGraph,
    deg: &[f64],
    m2: f64,
    members: &[VertexId],
) -> Result<Vec<bool>, NoSplit> {
    let k = members.len();
    let local_of: std::collections::HashMap<VertexId, usize> =
        members.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    // Row sums of B restricted to S (the generalized-matrix correction).
    let d_s: f64 = members.iter().map(|&v| deg[v as usize]).sum();
    let rowsum: Vec<f64> = members
        .iter()
        .map(|&v| {
            let deg_in_s = g
                .neighbor_slice(v)
                .iter()
                .filter(|u| local_of.contains_key(u))
                .count() as f64;
            deg_in_s - deg[v as usize] * d_s / m2
        })
        .collect();
    // Shift so the leading eigenvalue of B + σI is dominant in magnitude:
    // σ = max row absolute sum bound of -B (degrees suffice).
    let sigma = members.iter().map(|&v| deg[v as usize]).fold(0.0, f64::max) * 2.0 + 1.0;

    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED ^ (k as u64) << 1);
    let mut x: Vec<f64> = (0..k).map(|_| rng.gen::<f64>() - 0.5).collect();
    normalize(&mut x).ok_or(NoSplit::Indivisible)?;
    let mut y = vec![0.0; k];
    let mut lambda_shifted = 0.0;
    let mut converged = false;
    for _ in 0..MAX_ITERATIONS {
        modularity_matvec(g, deg, m2, members, &local_of, &rowsum, sigma, &x, &mut y);
        let norm = y.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm == 0.0 {
            return Err(NoSplit::Indivisible);
        }
        for v in y.iter_mut() {
            *v /= norm;
        }
        std::mem::swap(&mut x, &mut y);
        let new_lambda = norm;
        if (new_lambda - lambda_shifted).abs() <= TOLERANCE * new_lambda.abs().max(1e-30) {
            converged = true;
            lambda_shifted = new_lambda;
            break;
        }
        lambda_shifted = new_lambda;
    }
    if !converged {
        return Err(NoSplit::Unconverged);
    }
    // Leading eigenvalue of B^(S) itself.
    let lambda = lambda_shifted - sigma;
    if lambda <= 1e-12 {
        return Err(NoSplit::Indivisible);
    }
    Ok(x.iter().map(|&v| v >= 0.0).collect())
}

fn normalize(x: &mut [f64]) -> Option<()> {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm == 0.0 {
        return None;
    }
    for v in x.iter_mut() {
        *v /= norm;
    }
    Some(())
}

/// ΔQ of splitting `members` along `signs`:
/// `ΔQ = (1/2m) [ Σ_within-same-side B_ij ... ]` evaluated directly as
/// `sᵀ B^(S) s / (2·2m)` with `s ∈ {±1}`.
fn split_gain(g: &CsrGraph, deg: &[f64], m2: f64, members: &[VertexId], signs: &[bool]) -> f64 {
    let local_of: std::collections::HashMap<VertexId, usize> =
        members.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let s = |i: usize| if signs[i] { 1.0 } else { -1.0 };
    let d_s: f64 = members.iter().map(|&v| deg[v as usize]).sum();
    // sᵀ A^(S) s
    let mut sas = 0.0;
    for (i, &v) in members.iter().enumerate() {
        for u in g.neighbor_slice(v) {
            if let Some(&j) = local_of.get(u) {
                sas += s(i) * s(j);
            }
        }
    }
    // sᵀ (d dᵀ/2m) s
    let sd: f64 = members
        .iter()
        .enumerate()
        .map(|(i, &v)| deg[v as usize] * s(i))
        .sum();
    // Generalized correction: Σ_i rowsum_i (s_i² − s_i·s_i) vanishes for
    // ±1 vectors against the diagonal only through the constant shift;
    // B^(S) = B − diag(rowsum), and s_i² = 1, so subtract Σ rowsum.
    let rowsum_total: f64 = members
        .iter()
        .map(|&v| {
            let deg_in_s = g
                .neighbor_slice(v)
                .iter()
                .filter(|u| local_of.contains_key(u))
                .count() as f64;
            deg_in_s - deg[v as usize] * d_s / m2
        })
        .sum();
    let stbs = sas - sd * sd / m2 - rowsum_total;
    stbs / (2.0 * m2)
}

/// Newman's fine-tuning: greedily flip single vertices across the split
/// while ΔQ improves — one FM-style pass with rollback to the best
/// prefix, with flip gains maintained incrementally in O(deg) per flip.
///
/// For `s ∈ {±1}`, flipping vertex i changes `sᵀ B^(S) s` by
/// `−4 s_i w_i` with `w_i = (A^(S) s)_i − d_i (d·s)/2m + d_i² s_i / 2m`
/// (the last term removes B's diagonal, which is invariant under flips).
fn fine_tune(g: &CsrGraph, deg: &[f64], m2: f64, members: &[VertexId], signs: &mut [bool]) {
    let k = members.len();
    let local_of: std::collections::HashMap<VertexId, usize> =
        members.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let s_val = |signs: &[bool], i: usize| if signs[i] { 1.0 } else { -1.0 };

    // adj_s[i] = Σ_{j∈S, j~i} s_j ; dsum = Σ_{j∈S} d_j s_j.
    let mut adj_s: Vec<f64> = members
        .iter()
        .map(|&v| {
            g.neighbor_slice(v)
                .iter()
                .filter_map(|u| local_of.get(u))
                .map(|&j| s_val(signs, j))
                .sum()
        })
        .collect();
    let mut dsum: f64 = members
        .iter()
        .enumerate()
        .map(|(i, &v)| deg[v as usize] * s_val(signs, i))
        .sum();

    let mut moved = vec![false; k];
    let mut gain_running = 0.0;
    let mut best_gain = 0.0;
    let mut best_prefix = 0usize;
    let mut sequence: Vec<usize> = Vec::new();
    let max_moves = k.min(64);

    for _ in 0..max_moves {
        // Best unmoved flip by the incremental gain formula.
        let mut best: Option<(usize, f64)> = None;
        for i in 0..k {
            if moved[i] {
                continue;
            }
            let d_i = deg[members[i] as usize];
            let s_i = s_val(signs, i);
            let w = adj_s[i] - d_i * dsum / m2 + d_i * d_i * s_i / m2;
            let delta = -4.0 * s_i * w; // change in sᵀBs
            match best {
                Some((_, bd)) if bd >= delta => {}
                _ => best = Some((i, delta)),
            }
        }
        let Some((i, delta)) = best else { break };
        // Apply the flip and update the incremental state.
        let old_s = s_val(signs, i);
        signs[i] = !signs[i];
        moved[i] = true;
        let new_s = -old_s;
        dsum += deg[members[i] as usize] * (new_s - old_s);
        for u in g.neighbor_slice(members[i]) {
            if let Some(&j) = local_of.get(u) {
                adj_s[j] += new_s - old_s;
            }
        }
        gain_running += delta / (2.0 * m2); // convert to ΔQ units
        sequence.push(i);
        if gain_running > best_gain {
            best_gain = gain_running;
            best_prefix = sequence.len();
        }
    }
    // Roll back past the best prefix (state arrays are scratch; only the
    // signs matter to the caller).
    for &i in &sequence[best_prefix..] {
        signs[i] = !signs[i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    fn barbell() -> CsrGraph {
        from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    }

    #[test]
    fn splits_barbell() {
        let g = barbell();
        let r = spectral_communities(&g);
        assert_eq!(r.clustering.count, 2);
        assert_eq!(r.clustering.cluster_of(0), r.clustering.cluster_of(2));
        assert_ne!(r.clustering.cluster_of(0), r.clustering.cluster_of(3));
        assert!(r.q > 0.3);
        assert_eq!(r.splits, 1);
    }

    #[test]
    fn karate_quality() {
        let g = snap_io::karate_club();
        let r = spectral_communities(&g);
        // Newman reports ~0.393 for the leading-eigenvector method with
        // fine-tuning on the karate club.
        assert!(r.q > 0.35, "karate spectral q = {}", r.q);
        assert!((r.q - modularity(&g, &r.clustering)).abs() < 1e-12);
    }

    #[test]
    fn clique_is_indivisible() {
        let mut edges = Vec::new();
        for u in 0..6u32 {
            for v in u + 1..6 {
                edges.push((u, v));
            }
        }
        let g = from_edges(6, &edges);
        let r = spectral_communities(&g);
        assert_eq!(r.clustering.count, 1);
        assert_eq!(r.splits, 0);
    }

    #[test]
    fn recovers_planted_partition() {
        let cfg = snap_gen::PlantedConfig::uniform(4, 20, 0.5, 0.02);
        let (g, truth) = snap_gen::planted_partition(&cfg, 17);
        let r = spectral_communities(&g);
        let nmi = crate::clustering::normalized_mutual_information(
            &r.clustering,
            &Clustering::from_labels(&truth),
        );
        assert!(nmi > 0.6, "nmi = {nmi}, q = {}", r.q);
    }

    #[test]
    fn edgeless_graph() {
        let g = from_edges(4, &[]);
        let r = spectral_communities(&g);
        assert_eq!(r.clustering.count, 4);
        assert_eq!(r.q, 0.0);
    }

    #[test]
    fn fine_tune_does_not_hurt() {
        // `spectral_communities` always fine-tunes (`FINE_TUNE`); compare
        // the first split of the karate club with and without the sweep.
        let g = snap_io::karate_club();
        let n = g.num_vertices();
        let deg: Vec<f64> = (0..n as VertexId).map(|v| g.degree(v) as f64).collect();
        let m2 = 2.0 * g.num_edges() as f64;
        let members: Vec<VertexId> = (0..n as VertexId).collect();
        let gain = |fine_tune| {
            let signs = split(&g, &deg, m2, &members, fine_tune).expect("karate splits");
            split_gain(&g, &deg, m2, &members, &signs)
        };
        let (raw, ft) = (gain(false), gain(true));
        assert!(ft >= raw - 1e-12, "ft {ft} vs raw {raw}");
    }
}

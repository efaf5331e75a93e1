//! Spectral modularity maximization (Newman, PNAS 2006) — the paper's
//! stated ongoing work: "our current focus is on support for spectral
//! analysis of small-world networks, and efficient parallel
//! implementations of spectral algorithms that optimize modularity."
//!
//! The method recursively splits communities along the sign of the
//! leading eigenvector of the generalized modularity matrix
//! `B^(S)_ij = A_ij − d_i d_j / 2m − δ_ij Σ_{l∈S} B_il`, with a
//! Kernighan–Lin-style fine-tuning sweep after each split, stopping when
//! no split increases modularity. `B^(S)` has zero row sums, so its
//! leading eigenpair is the smallest eigenpair of `−B^(S)` off the
//! all-ones vector: the Lanczos solver of [`snap_kernels::lanczos`] that
//! spectral bisection uses, handed the negated matvec, with no shift.
//! Each split attempt extracts its community once
//! ([`InducedSubgraph::extract`]); `B^(S)` is never materialized: the
//! matvec is one scan of the community's adjacency plus one dot product
//! (`O(m_S + n_S)`), parallel over rows.

use crate::clustering::Clustering;
use crate::modularity::modularity;
use rand::Rng;
use rand::SeedableRng;
use rayon::prelude::*;
use snap_graph::{CsrGraph, Graph, InducedSubgraph, VertexId};
use snap_kernels::Exec;

/// Lanczos step cap per split attempt (Table 1's Lanczos preset).
const LANCZOS_STEPS: usize = 300;

/// Relative tolerance of the Ritz-value bisection.
const LANCZOS_TOLERANCE: f64 = 1e-8;

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
    /// The eigensolver found no eigenpair.
    Unconverged,
}

/// Detect communities by recursive leading-eigenvector splitting, with
/// an unlimited budget.
pub fn spectral_communities(g: &CsrGraph) -> SpectralCommunityResult {
    spectral_communities_in(g, &Exec::default())
}

/// Detect communities by recursive leading-eigenvector splitting under
/// `exec`'s compute budget, charged one unit per matvec: a split attempt
/// pays for its Lanczos steps before it runs, and probes the deadline.
/// When the budget runs out, the communities still queued stay whole and
/// the `community.spectral` span carries the `degraded` meta, as pMA's
/// does. A split attempt whose eigensolve fails also keeps its community
/// whole, counted as `unconverged` (and `degraded`).
pub fn spectral_communities_in(g: &CsrGraph, exec: &Exec) -> SpectralCommunityResult {
    let _span = snap_obs::span("community.spectral");
    let budget = &exec.budget;
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
        let matvecs = LANCZOS_STEPS.min(members.len() - 1) as u64;
        if let Err(why) = budget.charge(matvecs).and_then(|()| budget.check()) {
            snap_obs::meta("degraded", why);
            snap_obs::add("budget_cancellations", 1);
            break; // every queued community keeps its label: a valid clustering
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
            format!("{unconverged} split attempts found no eigenpair"),
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

/// One split attempt on `members` of `g`: the sign vector of the leading
/// eigenvector, fine-tuned when `fine_tune` is set. The helpers below
/// take the community as `s`, the subgraph induced by `members` (local
/// vertex `i` is `members[i]`), with `deg` and `m2` the whole graph's
/// degrees and twice its edge count; a whole graph is its own `s` over
/// `0..n`.
fn split(
    g: &CsrGraph,
    deg: &[f64],
    m2: f64,
    members: &[VertexId],
    fine_tune: bool,
) -> Result<Vec<bool>, NoSplit> {
    let s = InducedSubgraph::extract(g, members).graph;
    let mut signs = leading_split(&s, deg, m2, members)?;
    if fine_tune {
        self::fine_tune(&s, deg, m2, members, &mut signs);
    }
    if split_gain(&s, deg, m2, members, &signs) > 1e-12 {
        Ok(signs)
    } else {
        Err(NoSplit::Indivisible)
    }
}

/// The sign vector of the leading eigenvector of `B^(S)`,
/// [`NoSplit::Indivisible`] when its eigenvalue is not positive, or
/// [`NoSplit::Unconverged`] when the eigensolver fails.
fn leading_split(
    s: &CsrGraph,
    deg: &[f64],
    m2: f64,
    members: &[VertexId],
) -> Result<Vec<bool>, NoSplit> {
    let k = members.len();
    let d: Vec<f64> = members.iter().map(|&v| deg[v as usize]).collect();
    let d_s: f64 = d.iter().sum();
    // `y = −B^(S) x`; row i of `B^(S)` sums to zero once the diagonal
    // carries `−(k_i^(S) − d_i d_S / 2m)`.
    let matvec = |x: &[f64], y: &mut [f64]| {
        let dx: f64 = d.iter().zip(x).map(|(a, b)| a * b).sum();
        y.par_iter_mut().enumerate().for_each(|(i, yi)| {
            let v = i as VertexId;
            let adj: f64 = s.neighbor_slice(v).iter().map(|&j| x[j as usize]).sum();
            let rowsum = s.degree(v) as f64 - d[i] * d_s / m2;
            *yi = rowsum * x[i] - adj + d[i] * dx / m2;
        });
        Ok(())
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(SEED ^ (k as u64) << 1);
    let start = (0..k).map(|_| rng.gen::<f64>() - 0.5).collect();
    let (lambda, x) =
        snap_kernels::smallest_eigenpair(matvec, start, LANCZOS_STEPS, LANCZOS_TOLERANCE)
            .map_err(|_| NoSplit::Unconverged)?;
    // `−λ` is the leading eigenvalue of `B^(S)` itself.
    if -lambda <= 1e-12 {
        return Err(NoSplit::Indivisible);
    }
    Ok(x.iter().map(|&v| v >= 0.0).collect())
}

/// ΔQ of splitting the community along `signs`: `sᵀ B^(S) s / (2·2m)`
/// with `s ∈ {±1}`.
fn split_gain(s: &CsrGraph, deg: &[f64], m2: f64, members: &[VertexId], signs: &[bool]) -> f64 {
    let sign = |i: usize| if signs[i] { 1.0 } else { -1.0 };
    // sᵀ A^(S) s
    let mut sas = 0.0;
    for i in 0..members.len() {
        for &j in s.neighbor_slice(i as VertexId) {
            sas += sign(i) * sign(j as usize);
        }
    }
    // sᵀ (d dᵀ/2m) s
    let sd: f64 = members
        .iter()
        .enumerate()
        .map(|(i, &v)| deg[v as usize] * sign(i))
        .sum();
    // B^(S) = B − diag(rowsum) and s_i² = 1, so the diagonal costs
    // Σ rowsum = 2m_S − d_S² / 2m.
    let d_s: f64 = members.iter().map(|&v| deg[v as usize]).sum();
    let rowsum_total = 2.0 * s.num_edges() as f64 - d_s * d_s / m2;
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
fn fine_tune(s: &CsrGraph, deg: &[f64], m2: f64, members: &[VertexId], signs: &mut [bool]) {
    let k = members.len();
    let s_val = |signs: &[bool], i: usize| if signs[i] { 1.0 } else { -1.0 };

    // adj_s[i] = Σ_{j∈S, j~i} s_j ; dsum = Σ_{j∈S} d_j s_j.
    let mut adj_s: Vec<f64> = (0..k as VertexId)
        .map(|i| {
            s.neighbor_slice(i)
                .iter()
                .map(|&j| s_val(signs, j as usize))
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
        for &j in s.neighbor_slice(i as VertexId) {
            adj_s[j as usize] += new_s - old_s;
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

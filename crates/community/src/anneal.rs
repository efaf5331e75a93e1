//! Simulated-annealing modularity maximization — the expensive reference
//! optimizer standing in for the paper's "best known" column of Table 2
//! (obtained there by exhaustive search, extremal optimization, or
//! simulated annealing; all far too costly for large graphs).
//!
//! Warm-starts from the pMA greedy solution, then anneals single-vertex
//! moves (to a neighboring community or a fresh singleton) under a
//! geometric cooling schedule.

use crate::clustering::Clustering;
use crate::modularity::modularity;
use crate::pma::{pma, PmaConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use snap_graph::{CsrGraph, Graph, VertexId};

/// Initial temperature.
const T0: f64 = 2.5e-3;

/// Geometric cooling factor per sweep.
const COOLING: f64 = 0.975;

/// Configuration for [`anneal`].
#[derive(Clone, Debug)]
pub struct AnnealConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of sweeps; each sweep proposes `n` single-vertex moves.
    pub sweeps: usize,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            seed: 0xa11ea1,
            sweeps: 200,
        }
    }
}

/// Result of an annealing run.
#[derive(Clone, Debug)]
pub struct AnnealResult {
    /// Best clustering found.
    pub clustering: Clustering,
    /// Its modularity.
    pub q: f64,
}

/// Run simulated annealing on `g`: anneals from both greedy warm starts
/// (pMA and pLA) and keeps the better outcome, so the reference always
/// dominates the greedy heuristics.
pub fn anneal(g: &CsrGraph, cfg: &AnnealConfig) -> AnnealResult {
    let n = g.num_vertices();
    let m = g.num_edges() as f64;
    if n == 0 || m == 0.0 {
        return AnnealResult {
            clustering: Clustering::singletons(n),
            q: 0.0,
        };
    }
    let warm_a = pma(g, &PmaConfig::default());
    let warm_b = crate::pla::pla(g, &crate::pla::PlaConfig::default());
    let ra = anneal_from(g, &warm_a.clustering, cfg);
    let rb = anneal_from(
        g,
        &warm_b.clustering,
        &AnnealConfig {
            seed: cfg.seed.wrapping_add(1),
            ..cfg.clone()
        },
    );
    if ra.q >= rb.q {
        ra
    } else {
        rb
    }
}

/// Anneal starting from an explicit clustering.
pub fn anneal_from(g: &CsrGraph, initial: &Clustering, cfg: &AnnealConfig) -> AnnealResult {
    let n = g.num_vertices();
    let m = g.num_edges() as f64;
    if n == 0 || m == 0.0 {
        return AnnealResult {
            clustering: Clustering::singletons(n),
            q: 0.0,
        };
    }
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    let mut labels: Vec<u32> = initial.assignment.clone();
    let mut degsum = vec![0.0f64; n + 1]; // generous label space
    for v in 0..n {
        degsum[labels[v] as usize] += g.degree(v as VertexId) as f64;
    }
    let mut free_labels: Vec<u32> = (initial.count as u32..(n as u32 + 1)).collect();
    let mut q = modularity(g, initial);
    let mut best_q = q;
    let mut best_labels = labels.clone();

    let mut temp = T0;
    for _sweep in 0..cfg.sweeps {
        for _ in 0..n {
            let v = rng.gen_range(0..n) as VertexId;
            let d_v = g.degree(v) as f64;
            if d_v == 0.0 {
                continue;
            }
            let c1 = labels[v as usize];
            // Candidate: a random neighbor's community, or (rarely) a
            // fresh singleton to allow escapes.
            let c2 = if rng.gen::<f64>() < 0.05 {
                match free_labels.last() {
                    Some(&f) => f,
                    None => continue,
                }
            } else {
                let deg = g.degree(v);
                let pick = rng.gen_range(0..deg);
                let u = g.neighbor_slice(v)[pick];
                labels[u as usize]
            };
            if c2 == c1 {
                continue;
            }
            // Edges from v into c1 (minus itself) and into c2.
            let (mut e1, mut e2) = (0.0f64, 0.0f64);
            for u in g.neighbors(v) {
                let cu = labels[u as usize];
                if cu == c1 {
                    e1 += 1.0;
                } else if cu == c2 {
                    e2 += 1.0;
                }
            }
            let d1 = degsum[c1 as usize];
            let d2 = degsum[c2 as usize];
            let dq = (e2 - e1) / m - d_v * (d2 - d1 + d_v) / (2.0 * m * m);
            let accept = dq > 0.0 || rng.gen::<f64>() < (dq / temp).exp();
            if !accept {
                continue;
            }
            // Apply the move.
            if degsum[c2 as usize] == 0.0 {
                // c2 was a free label; consume it.
                if free_labels.last() == Some(&c2) {
                    free_labels.pop();
                }
            }
            labels[v as usize] = c2;
            degsum[c1 as usize] -= d_v;
            degsum[c2 as usize] += d_v;
            if degsum[c1 as usize] == 0.0 {
                free_labels.push(c1);
            }
            q += dq;
            if q > best_q {
                best_q = q;
                best_labels.clone_from(&labels);
            }
        }
        temp *= COOLING;
    }

    let clustering = Clustering::from_labels(&best_labels);
    // Re-evaluate exactly to wash out float drift from 10^5+ increments.
    let q = modularity(g, &clustering);
    AnnealResult { clustering, q }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;

    #[test]
    fn improves_or_matches_greedy_on_karate() {
        let g = snap_io::karate_club();
        let greedy = pma(&g, &PmaConfig::default());
        let annealed = anneal(
            &g,
            &AnnealConfig {
                sweeps: 120,
                ..Default::default()
            },
        );
        assert!(
            annealed.q >= greedy.q - 1e-9,
            "anneal {} < greedy {}",
            annealed.q,
            greedy.q
        );
        // Paper Table 2: best known = 0.431 for Karate.
        assert!(
            annealed.q > 0.40,
            "karate best-known stand-in q = {}",
            annealed.q
        );
    }

    #[test]
    fn splits_barbell_optimally() {
        let g = from_edges(6, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)]);
        let r = anneal(&g, &AnnealConfig::default());
        assert_eq!(r.clustering.count, 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = snap_io::karate_club();
        let a = anneal(
            &g,
            &AnnealConfig {
                sweeps: 30,
                ..Default::default()
            },
        );
        let b = anneal(
            &g,
            &AnnealConfig {
                sweeps: 30,
                ..Default::default()
            },
        );
        assert_eq!(a.clustering, b.clustering);
    }

    #[test]
    fn handles_edgeless_graph() {
        let g = from_edges(4, &[]);
        let r = anneal(&g, &AnnealConfig::default());
        assert_eq!(r.q, 0.0);
    }
}

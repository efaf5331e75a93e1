//! Random vertex permutations: the seeded source sample every sampled
//! multi-source sweep draws from (re-exported by `snap_kernels::sweep`).
//! It lives here because `snap-graph` is the one crate below all its
//! callers that links `rand`.

use crate::VertexId;

/// Draw `min(k, n)` distinct vertices uniformly at random: a seeded
/// shuffle of `0..n` truncated to `k`, so every prefix of the result is
/// itself a uniform sample — which is what keeps a multi-source sweep
/// the budget cuts short unbiased.
pub fn sample_sources(n: usize, k: usize, seed: u64) -> Vec<VertexId> {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut all: Vec<VertexId> = (0..n as VertexId).collect();
    all.shuffle(&mut rng);
    all.truncate(k.min(n));
    all
}

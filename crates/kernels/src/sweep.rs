//! The multi-source sweep: the paper's *coarse-grained* parallelization
//! (§1 items 3–4) — one traversal per worker over a list of sources,
//! private partial results, combined at the end — written once. The
//! betweenness, closeness and path-length kernels supply a per-source
//! body and a merge; chunking, scratch, the budget, the per-source
//! records and the order partials combine in are decided here.

use crate::Exec;
use rayon::prelude::*;
use snap_budget::Budget;
use snap_graph::{TraversalWorkspace, VertexId};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The source sampler every sampled sweep draws from. Defined in
/// `snap-graph`, the one crate below all its callers that links `rand`.
pub use snap_graph::perm::sample_sources;

/// Sweeps of at most this many sources run one source per work unit
/// when more than one thread takes part (see [`sweep`]).
const FEW_SOURCES: usize = 16;

/// Run `per_source` once per source, in parallel over chunks of
/// `sources`, and combine the per-chunk results with `merge`. Returns the
/// combined result (`None` when no source ran) and how many sources ran
/// before `exec`'s budget tripped.
///
/// * **Chunks** hold `sources.len().div_ceil(64).max(min_per_chunk)`
///   sources, and `merge` folds the partials left to right in chunk
///   order, so f64 sums bracket the same from 1 thread to 64: the source
///   count decides the bits. A sweep of at most 16 sources — one
///   chunk by that rule — runs one source per chunk when more than one
///   thread takes part, so a few whole traversals spread over the
///   threads. Its bits do not move: every accumulator slot receives at
///   most one addition per source, starting from +0.0, so per-source
///   partials folded left to right reproduce the one-chunk sums exactly.
///   Each chunk is its own work unit, however few there are.
///   `min_per_chunk` is 16 for BFS bodies, 1024 for Dijkstra bodies.
/// * **Scratch**: a chunk checks one workspace out of `exec.pool` at its
///   first source and `init` builds the chunk's accumulator on it; a
///   chunk the budget skips whole does neither.
/// * **Budget**: one relaxed `is_exhausted` load per source, then
///   `per_source`'s return value is charged as work units. A sweep cut
///   short is noted by [`record_skipped`].
/// * **Records**, on the caller's span, since a unit records where its
///   job was published: a `task_name` trace task and a `source_us`
///   sample per source, `sources_processed`, each checkout's workspace
///   counters (emitted as it is checked in), and `workspace_pool_peak`.
pub fn sweep<A, I, S, M>(
    exec: &Exec,
    sources: &[VertexId],
    task_name: &str,
    min_per_chunk: usize,
    init: I,
    per_source: S,
    merge: M,
) -> (Option<A>, usize)
where
    A: Send,
    I: Fn(&mut TraversalWorkspace) -> A + Sync,
    S: Fn(&mut A, VertexId, &mut TraversalWorkspace) -> u64 + Sync,
    M: Fn(A, A) -> A + Sync,
{
    let (budget, pool) = (&exec.budget, &*exec.pool);
    let used = AtomicUsize::new(0);
    let per = if sources.len() <= FEW_SOURCES && rayon::current_num_threads() > 1 {
        1
    } else {
        sources.len().div_ceil(64).max(min_per_chunk)
    };
    let merged = sources
        .par_chunks(per)
        .map(|chunk| {
            let mut state = None;
            for &s in chunk {
                if budget.is_exhausted() {
                    break;
                }
                let (ws, acc) = state.get_or_insert_with(|| {
                    let mut ws = pool.acquire();
                    let acc = init(&mut ws);
                    (ws, acc)
                });
                let _task = snap_obs::task(task_name);
                let source_us = snap_obs::hist("source_us");
                let timer = source_us.start();
                let work = per_source(acc, s, ws);
                source_us.stop_us(timer);
                snap_obs::add("sources_processed", 1);
                used.fetch_add(1, Ordering::Relaxed);
                let _ = budget.charge(work);
            }
            state.map(|(_ws, acc)| acc)
        })
        .reduce(
            || None,
            |a, b| match (a, b) {
                (Some(a), Some(b)) => Some(merge(a, b)),
                (a, b) => a.or(b),
            },
        );
    let used = used.load(Ordering::Relaxed);
    if used > 0 {
        // The pool keeps every workspace it made: the most ever out at once.
        snap_obs::gauge_max("workspace_pool_peak", pool.available() as f64);
    }
    record_skipped(budget, sources.len(), used);
    (merged, used)
}

/// Record a sweep the budget cut short — a `degraded` marker and a
/// `sources_skipped` count on the current span; nothing when every
/// requested source ran.
pub fn record_skipped(budget: &Budget, requested: usize, used: usize) {
    if used < requested {
        if let Some(why) = budget.exhaustion() {
            snap_obs::meta("degraded", why);
        }
        snap_obs::add("sources_skipped", (requested - used) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn with_threads<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads);
        pool.build().unwrap().install(f)
    }

    /// A sweep whose result is the list of sources that ran — one entry
    /// per `per_source` call, and list concatenation does not commute —
    /// counting its `init` calls in `inits`.
    fn listed(
        exec: &Exec,
        sources: &[VertexId],
        inits: &AtomicUsize,
    ) -> (Option<Vec<VertexId>>, usize) {
        let init = |_: &mut TraversalWorkspace| {
            inits.fetch_add(1, Ordering::Relaxed);
            Vec::new()
        };
        let body = |acc: &mut Vec<VertexId>, s, _: &mut TraversalWorkspace| {
            acc.push(s);
            1
        };
        sweep(exec, sources, "test.source", 16, init, body, |mut a, b| {
            a.extend(b);
            a
        })
    }

    #[test]
    fn merge_sees_partials_in_chunk_order_at_every_thread_count() {
        // 200 sources in chunks of 16: thirteen partials.
        let sources: Vec<VertexId> = (0..200).collect();
        for threads in [1usize, 2, 8] {
            let inits = AtomicUsize::new(0);
            let (merged, used) =
                with_threads(threads, || listed(&Exec::default(), &sources, &inits));
            assert_eq!(merged.as_deref(), Some(&sources[..]), "{threads} threads");
            assert_eq!((used, inits.into_inner()), (200, 13));
        }
        assert_eq!(
            listed(&Exec::default(), &[], &AtomicUsize::new(0)),
            (None, 0)
        );
    }

    #[test]
    fn few_sources_run_one_per_chunk_only_when_threads_take_part() {
        let sources: Vec<VertexId> = (0..4).collect();
        for (threads, chunks) in [(1usize, 1usize), (2, 4), (8, 4)] {
            let inits = AtomicUsize::new(0);
            let (merged, used) =
                with_threads(threads, || listed(&Exec::default(), &sources, &inits));
            assert_eq!(merged.as_deref(), Some(&sources[..]), "{threads} threads");
            assert_eq!((used, inits.into_inner()), (4, chunks), "{threads} threads");
        }
    }

    #[test]
    fn tripped_budget_stops_the_sweep_and_skips_whole_chunks() {
        let sources: Vec<VertexId> = (0..64).collect();
        let exec = Exec {
            budget: Budget::with_work_cap(20),
            ..Exec::default()
        };
        // One thread runs the four chunks in order: the cap trips on the
        // 21st unit, five sources into the second chunk, and the last two
        // chunks never start.
        let inits = AtomicUsize::new(0);
        let (merged, used) = with_threads(1, || listed(&exec, &sources, &inits));
        assert_eq!(merged.as_deref(), Some(&sources[..21]));
        assert_eq!((used, inits.into_inner()), (21, 2));
        // A budget that is already spent runs nothing at any thread count.
        for threads in [1usize, 8] {
            let inits = AtomicUsize::new(0);
            let ran = with_threads(threads, || listed(&exec, &sources, &inits));
            assert_eq!(
                (ran, inits.into_inner()),
                ((None, 0), 0),
                "{threads} threads"
            );
        }
    }

    #[test]
    fn sample_sources_reproduces_the_three_retired_samplers() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        // (n, k, seed) as the fixtures, `summary` and the edge cases draw.
        for (n, k, seed) in [
            (500usize, 32usize, 3u64),
            (256, 32, 3),
            (500, 16, 5),
            (1024, 64, 0),
            (4096, 4096, 0),
            (5, 0, 7),
            (0, 3, 0),
        ] {
            let truncated = |len: usize| {
                let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
                let mut all: Vec<VertexId> = (0..n as VertexId).collect();
                all.shuffle(&mut rng);
                all.truncate(len);
                all
            };
            // approx.rs.
            assert_eq!(sample_sources(n, k, seed), truncated(k.min(n)));
            // pathlen.rs, and closeness.rs (which returned early on n = 0).
            let at_least_one = sample_sources(n, k.max(1), seed);
            assert_eq!(at_least_one, truncated(k.max(1).min(n.max(1))));
            if n > 0 {
                assert_eq!(at_least_one, truncated(k.max(1).min(n)));
            }
        }
    }
}

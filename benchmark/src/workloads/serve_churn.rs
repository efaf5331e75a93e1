//! `serve_churn`: the resident query service under edge churn.
//! `snap::serve` (protocol, cache, admission) and `snap-graph::stream`
//! do work here and in no other workload; reads run beside writes, so a
//! read-path gain that slows merges (or the reverse) shows.
//!
//! A **closed loop**: N client threads (N = `nproc`), each sending its
//! next request only after the reply to the last — callers of a resident
//! analysis service wait for answers. Every request takes the path of
//! `snap-cli serve --socket` without the socket: wire line →
//! `Request::parse` → `Engine::admit` → `handle_with_queue` →
//! `Response::to_json_line`. Each client runs its kernels on one thread,
//! so the clients together keep `nproc` threads busy.
//!
//! The timed run is one continuous loop; a pass is each block of
//! `block_requests` completed requests, timed from completion to
//! completion, so no client idles at a pass boundary. A writer thread
//! applies a batch of edge ops and merges each time another block is half
//! done: merges are triggered by request count, not by timers, so every
//! block sees exactly one merge, under read load.

use super::{
    common_metrics, first_setup, giant_members, late_setups, rmat_graph, Ops, Outcome, Passes, Run,
};
use crate::inputs::{fnv1a, peak_rss_mb, Fingerprint, Rng};
use crate::metrics::{ratio, Values};
use crate::mix::{Class, Mix};
use crate::rec::Recorder;
use crate::stats::{highest_supported_percentile, median, percentile};
use snap::graph::{EdgeOp, Graph, StreamingGraph};
use snap::kernels::connected_components;
use snap::obs::json::Json;
use snap::serve::{compute_payload, Engine, Query, Request, ServeConfig};
use snap::Network;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Sources a `centrality` request samples.
const CENTRALITY_SOURCES: f64 = 8.0;

struct Inputs {
    stream: StreamingGraph,
    engine: Engine,
    mix: Mix,
    n: u32,
    fingerprint: Fingerprint,
    /// The engine's first answer equals an independent cold computation.
    cold_check: bool,
}

fn setup(run: &Run) -> Inputs {
    let g = rmat_graph(run.sizes.serve_scale, run.seed);
    let fingerprint = Fingerprint::of(&g);
    let members = giant_members(&g, &connected_components(&g));
    let n = g.num_vertices();
    // Half a source short, so the library's ceiling lands on the target.
    let mix = Mix::new(run.seed, members, (CENTRALITY_SOURCES - 0.5) / n as f64);
    let (stream, _) = StreamingGraph::from_csr(&g);
    let engine = Engine::new(stream.reader(), ServeConfig::default());

    let req = Request::new(Query::Bfs {
        source: mix.hot()[0],
    });
    let cold = compute_payload(&Network::from_shared(stream.snapshot().graph), &req.query);
    let cold_check = *engine.handle(&req).payload == *cold.payload;
    Inputs {
        stream,
        engine,
        mix,
        n: n as u32,
        fingerprint,
        cold_check,
    }
}

/// One answered request, kept for checking after the block's clock stops.
struct Reply {
    /// Index of the request in the mix.
    index: u64,
    class: Class,
    request: String,
    response: String,
    latency: f64,
}

/// The request path of `serve_socket`, one line in, one line out.
fn serve_line(engine: &Engine, rec: &mut Recorder, id: u64, line: &str) -> String {
    rec.time_id("serve.request", id, |rec| {
        let req = match rec.time_id("serve.parse", id, |_| Request::parse(line)) {
            Ok(req) => req,
            Err(e) => return format!("{{\"id\":{id},\"error\":{e:?}}}"),
        };
        match engine.admit() {
            None => engine.shed_response(&req).to_json_line(),
            Some(permit) => {
                let resp = rec.time_id("serve.handle", id, |_| engine.handle_with_queue(&req, 0));
                drop(permit);
                rec.time_id("serve.encode", id, |_| resp.to_json_line())
            }
        }
    })
}

/// The writer's batch before merge `k`: insert fresh random edges and
/// delete the ones the previous batch inserted, so the graph stays the
/// generated one plus half a batch and every block does the same work.
fn churn_batch(seed: u64, k: u64, n: u32, ops: usize) -> Vec<EdgeOp> {
    let edges = |k: u64| {
        let mut rng = Rng::new(seed ^ 0x6368_7572 ^ (k << 32));
        (0..ops / 2)
            .map(|_| (rng.below(n as usize) as u32, rng.below(n as usize) as u32))
            .collect::<Vec<_>>()
    };
    let inserts = edges(k).into_iter().map(|(u, v)| EdgeOp::Insert(u, v));
    let deletes = edges(k.wrapping_sub(1))
        .into_iter()
        .map(|(u, v)| EdgeOp::Delete(u, v));
    if k == 0 {
        inserts.collect()
    } else {
        deletes.chain(inserts).collect()
    }
}

/// What the checks after a block need to remember across blocks.
#[derive(Default)]
struct Checker {
    /// Payload hash by (epoch, cache key): a hit must carry the bytes of
    /// the miss that filled the cache.
    payloads: BTreeMap<(u64, String), u64>,
    /// Miss latencies by the block (pass) their request belongs to.
    misses_by_block: BTreeMap<u64, Vec<f64>>,
}

impl Checker {
    /// Check one client's replies in the order it received them.
    fn check(&mut self, ops: &mut Ops, rec: &mut Recorder, replies: &[Reply], block: u64) {
        let mut last_epoch = 0u64;
        for r in replies {
            let verdict = self.verdict(r, &mut last_epoch);
            if let Ok(outcome) = &verdict {
                let name = match (r.class, outcome.as_str()) {
                    (Class::Meta, _) => None,
                    (_, "hit") => Some("serve.hit"),
                    (Class::HotBfs | Class::ColdBfs, _) => Some("serve.miss_bfs"),
                    (Class::Coreness, _) => Some("serve.miss_coreness"),
                    (Class::Centrality, _) => Some("serve.miss_centrality"),
                };
                if let Some(name) = name {
                    rec.add_sample(name, r.latency);
                    if name != "serve.hit" {
                        let block = self.misses_by_block.entry(r.index / block).or_default();
                        block.push(r.latency);
                    }
                }
            }
            ops.op(verdict.is_ok(), || {
                format!("{} -> {}: {}", r.request, r.response, verdict.unwrap_err())
            });
        }
    }

    /// `Ok(cache outcome)` or why the reply counts as a failed request.
    fn verdict(&mut self, r: &Reply, last_epoch: &mut u64) -> Result<String, String> {
        let req = Request::parse(&r.request).map_err(|e| format!("request: {e}"))?;
        let resp = Json::parse(&r.response).map_err(|e| format!("unparseable response: {e}"))?;
        let text = |k: &str| resp.get(k).and_then(Json::as_str).ok_or(format!("no {k}"));
        if resp.get("id").and_then(Json::as_u64) != Some(req.id) {
            return Err("wrong id".into());
        }
        if text("kind")? != req.query.kind() {
            return Err("wrong kind".into());
        }
        let outcome = text("cache")?.to_string();
        if outcome == "shed" {
            return Err("shed".into());
        }
        if resp.get("degraded") != Some(&Json::Bool(false)) {
            return Err("degraded".into());
        }
        let payload = resp.get("payload").ok_or("no payload")?;
        if payload.get("error").is_some() {
            return Err("error payload".into());
        }
        let epoch = resp.get("epoch").and_then(Json::as_u64).ok_or("no epoch")?;
        if epoch < *last_epoch {
            return Err(format!("epoch went back from {last_epoch}"));
        }
        *last_epoch = epoch;
        if req.query.cacheable() {
            let hash = fnv1a(payload.to_string_compact().as_bytes());
            let first = *self
                .payloads
                .entry((epoch, req.query.cache_key()))
                .or_insert(hash);
            if first != hash {
                return Err("payload differs from the first answer of its epoch".into());
            }
        }
        Ok(outcome)
    }
}

/// The state one closed loop shares between its clients and the writer.
struct Loop<'a> {
    engine: &'a Engine,
    mix: &'a Mix,
    /// Index of the next request to send, and one past the last.
    next: AtomicU64,
    limit: AtomicU64,
    /// Requests answered since the loop started.
    done: AtomicU64,
}

/// One client: send, wait for the reply, send the next, until the
/// request stream reaches its limit. Its kernels run on one thread.
fn client(lp: &Loop, rec: &mut Recorder) -> Vec<Reply> {
    let mut replies = Vec::new();
    snap::with_threads(1, || loop {
        let i = lp.next.fetch_add(1, Ordering::Relaxed);
        if i >= lp.limit.load(Ordering::Acquire) {
            break;
        }
        let (class, request) = lp.mix.line(i);
        let sent = Instant::now();
        let response = serve_line(lp.engine, rec, i, &request);
        let latency = sent.elapsed().as_secs_f64();
        lp.done.fetch_add(1, Ordering::Release);
        replies.push(Reply {
            index: i,
            class,
            request,
            response,
            latency,
        });
    });
    replies
}

/// The served graph, its writer's state and the checks, across loops.
struct Service {
    inputs: Inputs,
    checker: Checker,
    ops: Ops,
    merges: u64,
    cache_bytes_peak: usize,
    merged_edges: usize,
    /// Requests sent by earlier loops.
    sent: u64,
}

impl Service {
    /// One closed loop of at least `min_blocks` blocks, extended a block
    /// at a time while another still fits in `seconds`. Returns the
    /// seconds each block took, completion to completion.
    fn serve(
        &mut self,
        run: &Run,
        rec: &mut Recorder,
        min_blocks: usize,
        seconds: f64,
    ) -> Vec<f64> {
        let Service {
            inputs:
                Inputs {
                    stream,
                    engine,
                    mix,
                    n,
                    ..
                },
            checker,
            ops,
            merges,
            cache_bytes_peak,
            merged_edges,
            sent,
        } = self;
        let block = run.sizes.block_requests;
        let lp = Loop {
            engine,
            mix,
            next: AtomicU64::new(*sent),
            limit: AtomicU64::new(*sent + block),
            done: AtomicU64::new(0),
        };
        let mut walls = Vec::new();
        let started = Instant::now();
        let (clients, writer) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..run.threads)
                .map(|c| {
                    let mut rec = rec.for_thread(c as u32 + 1);
                    let lp = &lp;
                    scope.spawn(move || {
                        let replies = client(lp, &mut rec);
                        (rec, replies)
                    })
                })
                .collect();

            // The writer is this thread, asleep except at the quarter
            // marks of each block: at the first it decides whether
            // another block still fits (long before a client could reach
            // the limit), at the second it merges, the fourth ends the
            // block.
            let mut writer = rec.for_thread(run.threads as u32 + 1);
            let mut mark = started;
            for quarter in 1u64.. {
                while lp.done.load(Ordering::Acquire) < quarter * block / 4 {
                    std::thread::sleep(Duration::from_micros(200));
                }
                match quarter % 4 {
                    1 => {
                        let elapsed = started.elapsed().as_secs_f64();
                        let per_block = elapsed / (quarter as f64 / 4.0);
                        if walls.len() + 1 < min_blocks || elapsed + 1.75 * per_block <= seconds {
                            lp.limit.fetch_add(block, Ordering::Release);
                        }
                    }
                    2 => {
                        *cache_bytes_peak = (*cache_bytes_peak).max(engine.cache_occupancy().1);
                        let batch = churn_batch(run.seed, *merges, *n, run.sizes.batch_ops);
                        let k = *merges;
                        *merged_edges = writer.time_id("stream.churn", k, |w| {
                            w.time_id("stream.apply_batch", k, |_| stream.apply_batch(&batch));
                            let t = Instant::now();
                            let snap = w.time_id("stream.merge", k, |_| stream.merge());
                            let wall_us = t.elapsed().as_micros() as u64;
                            engine.note_merge(snap.epoch, batch.len() as u64, wall_us);
                            snap.graph.num_edges()
                        });
                        *merges += 1;
                    }
                    0 => {
                        let now = Instant::now();
                        walls.push(now.duration_since(mark).as_secs_f64());
                        mark = now;
                        if *sent + quarter / 4 * block >= lp.limit.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            let clients: Vec<_> = handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect();
            (clients, writer)
        });
        *sent = lp.limit.load(Ordering::Acquire);
        *cache_bytes_peak = (*cache_bytes_peak).max(engine.cache_occupancy().1);

        rec.merge(writer);
        for (client, replies) in clients {
            rec.merge(client);
            checker.check(ops, rec, &replies, block);
        }
        walls
    }
}

pub fn run(run: &Run) -> Outcome {
    let (inputs, mut setups) = first_setup(|| setup(run));
    let mut service = Service {
        inputs,
        checker: Checker::default(),
        ops: Ops::default(),
        merges: 0,
        cache_bytes_peak: 0,
        merged_edges: 0,
        sent: 0,
    };
    let cold_check = service.inputs.cold_check;
    service.ops.op(cold_check, || {
        "engine answer differs from compute_payload".into()
    });

    // One warm-up block fills the cache, then the timed loop, then under
    // `--trace` one more block with both recorders on.
    let mut rec = Recorder::new(Instant::now(), 0);
    service.serve(run, &mut rec, 1, 0.0);
    rec.clear_samples();
    let walls = service.serve(run, &mut rec, run.sizes.min_passes, run.seconds);
    let traced = run.trace.then(|| {
        let mut traced = rec.for_thread(0);
        traced.set_tracing(true);
        traced.begin_pass(walls.len() as u32 + 1);
        let wall = service.serve(run, &mut traced, 1, 0.0)[0];
        traced.end_pass();
        (wall, traced)
    });
    let passes = Passes {
        rec,
        walls,
        traced,
        peak_rss_mb: peak_rss_mb(),
    };
    late_setups(run, &mut setups, || setup(run));

    let rec = &passes.rec;
    let med = |name: &str| median(rec.samples(name));
    let misses: Vec<f64> = [
        "serve.miss_bfs",
        "serve.miss_coreness",
        "serve.miss_centrality",
    ]
    .iter()
    .flat_map(|name| rec.samples(name).iter().copied())
    .collect();
    if highest_supported_percentile(misses.len()).is_none_or(|p| p < 99.0) {
        eprintln!(
            "serve_churn: only {} misses; miss_p99_ms has fewer than ten samples beyond it",
            misses.len()
        );
    }
    // Block 0 was the warm-up; the traced block, if any, comes after the
    // timed ones.
    let miss_p50s: Vec<f64> = (1..=passes.walls.len() as u64)
        .filter_map(|block| service.checker.misses_by_block.get(&block))
        .map(|block| median(block))
        .collect();
    let mut values = Values::default();
    common_metrics(&mut values, &passes, &setups, &miss_p50s);
    // Completed requests over the run's wall: the blocks are timed from
    // completion to completion, so their walls add up to the run's.
    let requests = run.sizes.block_requests as f64 * passes.walls.len() as f64;
    values.set("qps", ratio(requests, passes.walls.iter().sum()));
    values.set_ms("miss_p50_ms", median(&misses));
    values.set_ms("miss_p99_ms", percentile(&misses, 99.0));
    values.set_ms("merge_p50_ms", med("stream.churn"));
    values.set("serve.parse_us_p50", med("serve.parse") * 1e6);
    values.set("serve.encode_us_p50", med("serve.encode") * 1e6);
    values.set("serve.hit_us_p50", med("serve.hit") * 1e6);
    values.set(
        "serve.hit_us_p99",
        percentile(rec.samples("serve.hit"), 99.0) * 1e6,
    );
    values.set_ms("serve.miss_bfs_p50_ms", med("serve.miss_bfs"));
    values.set_ms("serve.miss_coreness_p50_ms", med("serve.miss_coreness"));
    values.set_ms("serve.miss_centrality_p50_ms", med("serve.miss_centrality"));
    let stats = service.inputs.engine.stats();
    values.set(
        "serve.hit_ratio_pct",
        100.0
            * ratio(
                stats.cache_hits as f64,
                (stats.cache_hits + stats.cache_misses) as f64,
            ),
    );
    values.set("serve.requests", stats.requests as f64);
    values.set("serve.shed", stats.shed as f64);
    values.set("serve.degraded", stats.degraded as f64);
    values.set("serve.evictions", stats.evictions as f64);
    values.set("serve.invalidations", stats.invalidations as f64);
    values.set("serve.cache_bytes_peak", service.cache_bytes_peak as f64);
    values.set("stream.apply_batch_us_p50", med("stream.apply_batch") * 1e6);
    values.set_ms("stream.merge_ms_p50", med("stream.merge"));
    values.set_ms(
        "stream.merge_ms_max",
        rec.samples("stream.merge")
            .iter()
            .copied()
            .fold(0.0, f64::max),
    );
    values.set(
        "stream.merge_medges_s",
        ratio(service.merged_edges as f64 / 1e6, med("stream.merge")),
    );
    values.set("stream.epochs", service.inputs.stream.epoch() as f64);

    let fingerprint = service.inputs.fingerprint.clone();
    passes.outcome(values, service.ops, fingerprint, setups)
}

//! The resident engine: admission, the cache and the instrumentation
//! around one request.

use super::recorder::{FlightEvent, FlightRecorder, SlowQuery};
use super::{compute_payload, Outcome, Query, Request, Response, ResultCache};
use crate::session::Network;
use snap_budget::Budget;
use snap_graph::stream::{Snapshot, SnapshotReader};
use snap_graph::Graph;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How many worst exemplars the slow-query log retains.
pub const SLOW_LOG_ENTRIES: usize = 8;

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Cache entry cap.
    pub cache_entries: usize,
    /// Cache byte budget.
    pub cache_bytes: usize,
    /// Deadline applied to requests that carry none.
    pub default_deadline: Option<Duration>,
    /// Admission cap: requests admitted while this many are already
    /// in flight are shed. `0` sheds everything (useful in tests).
    pub max_pending: usize,
    /// Slow-query threshold: requests whose total wall time (queue +
    /// compute) reaches this many milliseconds join the worst-K log.
    /// `None` disables the log; `Some(0)` records every request (how
    /// `tests/cli.rs` exercises the path).
    pub slow_ms: Option<u64>,
    /// Capture a span trace for every Nth request even without
    /// `"report":true` (`0` = only on request). Sampled traces ride the
    /// slow-query exemplar, not the wire response.
    pub trace_sample: u64,
    /// Where post-mortem NDJSON dumps of the flight ring are written —
    /// on a `dump` query, on shed, on a panic, and on a cancelled
    /// request. `None` keeps the ring in memory only.
    pub postmortem_path: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            cache_entries: 4096,
            cache_bytes: 32 << 20,
            default_deadline: None,
            max_pending: 1024,
            slow_ms: None,
            trace_sample: 0,
            postmortem_path: None,
        }
    }
}

/// Monotonic engine counters, readable at any time (and exported to the
/// process-global telemetry registry as `serve_*`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests accepted into [`Engine::handle`].
    pub requests: u64,
    /// Answers served from the cache.
    pub cache_hits: u64,
    /// Answers computed cold.
    pub cache_misses: u64,
    /// Requests rejected by admission control.
    pub shed: u64,
    /// Answers degraded by a tripped budget.
    pub degraded: u64,
    /// Cache entries evicted for space.
    pub evictions: u64,
    /// Cache entries invalidated by epoch bumps.
    pub invalidations: u64,
}

/// One engine counter: an engine-local atomic (authoritative for
/// [`Engine::stats`], so engines are independent even though several can
/// coexist in one process) mirrored into the process-global telemetry
/// registry, which is what `--metrics-out` samples.
struct Count {
    local: AtomicU64,
    export: snap_obs::CounterHandle,
}

impl Count {
    fn new(name: &str) -> Count {
        Count {
            local: AtomicU64::new(0),
            export: snap_obs::telemetry::export_counter(name),
        }
    }

    fn add(&self, delta: u64) {
        self.local.fetch_add(delta, Ordering::Relaxed);
        self.export.add(delta);
    }

    fn incr(&self) {
        self.add(1);
    }

    fn value(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

struct Tele {
    requests: Count,
    hits: Count,
    misses: Count,
    shed: Count,
    degraded: Count,
    evictions: Count,
    invalidations: Count,
    cache_bytes: snap_obs::GaugeHandle,
    cache_entries: snap_obs::GaugeHandle,
    epoch: snap_obs::GaugeHandle,
}

impl Tele {
    fn new() -> Tele {
        use snap_obs::telemetry::export_gauge;
        Tele {
            requests: Count::new("serve_requests"),
            hits: Count::new("serve_cache_hits"),
            misses: Count::new("serve_cache_misses"),
            shed: Count::new("serve_shed"),
            degraded: Count::new("serve_degraded"),
            evictions: Count::new("serve_evictions"),
            invalidations: Count::new("serve_invalidations"),
            cache_bytes: export_gauge("serve_cache_bytes"),
            cache_entries: export_gauge("serve_cache_entries"),
            epoch: export_gauge("serve_epoch"),
        }
    }
}

/// The resident analysis engine. Thread-safe: any number of worker
/// threads call [`handle`](Engine::handle) concurrently; reads run on
/// cloned `Arc` snapshots and only brief internal locks (cache, base
/// session) are shared. See the [module docs](crate::serve) for the
/// guarantees.
pub struct Engine {
    reader: SnapshotReader,
    cache: Mutex<ResultCache>,
    /// Base session for the epoch currently being served: keeps the
    /// traversal-workspace pool warm across requests. Clones of it (one
    /// per request) share the pool but get fresh budgets.
    session: Mutex<(u64, Network)>,
    config: ServeConfig,
    pending: AtomicUsize,
    tele: Tele,
    /// Next trace id minus one; ids start at 1 so 0 can mean "no id".
    trace_seq: AtomicU64,
    /// Worst-K slow-query exemplars, sorted slowest-first.
    slow: Mutex<Vec<SlowQuery>>,
    pub(super) flight: FlightRecorder,
}

impl Engine {
    /// Engine over the snapshots published by a
    /// [`StreamingGraph`](snap_graph::StreamingGraph); attach via
    /// [`StreamingGraph::reader`](snap_graph::StreamingGraph::reader).
    pub fn new(reader: SnapshotReader, config: ServeConfig) -> Engine {
        let snap = reader.snapshot();
        let session = Network::from_shared(Arc::clone(&snap.graph));
        let tele = Tele::new();
        tele.epoch.set(snap.epoch as f64);
        let flight = FlightRecorder::new(config.postmortem_path.clone());
        Engine {
            reader,
            cache: Mutex::new(ResultCache::new(config.cache_entries, config.cache_bytes)),
            session: Mutex::new((snap.epoch, session)),
            config,
            pending: AtomicUsize::new(0),
            tele,
            trace_seq: AtomicU64::new(0),
            slow: Mutex::new(Vec::new()),
            flight,
        }
    }

    /// Counter snapshot (from the telemetry registry, so it agrees with
    /// what `--metrics-out` exports).
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.tele.requests.value(),
            cache_hits: self.tele.hits.value(),
            cache_misses: self.tele.misses.value(),
            shed: self.tele.shed.value(),
            degraded: self.tele.degraded.value(),
            evictions: self.tele.evictions.value(),
            invalidations: self.tele.invalidations.value(),
        }
    }

    /// Cache occupancy `(entries, bytes)`.
    pub fn cache_occupancy(&self) -> (usize, usize) {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        (cache.len(), cache.bytes())
    }

    /// Admission control: returns a permit while in-flight capacity
    /// remains, `None` when the request must be shed. Dispatchers call
    /// this *before* queueing work so shedding happens at arrival, not
    /// after a queue delay; the permit is held for the lifetime of the
    /// request (RAII).
    pub fn admit(&self) -> Option<AdmitPermit<'_>> {
        let prev = self.pending.fetch_add(1, Ordering::AcqRel);
        if prev >= self.config.max_pending {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            self.tele.shed.incr();
            None
        } else {
            Some(AdmitPermit { engine: self })
        }
    }

    /// The canned response for a request [`admit`](Engine::admit) shed.
    /// Sheds are flight-recorded and trigger a post-mortem dump (when a
    /// path is configured): by the time you notice an overload, the ring
    /// already holds what led up to it.
    pub fn shed_response(&self, req: &Request) -> Response {
        let (trace_id, epoch) = self.record_unanswered("shed", req);
        Response {
            id: req.id,
            trace_id,
            kind: req.query.kind(),
            epoch,
            outcome: Outcome::Shed,
            degraded: false,
            wall_us: 0,
            payload: Arc::from(r#"{"error":"shed: over capacity"}"#),
            report: None,
        }
    }

    /// A request panicked on the calling thread (the transport's worker
    /// caught it): flight-record it, write the post-mortem, and drop the
    /// report collection the unwound request may have left open on this
    /// thread, so the worker's next request starts clean.
    pub(super) fn note_panic(&self, req: &Request) {
        self.record_unanswered("panic", req);
        snap_obs::disable();
    }

    /// Flight-record a request that ends without a computed answer
    /// (`what` is `shed` or `panic`) and write the post-mortem named
    /// after it. Returns the `(trace id, epoch)` it was recorded under.
    fn record_unanswered(&self, what: &'static str, req: &Request) -> (u64, u64) {
        let (trace_id, epoch) = (self.next_trace_id(), self.reader.epoch());
        self.flight.record(FlightEvent {
            ts_us: self.flight.now_us(),
            what,
            trace_id,
            kind: req.query.kind(),
            epoch,
            outcome: what,
            degraded: false,
            wall_us: 0,
            bytes: 0,
        });
        self.flight.write_postmortem(what);
        (trace_id, epoch)
    }

    fn next_trace_id(&self) -> u64 {
        self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Slow-query exemplars, slowest first.
    pub(crate) fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Record an epoch merge in the flight recorder (`bytes` carries the
    /// delta edge count). Drivers call this after
    /// [`StreamingGraph::merge`](snap_graph::StreamingGraph::merge) so
    /// post-mortems interleave merges with the requests they invalidated.
    pub fn note_merge(&self, epoch: u64, delta_edges: u64, wall_us: u64) {
        self.tele.epoch.set(epoch as f64);
        self.flight.record(FlightEvent {
            ts_us: self.flight.now_us(),
            what: "merge",
            trace_id: 0,
            kind: "merge",
            epoch,
            outcome: "merge",
            degraded: false,
            wall_us,
            bytes: delta_edges,
        });
    }

    /// Answer one request that spent no measurable time queued. See
    /// [`handle_with_queue`](Engine::handle_with_queue).
    pub fn handle(&self, req: &Request) -> Response {
        self.handle_with_queue(req, 0)
    }

    /// Answer one request. Safe to call from any thread; all responses
    /// are exit-0 semantics (errors and degraded answers are payloads,
    /// never panics). `queue_us` is how long the request waited between
    /// arrival and this call (dispatchers timestamp at admission) — it
    /// counts toward the slow-query threshold and is reported separately
    /// from compute time, so queueing collapses are distinguishable from
    /// slow kernels in the log.
    pub fn handle_with_queue(&self, req: &Request, queue_us: u64) -> Response {
        let t0 = Instant::now();
        self.tele.requests.incr();
        let trace_id = self.next_trace_id();

        // Pin the snapshot: everything below — cache key, session, and
        // payload — is against this one complete epoch.
        let snap = self.reader.snapshot();
        self.tele.epoch.set(snap.epoch as f64);

        // Collect a per-request report when the client asked or the
        // sampler picked this request — but only when this thread is not
        // already inside someone else's collection scope (a driver doing
        // its own observed pass keeps its tree; nested enables would
        // join, and finishing here would steal it).
        let sampled =
            self.config.trace_sample > 0 && trace_id.is_multiple_of(self.config.trace_sample);
        let collect = (req.with_report || sampled) && !snap_obs::is_enabled();
        if collect {
            snap_obs::enable();
        }
        let (outcome, degraded, payload) = {
            let _span = snap_obs::span("serve.request");
            snap_obs::meta("query", req.query.cache_key());
            snap_obs::meta("trace_id", trace_id.to_string());
            self.answer(req, &snap)
        };
        let report = collect.then(|| snap_obs::finish().unwrap_or_default().to_json());

        if degraded {
            self.tele.degraded.incr();
        }
        let compute_us = t0.elapsed().as_micros() as u64;
        self.flight.record(FlightEvent {
            ts_us: self.flight.now_us(),
            what: "request",
            trace_id,
            kind: req.query.kind(),
            epoch: snap.epoch,
            outcome: outcome.as_str(),
            degraded,
            wall_us: queue_us + compute_us,
            bytes: payload.len() as u64,
        });
        // A cancelled kernel is the signal post-mortems exist for; the
        // payload prefix is ours (see `compute_payload`), so matching on
        // it is exact, not heuristic.
        if degraded && payload.starts_with("{\"error\":\"cancelled") {
            self.flight.write_postmortem("cancelled");
        }
        if let Some(slow_ms) = self.config.slow_ms {
            let wall_us = queue_us + compute_us;
            if wall_us >= slow_ms * 1000 {
                self.record_slow(SlowQuery {
                    trace_id,
                    req_id: req.id,
                    kind: req.query.kind(),
                    cache_key: req.query.cache_key(),
                    epoch: snap.epoch,
                    outcome,
                    degraded,
                    queue_us,
                    compute_us,
                    wall_us,
                    report: report.clone(),
                });
            }
        }
        Response {
            id: req.id,
            trace_id,
            kind: req.query.kind(),
            epoch: snap.epoch,
            outcome,
            degraded,
            wall_us: compute_us,
            payload,
            report: req
                .with_report
                .then(|| report.unwrap_or_else(|| "null".into())),
        }
    }

    fn record_slow(&self, entry: SlowQuery) {
        let mut log = self.slow.lock().unwrap_or_else(|e| e.into_inner());
        log.push(entry);
        log.sort_by(|a, b| b.wall_us.cmp(&a.wall_us).then(a.trace_id.cmp(&b.trace_id)));
        log.truncate(SLOW_LOG_ENTRIES);
    }

    fn answer(&self, req: &Request, snap: &Snapshot) -> (Outcome, bool, Arc<str>) {
        let key = req.query.cache_key();
        if req.query.cacheable() {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            let dropped = cache.observe_epoch(snap.epoch);
            if dropped > 0 {
                self.tele.invalidations.add(dropped as u64);
            }
            if let Some(payload) = cache.get(snap.epoch, &key) {
                self.tele.hits.incr();
                snap_obs::add("serve.cache_hit", 1);
                return (Outcome::Hit, false, payload);
            }
        }
        match req.query {
            Query::Epoch => {
                let payload = format!(
                    "{{\"epoch\":{},\"n\":{},\"m\":{}}}",
                    snap.epoch,
                    snap.graph.num_vertices(),
                    snap.graph.num_edges()
                );
                return (Outcome::Miss, false, Arc::from(payload.as_str()));
            }
            Query::Stats => {
                let s = self.stats();
                let (entries, bytes) = self.cache_occupancy();
                let mut payload = format!(
                    "{{\"requests\":{},\"cache_hits\":{},\"cache_misses\":{},\"shed\":{},\
                     \"degraded\":{},\"evictions\":{},\"invalidations\":{},\
                     \"cache_entries\":{entries},\"cache_bytes\":{bytes},\"slow_queries\":[",
                    s.requests,
                    s.cache_hits,
                    s.cache_misses,
                    s.shed,
                    s.degraded,
                    s.evictions,
                    s.invalidations
                );
                for (i, sq) in self.slow_queries().iter().enumerate() {
                    if i > 0 {
                        payload.push(',');
                    }
                    payload.push_str(&sq.to_json());
                }
                payload.push_str("]}");
                return (Outcome::Miss, false, Arc::from(payload.as_str()));
            }
            Query::Dump => {
                let payload = self.flight.dump_json();
                self.flight.write_postmortem("dump");
                return (Outcome::Miss, false, Arc::from(payload.as_str()));
            }
            _ => {}
        }
        self.tele.misses.incr();

        // Fresh budget per request — never a shared or previously
        // exhausted handle (the sticky-budget contract; see
        // `Network::with_budget` and `Budget::renew`).
        let budget = match req.deadline.or(self.config.default_deadline) {
            Some(d) => Budget::with_deadline(d),
            None => Budget::unlimited(),
        };
        let session = self.session_for(snap).with_budget(budget.clone());
        let result = compute_payload(&session, &req.query);
        let degraded = result.degraded || budget.exhaustion().is_some();
        let payload: Arc<str> = Arc::from(result.payload.as_str());
        if req.query.cacheable() && !degraded && !result.error {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            let put = cache.put(snap.epoch, key, Arc::clone(&payload));
            if put.evicted > 0 {
                self.tele.evictions.add(put.evicted as u64);
            }
            self.tele.cache_bytes.set(cache.bytes() as f64);
            self.tele.cache_entries.set(cache.len() as f64);
        }
        (Outcome::Miss, degraded, payload)
    }

    /// Base session for this snapshot's epoch, rebuilt on epoch change.
    /// Clones share the workspace pool (it is a cache, not state).
    fn session_for(&self, snap: &Snapshot) -> Network {
        let mut slot = self.session.lock().unwrap_or_else(|e| e.into_inner());
        if slot.0 != snap.epoch {
            *slot = (snap.epoch, Network::from_shared(Arc::clone(&snap.graph)));
        }
        slot.1.clone()
    }
}

/// RAII admission permit from [`Engine::admit`]; dropping it releases
/// the in-flight slot.
pub struct AdmitPermit<'a> {
    engine: &'a Engine,
}

impl Drop for AdmitPermit<'_> {
    fn drop(&mut self) {
        self.engine.pending.fetch_sub(1, Ordering::AcqRel);
    }
}

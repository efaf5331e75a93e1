//! Resident analysis service: epoch-keyed result caching with budget
//! admission control over live snapshots.
//!
//! The paper frames SNAP as an *exploratory* framework — its value is in
//! answering many questions about one loaded network, not one question
//! per process. This module is that claim made resident: an [`Engine`]
//! attaches to the epoch-versioned snapshots published by
//! [`snap_graph::StreamingGraph`] (or to a static graph frozen as epoch
//! 0) and answers concurrent [`Request`]s from any number of worker
//! threads, with three serving-layer guarantees:
//!
//! * **Epoch-keyed result cache.** Results are cached under
//!   `(snapshot epoch, query kind, canonical params)` — the epoch is the
//!   invalidation key PR 6's streaming layer was built to provide. A
//!   `merge()` that bumps the epoch automatically invalidates exactly the
//!   stale entries; hits return the stored payload bit-identical to the
//!   cold run that produced it. Eviction is LRU under both an entry cap
//!   and a byte budget ([`ResultCache`]).
//! * **Budget admission control.** Every request gets a *fresh*
//!   [`Budget`] derived from its deadline ([`Budget::renew`] semantics:
//!   exhaustion never leaks across requests); over-capacity requests are
//!   shed before any work happens ([`Engine::admit`]); over-deadline
//!   requests are still answered, degraded, by the PR 3 machinery.
//! * **Per-request observability.** Responses carry a `snap-obs`
//!   [`RunReport`](snap_obs::RunReport) of the work they triggered, and
//!   the engine exports `serve_*` counters through the process-global
//!   telemetry registry, so `--metrics-out` streams cache-hit/shed/
//!   degraded rates from a live server unmodified.
//!
//! Consistency contract: a response is computed entirely against one
//! `Arc<CsrGraph>` snapshot and stamped with that snapshot's epoch; cache
//! hits are only served for the exact epoch they were computed on. There
//! are no torn or cross-epoch answers, ever — a raced request that
//! observes an old snapshot while the cache has moved on simply recomputes
//! on its own complete epoch.

use crate::session::{CommunityAlgorithm, Network};
use snap_budget::Budget;
use snap_graph::stream::{Snapshot, SnapshotReader};
use snap_graph::Graph;
use snap_obs::json::{self, Json};
use snap_partition::Method as PartitionMethod;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One analysis question, parsed and canonicalized. Two requests that
/// mean the same thing produce equal queries — and therefore equal
/// [cache keys](Query::cache_key) — regardless of JSON field order or
/// formatting in the wire form.
#[derive(Clone, Debug, PartialEq)]
pub enum Query {
    /// Full topology summary (degree stats, components, clustering,
    /// sampled path lengths with `seed`).
    Summary {
        /// Path-sampling seed.
        seed: u64,
    },
    /// Parallel hybrid BFS from one source.
    Bfs {
        /// Source vertex.
        source: u32,
    },
    /// Betweenness centrality; sampled when `frac < 1`.
    Centrality {
        /// Fraction of sources to sample (`None` = exact).
        frac: Option<f64>,
        /// Sampling seed.
        seed: u64,
        /// How many top-scoring vertices to return.
        top: usize,
    },
    /// Community detection.
    Communities {
        /// Which algorithm to run.
        algorithm: CommunityAlgorithm,
    },
    /// Balanced k-way partitioning.
    Partition {
        /// Partitioning method.
        method: PartitionMethod,
        /// Number of parts.
        parts: usize,
        /// Seed for randomized phases.
        seed: u64,
    },
    /// K-core decomposition: degeneracy (max core number), the size of
    /// the innermost core, and peeling rounds.
    Coreness,
    /// Current snapshot epoch and size (never cached; this is also how a
    /// client observes that a merge happened).
    Epoch,
    /// Engine counters: requests, hits, sheds, cache occupancy, plus the
    /// slow-query log exemplars.
    Stats,
    /// Flight-recorder dump: the bounded ring of recent request / merge /
    /// shed summaries (and a post-mortem NDJSON write when configured).
    Dump,
}

impl Query {
    /// Short kind tag (used in responses and telemetry).
    pub fn kind(&self) -> &'static str {
        match self {
            Query::Summary { .. } => "summary",
            Query::Bfs { .. } => "bfs",
            Query::Centrality { .. } => "centrality",
            Query::Communities { .. } => "communities",
            Query::Partition { .. } => "partition",
            Query::Coreness => "coreness",
            Query::Epoch => "epoch",
            Query::Stats => "stats",
            Query::Dump => "dump",
        }
    }

    /// Whether results of this query may be cached. Meta queries
    /// (`epoch`, `stats`, `dump`) always answer live.
    pub fn cacheable(&self) -> bool {
        !matches!(self, Query::Epoch | Query::Stats | Query::Dump)
    }

    /// Canonical `kind params...` string identifying this query within
    /// one epoch. Together with the snapshot epoch this is the full cache
    /// key `(epoch, kind, canonical params)`.
    pub fn cache_key(&self) -> String {
        match self {
            Query::Summary { seed } => format!("summary seed={seed}"),
            Query::Bfs { source } => format!("bfs source={source}"),
            Query::Centrality { frac, seed, top } => {
                let mut key = String::from("centrality frac=");
                match frac {
                    None => key.push_str("exact"),
                    Some(f) => json::write_f64(&mut key, *f),
                }
                key.push_str(&format!(" seed={seed} top={top}"));
                key
            }
            Query::Communities { algorithm } => {
                format!("communities algorithm={}", algorithm.name())
            }
            Query::Partition {
                method,
                parts,
                seed,
            } => format!(
                "partition method={} parts={parts} seed={seed}",
                method.name()
            ),
            Query::Coreness => "coreness".to_string(),
            Query::Epoch => "epoch".to_string(),
            Query::Stats => "stats".to_string(),
            Query::Dump => "dump".to_string(),
        }
    }
}

/// One wire request: a line of JSON.
///
/// ```json
/// {"id": 7, "query": "bfs", "source": 0, "deadline_ms": 250}
/// ```
///
/// Fields: `query` (required: `summary` | `bfs` | `centrality` |
/// `communities` | `partition` | `coreness` | `epoch` | `stats` |
/// `dump`), `id` (echoed back,
/// default 0), `deadline_ms` (per-request budget; overrides the engine
/// default), `report` (attach the snap-obs report, default `false`), plus
/// per-kind params (`seed`, `source`, `frac`, `top`, `algorithm`,
/// `method`, `parts`).
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The parsed question.
    pub query: Query,
    /// Per-request deadline (`None` = the engine's default).
    pub deadline: Option<Duration>,
    /// Attach the per-request `RunReport` to the response.
    pub with_report: bool,
}

impl Request {
    /// A bare query with defaults (id 0, no deadline, no report).
    pub fn new(query: Query) -> Request {
        Request {
            id: 0,
            query,
            deadline: None,
            with_report: false,
        }
    }

    /// Parse one request line. Unknown fields are ignored so clients can
    /// carry their own annotations.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = Json::parse(line).map_err(|e| format!("bad json: {e:?}"))?;
        let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
        let kind = v
            .get("query")
            .and_then(Json::as_str)
            .ok_or_else(|| "missing \"query\" field".to_string())?;
        let seed = v.get("seed").and_then(Json::as_u64).unwrap_or(0);
        let name = |key, default| v.get(key).and_then(Json::as_str).unwrap_or(default);
        let query = match kind {
            "summary" => Query::Summary { seed },
            "bfs" => Query::Bfs {
                source: v
                    .get("source")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| "bfs needs \"source\"".to_string())?
                    as u32,
            },
            "centrality" => Query::Centrality {
                frac: v.get("frac").and_then(Json::as_f64),
                seed,
                top: v.get("top").and_then(Json::as_u64).unwrap_or(10) as usize,
            },
            "communities" => Query::Communities {
                algorithm: name("algorithm", "pla").parse()?,
            },
            "partition" => Query::Partition {
                method: name("method", "kway").parse()?,
                parts: v.get("parts").and_then(Json::as_u64).unwrap_or(2) as usize,
                seed,
            },
            "coreness" | "kcore" => Query::Coreness,
            "epoch" => Query::Epoch,
            "stats" => Query::Stats,
            "dump" => Query::Dump,
            other => return Err(format!("unknown query {other:?}")),
        };
        Ok(Request {
            id,
            query,
            deadline: v
                .get("deadline_ms")
                .and_then(Json::as_u64)
                .map(Duration::from_millis),
            with_report: v
                .get("report")
                .and_then(|j| match j {
                    Json::Bool(b) => Some(*b),
                    _ => None,
                })
                .unwrap_or(false),
        })
    }
}

/// How a request was answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Served from the epoch-keyed cache.
    Hit,
    /// Computed cold (and cached if eligible).
    Miss,
    /// Rejected by admission control before any work.
    Shed,
}

impl Outcome {
    fn as_str(self) -> &'static str {
        match self {
            Outcome::Hit => "hit",
            Outcome::Miss => "miss",
            Outcome::Shed => "shed",
        }
    }
}

/// One wire response: a line of JSON mirroring [`Request`].
#[derive(Clone, Debug)]
pub struct Response {
    /// Echo of the request id.
    pub id: u64,
    /// Engine-assigned trace id: unique per request for the lifetime of
    /// the engine, correlating the response with slow-query and
    /// flight-recorder entries.
    pub trace_id: u64,
    /// Query kind tag.
    pub kind: &'static str,
    /// Epoch of the snapshot this answer was computed on.
    pub epoch: u64,
    /// Hit / miss / shed.
    pub outcome: Outcome,
    /// The budget tripped mid-run: the payload is a degraded (partial /
    /// sampled / coarser) but well-formed answer.
    pub degraded: bool,
    /// Wall time spent answering, microseconds.
    pub wall_us: u64,
    /// The result payload (JSON). Shared so cache hits return the stored
    /// bytes without copying.
    pub payload: Arc<str>,
    /// Compact-JSON `RunReport` when the request asked for one.
    pub report: Option<String>,
}

impl Response {
    /// Serialize as one line of JSON. The payload and report are embedded
    /// raw (both are JSON we produced ourselves), so a cache hit's wire
    /// form contains the stored payload bytes verbatim.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(96 + self.payload.len());
        out.push_str(&format!(
            "{{\"id\":{},\"trace_id\":{},\"kind\":\"{}\",\"epoch\":{},\"cache\":\"{}\",\"degraded\":{},\"wall_us\":{},\"payload\":",
            self.id,
            self.trace_id,
            self.kind,
            self.epoch,
            self.outcome.as_str(),
            self.degraded,
            self.wall_us,
        ));
        out.push_str(&self.payload);
        if let Some(report) = &self.report {
            out.push_str(",\"report\":");
            out.push_str(report);
        }
        out.push('}');
        out
    }
}

/// Bytes charged per cache entry beyond key and payload (map/LRU node
/// overhead, stamps). An estimate — the allocator-verified tests bound
/// the real footprint against the budget this accounting enforces.
const ENTRY_OVERHEAD: usize = 96;

struct Entry {
    payload: Arc<str>,
    epoch: u64,
    bytes: usize,
    stamp: u64,
}

/// What became of a [`ResultCache::put`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PutOutcome {
    /// The entry was stored.
    pub inserted: bool,
    /// Entries evicted to make room.
    pub evicted: usize,
}

/// LRU result cache keyed by `(epoch, canonical query)` under an entry
/// cap and a byte budget.
///
/// Epoch handling: the cache tracks the newest epoch it has *observed*
/// (via [`observe_epoch`](Self::observe_epoch), called by the engine with
/// every snapshot it serves). Observing a newer epoch drops exactly the
/// entries computed on older epochs; lookups and inserts for epochs older
/// than the observed newest are refused, so a raced request on a stale
/// snapshot can never poison the cache or be answered across epochs.
pub struct ResultCache {
    map: HashMap<String, Entry>,
    /// Recency index: access stamp → key. `BTreeMap::pop_first` is the
    /// LRU victim; stamps are unique by construction.
    lru: BTreeMap<u64, String>,
    tick: u64,
    bytes: usize,
    max_entries: usize,
    max_bytes: usize,
    latest_epoch: u64,
}

impl ResultCache {
    /// Empty cache holding at most `max_entries` entries and
    /// `max_bytes` accounted bytes.
    pub fn new(max_entries: usize, max_bytes: usize) -> ResultCache {
        ResultCache {
            map: HashMap::new(),
            lru: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            max_entries: max_entries.max(1),
            max_bytes,
            latest_epoch: 0,
        }
    }

    /// Entries currently stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Accounted bytes currently stored (keys + payloads + overhead).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Tell the cache a snapshot with this epoch is being served. A newer
    /// epoch invalidates (drops) every entry computed on an older one;
    /// returns how many were dropped.
    pub fn observe_epoch(&mut self, epoch: u64) -> usize {
        if epoch <= self.latest_epoch {
            return 0;
        }
        self.latest_epoch = epoch;
        let stale: Vec<u64> = self
            .map
            .iter()
            .filter(|(_, e)| e.epoch < epoch)
            .map(|(_, e)| e.stamp)
            .collect();
        for stamp in &stale {
            if let Some(key) = self.lru.remove(stamp) {
                if let Some(e) = self.map.remove(&key) {
                    self.bytes -= e.bytes;
                }
            }
        }
        stale.len()
    }

    /// Look up `key` as computed on exactly `epoch`; touches recency.
    pub fn get(&mut self, epoch: u64, key: &str) -> Option<Arc<str>> {
        let entry = self.map.get_mut(key)?;
        if entry.epoch != epoch {
            return None;
        }
        self.lru.remove(&entry.stamp);
        self.tick += 1;
        entry.stamp = self.tick;
        self.lru.insert(entry.stamp, key.to_string());
        Some(Arc::clone(&entry.payload))
    }

    /// Store a payload computed on `epoch`. Refused for epochs older than
    /// the newest observed (stale write after an invalidation) and for
    /// payloads that alone exceed the byte budget; evicts LRU entries
    /// until both limits hold.
    pub fn put(&mut self, epoch: u64, key: String, payload: Arc<str>) -> PutOutcome {
        let mut outcome = PutOutcome::default();
        self.observe_epoch(epoch);
        if epoch < self.latest_epoch {
            return outcome;
        }
        let cost = key.len() * 2 + payload.len() + ENTRY_OVERHEAD;
        if cost > self.max_bytes {
            return outcome;
        }
        if let Some(old) = self.map.remove(&key) {
            self.bytes -= old.bytes;
            self.lru.remove(&old.stamp);
        }
        while self.map.len() >= self.max_entries || self.bytes + cost > self.max_bytes {
            let Some((_, victim)) = self.lru.pop_first() else {
                break;
            };
            if let Some(e) = self.map.remove(&victim) {
                self.bytes -= e.bytes;
                outcome.evicted += 1;
            }
        }
        self.tick += 1;
        self.lru.insert(self.tick, key.clone());
        self.map.insert(
            key,
            Entry {
                payload,
                epoch,
                bytes: cost,
                stamp: self.tick,
            },
        );
        self.bytes += cost;
        outcome.inserted = true;
        outcome
    }
}

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads the dispatcher should run (the engine itself is
    /// passive; this is advisory for the CLI / bench drivers).
    pub workers: usize,
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
    /// How many worst exemplars the slow-query log retains.
    pub slow_log_entries: usize,
    /// Capture a span trace for every Nth request even without
    /// `"report":true` (`0` = only on request). Sampled traces ride the
    /// slow-query exemplar, not the wire response.
    pub trace_sample: u64,
    /// Flight-recorder ring capacity (completed request / merge / shed
    /// summaries). The recorder is always on and O(1) per event.
    pub flight_entries: usize,
    /// Where post-mortem NDJSON dumps of the flight ring are written —
    /// on a `dump` query, on shed, and on a cancelled request. `None`
    /// keeps the ring in memory only.
    pub postmortem_path: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 4,
            cache_entries: 4096,
            cache_bytes: 32 << 20,
            default_deadline: None,
            max_pending: 1024,
            slow_ms: None,
            slow_log_entries: 8,
            trace_sample: 0,
            flight_entries: 256,
            postmortem_path: None,
        }
    }
}

/// One slow-query exemplar: everything needed to reconstruct what a bad
/// request did without re-running it.
#[derive(Clone, Debug)]
pub struct SlowQuery {
    /// Engine-assigned trace id (matches the wire response).
    pub trace_id: u64,
    /// Client correlation id.
    pub req_id: u64,
    /// Query kind tag.
    pub kind: &'static str,
    /// Canonical params (the cache key).
    pub cache_key: String,
    /// Epoch the answer was computed on.
    pub epoch: u64,
    /// Hit / miss / shed.
    pub outcome: Outcome,
    /// The answer was degraded by a tripped budget.
    pub degraded: bool,
    /// Time spent queued before a worker picked the request up.
    pub queue_us: u64,
    /// Time spent computing the answer.
    pub compute_us: u64,
    /// `queue_us + compute_us` — what the threshold judges.
    pub wall_us: u64,
    /// Compact-JSON span tree, present when the request was traced
    /// (`"report":true` or sampled by `trace_sample`).
    pub report: Option<String>,
}

impl SlowQuery {
    fn to_json(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str(&format!(
            "{{\"trace_id\":{},\"id\":{},\"kind\":\"{}\",\"params\":",
            self.trace_id, self.req_id, self.kind
        ));
        json::write_escaped(&mut out, &self.cache_key);
        out.push_str(&format!(
            ",\"epoch\":{},\"cache\":\"{}\",\"degraded\":{},\"queue_us\":{},\"compute_us\":{},\"wall_us\":{}",
            self.epoch,
            self.outcome.as_str(),
            self.degraded,
            self.queue_us,
            self.compute_us,
            self.wall_us
        ));
        if let Some(report) = &self.report {
            out.push_str(",\"trace\":");
            out.push_str(report);
        }
        out.push('}');
        out
    }
}

/// One flight-recorder event: a completed request, an epoch merge, or a
/// shed, summarized in a few words.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Microseconds since the engine started.
    pub ts_us: u64,
    /// `"request"`, `"merge"`, or `"shed"`.
    pub what: &'static str,
    /// Trace id for request/shed events, 0 for merges.
    pub trace_id: u64,
    /// Query kind, or `"merge"`.
    pub kind: &'static str,
    /// Snapshot epoch the event happened on.
    pub epoch: u64,
    /// `hit` / `miss` / `shed` / `merge`.
    pub outcome: &'static str,
    /// The answer was degraded.
    pub degraded: bool,
    /// Event latency (request wall time, merge wall time; 0 for sheds).
    pub wall_us: u64,
    /// Payload bytes for requests; delta edges for merges.
    pub bytes: u64,
}

impl FlightEvent {
    fn to_json(&self) -> String {
        format!(
            "{{\"ts_us\":{},\"what\":\"{}\",\"trace_id\":{},\"kind\":\"{}\",\"epoch\":{},\
             \"outcome\":\"{}\",\"degraded\":{},\"wall_us\":{},\"bytes\":{}}}",
            self.ts_us,
            self.what,
            self.trace_id,
            self.kind,
            self.epoch,
            self.outcome,
            self.degraded,
            self.wall_us,
            self.bytes
        )
    }
}

/// Always-on bounded ring of [`FlightEvent`]s. One mutex-guarded
/// `VecDeque` push per event — O(1), no allocation once warm — so it can
/// stay on in production without showing up in profiles.
struct FlightRecorder {
    ring: Mutex<(VecDeque<FlightEvent>, u64)>,
    cap: usize,
    start: Instant,
}

impl FlightRecorder {
    fn new(cap: usize) -> FlightRecorder {
        let cap = cap.max(1);
        FlightRecorder {
            ring: Mutex::new((VecDeque::with_capacity(cap), 0)),
            cap,
            start: Instant::now(),
        }
    }

    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn record(&self, ev: FlightEvent) {
        let mut g = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if g.0.len() == self.cap {
            g.0.pop_front();
            g.1 += 1;
        }
        g.0.push_back(ev);
    }

    /// `(events oldest-first, dropped)` snapshot.
    fn snapshot(&self) -> (Vec<FlightEvent>, u64) {
        let g = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        (g.0.iter().cloned().collect(), g.1)
    }

    fn dump_json(&self) -> String {
        let (events, dropped) = self.snapshot();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str(&format!(
            "{{\"events\":{},\"dropped\":{dropped},\"ring\":[",
            events.len()
        ));
        for (i, ev) in events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&ev.to_json());
        }
        out.push_str("]}");
        out
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
/// session) are shared. See the [module docs](self) for the guarantees.
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
    flight: FlightRecorder,
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
        let flight = FlightRecorder::new(config.flight_entries);
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

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.config
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

    /// Requests currently admitted and not yet finished.
    pub fn in_flight(&self) -> usize {
        self.pending.load(Ordering::Acquire)
    }

    /// The canned response for a request [`admit`](Engine::admit) shed.
    /// Sheds are flight-recorded and trigger a post-mortem dump (when a
    /// path is configured): by the time you notice an overload, the ring
    /// already holds what led up to it.
    pub fn shed_response(&self, req: &Request) -> Response {
        let trace_id = self.next_trace_id();
        let epoch = self.reader.epoch();
        self.flight.record(FlightEvent {
            ts_us: self.flight.now_us(),
            what: "shed",
            trace_id,
            kind: req.query.kind(),
            epoch,
            outcome: "shed",
            degraded: false,
            wall_us: 0,
            bytes: 0,
        });
        self.write_postmortem("shed");
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

    fn next_trace_id(&self) -> u64 {
        self.trace_seq.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Slow-query exemplars, slowest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Flight-recorder snapshot `(events oldest-first, dropped)`.
    pub fn flight_events(&self) -> (Vec<FlightEvent>, u64) {
        self.flight.snapshot()
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

    /// Write the flight ring as post-mortem NDJSON (header line with the
    /// reason, then one event per line) to the configured path; no-op
    /// without one. Atomic via temp-file rename; IO errors are swallowed
    /// — observability must never take down serving. Returns whether a
    /// file was written.
    pub fn write_postmortem(&self, reason: &str) -> bool {
        let Some(path) = &self.config.postmortem_path else {
            return false;
        };
        let (events, dropped) = self.flight.snapshot();
        let mut out = String::with_capacity(64 + events.len() * 96);
        out.push_str("{\"reason\":");
        json::write_escaped(&mut out, reason);
        out.push_str(&format!(
            ",\"events\":{},\"dropped\":{dropped}}}\n",
            events.len()
        ));
        for ev in &events {
            out.push_str(&ev.to_json());
            out.push('\n');
        }
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, out).is_err() {
            return false;
        }
        std::fs::rename(&tmp, path).is_ok()
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
            self.write_postmortem("cancelled");
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
        log.truncate(self.config.slow_log_entries.max(1));
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
                self.write_postmortem("dump");
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

/// Outcome of one cold query computation.
pub struct QueryResult {
    /// JSON payload.
    pub payload: String,
    /// The session budget tripped: partial/sampled/coarser answer.
    pub degraded: bool,
    /// The payload is an `{"error": ...}` object (bad vertex id,
    /// partition failure); never cached.
    pub error: bool,
}

/// Compute the payload for `query` cold against `net` — the exact
/// function the engine runs on a cache miss, public so tests and drivers
/// can cross-check cached answers against independent recomputation.
/// Deterministic for a given graph and query (seeds are part of the
/// query), which is what makes "hit is bit-identical to cold" testable.
pub fn compute_payload(net: &Network, query: &Query) -> QueryResult {
    let mut degraded = false;
    let mut error = false;
    let payload = match query {
        Query::Summary { seed } => {
            let s = net.summary_with_seed(*seed);
            let mut out = String::with_capacity(256);
            out.push_str(&format!(
                "{{\"n\":{},\"m\":{},\"components\":{},\"giant_fraction\":",
                s.n, s.m, s.components
            ));
            json::write_f64(&mut out, s.giant_fraction);
            out.push_str(",\"clustering\":");
            json::write_f64(&mut out, s.clustering);
            out.push_str(",\"transitivity\":");
            json::write_f64(&mut out, s.transitivity);
            out.push_str(",\"assortativity\":");
            json::write_f64(&mut out, s.assortativity);
            out.push_str(",\"avg_path\":");
            json::write_f64(&mut out, s.paths.average);
            out.push_str(&format!(
                ",\"diameter\":{},\"paths_sampled\":{}}}",
                s.paths.max, s.paths_sampled
            ));
            out
        }
        Query::Bfs { source } => {
            if (*source as usize) >= net.num_vertices() {
                error = true;
                format!("{{\"error\":\"source {source} out of range\"}}")
            } else {
                match net.try_bfs_stats(*source) {
                    Ok((r, stats)) => format!(
                        "{{\"source\":{},\"reached\":{},\"depth\":{},\"edges_examined\":{}}}",
                        source,
                        r.reached(),
                        stats.depth(),
                        stats.total_edges_examined()
                    ),
                    Err(why) => {
                        degraded = true;
                        format!("{{\"error\":\"cancelled: {why}\",\"source\":{source}}}")
                    }
                }
            }
        }
        Query::Centrality { frac, seed, top } => {
            let scores = match frac {
                Some(f) => net.approx_betweenness(*f, *seed),
                None => net.betweenness(),
            };
            let mut ranked: Vec<(u32, f64)> = scores
                .vertex
                .iter()
                .enumerate()
                .map(|(v, &s)| (v as u32, s))
                .collect();
            ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
            ranked.truncate(*top);
            let mut out = String::with_capacity(32 + ranked.len() * 24);
            out.push_str("{\"top\":[");
            for (i, (v, s)) in ranked.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{{\"v\":{v},\"score\":"));
                json::write_f64(&mut out, *s);
                out.push('}');
            }
            out.push_str("]}");
            out
        }
        Query::Communities { algorithm } => {
            let c = net.communities(*algorithm);
            let mut out = String::with_capacity(64);
            out.push_str(&format!(
                "{{\"communities\":{},\"modularity\":",
                c.clustering.count
            ));
            json::write_f64(&mut out, c.modularity);
            out.push('}');
            out
        }
        Query::Partition {
            method,
            parts,
            seed,
        } => match net.partition(*method, *parts, *seed) {
            Ok(p) => {
                let cut = snap_partition::edge_cut(net.graph(), &p);
                let imb = snap_partition::imbalance(&p, None);
                let mut out = String::with_capacity(64);
                out.push_str(&format!(
                    "{{\"parts\":{},\"edge_cut\":{cut},\"imbalance\":",
                    p.parts
                ));
                json::write_f64(&mut out, imb);
                out.push('}');
                out
            }
            Err(e) => {
                error = true;
                let mut out = String::from("{\"error\":");
                json::write_escaped(&mut out, &format!("partition failed: {e:?}"));
                out.push('}');
                out
            }
        },
        Query::Coreness => match net.try_coreness() {
            Ok(r) => format!(
                "{{\"max_core\":{},\"degeneracy_core_size\":{},\"rounds\":{}}}",
                r.max_core,
                r.core_size(r.max_core),
                r.rounds
            ),
            Err(why) => {
                degraded = true;
                format!("{{\"error\":\"cancelled: {why}\"}}")
            }
        },
        Query::Epoch | Query::Stats | Query::Dump => {
            // Meta queries are answered by the engine, which owns the
            // state they describe; cold compute has nothing to say.
            error = true;
            "{\"error\":\"meta query has no cold computation\"}".to_string()
        }
    };
    // Kernels that degrade *gracefully* (summary, centrality,
    // communities, partition rollback) leave the budget tripped rather
    // than returning an error; surface that as the degraded flag.
    if net.budget().exhaustion().is_some() {
        degraded = true;
    }
    QueryResult {
        payload,
        degraded,
        error,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_graph::builder::from_edges;
    use snap_graph::stream::StreamingGraph;

    fn ring(n: usize) -> snap_graph::CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        from_edges(n, &edges)
    }

    fn engine_on(n: usize, config: ServeConfig) -> Engine {
        let (sg, _) = StreamingGraph::from_csr(&ring(n));
        Engine::new(sg.reader(), config)
    }

    #[test]
    fn request_parsing_is_canonical() {
        let a = Request::parse(r#"{"query":"bfs","source":3,"id":9}"#).unwrap();
        let b = Request::parse(r#"{"id":9,"source":3,"query":"bfs"}"#).unwrap();
        assert_eq!(a.query, b.query);
        assert_eq!(a.query.cache_key(), b.query.cache_key());
        assert_eq!(a.id, 9);
        assert!(Request::parse("{\"query\":\"nope\"}").is_err());
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse("{\"id\":1}").is_err());
        let d = Request::parse(r#"{"query":"summary","deadline_ms":250}"#).unwrap();
        assert_eq!(d.deadline, Some(Duration::from_millis(250)));
        // Both spellings of the recursive partitioner parse (the CLI's
        // and the protocol's, owned by `Method::from_str`) to one cache
        // key.
        let long = Request::parse(r#"{"query":"partition","method":"recursive"}"#).unwrap();
        let short = Request::parse(r#"{"query":"partition","method":"recur"}"#).unwrap();
        assert_eq!(
            long.query.cache_key(),
            "partition method=recursive parts=2 seed=0"
        );
        assert_eq!(short.query.cache_key(), long.query.cache_key());
        assert!(Request::parse(r#"{"query":"partition","method":"metis"}"#).is_err());
        assert!(Request::parse(r#"{"query":"communities","algorithm":"cnm"}"#).is_err());
    }

    #[test]
    fn cache_key_canonicalizes_floats() {
        let q1 = Query::Centrality {
            frac: Some(0.25),
            seed: 1,
            top: 5,
        };
        assert_eq!(q1.cache_key(), "centrality frac=0.25 seed=1 top=5");
        let exact = Query::Centrality {
            frac: None,
            seed: 1,
            top: 5,
        };
        assert_eq!(exact.cache_key(), "centrality frac=exact seed=1 top=5");
    }

    #[test]
    fn second_identical_query_hits_with_identical_payload() {
        let engine = engine_on(64, ServeConfig::default());
        let req = Request::new(Query::Summary { seed: 7 });
        let cold = engine.handle(&req);
        assert_eq!(cold.outcome, Outcome::Miss);
        let hit = engine.handle(&req);
        assert_eq!(hit.outcome, Outcome::Hit);
        assert_eq!(cold.payload, hit.payload, "bit-identical payload");
        let s = engine.stats();
        assert_eq!((s.cache_hits, s.cache_misses), (1, 1));
    }

    #[test]
    fn meta_queries_are_never_cached() {
        let engine = engine_on(8, ServeConfig::default());
        for _ in 0..2 {
            let r = engine.handle(&Request::new(Query::Epoch));
            assert_eq!(r.outcome, Outcome::Miss);
        }
        let stats = engine.handle(&Request::new(Query::Stats));
        assert_eq!(stats.outcome, Outcome::Miss);
        assert_eq!(engine.cache_occupancy().0, 0);
    }

    #[test]
    fn coreness_query_round_trips_and_caches() {
        // A ring is exactly its own 2-core.
        let engine = engine_on(32, ServeConfig::default());
        let req = Request::parse(r#"{"query":"coreness","id":5}"#).unwrap();
        assert_eq!(req.query, Query::Coreness);
        // `kcore` is accepted as an alias and canonicalizes identically.
        let alias = Request::parse(r#"{"query":"kcore"}"#).unwrap();
        assert_eq!(alias.query.cache_key(), req.query.cache_key());
        let cold = engine.handle(&req);
        assert_eq!(cold.outcome, Outcome::Miss);
        let parsed = Json::parse(&cold.to_json_line()).unwrap();
        let payload = parsed.get("payload").unwrap();
        assert_eq!(payload.get("max_core").and_then(Json::as_u64), Some(2));
        assert_eq!(
            payload.get("degeneracy_core_size").and_then(Json::as_u64),
            Some(32)
        );
        let hit = engine.handle(&req);
        assert_eq!(hit.outcome, Outcome::Hit);
        assert_eq!(cold.payload, hit.payload, "bit-identical payload");
    }

    #[test]
    fn admission_sheds_over_capacity() {
        let engine = engine_on(
            8,
            ServeConfig {
                max_pending: 1,
                ..ServeConfig::default()
            },
        );
        let p1 = engine.admit().expect("first fits");
        assert!(engine.admit().is_none(), "second is shed");
        drop(p1);
        assert!(engine.admit().is_some(), "slot released");
        let shed = engine.shed_response(&Request::new(Query::Summary { seed: 0 }));
        assert_eq!(shed.outcome, Outcome::Shed);
        assert!(shed.to_json_line().contains("\"cache\":\"shed\""));
    }

    #[test]
    fn response_line_embeds_payload_verbatim() {
        let engine = engine_on(16, ServeConfig::default());
        let mut req = Request::new(Query::Bfs { source: 0 });
        req.id = 42;
        let resp = engine.handle(&req);
        let line = resp.to_json_line();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("id").and_then(Json::as_u64), Some(42));
        assert_eq!(
            parsed
                .get("payload")
                .and_then(|p| p.get("reached"))
                .and_then(Json::as_u64),
            Some(16)
        );
    }

    #[test]
    fn per_request_report_rides_the_response() {
        let engine = engine_on(16, ServeConfig::default());
        let mut req = Request::new(Query::Bfs { source: 1 });
        req.with_report = true;
        let resp = engine.handle(&req);
        let report =
            snap_obs::RunReport::from_json(resp.report.as_deref().unwrap()).expect("valid report");
        assert!(report.find("serve.request").is_some());
        // The worker thread is clean afterwards: no leaked context.
        assert!(!snap_obs::is_enabled());
    }

    #[test]
    fn cache_eviction_respects_both_limits() {
        let mut cache = ResultCache::new(3, 10_000);
        for i in 0..5 {
            let payload: Arc<str> = Arc::from(format!("{{\"i\":{i}}}").as_str());
            cache.put(0, format!("bfs source={i}"), payload);
        }
        assert_eq!(cache.len(), 3, "entry cap enforced");
        // Oldest two were evicted; newest three remain.
        assert!(cache.get(0, "bfs source=0").is_none());
        assert!(cache.get(0, "bfs source=4").is_some());

        let mut small = ResultCache::new(64, 700);
        for i in 0..10 {
            let payload: Arc<str> = Arc::from("x".repeat(100).as_str());
            small.put(0, format!("k{i}"), payload);
        }
        assert!(
            small.bytes() <= 700,
            "byte budget respected: {}",
            small.bytes()
        );
        assert!(small.len() < 10);
        // A payload larger than the whole budget is refused outright.
        let huge: Arc<str> = Arc::from("y".repeat(1000).as_str());
        let out = small.put(0, "huge".into(), huge);
        assert!(!out.inserted);
    }

    #[test]
    fn epoch_observation_invalidates_exactly_stale_entries() {
        let mut cache = ResultCache::new(64, 1 << 20);
        cache.put(3, "a".into(), Arc::from("1"));
        cache.put(3, "b".into(), Arc::from("2"));
        assert_eq!(cache.observe_epoch(3), 0, "same epoch drops nothing");
        cache.put(4, "c".into(), Arc::from("3")); // observes epoch 4: a, b stale
        assert!(cache.get(3, "a").is_none());
        assert!(cache.get(4, "c").is_some());
        assert_eq!(cache.len(), 1);
        // Stale writes after the bump are refused.
        assert!(!cache.put(3, "late".into(), Arc::from("4")).inserted);
        assert_eq!(cache.bytes(), {
            // Exactly one surviving entry's accounting.
            "c".len() * 2 + "3".len() + ENTRY_OVERHEAD
        });
    }

    #[test]
    fn trace_ids_are_unique_and_monotonic_across_outcomes() {
        let engine = engine_on(16, ServeConfig::default());
        let r1 = engine.handle(&Request::new(Query::Bfs { source: 0 }));
        let r2 = engine.handle(&Request::new(Query::Bfs { source: 0 })); // hit
        let shed = engine.shed_response(&Request::new(Query::Epoch));
        assert_eq!(r1.trace_id, 1);
        assert_eq!(r2.trace_id, 2);
        assert_eq!(shed.trace_id, 3);
        let line = r1.to_json_line();
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(parsed.get("trace_id").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn slow_log_keeps_worst_k_with_queue_compute_split_and_traces() {
        let engine = engine_on(
            64,
            ServeConfig {
                slow_ms: Some(0), // record everything
                slow_log_entries: 2,
                trace_sample: 1, // trace everything
                ..ServeConfig::default()
            },
        );
        // Three requests with distinct queue waits; the two largest
        // dominate wall time, so they are the worst-K survivors.
        for (i, queue_us) in [5_000_000u64, 1, 9_000_000].iter().enumerate() {
            let r =
                engine.handle_with_queue(&Request::new(Query::Bfs { source: i as u32 }), *queue_us);
            // Sampled traces stay off the wire unless asked for.
            assert!(r.report.is_none());
        }
        let slow = engine.slow_queries();
        assert_eq!(slow.len(), 2, "worst-K cap");
        assert!(slow[0].wall_us >= slow[1].wall_us, "slowest first");
        assert_eq!(slow[0].queue_us, 9_000_000);
        assert_eq!(slow[1].queue_us, 5_000_000);
        assert_eq!(slow[0].wall_us, slow[0].queue_us + slow[0].compute_us);
        assert!(slow[0].trace_id > 0);
        // Every request was sampled: the exemplar carries a span tree.
        let report = snap_obs::RunReport::from_json(slow[0].report.as_deref().unwrap())
            .expect("valid sampled trace");
        assert!(report.find("serve.request").is_some());
        // And the stats meta query serves the same exemplars.
        let stats = engine.handle(&Request::new(Query::Stats));
        let parsed = Json::parse(&stats.payload).unwrap();
        let items = parsed
            .get("slow_queries")
            .and_then(Json::as_arr)
            .expect("slow_queries should be an array");
        assert_eq!(items.len(), 2);
        assert!(items[0].get("trace_id").and_then(Json::as_u64).is_some());
        assert!(items[0].get("trace").is_some(), "exemplar embeds the trace");
    }

    #[test]
    fn flight_recorder_is_bounded_and_dump_returns_the_ring() {
        let engine = engine_on(
            16,
            ServeConfig {
                flight_entries: 4,
                ..ServeConfig::default()
            },
        );
        for i in 0..6 {
            engine.handle(&Request::new(Query::Bfs { source: i }));
        }
        let (events, dropped) = engine.flight_events();
        assert_eq!(events.len(), 4, "ring stays bounded");
        assert_eq!(dropped, 2);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert!(events.iter().all(|e| e.what == "request" && e.bytes > 0));

        let dump = engine.handle(&Request::new(Query::Dump));
        assert_eq!(dump.outcome, Outcome::Miss);
        let parsed = Json::parse(&dump.payload).unwrap();
        assert_eq!(parsed.get("events").and_then(Json::as_u64), Some(4));
        let ring = parsed
            .get("ring")
            .and_then(Json::as_arr)
            .expect("dump carries the ring");
        assert_eq!(ring.len(), 4);
        assert!(ring[0].get("trace_id").and_then(Json::as_u64).is_some());
        // Dump is a meta query: live, never cached (the six BFS answers
        // are the only entries).
        assert_eq!(engine.cache_occupancy().0, 6);
    }

    #[test]
    fn merges_and_sheds_ride_the_flight_ring_and_write_postmortems() {
        let path =
            std::env::temp_dir().join(format!("snap_postmortem_{}.ndjson", std::process::id()));
        let engine = engine_on(
            16,
            ServeConfig {
                postmortem_path: Some(path.to_string_lossy().into_owned()),
                ..ServeConfig::default()
            },
        );
        engine.handle(&Request::new(Query::Bfs { source: 1 }));
        engine.note_merge(7, 1234, 55);
        let shed = engine.shed_response(&Request::new(Query::Summary { seed: 0 }));
        assert_eq!(shed.outcome, Outcome::Shed);

        let (events, _) = engine.flight_events();
        let whats: Vec<&str> = events.iter().map(|e| e.what).collect();
        assert_eq!(whats, vec!["request", "merge", "shed"]);
        let merge = &events[1];
        assert_eq!((merge.epoch, merge.bytes, merge.wall_us), (7, 1234, 55));

        // The shed wrote a post-mortem: header line then one event/line.
        let text = std::fs::read_to_string(&path).expect("post-mortem written");
        let mut lines = text.lines();
        let header = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(header.get("reason").and_then(Json::as_str), Some("shed"));
        // The shed event itself is recorded before the dump is written.
        assert_eq!(header.get("events").and_then(Json::as_u64), Some(3));
        assert_eq!(lines.clone().count(), 3);
        assert!(lines.all(|l| Json::parse(l).is_ok()));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn over_deadline_request_is_answered_degraded_and_next_runs_clean() {
        let engine = engine_on(512, ServeConfig::default());
        let mut doomed = Request::new(Query::Summary { seed: 0 });
        doomed.deadline = Some(Duration::ZERO);
        let resp = engine.handle(&doomed);
        assert!(resp.degraded, "zero deadline degrades the answer");
        assert_eq!(resp.outcome, Outcome::Miss);
        // Degraded answers are not cached, and the session budget is not
        // poisoned: the same query without a deadline runs clean.
        let clean = engine.handle(&Request::new(Query::Summary { seed: 0 }));
        assert_eq!(clean.outcome, Outcome::Miss);
        assert!(!clean.degraded, "fresh budget per request");
        // And now it is cached.
        let hit = engine.handle(&Request::new(Query::Summary { seed: 0 }));
        assert_eq!(hit.outcome, Outcome::Hit);
        assert_eq!(hit.payload, clean.payload);
    }
}

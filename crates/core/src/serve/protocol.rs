//! The wire protocol — one JSON line per [`Request`] and [`Response`] —
//! and the cold computation behind each [`Query`].

use crate::session::{CommunityAlgorithm, Network};
use snap_obs::json::{self, Json};
use snap_partition::Method as PartitionMethod;
use std::sync::Arc;
use std::time::Duration;

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
                    .and_then(|source| u32::try_from(source).ok())
                    .ok_or_else(|| "bfs needs \"source\": a vertex id below 2^32".to_string())?,
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
                parts: match v.get("parts").and_then(Json::as_u64).unwrap_or(2) {
                    0 => return Err("\"parts\" must be at least 1".to_string()),
                    parts => parts as usize,
                },
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
            with_report: v.get("report") == Some(&Json::Bool(true)),
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
    pub(super) fn as_str(self) -> &'static str {
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
            ranked.truncate(*top); // clamps `top` to n; nothing is sized by it
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
        // Checked before the partitioner allocates per part.
        Query::Partition { parts, .. } if !(1..=net.num_vertices()).contains(parts) => {
            error = true;
            let n = net.num_vertices();
            format!("{{\"error\":\"parts {parts} out of range (n = {n})\"}}")
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

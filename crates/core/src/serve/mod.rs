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
//!   [`Budget`](snap_budget::Budget) derived from its deadline
//!   ([`Budget::renew`](snap_budget::Budget::renew) semantics:
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

mod cache;
mod engine;
mod protocol;
mod recorder;
mod transport;

pub use cache::{PutOutcome, ResultCache};
pub use engine::{AdmitPermit, Engine, ServeConfig, ServeStats, SLOW_LOG_ENTRIES};
pub use protocol::{compute_payload, Outcome, Query, QueryResult, Request, Response};
pub use recorder::{FlightEvent, SlowQuery, FLIGHT_ENTRIES};
pub use transport::{serve, IDLE_TIMEOUT, MAX_CONNECTIONS, MAX_REQUEST_LINE};

#[cfg(test)]
mod tests {
    use super::cache::ENTRY_OVERHEAD;
    use super::*;
    use snap_graph::builder::from_edges;
    use snap_graph::stream::StreamingGraph;
    use snap_obs::json::Json;
    use std::sync::Arc;
    use std::time::Duration;

    fn ring(n: usize) -> snap_graph::CsrGraph {
        let edges: Vec<(u32, u32)> = (0..n as u32).map(|i| (i, (i + 1) % n as u32)).collect();
        from_edges(n, &edges)
    }

    /// An engine over a ring of `n` vertices.
    pub(super) fn engine_on(n: usize, config: ServeConfig) -> Engine {
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
    fn centrality_top_is_the_full_sort_prefix() {
        // A star: the centre carries every path and the leaves tie at 0,
        // so only the id order breaks their ties. The centre is not
        // vertex 0, so vertex order is not the ranked order.
        let (n, centre) = (64, 17);
        let edges: Vec<(u32, u32)> = (0..n as u32)
            .rev()
            .filter(|&v| v != centre)
            .map(|v| (centre, v))
            .collect();
        let net = crate::session::Network::from_edges(n, &edges);
        let mut ranked: Vec<(usize, f64)> =
            net.betweenness().vertex.into_iter().enumerate().collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        for top in [0, 1, 3, n, n + 5] {
            let entries: Vec<String> = ranked
                .iter()
                .take(top)
                .map(|(v, s)| {
                    let mut entry = format!("{{\"v\":{v},\"score\":");
                    snap_obs::json::write_f64(&mut entry, *s);
                    entry + "}"
                })
                .collect();
            let want = format!("{{\"top\":[{}]}}", entries.join(","));
            let query = Query::Centrality {
                frac: None,
                seed: 0,
                top,
            };
            assert_eq!(compute_payload(&net, &query).payload, want, "top {top}");
        }
    }

    #[test]
    fn out_of_range_parameters_are_refused_where_they_enter() {
        let source = |v: u64| Request::parse(&format!(r#"{{"query":"bfs","source":{v}}}"#));
        let max = source(u32::MAX as u64).unwrap();
        assert_eq!(max.query, Query::Bfs { source: u32::MAX });
        // Not truncated to vertex 3.
        assert!(source(u32::MAX as u64 + 4).unwrap_err().contains("source"));
        let parts = |v: u64| Request::parse(&format!(r#"{{"query":"partition","parts":{v}}}"#));
        assert!(parts(0).unwrap_err().contains("parts"));

        // What only the graph can judge is an error payload, never
        // cached: more parts than vertices (one allocation per part),
        // like a source past the last vertex.
        let engine = engine_on(8, ServeConfig::default());
        for many in [9, 1_000_000_000_000] {
            let resp = engine.handle(&parts(many).unwrap());
            assert!(resp.payload.contains("parts"), "{}", resp.payload);
            assert!(resp.payload.starts_with("{\"error\":"), "{}", resp.payload);
        }
        assert_eq!(engine.cache_occupancy().0, 0);
        let whole = engine.handle(&parts(8).unwrap());
        assert!(
            whole.payload.starts_with("{\"parts\":8,"),
            "{}",
            whole.payload
        );
        // `top` sizes nothing: past n it returns every vertex.
        let top = Request::parse(r#"{"query":"centrality","top":1000000000000}"#).unwrap();
        let ranked = Json::parse(&engine.handle(&top).payload).unwrap();
        assert_eq!(
            ranked.get("top").and_then(Json::as_arr).map(<[Json]>::len),
            Some(8)
        );
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
                trace_sample: 1,  // trace everything
                ..ServeConfig::default()
            },
        );
        // Two more requests than the log keeps, with distinct queue
        // waits 1 s apart in a scrambled order; the largest waits
        // dominate wall time, so they are the worst-K survivors.
        let requests = SLOW_LOG_ENTRIES as u64 + 2;
        for i in 0..requests {
            let queue_us = 1 + (i * 7 % requests) * 1_000_000;
            let r =
                engine.handle_with_queue(&Request::new(Query::Bfs { source: i as u32 }), queue_us);
            // Sampled traces stay off the wire unless asked for.
            assert!(r.report.is_none());
        }
        let slow = engine.slow_queries();
        assert_eq!(slow.len(), SLOW_LOG_ENTRIES, "worst-K cap");
        assert!(
            slow.windows(2).all(|w| w[0].wall_us >= w[1].wall_us),
            "slowest first"
        );
        assert_eq!(slow[0].queue_us, 1 + (requests - 1) * 1_000_000);
        assert_eq!(slow[1].queue_us, 1 + (requests - 2) * 1_000_000);
        assert_eq!(slow[SLOW_LOG_ENTRIES - 1].queue_us, 1 + 2 * 1_000_000);
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
        assert_eq!(items.len(), SLOW_LOG_ENTRIES);
        assert!(items[0].get("trace_id").and_then(Json::as_u64).is_some());
        assert!(items[0].get("trace").is_some(), "exemplar embeds the trace");
    }

    #[test]
    fn flight_recorder_is_bounded_and_dump_returns_the_ring() {
        let engine = engine_on(16, ServeConfig::default());
        for i in 0..FLIGHT_ENTRIES as u32 + 2 {
            engine.handle(&Request::new(Query::Bfs { source: i % 16 }));
        }
        let (events, dropped) = engine.flight.snapshot();
        assert_eq!(events.len(), FLIGHT_ENTRIES, "ring stays bounded");
        assert_eq!(dropped, 2);
        assert!(events.windows(2).all(|w| w[0].ts_us <= w[1].ts_us));
        assert!(events.iter().all(|e| e.what == "request" && e.bytes > 0));

        let dump = engine.handle(&Request::new(Query::Dump));
        assert_eq!(dump.outcome, Outcome::Miss);
        let parsed = Json::parse(&dump.payload).unwrap();
        assert_eq!(
            parsed.get("events").and_then(Json::as_u64),
            Some(FLIGHT_ENTRIES as u64)
        );
        let ring = parsed
            .get("ring")
            .and_then(Json::as_arr)
            .expect("dump carries the ring");
        assert_eq!(ring.len(), FLIGHT_ENTRIES);
        assert!(ring[0].get("trace_id").and_then(Json::as_u64).is_some());
        // Dump is a meta query: live, never cached (the sixteen BFS
        // answers are the only entries).
        assert_eq!(engine.cache_occupancy().0, 16);
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

        let (events, _) = engine.flight.snapshot();
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

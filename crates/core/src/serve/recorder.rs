//! What the engine remembers about past requests: slow-query exemplars,
//! the always-on flight ring, and the post-mortem file written from it.

use super::Outcome;
use snap_obs::json;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

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
    pub(super) fn to_json(&self) -> String {
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
    /// `"request"`, `"merge"`, `"shed"`, or `"panic"`.
    pub what: &'static str,
    /// Trace id for request/shed/panic events, 0 for merges.
    pub trace_id: u64,
    /// Query kind, or `"merge"`.
    pub kind: &'static str,
    /// Snapshot epoch the event happened on.
    pub epoch: u64,
    /// `hit` / `miss` / `shed` / `panic` / `merge`.
    pub outcome: &'static str,
    /// The answer was degraded.
    pub degraded: bool,
    /// Event latency (request wall time, merge wall time; 0 for sheds
    /// and panics).
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

/// Flight-recorder ring capacity: the request / merge / shed / panic
/// summaries it keeps.
pub const FLIGHT_ENTRIES: usize = 256;

/// Always-on bounded ring of [`FlightEvent`]s. One mutex-guarded
/// `VecDeque` push per event — O(1), no allocation once warm — so it can
/// stay on in production without showing up in profiles.
pub(super) struct FlightRecorder {
    ring: Mutex<(VecDeque<FlightEvent>, u64)>,
    start: Instant,
    postmortem_path: Option<String>,
}

impl FlightRecorder {
    pub(super) fn new(postmortem_path: Option<String>) -> FlightRecorder {
        FlightRecorder {
            ring: Mutex::new((VecDeque::with_capacity(FLIGHT_ENTRIES), 0)),
            start: Instant::now(),
            postmortem_path,
        }
    }

    pub(super) fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    pub(super) fn record(&self, ev: FlightEvent) {
        let mut g = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if g.0.len() == FLIGHT_ENTRIES {
            g.0.pop_front();
            g.1 += 1;
        }
        g.0.push_back(ev);
    }

    /// `(events oldest-first, dropped)` snapshot.
    pub(super) fn snapshot(&self) -> (Vec<FlightEvent>, u64) {
        let g = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        (g.0.iter().cloned().collect(), g.1)
    }

    /// Each event as JSON, oldest first, and how many were dropped.
    fn events_json(&self) -> (Vec<String>, u64) {
        let (events, dropped) = self.snapshot();
        (events.iter().map(FlightEvent::to_json).collect(), dropped)
    }

    pub(super) fn dump_json(&self) -> String {
        let (events, dropped) = self.events_json();
        let (count, ring) = (events.len(), events.join(","));
        format!("{{\"events\":{count},\"dropped\":{dropped},\"ring\":[{ring}]}}")
    }

    /// Write the ring as post-mortem NDJSON (header line with the
    /// reason, then one event per line) to the configured path; no-op
    /// without one. Atomic via temp-file rename; IO errors are swallowed
    /// — observability must never take down serving.
    pub(super) fn write_postmortem(&self, reason: &str) {
        let Some(path) = &self.postmortem_path else {
            return;
        };
        let (events, dropped) = self.events_json();
        let mut out = String::from("{\"reason\":");
        json::write_escaped(&mut out, reason);
        let count = events.len();
        out.push_str(&format!(",\"events\":{count},\"dropped\":{dropped}}}\n"));
        for ev in &events {
            out.push_str(ev);
            out.push('\n');
        }
        let tmp = format!("{path}.tmp");
        if std::fs::write(&tmp, out).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }
}

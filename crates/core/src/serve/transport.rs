//! Lines in, lines out: the one request path of the resident service
//! (DESIGN.md §15). A *connection* is a `(BufRead, Write)` pair — stdin
//! and stdout, or an accepted socket stream. Each has a pump thread
//! (bounded line read → [`Request::parse`] → error line | admit → shed
//! line | enqueue); all feed one pool of workers (dequeue → handle →
//! encode → one locked write on the request's own connection), so
//! replies come in completion order, correlated by the echoed `id`.

use super::{AdmitPermit, Engine, Request};
use snap_obs::json::{self, Json};
use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Longest request line accepted, in bytes: what one client can make a
/// pump buffer. A constant, like the cap below — DESIGN.md §15 says why.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Connections pumped at once — the threads clients can make the service
/// spawn; one more is told so and closed.
pub const MAX_CONNECTIONS: usize = 64;

/// The answer to a line that never became a request.
fn error_line(id: u64, error: &str) -> String {
    let mut out = format!("{{\"id\":{id},\"error\":");
    json::write_escaped(&mut out, error);
    out.push('}');
    out
}

/// One connection's reply side, shared by its pump and every worker
/// holding one of its requests.
struct Sink<W> {
    out: Mutex<W>,
    /// A write failed: the client is gone, its pump stops reading.
    closed: AtomicBool,
}

impl<W: Write> Sink<W> {
    /// One line, one locked write: concurrent replies never interleave.
    fn send(&self, mut line: String) {
        line.push('\n');
        let mut out = self.out.lock().unwrap_or_else(|e| e.into_inner());
        let sent = out.write_all(line.as_bytes()).and_then(|()| out.flush());
        self.closed.fetch_or(sent.is_err(), Ordering::Relaxed);
    }
}

/// An admitted request on its way to a worker: the request, its
/// in-flight slot, when it was admitted, and where the answer goes.
type Job<'e, W> = (Request, AdmitPermit<'e>, Instant, Arc<Sink<W>>);

/// Serve every connection `connections` yields through one pool of
/// `workers` threads; returns once the iterator is exhausted, every
/// connection has reached end of input (or an empty line), and the queue
/// has drained.
pub fn serve<'e, R, W>(
    engine: &'e Engine,
    workers: usize,
    connections: impl Iterator<Item = (R, W)>,
) where
    R: BufRead + Send,
    W: Write + Send,
{
    let (tx, rx) = mpsc::channel::<Job<'e, W>>();
    let rx = Mutex::new(rx);
    let open = AtomicUsize::new(0);
    std::thread::scope(|pool| {
        for _ in 0..workers.max(1) {
            pool.spawn(|| work(engine, &rx));
        }
        std::thread::scope(|pumps| {
            for (reader, writer) in connections {
                let sink = Arc::new(Sink {
                    out: Mutex::new(writer),
                    closed: AtomicBool::new(false),
                });
                if open.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                    sink.send(error_line(0, "too many connections"));
                    continue;
                }
                open.fetch_add(1, Ordering::SeqCst);
                let (open, tx) = (&open, &tx);
                pumps.spawn(move || {
                    pump(engine, reader, &sink, tx);
                    open.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        // Every pump has returned: closing the queue lets the workers
        // drain it and exit.
        drop(tx);
    });
}

/// Read one connection to its end, answering what can be answered at
/// arrival (bad lines, sheds) and queueing the rest.
fn pump<'e, W: Write>(
    engine: &'e Engine,
    mut reader: impl BufRead,
    sink: &Arc<Sink<W>>,
    tx: &mpsc::Sender<Job<'e, W>>,
) {
    let mut buf = Vec::new();
    // Inside a line that overran the bound: discard through its newline.
    let mut skipping = false;
    while !sink.closed.load(Ordering::Relaxed) {
        buf.clear();
        let mut bounded = reader.by_ref().take(MAX_REQUEST_LINE as u64 + 1);
        let read = bounded.read_until(b'\n', &mut buf);
        if !read.is_ok_and(|bytes| bytes > 0) {
            break;
        }
        let overran = buf.len() > MAX_REQUEST_LINE && !buf.ends_with(b"\n");
        if overran || skipping {
            if !skipping {
                sink.send(error_line(0, "request line over 1 MiB"));
            }
            skipping = overran;
            continue;
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            sink.send(error_line(0, "request line is not UTF-8"));
            continue;
        };
        let line = line.trim();
        if line.is_empty() {
            break;
        }
        match Request::parse(line) {
            Err(error) => {
                // Echo the id when the line was at least JSON, so the
                // client can still correlate the failure.
                let id = Json::parse(line).ok();
                let id = id.and_then(|v| v.get("id").and_then(Json::as_u64));
                sink.send(error_line(id.unwrap_or(0), &error));
            }
            Ok(req) => match engine.admit() {
                None => sink.send(engine.shed_response(&req).to_json_line()),
                Some(permit) => tx
                    .send((req, permit, Instant::now(), Arc::clone(sink)))
                    .expect("the queue outlives every pump"),
            },
        }
    }
}

/// Answer queued requests until the queue closes. A panicking request
/// is answered `internal`, recorded, and does not take the worker along.
fn work<W: Write>(engine: &Engine, rx: &Mutex<mpsc::Receiver<Job<'_, W>>>) {
    // Hold the receiver lock only for the dequeue.
    let next = || rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
    while let Ok((req, permit, admitted, sink)) = next() {
        let queue_us = admitted.elapsed().as_micros() as u64;
        let answer = catch_unwind(AssertUnwindSafe(|| {
            // The tests' stand-in for a request that panics in the engine.
            assert!(!cfg!(test) || req.id != u64::MAX, "injected panic");
            engine.handle_with_queue(&req, queue_us).to_json_line()
        }));
        drop(permit);
        sink.send(answer.unwrap_or_else(|_| {
            engine.note_panic(&req);
            error_line(req.id, "internal")
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::engine_on;
    use super::super::{Query, ServeConfig};
    use super::*;
    use std::io::{BufReader, Cursor};
    use std::net::Shutdown;
    use std::os::unix::net::UnixStream;

    fn parsed(output: &[u8]) -> Vec<Json> {
        let text = std::str::from_utf8(output).expect("responses are UTF-8");
        let line = |l| Json::parse(l).unwrap_or_else(|e| panic!("{e}: {l}"));
        text.lines().map(line).collect()
    }

    /// One in-memory connection: `input` in, the response lines out.
    fn session(engine: &Engine, workers: usize, input: Vec<u8>) -> Vec<Json> {
        let mut output = Vec::new();
        serve(
            engine,
            workers,
            [(Cursor::new(input), &mut output)].into_iter(),
        );
        parsed(&output)
    }

    fn id(response: &Json) -> u64 {
        response.get("id").and_then(Json::as_u64).expect("id")
    }

    fn error(response: &Json) -> &str {
        response.get("error").and_then(Json::as_str).expect("error")
    }

    /// After a session nothing is in flight: `max_pending` more requests
    /// are admitted (and the next one is not).
    fn assert_no_slot_leaked(engine: &Engine, max_pending: usize) {
        let permits: Vec<_> = (0..max_pending).map(|_| engine.admit()).collect();
        assert!(permits.iter().all(Option::is_some), "a slot leaked");
        assert!(engine.admit().is_none());
    }

    /// A request of exactly `len` bytes: unknown fields are ignored, so
    /// the padding rides along.
    fn padded_request(id: u64, len: usize) -> Vec<u8> {
        let head = format!(r#"{{"id":{id},"query":"epoch","pad":""#);
        let pad = "a".repeat(len - head.len() - 2);
        format!("{head}{pad}\"}}").into_bytes()
    }

    /// How a hostile line must be answered.
    #[derive(Debug, PartialEq)]
    enum Answer {
        /// `{"id":…,"error":…}` at arrival: it never reached the engine.
        Refused,
        /// A response whose payload is an `{"error":…}` object.
        ErrorPayload,
        /// A normal response.
        Served,
    }
    use Answer::*;

    /// The inputs that killed, stalled or silently mis-answered the
    /// server when the transports lived in the binary, and the edges of
    /// the line bound. Each costs its sender exactly one line carrying
    /// its id (0 when the line was not JSON); the request after it is
    /// answered; nothing stays in flight.
    #[test]
    fn hostile_lines_cost_one_line_and_the_next_request_is_answered() {
        let text = |line: &str| line.as_bytes().to_vec();
        let cases: Vec<(Vec<u8>, u64, Answer)> = vec![
            (text(&"[".repeat(300_000)), 0, Refused),
            (
                text(r#"{"id":5,"query":"partition","parts":0}"#),
                5,
                Refused,
            ),
            (
                text(r#"{"id":5,"query":"partition","parts":1000000000000}"#),
                5,
                ErrorPayload,
            ),
            (vec![0xff, 0xfe], 0, Refused),
            (padded_request(5, 400_000), 5, Served),
            (
                text(r#"{"id":5,"query":"bfs","source":4294967299}"#),
                5,
                Refused,
            ),
            (
                text(r#"{"id":5,"query":"centrality","top":1e18}"#),
                5,
                Served,
            ),
            (padded_request(5, MAX_REQUEST_LINE), 5, Served),
            (padded_request(5, MAX_REQUEST_LINE + 1), 0, Refused),
            (padded_request(5, 3 * MAX_REQUEST_LINE + 7), 0, Refused),
            (text("not json"), 0, Refused),
        ];
        for (line, want_id, want) in cases {
            let shown = String::from_utf8_lossy(&line[..line.len().min(60)]).to_string();
            let max_pending = 3;
            let config = ServeConfig {
                max_pending,
                ..ServeConfig::default()
            };
            let engine = engine_on(64, config);
            let mut input = line;
            input.extend_from_slice(b"\n{\"id\":6,\"query\":\"bfs\",\"source\":3}\n");
            let responses = session(&engine, 1, input);
            assert_eq!(responses.len(), 2, "{shown}: {responses:?}");

            let first = responses.iter().find(|r| id(r) == want_id);
            let first = first.unwrap_or_else(|| panic!("{shown}: {responses:?}"));
            let got = match first.get("payload") {
                None => {
                    assert!(!error(first).is_empty(), "{shown}");
                    Refused
                }
                Some(payload) if payload.get("error").is_some() => ErrorPayload,
                Some(_) => Served,
            };
            assert_eq!(got, want, "{shown}: {first:?}");

            let next = responses.iter().find(|r| id(r) == 6).expect("next request");
            let source = next.get("payload").and_then(|p| p.get("source"));
            assert_eq!(source.and_then(Json::as_u64), Some(3), "{shown}");
            let handled = if want == Refused { 1 } else { 2 };
            assert_eq!(engine.stats().requests, handled, "{shown}");
            assert_eq!(engine.stats().shed, 0, "{shown}");
            assert_no_slot_leaked(&engine, max_pending);
        }
    }

    #[test]
    fn an_empty_line_ends_the_connection_and_sheds_are_answered_at_arrival() {
        let config = ServeConfig {
            max_pending: 0,
            ..ServeConfig::default()
        };
        let engine = engine_on(16, config);
        let input = b"{\"id\":1,\"query\":\"epoch\"}\n  \n{\"id\":2,\"query\":\"epoch\"}\n";
        let responses = session(&engine, 2, input.to_vec());
        assert_eq!(responses.len(), 1, "{responses:?}");
        let cache = responses[0].get("cache").and_then(Json::as_str);
        assert_eq!((id(&responses[0]), cache), (1, Some("shed")));
        assert_eq!(engine.stats().requests, 0);
    }

    #[test]
    fn a_panicking_request_is_answered_internal_and_the_worker_keeps_serving() {
        let path = std::env::temp_dir().join(format!("snap_panic_{}.ndjson", std::process::id()));
        let max_pending = 2;
        let config = ServeConfig {
            max_pending,
            postmortem_path: Some(path.to_string_lossy().into_owned()),
            ..ServeConfig::default()
        };
        let engine = engine_on(16, config);
        // One worker: the request after the panic is answered by the
        // thread that caught it.
        let input = format!(
            "{{\"id\":{},\"query\":\"bfs\",\"source\":1,\"report\":true}}\n\
             {{\"id\":2,\"query\":\"bfs\",\"source\":1}}\n",
            u64::MAX
        );
        let responses = session(&engine, 1, input.into_bytes());
        assert_eq!(responses.len(), 2, "{responses:?}");
        assert_eq!(id(&responses[0]), u64::MAX);
        assert_eq!(error(&responses[0]), "internal");
        assert_eq!(id(&responses[1]), 2);
        assert!(responses[1].get("payload").is_some(), "{responses:?}");
        assert_no_slot_leaked(&engine, max_pending);

        let (events, _) = engine.flight_events();
        let whats: Vec<&str> = events.iter().map(|e| e.what).collect();
        assert_eq!(whats, ["panic", "request"]);
        assert_eq!((events[0].kind, events[0].outcome), ("bfs", "panic"));
        let postmortem = std::fs::read_to_string(&path).expect("post-mortem written");
        let header = Json::parse(postmortem.lines().next().unwrap()).unwrap();
        assert_eq!(header.get("reason").and_then(Json::as_str), Some("panic"));
        std::fs::remove_file(&path).ok();
    }

    /// The server's two halves of one end of a socket pair, and the
    /// client's end.
    fn socket() -> ((BufReader<UnixStream>, UnixStream), UnixStream) {
        let (client, server) = UnixStream::pair().expect("socket pair");
        let reader = BufReader::new(server.try_clone().expect("clone"));
        ((reader, server), client)
    }

    /// Send `requests`, half-close, and read the answers to the end.
    fn converse(mut client: UnixStream, requests: &str) -> Vec<Json> {
        client.write_all(requests.as_bytes()).expect("send");
        client.shutdown(Shutdown::Write).expect("half-close");
        let mut output = Vec::new();
        client.read_to_end(&mut output).expect("receive");
        parsed(&output)
    }

    fn bfs_requests(ids: std::ops::Range<u64>) -> String {
        let line = |id| format!("{{\"id\":{id},\"query\":\"bfs\",\"source\":{}}}\n", id % 16);
        ids.map(line).collect()
    }

    #[test]
    fn connections_share_one_pool_and_each_gets_only_its_own_answers() {
        let engine = engine_on(16, ServeConfig::default());
        let (a_server, a) = socket();
        let (b_server, b) = socket();
        // A third client sends a request and is gone before the server
        // starts: the write of its answer fails, and nobody else notices.
        let (gone_server, mut gone) = socket();
        gone.write_all(bfs_requests(900..901).as_bytes()).unwrap();
        drop(gone);
        std::thread::scope(|scope| {
            let servers = [gone_server, a_server, b_server].into_iter();
            scope.spawn(|| serve(&engine, 2, servers));
            let a = scope.spawn(|| converse(a, &bfs_requests(100..140)));
            let b = scope.spawn(|| converse(b, &bfs_requests(200..240)));
            for (client, ids) in [(a, 100..140), (b, 200..240)] {
                let mut seen: Vec<u64> = client.join().unwrap().iter().map(id).collect();
                seen.sort_unstable();
                assert_eq!(seen, ids.collect::<Vec<u64>>());
            }
        });
        assert_eq!(engine.stats().requests, 81);
        assert_no_slot_leaked(&engine, ServeConfig::default().max_pending);
    }

    #[test]
    fn a_connection_past_the_cap_is_told_so_and_closed() {
        let engine = engine_on(16, ServeConfig::default());
        let (servers, clients): (Vec<_>, Vec<_>) = (0..MAX_CONNECTIONS).map(|_| socket()).unzip();
        let (extra_server, extra) = socket();
        std::thread::scope(|scope| {
            let all = servers.into_iter().chain([extra_server]);
            scope.spawn(|| serve(&engine, 1, all));
            // The first MAX_CONNECTIONS are open and idle (their clients
            // have sent nothing yet), so the next one is over the cap.
            let refused = converse(extra, "");
            assert_eq!(refused.len(), 1, "{refused:?}");
            assert_eq!(
                (id(&refused[0]), error(&refused[0])),
                (0, "too many connections")
            );
            // The connections under the cap are served as ever.
            for (i, client) in clients.into_iter().enumerate() {
                let ids = i as u64..i as u64 + 1;
                let answers = converse(client, &bfs_requests(ids.clone()));
                assert_eq!(
                    answers.iter().map(id).collect::<Vec<u64>>(),
                    ids.collect::<Vec<u64>>()
                );
            }
        });
        assert_eq!(engine.stats().requests, MAX_CONNECTIONS as u64);
    }

    /// `--workers` bounds a socket's concurrency and `queue_us` is
    /// measured there too: with one worker, the second of two requests
    /// sent together waits in the queue while the first computes.
    #[test]
    fn one_worker_over_a_socket_reports_the_queue_wait() {
        let config = ServeConfig {
            slow_ms: Some(0),
            ..ServeConfig::default()
        };
        let engine = engine_on(512, config);
        let (server, client) = socket();
        let requests = "{\"id\":1,\"query\":\"centrality\"}\n{\"id\":2,\"query\":\"summary\"}\n";
        std::thread::scope(|scope| {
            scope.spawn(|| serve(&engine, 1, [server].into_iter()));
            let answers = converse(client, requests);
            // One worker answers in arrival order.
            assert_eq!(answers.iter().map(id).collect::<Vec<u64>>(), [1, 2]);
        });
        let slow = engine.slow_queries();
        let second = slow.iter().find(|q| q.req_id == 2).expect("logged");
        assert!(second.queue_us > 0, "{second:?}");
        assert_eq!(second.wall_us, second.queue_us + second.compute_us);
        assert_eq!(second.kind, Query::Summary { seed: 0 }.kind());
    }
}

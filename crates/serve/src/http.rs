//! Minimal HTTP/1.1 front-end over [`Service`], built only on
//! `std::net::TcpListener` — no async runtime, no external HTTP crate.
//!
//! One thread per connection, `Connection: close` semantics (each request
//! gets its own connection), query-string parameters. The surface:
//!
//! | Route                           | Meaning                                |
//! |---------------------------------|----------------------------------------|
//! | `GET /health`                   | liveness probe                         |
//! | `GET /recommend?user=U&k=K`     | top-K for user `U` (`k` defaults to 10)|
//! | `POST /ingest?user=U&item=I`    | record a live interaction              |
//! | `GET /stats`                    | serving counters + histogram snapshot  |
//! | `GET /audit`                    | shadow-oracle audit + drift snapshot   |
//! | `GET /metrics`                  | Prometheus text exposition (live)      |
//! | `GET /traces`                   | flight-recorder dump as JSON           |
//!
//! Degradation maps onto status codes: admission shedding is `503` with a
//! JSON error body, unknown ids are `404`, malformed parameters are `400`,
//! and a peer that sends no complete request head within
//! [`HttpServer::IO_TIMEOUT`] gets `408` (counted in `serve.http.timeout`).
//! The server never panics a connection thread on bad input.
//!
//! Every connection mints a request trace (`http.request` root) at accept,
//! subject to the flight recorder's sampling; the parse, batcher, engine,
//! pool, and response-write stages all record spans into its tree, and the
//! trace finishes with the request's outcome (`Ok`/`Shed`/`Error`, with
//! slow-but-Ok requests promoted to `Slow` past the configured threshold).

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use inbox_kg::{ItemId, UserId};
use inbox_obs::{ActiveTrace, AuditSnapshot, TraceOutcome};
use serde::Serialize;

use crate::engine::Recommendation;
use crate::error::ServeError;
use crate::Service;

/// A running HTTP server wrapping a [`Service`].
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Mutex<Option<JoinHandle<()>>>,
}

impl HttpServer {
    /// Read and write timeout of every accepted socket. A peer that stalls
    /// this long before completing its request head is answered `408`, so
    /// an idle connection cannot pin its thread.
    pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept loop in a background thread.
    pub fn bind(service: Arc<Service>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("inbox-serve-http".into())
                .spawn(move || accept_loop(&listener, &service, &stop))
                .expect("spawn http acceptor")
        };
        Ok(Self {
            addr,
            stop,
            acceptor: Mutex::new(Some(acceptor)),
        })
    }

    /// The bound address (useful when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the acceptor thread.
    /// Idempotent; in-flight connection threads finish their one response.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The acceptor blocks in `accept`; poke it with a throwaway
        // connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.lock().unwrap().take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, service: &Arc<Service>, stop: &Arc<AtomicBool>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        let service = Arc::clone(service);
        let spawned = std::thread::Builder::new()
            .name("inbox-serve-conn".into())
            .spawn(move || {
                let _ = handle_connection(stream, &service);
            });
        // Thread exhaustion is load shedding too: drop the connection.
        drop(spawned);
    }
}

/// A parsed request line: method, path, and query parameters.
struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
}

impl Request {
    fn param(&self, name: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Longest accepted request or header line, in bytes. Longer lines are a
/// client error, not a reason to buffer without bound.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most header lines accepted before the request is rejected.
const MAX_HEADER_LINES: usize = 128;
/// Hard ceiling on bytes read from one connection (head + drained body).
const MAX_REQUEST_BYTES: u64 = 256 * 1024;

/// Reads and parses one request head. `Ok(None)` means the bytes on the
/// wire are not an acceptable request (no target, oversized line, header
/// flood) and the caller should answer `400`; `Err` is a genuine socket
/// failure (including non-UTF-8 bytes surfacing from `read_line`).
fn parse_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    let mut reader = BufReader::new(std::io::Read::by_ref(stream).take(MAX_REQUEST_BYTES));
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.len() > MAX_LINE_BYTES {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Ok(None);
    };
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    let request = Request {
        method: method.to_string(),
        path: path.to_string(),
        query,
    };
    // Drain the headers so the peer can read our response cleanly.
    let mut content_length = 0usize;
    let mut header_lines = 0usize;
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 {
            break;
        }
        header_lines += 1;
        if header_lines > MAX_HEADER_LINES || header.len() > MAX_LINE_BYTES {
            return Ok(None);
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header
            .to_ascii_lowercase()
            .strip_prefix("content-length:")
            .map(str::trim)
        {
            content_length = v.parse().unwrap_or(0);
        }
    }
    // Drain any body too (we only use query parameters); cap the read so a
    // hostile Content-Length cannot pin the thread.
    let mut body = vec![0u8; content_length.min(64 * 1024)];
    if !body.is_empty() {
        let _ = reader.read_exact(&mut body);
    }
    Ok(Some(request))
}

/// Content type of every JSON route.
const JSON: &str = "application/json";
/// Content type of the Prometheus text exposition (`GET /metrics`).
const PROMETHEUS: &str = "text/plain; version=0.0.4";

/// One response, and the outcome its request's trace finishes with.
struct Reply {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: String,
    outcome: TraceOutcome,
}

impl Reply {
    fn ok(content_type: &'static str, body: String) -> Self {
        Self {
            status: 200,
            reason: "OK",
            content_type,
            body,
            outcome: TraceOutcome::Ok,
        }
    }

    fn json(body: &impl Serialize) -> Self {
        Self::ok(JSON, serde_json::to_string(body).expect("bodies serialise"))
    }

    fn error(status: u16, reason: &'static str, message: &str) -> Self {
        let body = ErrorBody {
            error: message.to_string(),
        };
        Self {
            status,
            reason,
            outcome: TraceOutcome::Error,
            ..Self::json(&body)
        }
    }

    fn bad_request(message: &str) -> Self {
        Self::error(400, "Bad Request", message)
    }

    /// The status a typed serving error maps onto; overload is a shed.
    fn serve_error(err: &ServeError) -> Self {
        let (status, reason) = match err {
            ServeError::Overloaded | ServeError::Closed => (503, "Service Unavailable"),
            ServeError::UnknownUser(_) | ServeError::UnknownItem(_) => (404, "Not Found"),
        };
        let outcome = match err {
            ServeError::Overloaded => TraceOutcome::Shed,
            _ => TraceOutcome::Error,
        };
        Self {
            outcome,
            ..Self::error(status, reason, &err.to_string())
        }
    }

    /// Writes the response under an `http.write` span when the request is
    /// traced.
    fn write(&self, stream: &mut TcpStream, trace: Option<&ActiveTrace>) {
        let _write_span = trace.map(|t| t.span("http.write", Some(0)));
        let response = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            self.status,
            self.reason,
            self.content_type,
            self.body.len(),
            self.body
        );
        let _ = stream.write_all(response.as_bytes());
        let _ = stream.flush();
    }
}

/// Body of every error status.
#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

/// Body of `GET /stats`: the engine's counters, the admission queue, the
/// batch-size and queue-depth histograms (`null` before the first
/// sample), and the audit summary.
#[derive(Serialize)]
struct StatsBody {
    requests: u64,
    rebuilds: u64,
    cache_hits: u64,
    evictions: u64,
    fallbacks: u64,
    ingests: u64,
    sheds: u64,
    batches: u64,
    queued: usize,
    cached_boxes: usize,
    batch_size: Option<ValueStat>,
    queue_depth: Option<ValueStat>,
    audit_backlog: usize,
    audit_sampled: u64,
    audit_audited: u64,
    audit_window_recall: f64,
    audit_degraded: bool,
}

/// One value histogram in `/stats`.
#[derive(Serialize)]
struct ValueStat {
    count: u64,
    mean: u64,
    p50: u64,
    p95: u64,
    p99: u64,
}

fn value_stat(name: &str) -> Option<ValueStat> {
    let s = inbox_obs::value_snapshot(name)?;
    Some(ValueStat {
        count: s.count,
        mean: s.mean,
        p50: s.p50,
        p95: s.p95,
        p99: s.p99,
    })
}

/// Body of `GET /audit`: the audit snapshot, the live queue backlog, and
/// the drift gauges the audit worker publishes.
#[derive(Serialize)]
struct AuditBody {
    audit: AuditSnapshot,
    backlog: usize,
    drift: BTreeMap<String, f64>,
}

fn recommendation_body(r: &Recommendation) -> String {
    let items: Vec<String> = r
        .items
        .iter()
        .map(|(item, score)| format!("{{\"item\":{},\"score\":{score}}}", item.0))
        .collect();
    format!(
        "{{\"user\":{},\"version\":{},\"fallback\":{},\"items\":[{}]}}",
        r.user.0,
        r.version,
        r.fallback,
        items.join(",")
    )
}

fn handle_connection(mut stream: TcpStream, service: &Service) -> std::io::Result<()> {
    stream.set_read_timeout(Some(HttpServer::IO_TIMEOUT))?;
    stream.set_write_timeout(Some(HttpServer::IO_TIMEOUT))?;
    // One trace per connection == one trace per request (`Connection:
    // close`). The flight recorder promotes slow-but-Ok requests past the
    // configured threshold on `finish`.
    let trace = inbox_obs::start_trace("http.request");
    let outcome = respond(&mut stream, service, trace.as_ref());
    if let Some(trace) = trace {
        trace.finish(outcome);
    }
    Ok(())
}

fn respond(stream: &mut TcpStream, service: &Service, trace: Option<&ActiveTrace>) -> TraceOutcome {
    // Both unacceptable requests (`Ok(None)`) and read errors (e.g.
    // non-UTF-8 bytes in the request line) get an explicit 400, and a peer
    // that stalls past the read timeout a 408: the server answers every
    // connection it accepted rather than silently hanging up.
    let request = {
        let _parse_span = trace.map(|t| t.span("http.parse", Some(0)));
        parse_request(stream)
    };
    let reply = match request {
        Ok(Some(request)) => {
            // Chaos site: drop the connection after a full parse, before
            // any byte of the response — the client sees a clean EOF,
            // never a half-written or interleaved response, and the
            // server must keep serving.
            if inbox_obs::failpoint!("serve.http.torn_response") {
                return TraceOutcome::Error;
            }
            route(&request, service, trace)
        }
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            inbox_obs::counter("serve.http.timeout").incr();
            Reply::error(408, "Request Timeout", "request timeout")
        }
        Ok(None) | Err(_) => Reply::bad_request("bad request"),
    };
    reply.write(stream, trace);
    reply.outcome
}

fn route(request: &Request, service: &Service, trace: Option<&ActiveTrace>) -> Reply {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => Reply::ok(JSON, "{\"status\":\"ok\"}".to_string()),
        ("GET", "/recommend") => {
            let user = request.param("user").and_then(|v| v.parse::<u32>().ok());
            let k = match request.param("k") {
                None => Some(10),
                Some(v) => v.parse::<usize>().ok(),
            };
            let (Some(user), Some(k)) = (user, k) else {
                return Reply::bad_request("recommend needs user=<u32> and optional k=<usize>");
            };
            let answer = match trace {
                Some(t) => service.recommend_traced(UserId(user), k, t),
                None => service.recommend(UserId(user), k),
            };
            match answer {
                Ok(r) => Reply::ok(JSON, recommendation_body(&r)),
                Err(e) => Reply::serve_error(&e),
            }
        }
        ("POST", "/ingest") => {
            let user = request.param("user").and_then(|v| v.parse::<u32>().ok());
            let item = request.param("item").and_then(|v| v.parse::<u32>().ok());
            let (Some(user), Some(item)) = (user, item) else {
                return Reply::bad_request("ingest needs user=<u32> and item=<u32>");
            };
            match service.ingest(UserId(user), ItemId(item)) {
                Ok(receipt) => Reply::ok(
                    JSON,
                    format!(
                        "{{\"user\":{},\"item\":{},\"version\":{},\"history_changed\":{},\"mask_changed\":{}}}",
                        receipt.user.0,
                        receipt.item.0,
                        receipt.version,
                        receipt.history_changed,
                        receipt.mask_changed
                    ),
                ),
                Err(e) => Reply::serve_error(&e),
            }
        }
        ("GET", "/stats") => {
            let s = service.stats();
            let audit = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
            Reply::json(&StatsBody {
                requests: s.requests,
                rebuilds: s.rebuilds,
                cache_hits: s.cache_hits,
                evictions: s.evictions,
                fallbacks: s.fallbacks,
                ingests: s.ingests,
                sheds: s.sheds,
                batches: s.batches,
                queued: service.queued(),
                cached_boxes: service.engine().cache_len(),
                batch_size: value_stat("serve.batch.size"),
                queue_depth: value_stat("serve.queue.depth"),
                audit_backlog: service.audit_backlog(),
                audit_sampled: audit.sampled,
                audit_audited: audit.audited,
                audit_window_recall: audit.window_recall,
                audit_degraded: audit.degraded,
            })
        }
        ("GET", "/audit") => Reply::json(&AuditBody {
            audit: inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS),
            backlog: service.audit_backlog(),
            drift: inbox_obs::series()
                .iter()
                .filter(|s| s.kind == inbox_obs::Kind::Gauge && !s.owned())
                .map(|s| (s.name.to_string(), s.gauge()))
                .collect(),
        }),
        ("GET", "/metrics") => Reply::ok(PROMETHEUS, inbox_obs::prometheus_text()),
        ("GET", "/traces") => Reply::ok(JSON, inbox_obs::traces_json()),
        _ => Reply::error(404, "Not Found", "no such route"),
    }
}

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
//! | `GET /profile`                  | folded stacks (flamegraph.pl input)    |
//!
//! Degradation maps onto status codes: admission shedding is `503` with a
//! JSON error body, unknown ids are `404`, malformed parameters are `400`.
//! The server never panics a connection thread on bad input.
//!
//! Every connection mints a request trace (`http.request` root) at accept,
//! subject to the flight recorder's sampling; the parse, batcher, engine,
//! pool, and response-write stages all record spans into its tree, and the
//! trace finishes with the request's outcome (`Ok`/`Shed`/`Error`, with
//! slow-but-Ok requests promoted to `Slow` past the configured threshold).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use inbox_kg::{ItemId, UserId};

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

fn write_response_with_type(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) {
    let response = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}

/// [`write_response_with_type`] under an `http.write` span when the
/// request is traced.
fn write_traced(
    stream: &mut TcpStream,
    trace: Option<&inbox_obs::ActiveTrace>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) {
    let _write_span = trace.map(|t| t.span("http.write", Some(0)));
    write_response_with_type(stream, status, reason, content_type, body);
}

fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}", json_string(message))
}

/// Escapes a string for a JSON value (quotes, backslashes, control chars).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
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

fn serve_error(stream: &mut TcpStream, trace: Option<&inbox_obs::ActiveTrace>, err: &ServeError) {
    let (status, reason) = match err {
        ServeError::Overloaded | ServeError::Closed => (503, "Service Unavailable"),
        ServeError::UnknownUser(_) | ServeError::UnknownItem(_) => (404, "Not Found"),
    };
    write_traced(
        stream,
        trace,
        status,
        reason,
        JSON,
        &error_body(&err.to_string()),
    );
}

/// JSON rendering of a value histogram's snapshot, `null` when the
/// instrument has never recorded.
fn value_stat(name: &str) -> String {
    match inbox_obs::value_snapshot(name) {
        Some(s) => format!(
            "{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
            s.count, s.mean, s.p50, s.p95, s.p99
        ),
        None => "null".to_string(),
    }
}

fn handle_connection(mut stream: TcpStream, service: &Service) -> std::io::Result<()> {
    // One trace per connection == one trace per request (`Connection:
    // close`). `respond` reports the outcome; the flight recorder promotes
    // slow-but-Ok requests past the configured threshold on `finish`.
    let trace = inbox_obs::start_trace("http.request");
    let outcome = respond(&mut stream, service, trace.as_ref());
    if let Some(trace) = trace {
        trace.finish(outcome);
    }
    Ok(())
}

fn respond(
    stream: &mut TcpStream,
    service: &Service,
    trace: Option<&inbox_obs::ActiveTrace>,
) -> inbox_obs::TraceOutcome {
    use inbox_obs::TraceOutcome;
    // Both unacceptable requests (`Ok(None)`) and read errors (e.g.
    // non-UTF-8 bytes in the request line) get an explicit 400: the server
    // answers every connection it accepted rather than silently hanging up.
    let request = {
        let _parse_span = trace.map(|t| t.span("http.parse", Some(0)));
        parse_request(stream)
    };
    let request = match request {
        Ok(Some(request)) => request,
        Ok(None) | Err(_) => {
            write_traced(
                stream,
                trace,
                400,
                "Bad Request",
                JSON,
                &error_body("bad request"),
            );
            return TraceOutcome::Error;
        }
    };
    // Chaos site: drop the connection after a full parse, before any byte
    // of the response — the client sees a clean EOF, never a half-written
    // or interleaved response, and the server must keep serving.
    if inbox_obs::failpoint!("serve.http.torn_response") {
        return TraceOutcome::Error;
    }
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/health") => {
            write_traced(stream, trace, 200, "OK", JSON, "{\"status\":\"ok\"}");
            TraceOutcome::Ok
        }
        ("GET", "/recommend") => {
            let user = request.param("user").and_then(|v| v.parse::<u32>().ok());
            let k = match request.param("k") {
                None => Some(10),
                Some(v) => v.parse::<usize>().ok(),
            };
            let (Some(user), Some(k)) = (user, k) else {
                write_traced(
                    stream,
                    trace,
                    400,
                    "Bad Request",
                    JSON,
                    &error_body("recommend needs user=<u32> and optional k=<usize>"),
                );
                return TraceOutcome::Error;
            };
            let answer = match trace {
                Some(t) => service.recommend_traced(UserId(user), k, t),
                None => service.recommend(UserId(user), k),
            };
            match answer {
                Ok(r) => {
                    write_traced(stream, trace, 200, "OK", JSON, &recommendation_body(&r));
                    TraceOutcome::Ok
                }
                Err(e) => {
                    serve_error(stream, trace, &e);
                    match e {
                        ServeError::Overloaded => TraceOutcome::Shed,
                        _ => TraceOutcome::Error,
                    }
                }
            }
        }
        ("POST", "/ingest") => {
            let user = request.param("user").and_then(|v| v.parse::<u32>().ok());
            let item = request.param("item").and_then(|v| v.parse::<u32>().ok());
            let (Some(user), Some(item)) = (user, item) else {
                write_traced(
                    stream,
                    trace,
                    400,
                    "Bad Request",
                    JSON,
                    &error_body("ingest needs user=<u32> and item=<u32>"),
                );
                return TraceOutcome::Error;
            };
            match service.ingest(UserId(user), ItemId(item)) {
                Ok(receipt) => {
                    let body = format!(
                        "{{\"user\":{},\"item\":{},\"version\":{},\"history_changed\":{},\"mask_changed\":{}}}",
                        receipt.user.0,
                        receipt.item.0,
                        receipt.version,
                        receipt.history_changed,
                        receipt.mask_changed
                    );
                    write_traced(stream, trace, 200, "OK", JSON, &body);
                    TraceOutcome::Ok
                }
                Err(e) => {
                    serve_error(stream, trace, &e);
                    TraceOutcome::Error
                }
            }
        }
        ("GET", "/stats") => {
            let s = service.stats();
            let audit = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
            let body = format!(
                "{{\"requests\":{},\"rebuilds\":{},\"cache_hits\":{},\"evictions\":{},\"fallbacks\":{},\"ingests\":{},\"sheds\":{},\"batches\":{},\"queued\":{},\"cached_boxes\":{},\"batch_size\":{},\"queue_depth\":{},\"audit_backlog\":{},\"audit_sampled\":{},\"audit_audited\":{},\"audit_window_recall\":{},\"audit_degraded\":{}}}",
                s.requests,
                s.rebuilds,
                s.cache_hits,
                s.evictions,
                s.fallbacks,
                s.ingests,
                s.sheds,
                s.batches,
                service.queued(),
                service.engine().cache_len(),
                value_stat("serve.batch.size"),
                value_stat("serve.queue.depth"),
                service.audit_backlog(),
                audit.sampled,
                audit.audited,
                audit.window_recall,
                audit.degraded,
            );
            write_traced(stream, trace, 200, "OK", JSON, &body);
            TraceOutcome::Ok
        }
        ("GET", "/audit") => {
            // The serde-rendered audit snapshot, wrapped with the live
            // queue backlog and the drift gauges the worker publishes.
            let snap = inbox_obs::audit_snapshot(inbox_obs::ALERT_WINDOW_SECS);
            let audit = serde_json::to_string(&snap).unwrap_or_else(|_| "null".to_string());
            let drift: Vec<String> = inbox_obs::series()
                .iter()
                .filter(|s| s.kind == inbox_obs::Kind::Gauge && !s.owned())
                .map(|s| format!("{}:{}", json_string(s.name), s.gauge()))
                .collect();
            let body = format!(
                "{{\"audit\":{audit},\"backlog\":{},\"drift\":{{{}}}}}",
                service.audit_backlog(),
                drift.join(","),
            );
            write_traced(stream, trace, 200, "OK", JSON, &body);
            TraceOutcome::Ok
        }
        ("GET", "/metrics") => {
            write_traced(
                stream,
                trace,
                200,
                "OK",
                PROMETHEUS,
                &inbox_obs::prometheus_text(),
            );
            TraceOutcome::Ok
        }
        ("GET", "/traces") => {
            write_traced(stream, trace, 200, "OK", JSON, &inbox_obs::traces_json());
            TraceOutcome::Ok
        }
        ("GET", "/profile") => {
            // Folded stacks over the flight recorder's retained traces —
            // pipe straight into `flamegraph.pl`.
            write_traced(
                stream,
                trace,
                200,
                "OK",
                "text/plain",
                &inbox_obs::folded_text(),
            );
            TraceOutcome::Ok
        }
        _ => {
            write_traced(
                stream,
                trace,
                404,
                "Not Found",
                JSON,
                &error_body("no such route"),
            );
            TraceOutcome::Error
        }
    }
}

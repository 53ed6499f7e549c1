//! Minimal HTTP/1.1 front-end over [`Service`], built only on
//! `std::net::TcpListener` — no async runtime, no external HTTP crate.
//!
//! One acceptor thread hands accepted sockets to a fixed pool of
//! [`ServeConfig::threads`](crate::ServeConfig) connection workers through
//! one bounded queue. A worker reads the request, answers it inline and
//! writes the reply: `Connection: close` semantics (each request gets its
//! own connection), query-string parameters. The surface:
//!
//! | Route                           | Meaning                                |
//! |---------------------------------|----------------------------------------|
//! | `GET /health`                   | liveness probe                         |
//! | `GET /recommend?user=U&k=K`     | top-K for user `U` (`k` defaults to 10)|
//! | `POST /ingest?user=U&item=I`    | record a live interaction              |
//! | `GET /stats`                    | serving counters, queue, cached boxes  |
//! | `GET /audit`                    | shadow-oracle audit + drift snapshot   |
//! | `GET /metrics`                  | Prometheus text exposition (live)      |
//! | `GET /traces`                   | flight-recorder dump as JSON           |
//!
//! Degradation maps onto status codes: a connection accepted while
//! [`ServeConfig::queue_cap`](crate::ServeConfig) others wait is shed at
//! once with `503` and a JSON error body, unknown ids are `404`, malformed
//! parameters are `400`, and a peer whose request has not fully arrived
//! [`HttpServer::IO_TIMEOUT`] after accept gets `408` (counted in
//! `serve.http.timeout`).
//!
//! Every connection has one deadline, [`HttpServer::IO_TIMEOUT`] after
//! accept, for reading its request and writing the reply. A worker reads
//! for at most [`HttpServer::HEAD_GRACE`] after accept; a request still
//! incomplete then is a slow peer, and the rest of it is read on a thread
//! of its own, which also answers it. So no peer holds a worker past the
//! grace, however it trickles. A panic while serving a connection costs
//! that connection only; the worker lives on.
//!
//! Every connection mints a request trace (`http.request` root) at accept,
//! subject to the flight recorder's sampling; the accept queue, parse,
//! engine and response-write stages all record spans into its tree, and
//! the trace finishes with the request's outcome (`Ok`/`Shed`/`Error`,
//! with slow-but-Ok requests promoted to `Slow` past the configured
//! threshold).

use std::collections::BTreeMap;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use inbox_kg::{ItemId, UserId};
use inbox_obs::{ActiveTrace, AuditSnapshot, TraceOutcome};
use serde::Serialize;

use crate::engine::Recommendation;
use crate::error::ServeError;
use crate::Service;

/// Pause after a failed `accept`. Errors such as `EMFILE` persist until a
/// descriptor frees up; without the pause the acceptor would spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A running HTTP server wrapping a [`Service`]: one acceptor thread and
/// [`ServeConfig::threads`](crate::ServeConfig) connection workers. A
/// connection accepted while [`ServeConfig::queue_cap`](crate::ServeConfig)
/// others wait (for a worker, or for the rest of their request) is
/// answered `503` at once; one whose request is incomplete
/// [`HEAD_GRACE`](HttpServer::HEAD_GRACE) after accept is read and
/// answered on a thread of its own; a panic while serving a connection
/// drops that connection only.
pub struct HttpServer {
    addr: SocketAddr,
    front: Arc<Front>,
    /// The acceptor, then the workers.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// State the acceptor, the workers and the slow-peer threads share.
struct Front {
    service: Arc<Service>,
    stop: AtomicBool,
    /// Connections admitted and waiting: queued for a worker, or on a
    /// slow-peer thread that has not read their whole request yet.
    waiting: AtomicUsize,
    queue_cap: usize,
}

/// An accepted connection on its way to an answer: when it was accepted,
/// its request as read so far, and its trace with the trace's open
/// `http.queue` span.
struct Conn {
    stream: TcpStream,
    accepted: Instant,
    pending: Pending,
    trace: Option<(ActiveTrace, u32)>,
}

impl HttpServer {
    /// A connection's deadline, counted from accept, for reading its
    /// request and writing the reply. A peer whose request has not fully
    /// arrived by then is answered `408`, so a trickling peer cannot pin a
    /// thread.
    pub const IO_TIMEOUT: Duration = Duration::from_secs(2);

    /// How long after accept a worker reads a connection's request. A
    /// request still incomplete then is read and answered on a thread of
    /// its own, so a slow peer holds a worker for at most this long; a
    /// connection that waited this long in the queue gets only
    /// non-blocking reads. The serving benchmark's requests all arrive
    /// within 5 ms of accept on a 2-vCPU host (DESIGN.md §8).
    pub const HEAD_GRACE: Duration = Duration::from_millis(10);

    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// acceptor and the service's connection workers.
    pub fn bind(service: Arc<Service>, addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let (threads, queue_cap) = service.pool_shape();
        let front = Arc::new(Front {
            service,
            stop: AtomicBool::new(false),
            waiting: AtomicUsize::new(0),
            queue_cap,
        });
        let (tx, rx) = mpsc::sync_channel(queue_cap);
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(threads + 1);
        handles.push({
            let front = Arc::clone(&front);
            std::thread::Builder::new()
                .name("inbox-serve-http".into())
                .spawn(move || accept_loop(&listener, &tx, &front))
                .expect("spawn http acceptor")
        });
        for _ in 0..threads {
            let (front, rx) = (Arc::clone(&front), Arc::clone(&rx));
            handles.push(
                std::thread::Builder::new()
                    .name("inbox-serve-worker".into())
                    .spawn(move || worker_loop(&rx, &front))
                    .expect("spawn http worker"),
            );
        }
        Ok(Self {
            addr,
            front,
            threads: Mutex::new(handles),
        })
    }

    /// The bound address (useful when binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections, lets the workers answer what is
    /// already queued, and joins the acceptor and the workers. Idempotent;
    /// slow peers finish on their own threads, by their deadline.
    pub fn shutdown(&self) {
        if self.front.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The acceptor blocks in `accept`; poke it with a throwaway
        // connection so it observes the stop flag. Its exit drops the
        // queue's sender, which ends each worker once the queue is empty.
        let _ = TcpStream::connect(self.addr);
        let handles = std::mem::take(
            &mut *self
                .threads
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for handle in handles {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, queue: &SyncSender<Conn>, front: &Front) {
    loop {
        let conn = if inbox_obs::failpoint!("serve.http.accept_error") {
            Err(io::Error::other(
                "injected failpoint: serve.http.accept_error",
            ))
        } else {
            listener.accept()
        };
        if front.stop.load(Ordering::SeqCst) {
            return;
        }
        match conn {
            Ok((stream, _)) => admit(stream, queue, front),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Starts the connection's trace and queues it for a worker, or sheds it
/// with `503` when `queue_cap` connections already wait.
fn admit(stream: TcpStream, queue: &SyncSender<Conn>, front: &Front) {
    let accepted = Instant::now();
    let trace = inbox_obs::start_trace("http.request");
    let queue_span = trace.as_ref().map(|t| t.open_span("http.queue", Some(0)));
    let conn = Conn {
        stream,
        accepted,
        pending: Pending::default(),
        trace: trace.zip(queue_span),
    };
    let depth = front.waiting.fetch_add(1, Ordering::Relaxed) + 1;
    // The channel holds `queue_cap` and only admitted connections, so
    // `try_send` finds room whenever `depth` does.
    let refused = if inbox_obs::failpoint!("serve.http.queue_full") || depth > front.queue_cap {
        Err(conn)
    } else {
        queue.try_send(conn).map_err(|e| match e {
            TrySendError::Full(conn) | TrySendError::Disconnected(conn) => conn,
        })
    };
    match refused {
        Ok(()) => inbox_obs::record_value("serve.queue.depth", depth as u64),
        Err(conn) => {
            front.waiting.fetch_sub(1, Ordering::Relaxed);
            shed(conn, &front.service);
        }
    }
}

/// Answers a connection there is no room for: `503` with the typed
/// [`ServeError::Overloaded`] body, on the acceptor thread and without
/// waiting on the peer.
fn shed(conn: Conn, service: &Service) {
    let Conn {
        mut stream, trace, ..
    } = conn;
    service.note_shed();
    let trace = trace.map(|(t, queue_span)| {
        t.close_span(queue_span);
        t
    });
    let reply = Reply::serve_error(&ServeError::Overloaded);
    if stream.set_nonblocking(true).is_ok() {
        reply.write(&mut stream, trace.as_ref());
        // The FIN goes out behind the reply, so the peer reads the whole
        // `503` even if its request bytes, unread here, make the close
        // send a reset. Reading what already arrived avoids most resets.
        let _ = stream.shutdown(Shutdown::Write);
        let _ = io::copy(&mut (&stream).take(MAX_REQUEST_BYTES), &mut io::sink());
    }
    if let Some(trace) = trace {
        trace.finish(reply.outcome);
    }
}

fn worker_loop(queue: &Mutex<Receiver<Conn>>, front: &Arc<Front>) {
    loop {
        // No code panics while holding this lock, and a receiver has no
        // state a panic could leave half-updated.
        let next = queue
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .recv();
        let Ok(mut conn) = next else { return };
        front.waiting.fetch_sub(1, Ordering::Relaxed);
        if let Some((trace, queue_span)) = &conn.trace {
            trace.close_span(*queue_span);
        }
        match read_request(&mut conn, HttpServer::HEAD_GRACE) {
            Err(e) if timed_out(&e) => hand_off(conn, front),
            read => answer(conn, read, front),
        }
    }
}

/// Moves a slow peer off the worker: a thread of its own reads the rest
/// of its request, until its deadline, and answers it. The connection
/// counts as waiting until its request is read; if no thread can be
/// started, it is dropped.
fn hand_off(mut conn: Conn, front: &Arc<Front>) {
    front.waiting.fetch_add(1, Ordering::Relaxed);
    let slow = Arc::clone(front);
    // Not joined: each slow peer ends by its deadline, shutdown does not
    // wait for it, and `answer` catches any panic, so the detached thread
    // hides none.
    let spawned = std::thread::Builder::new()
        .name("inbox-serve-slow".into())
        .spawn(move || {
            let read = read_request(&mut conn, HttpServer::IO_TIMEOUT);
            slow.waiting.fetch_sub(1, Ordering::Relaxed);
            answer(conn, read, &slow);
        });
    if spawned.is_err() {
        front.waiting.fetch_sub(1, Ordering::Relaxed);
    }
}

fn timed_out(e: &io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// Arms `stream` so its next read or write returns by `deadline`: a
/// timeout for the time left, or non-blocking mode once none is left.
fn arm(stream: &TcpStream, deadline: Instant) -> io::Result<()> {
    let left = deadline.saturating_duration_since(Instant::now());
    stream.set_nonblocking(left.is_zero())?;
    if !left.is_zero() {
        stream.set_read_timeout(Some(left))?;
        stream.set_write_timeout(Some(left))?;
    }
    Ok(())
}

/// A parsed request line: method, path, and query parameters.
struct Request {
    method: String,
    path: String,
    query: Vec<(String, String)>,
}

impl Request {
    /// Parses a request line; `None` without a method and a target.
    fn parse(line: &str) -> Option<Self> {
        let mut parts = line.split_whitespace();
        let (method, target) = (parts.next()?, parts.next()?);
        let (path, query) = target.split_once('?').unwrap_or((target, ""));
        Some(Self {
            method: method.to_string(),
            path: path.to_string(),
            query: query
                .split('&')
                .filter_map(|kv| kv.split_once('='))
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        })
    }

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
/// Most body bytes read (and discarded: only query parameters are used).
const MAX_BODY_BYTES: usize = 64 * 1024;
/// Hard ceiling on bytes read from one connection (head + drained body).
const MAX_REQUEST_BYTES: u64 = 256 * 1024;

/// A request as read so far. Each byte is scanned once, however the
/// request is split across reads.
#[derive(Default)]
struct Pending {
    buf: Vec<u8>,
    /// Start of the first line not parsed yet.
    parsed: usize,
    /// How far past `parsed` no line end was found.
    scanned: usize,
    /// The request line, once parsed.
    request: Option<Request>,
    header_lines: usize,
    content_length: usize,
    /// Where the request ends (head, then body), once the head has.
    end: Option<usize>,
}

impl Pending {
    /// Parses what the bytes read so far settle. `Some(Some(request))`
    /// once the head and its body are in (or, with `eof`, as much of them
    /// as will come); `Some(None)` when the bytes are not an acceptable
    /// request (no target, non-UTF-8, oversized line, header flood);
    /// `None` while more bytes are needed.
    fn advance(&mut self, eof: bool) -> Option<Option<Request>> {
        while self.end.is_none() {
            let rest = &self.buf[self.parsed..];
            let len = match rest[self.scanned..].iter().position(|&b| b == b'\n') {
                Some(i) => self.scanned + i + 1,
                None if rest.len() > MAX_LINE_BYTES => return Some(None),
                None if !eof => {
                    self.scanned = rest.len();
                    return None;
                }
                None => rest.len(),
            };
            if len > MAX_LINE_BYTES {
                return Some(None);
            }
            let Ok(line) = std::str::from_utf8(&rest[..len]) else {
                return Some(None);
            };
            self.parsed += len;
            self.scanned = 0;
            if self.request.is_none() {
                self.request = Request::parse(line);
                if self.request.is_none() {
                    return Some(None);
                }
            } else if len == 0 {
                // The peer closed inside the head.
                self.end = Some(self.parsed);
            } else {
                self.header_lines += 1;
                if self.header_lines > MAX_HEADER_LINES {
                    return Some(None);
                }
                let header = line.trim().to_ascii_lowercase();
                if header.is_empty() {
                    self.end = Some(self.parsed + self.content_length.min(MAX_BODY_BYTES));
                } else if let Some(v) = header.strip_prefix("content-length:") {
                    self.content_length = v.trim().parse().unwrap_or(0);
                }
            }
        }
        (eof || self.end.is_some_and(|end| self.buf.len() >= end)).then(|| self.request.take())
    }
}

/// Reads `conn`'s request until it is whole, the peer closes, or `within`
/// of accept passes (then a `WouldBlock` or `TimedOut` error). `Ok(None)`
/// means the bytes are not an acceptable request; other errors are socket
/// failures.
fn read_request(conn: &mut Conn, within: Duration) -> io::Result<Option<Request>> {
    let Conn {
        stream,
        accepted,
        pending,
        trace,
    } = conn;
    let until = *accepted + within;
    let _parse_span = trace.as_ref().map(|(t, _)| t.span("http.parse", Some(0)));
    let mut chunk = [0u8; 4096];
    let mut eof = false;
    loop {
        eof |= pending.buf.len() as u64 >= MAX_REQUEST_BYTES;
        if let Some(request) = pending.advance(eof) {
            return Ok(request);
        }
        arm(stream, until)?;
        let room = (MAX_REQUEST_BYTES as usize - pending.buf.len()).min(chunk.len());
        match stream.read(&mut chunk[..room]) {
            Ok(n) => {
                eof = n == 0;
                pending.buf.extend_from_slice(&chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Answers a connection whose request read ended with `read`, and writes
/// the reply by the connection's deadline. A panic on the way (the
/// injected `serve.http.worker_panic` among them) drops this connection
/// only.
fn answer(conn: Conn, read: io::Result<Option<Request>>, front: &Front) {
    let _ = panic::catch_unwind(AssertUnwindSafe(|| {
        let Conn {
            mut stream,
            accepted,
            trace,
            ..
        } = conn;
        let trace = trace.map(|(t, _)| t);
        let outcome = respond(
            &mut stream,
            read,
            accepted + HttpServer::IO_TIMEOUT,
            front,
            trace.as_ref(),
        );
        if let Some(trace) = trace {
            trace.finish(outcome);
        }
    }));
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

/// Body of `GET /stats`: the engine's counters, the connections waiting
/// (for a worker, or for the rest of their request) and the boxes in the
/// cache. The queue-depth histogram is on `/metrics`, the audit on
/// `/audit`.
#[derive(Serialize)]
struct StatsBody {
    requests: u64,
    rebuilds: u64,
    cache_hits: u64,
    evictions: u64,
    fallbacks: u64,
    ingests: u64,
    sheds: u64,
    queued: usize,
    cached_boxes: usize,
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

fn respond(
    stream: &mut TcpStream,
    read: io::Result<Option<Request>>,
    deadline: Instant,
    front: &Front,
    trace: Option<&ActiveTrace>,
) -> TraceOutcome {
    // Both unacceptable requests (`Ok(None)`) and read errors (e.g. a
    // reset) get an explicit 400, and a peer whose request was still
    // incomplete at its deadline a 408: the server answers every
    // connection it accepted rather than silently hanging up.
    let reply = match read {
        Ok(Some(request)) => {
            // Chaos site: drop the connection after a full parse, before
            // any byte of the response — the client sees a clean EOF,
            // never a half-written or interleaved response, and the
            // server must keep serving.
            if inbox_obs::failpoint!("serve.http.torn_response") {
                return TraceOutcome::Error;
            }
            // Chaos sites: a one-shot stall delays the answer, which must
            // still be exact; a panic must cost this connection only.
            let _ = inbox_obs::failpoint!("serve.http.worker_stall");
            if inbox_obs::failpoint!("serve.http.worker_panic") {
                panic!("injected failpoint: serve.http.worker_panic");
            }
            route(&request, front, trace)
        }
        Err(e) if timed_out(&e) => {
            inbox_obs::counter("serve.http.timeout").incr();
            Reply::error(408, "Request Timeout", "request timeout")
        }
        Ok(None) | Err(_) => Reply::bad_request("bad request"),
    };
    if arm(stream, deadline).is_ok() {
        reply.write(stream, trace);
    }
    reply.outcome
}

fn route(request: &Request, front: &Front, trace: Option<&ActiveTrace>) -> Reply {
    let service = &front.service;
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
            Reply::json(&StatsBody {
                requests: s.requests,
                rebuilds: s.rebuilds,
                cache_hits: s.cache_hits,
                evictions: s.evictions,
                fallbacks: s.fallbacks,
                ingests: s.ingests,
                sheds: s.sheds,
                queued: front.waiting.load(Ordering::Relaxed),
                cached_boxes: service.engine().cache_len(),
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

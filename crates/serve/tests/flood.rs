//! Connection flood: a burst of many concurrent `/recommend` connections
//! against a small worker pool and accept queue. Every connection gets
//! either the exact answer — byte-identical to the oracle's — or a typed
//! `503`; `/health` answers throughout; and the server runs the burst on
//! its fixed threads, never one per connection. Its own test binary,
//! because it counts the process's threads.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_kg::UserId;
use inbox_serve::{Engine, HttpServer, Recommendation, ServeConfig, Service};

/// Connections opened in the burst.
const BURST: usize = 64;
/// The pool under test.
const WORKERS: usize = 2;
const QUEUE_CAP: usize = 8;
/// A `/health` probe is interleaved with the burst after this many
/// connections.
const PROBE_EVERY: usize = 16;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Opens a connection and sends the whole request at once. A connection
/// shed at accept may be closed before the request is written; its `503`
/// is readable all the same.
fn send(addr: SocketAddr, path: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let _ = stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
    );
    stream
}

/// Reads a response to EOF, tolerating a reset after the bytes arrived,
/// and returns its status code and body.
fn reply(mut stream: TcpStream) -> (u16, String) {
    let mut raw = Vec::new();
    let _ = stream.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    (status, body.to_string())
}

/// Probes `/health` until it answers `200`, retrying each typed `503` the
/// full accept queue sheds it with; returns how many it met.
fn probe_health(addr: SocketAddr) -> usize {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut shed = 0;
    loop {
        match reply(send(addr, "/health")) {
            (200, body) => {
                assert_eq!(body, "{\"status\":\"ok\"}");
                return shed;
            }
            (503, _) => shed += 1,
            other => panic!("/health during the burst: {other:?}"),
        }
        assert!(Instant::now() < deadline, "/health never answered 200");
        std::thread::sleep(Duration::from_micros(200));
    }
}

/// The `/recommend` body the server must send for `r`, byte for byte.
fn expected_body(r: &Recommendation) -> String {
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

#[test]
fn connection_flood_is_answered_exactly_or_shed_on_fixed_threads() {
    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 68);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let serve_cfg = ServeConfig {
        threads: WORKERS,
        queue_cap: QUEUE_CAP,
        ..ServeConfig::default()
    };
    let engine = Engine::new(
        InBoxModel::new(sizes, &cfg),
        cfg,
        ds.kg.clone(),
        &ds.train,
        &serve_cfg,
    );
    let n_users = ds.train.n_users() as u32;
    let oracle: Vec<String> = (0..n_users)
        .map(|u| expected_body(&engine.oracle(UserId(u), 5).unwrap()))
        .collect();
    let service = Arc::new(Service::start(engine, &serve_cfg));
    let baseline = thread_count();
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = http.local_addr();
    let ceiling = baseline + WORKERS + 1;
    let mut peak = thread_count();

    // The burst: every connection is open, its request sent, before the
    // first reply is read.
    let started = Instant::now();
    let mut open = Vec::with_capacity(BURST);
    let mut probes_shed = 0;
    for i in 0..BURST {
        let user = i as u32 % n_users;
        open.push((user, send(addr, &format!("/recommend?user={user}&k=5"))));
        peak = peak.max(thread_count());
        if (i + 1) % PROBE_EVERY == 0 && i + 1 < BURST {
            probes_shed += probe_health(addr);
            peak = peak.max(thread_count());
        }
    }
    let (mut answered, mut shed) = (0usize, 0usize);
    for (user, stream) in open {
        let (status, body) = reply(stream);
        peak = peak.max(thread_count());
        match status {
            200 => {
                assert_eq!(body, oracle[user as usize], "user {user}");
                answered += 1;
            }
            503 => {
                assert_eq!(
                    body,
                    "{\"error\":\"service overloaded: admission queue full\"}"
                );
                shed += 1;
            }
            other => panic!("user {user}: status {other}, body {body:?}"),
        }
    }
    let elapsed = started.elapsed();
    eprintln!(
        "burst of {BURST}: {answered} answered, {shed} shed in {:.2} ms = {:.0} answered/s",
        elapsed.as_secs_f64() * 1e3,
        answered as f64 / elapsed.as_secs_f64()
    );

    assert!(answered >= 1, "the burst answered nothing");
    let stats = service.stats();
    assert_eq!(
        stats.sheds,
        (shed + probes_shed) as u64,
        "every shed is counted"
    );
    assert_eq!(stats.requests, answered as u64);
    assert!(
        peak <= ceiling,
        "{peak} threads during the burst; at most {ceiling} (baseline {baseline} + \
         {WORKERS} workers + 1 acceptor)"
    );

    // After the burst the server answers normally.
    assert_eq!(
        reply(send(addr, "/health")),
        (200, "{\"status\":\"ok\"}".to_string())
    );
    assert_eq!(reply(send(addr, "/recommend?user=0&k=5")).1, oracle[0]);
    http.shutdown();
    service.shutdown();
}

//! Slow peers must not hold the connection workers. A peer that trickles
//! its request (a long request line, or a body after a complete head)
//! costs a worker at most [`HttpServer::HEAD_GRACE`] and is answered `408`
//! at its deadline; peers that connect and stay idle, arriving faster than
//! the workers could each wait out a grace, delay real requests by about
//! one grace, not by a growing backlog. Meanwhile `/health` and
//! `/recommend` answer exactly and within [`BOUND`].

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_kg::UserId;
use inbox_serve::{Engine, HttpServer, Recommendation, ServeConfig, Service};

/// The pool the trickling peers run against.
const WORKERS: usize = 2;
/// Longest a request may take end to end while slow peers are connected:
/// well under the two seconds a slow peer could hold a worker for if it
/// were not moved off it.
const BOUND: Duration = Duration::from_millis(500);
/// Pause between two trickled bytes.
const DRIP: Duration = Duration::from_millis(100);

fn server(seed: u64, threads: usize) -> (Arc<Service>, HttpServer) {
    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), seed);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let serve_cfg = ServeConfig {
        threads,
        ..ServeConfig::default()
    };
    let engine = Engine::new(
        InBoxModel::new(sizes, &cfg),
        cfg,
        ds.kg.clone(),
        &ds.train,
        &serve_cfg,
    );
    let service = Arc::new(Service::start(engine, &serve_cfg));
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    (service, http)
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

/// Sends one request and returns the body, asserting a `200` within
/// [`BOUND`].
fn timed_get(addr: SocketAddr, path: &str) -> String {
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(BOUND * 4)).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nConnection: close\r\n\r\n").as_bytes())
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let took = started.elapsed();
    assert!(response.starts_with("HTTP/1.1 200"), "{path}: {response}");
    assert!(took < BOUND, "{path} took {took:?}");
    response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string())
}

/// `/health` and `/recommend` for a few users, each exact and in time.
fn assert_serving(service: &Service, addr: SocketAddr) {
    assert_eq!(timed_get(addr, "/health"), "{\"status\":\"ok\"}");
    for user in 0..4u32 {
        let oracle = service.engine().oracle(UserId(user), 5).unwrap();
        assert_eq!(
            timed_get(addr, &format!("/recommend?user={user}&k=5")),
            expected_body(&oracle)
        );
    }
}

/// Sends `head`, then one `drip` byte every [`DRIP`] until the server
/// answers, and returns the answer.
fn trickle(addr: SocketAddr, head: &[u8], drip: u8) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(DRIP)).unwrap();
    stream.write_all(head).expect("send head");
    let started = Instant::now();
    let (mut raw, mut buf) = (Vec::new(), [0u8; 512]);
    loop {
        assert!(
            started.elapsed() < HttpServer::IO_TIMEOUT * 3,
            "trickling peer never answered"
        );
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if raw.is_empty() {
                    let _ = stream.write_all(&[drip]);
                }
            }
            Err(_) => break,
        }
    }
    String::from_utf8_lossy(&raw).into_owned()
}

#[test]
fn trickling_peers_do_not_hold_workers() {
    let (service, http) = server(71, WORKERS);
    let addr = http.local_addr();
    // One more trickling peer than there are workers: two send a request
    // line past 1 KiB a byte at a time, one a body after a complete head.
    let long_line = format!("GET /recommend?user=0&pad={}", "a".repeat(1500));
    let slow_body = "POST /ingest?user=0&item=1 HTTP/1.1\r\nContent-Length: 60000\r\n\r\n";
    let heads = [long_line.as_str(), long_line.as_str(), slow_body];
    assert_eq!(heads.len(), WORKERS + 1);
    let started = Instant::now();
    std::thread::scope(|s| {
        let peers: Vec<_> = heads
            .iter()
            .map(|head| s.spawn(move || trickle(addr, head.as_bytes(), b'a')))
            .collect();
        // Let every trickler send its head and a few drips.
        std::thread::sleep(DRIP * 3);
        assert_serving(&service, addr);
        // Each trickler is answered `408` at its deadline, not before.
        for peer in peers {
            let response = peer.join().expect("trickler");
            assert!(response.starts_with("HTTP/1.1 408"), "{response}");
        }
    });
    assert!(started.elapsed() >= HttpServer::IO_TIMEOUT);
    // The ingest never completed, so it never happened.
    assert_eq!(service.stats().ingests, 0);
    assert_serving(&service, addr);
    http.shutdown();
    service.shutdown();
}

#[test]
fn idle_connects_faster_than_the_grace_do_not_starve_the_pool() {
    // One worker, and idle peers at twice the rate at which it could wait
    // out a full grace on each. They stay connected, idle, for the run.
    let (service, http) = server(72, 1);
    let addr = http.local_addr();
    let every = HttpServer::HEAD_GRACE / 2;
    let run = Duration::from_secs(1);
    std::thread::scope(|s| {
        let connector = s.spawn(move || {
            let started = Instant::now();
            let mut idle = Vec::new();
            while started.elapsed() < run {
                let now = Instant::now();
                idle.push(TcpStream::connect(addr).expect("connect idle peer"));
                std::thread::sleep(every.saturating_sub(now.elapsed()));
            }
            idle.len()
        });
        // Serve real traffic while the idle peers arrive.
        std::thread::sleep(run / 4);
        let mut rounds = 0;
        while !connector.is_finished() {
            assert_serving(&service, addr);
            rounds += 1;
        }
        let opened = connector.join().expect("connector");
        assert!(rounds >= 1, "no request ran during the idle connects");
        let meant = run.as_secs_f64() / every.as_secs_f64();
        assert!(
            opened as f64 >= meant / 2.0,
            "only {opened} of {meant} idle peers connected"
        );
    });
    http.shutdown();
    service.shutdown();
}

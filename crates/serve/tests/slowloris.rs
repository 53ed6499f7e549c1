//! Slowloris: peers that connect and then stall — sending nothing, or half
//! a request line — must not pin connection threads. Each stalled socket
//! is answered `408` once [`HttpServer::IO_TIMEOUT`] passes, counted once
//! in `serve.http.timeout`, and its thread exits; meanwhile `/health` and
//! `/recommend` keep answering exactly. Its own test binary, because it
//! counts the process's threads and reads a process-global counter.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_kg::UserId;
use inbox_serve::{Engine, HttpServer, Recommendation, ServeConfig, Service};

/// Stalled peers held open at once.
const IDLE: usize = 8;

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|d| d.count())
        .unwrap_or(0)
}

/// Polls `cond` until it holds, failing after `limit`.
fn wait_until(limit: Duration, what: &str, cond: impl Fn() -> bool) {
    let deadline = Instant::now() + limit;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// Sends one request and returns the whole response.
fn request(http: &HttpServer, path: &str) -> String {
    let mut stream = TcpStream::connect(http.local_addr()).expect("connect");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    response
}

fn body(response: &str) -> &str {
    response.split_once("\r\n\r\n").map_or("", |(_, b)| b)
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
fn idle_connections_time_out_without_pinning_threads() {
    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 67);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let serve_cfg = ServeConfig::default();
    let engine = Engine::new(
        InBoxModel::new(sizes, &cfg),
        cfg,
        ds.kg.clone(),
        &ds.train,
        &serve_cfg,
    );
    let service = Arc::new(Service::start(engine, &serve_cfg));
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    assert!(request(&http, "/health").starts_with("HTTP/1.1 200"));
    // Let the warm-up request's connection thread exit.
    std::thread::sleep(Duration::from_millis(200));
    let baseline = thread_count();
    let timeouts_before = inbox_obs::counter_value("serve.http.timeout");

    // Half the peers send nothing; the other half stall mid request line.
    let opened = Instant::now();
    let mut idle: Vec<TcpStream> = (0..IDLE)
        .map(|i| {
            let mut s = TcpStream::connect(http.local_addr()).expect("connect idle peer");
            if i % 2 == 1 {
                s.write_all(b"GET /recommend?us")
                    .expect("partial request line");
            }
            s
        })
        .collect();
    wait_until(
        Duration::from_secs(1),
        "every idle peer to hold a thread",
        || thread_count() >= baseline + IDLE,
    );

    // While the idle peers hold their threads, real traffic is answered
    // exactly: /health verbatim, /recommend byte-identical to the oracle.
    assert!(
        opened.elapsed() < HttpServer::IO_TIMEOUT,
        "set-up outlasted the timeout"
    );
    assert_eq!(body(&request(&http, "/health")), "{\"status\":\"ok\"}");
    for user in 0..4u32 {
        let response = request(&http, &format!("/recommend?user={user}&k=5"));
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let oracle = service.engine().oracle(UserId(user), 5).unwrap();
        assert_eq!(body(&response), expected_body(&oracle));
    }

    // Past the timeout every idle peer gets a 408 and a closed socket, and
    // its thread exits.
    for stream in &mut idle {
        stream
            .set_read_timeout(Some(HttpServer::IO_TIMEOUT * 5))
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("408 then EOF");
        assert!(response.starts_with("HTTP/1.1 408"), "{response}");
        assert_eq!(body(&response), "{\"error\":\"request timeout\"}");
    }
    assert!(opened.elapsed() >= HttpServer::IO_TIMEOUT);
    wait_until(Duration::from_secs(5), "the idle threads to exit", || {
        thread_count() <= baseline
    });
    assert_eq!(
        inbox_obs::counter_value("serve.http.timeout") - timeouts_before,
        IDLE as u64,
        "each stalled peer is one counted timeout"
    );

    // And the server still answers afterwards.
    let oracle = service.engine().oracle(UserId(0), 5).unwrap();
    assert_eq!(
        body(&request(&http, "/recommend?user=0&k=5")),
        expected_body(&oracle)
    );
    http.shutdown();
    service.shutdown();
}

//! Metamorphic suites: properties that must hold for any input —
//! intersection monotonicity, translation invariance of scores, monotone
//! version growth under ingestion, and "shedding never corrupts" for the
//! HTTP accept queue.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use inbox_core::BoxEmb;
use inbox_kg::{ItemId, UserId};
use inbox_serve::{HttpServer, ServeConfig, Service};
use inbox_testkit::harness;
use inbox_testkit::invariants;
use inbox_testkit::oracle::ModelParams;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: usize = 10;

/// Ingest-then-recommend: versions never decrease, bump exactly when the
/// capped history changed, and every recommendation reports the version
/// it was computed at.
#[test]
fn ingest_then_recommend_grows_versions_monotonically() {
    let (ds, _cfg, engine) = harness::engine(91, &ServeConfig::default());
    let mut rng = StdRng::seed_from_u64(0x51de);
    for _ in 0..80 {
        let user = UserId(rng.gen_range(0..ds.train.n_users() as u32));
        let item = ItemId(rng.gen_range(0..ds.train.n_items() as u32));
        let before = engine.version_of(user).unwrap();
        let receipt = engine.ingest(user, item).unwrap();
        let after = engine.version_of(user).unwrap();
        assert!(
            after >= before,
            "version went backwards: {before} -> {after}"
        );
        assert_eq!(receipt.version, after, "receipt reports a stale version");
        assert_eq!(
            after,
            before + u64::from(receipt.history_changed),
            "version must bump exactly when the capped history changed"
        );
        let rec = engine.recommend_now(user, K).unwrap();
        assert_eq!(rec.version, after, "answer computed at a stale version");
    }
}

/// Load shedding must be an admission-time concern only: a connection
/// storm against a one-worker, `queue_cap = 1` server sheds arrivals with
/// `503`, yet every answered request is exact, `requests + sheds` accounts
/// for every submission, and afterwards every user's answer is
/// bit-identical to the engine's fresh-forward-pass oracle.
#[test]
fn shed_never_corrupts() {
    let serve_cfg = ServeConfig {
        threads: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let (ds, _cfg, engine) = harness::engine(92, &serve_cfg);
    let service = Arc::new(Service::start(engine, &serve_cfg));
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let addr = http.local_addr();
    let n_users = ds.train.n_users() as u32;

    let answered = AtomicUsize::new(0);
    let shed = AtomicUsize::new(0);
    const THREADS: usize = 8;
    const PER_THREAD: usize = 50;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let service = &service;
            let (answered, shed) = (&answered, &shed);
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xbeef + t as u64);
                for _ in 0..PER_THREAD {
                    let user = rng.gen_range(0..n_users);
                    let mut stream = TcpStream::connect(addr).unwrap();
                    // A connection shed at accept may be closed before the
                    // request is written; its `503` is readable all the same.
                    let _ = write!(
                        stream,
                        "GET /recommend?user={user}&k={K} HTTP/1.1\r\nConnection: close\r\n\r\n"
                    );
                    let mut raw = Vec::new();
                    let _ = stream.read_to_end(&mut raw);
                    let response = String::from_utf8(raw).unwrap();
                    if response.starts_with("HTTP/1.1 503") {
                        shed.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    assert!(response.starts_with("HTTP/1.1 200"), "{response:?}");
                    // No ingest runs: the answer is the oracle's, byte for byte.
                    let oracle = service.engine().oracle(UserId(user), K).unwrap();
                    let body = harness::recommend_body(&oracle);
                    assert!(response.ends_with(&format!("\r\n\r\n{body}")), "{response}");
                    answered.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    let (answered, shed) = (
        answered.load(Ordering::Relaxed),
        shed.load(Ordering::Relaxed),
    );
    assert_eq!(answered + shed, THREADS * PER_THREAD, "lost submissions");
    assert!(answered > 0, "storm answered nothing");

    let stats = service.stats();
    assert_eq!(stats.sheds, shed as u64, "shed accounting");
    assert_eq!(stats.requests, answered as u64, "request accounting");

    // The post-storm engine state answers every user bit-identically to
    // the cache-bypassing oracle.
    http.shutdown();
    service.shutdown();
    let engine = service.engine();
    for u in 0..n_users {
        let user = UserId(u);
        let served = engine.recommend_now(user, K).unwrap();
        let expected = engine.oracle(user, K).unwrap();
        assert_eq!(served.version, expected.version, "user {u} version");
        assert_eq!(served.fallback, expected.fallback, "user {u} fallback");
        assert_eq!(
            served.items.len(),
            expected.items.len(),
            "user {u} answer length"
        );
        for (got, want) in served.items.iter().zip(&expected.items) {
            assert_eq!(got.0, want.0, "user {u} item order");
            assert_eq!(got.1.to_bits(), want.1.to_bits(), "user {u} score bits");
        }
    }
}

proptest! {
    /// Max-Min intersection is monotone: wherever non-empty, the
    /// intersection box is exactly contained in every operand.
    #[test]
    fn maxmin_intersection_contained_in_operands(
        raw in prop::collection::vec(
            ((-2.0f32..2.0, -2.0f32..2.0, -2.0f32..2.0),
             (-1.0f32..2.0, -1.0f32..2.0, -1.0f32..2.0)),
            1..5,
        )
    ) {
        let boxes: Vec<BoxEmb> = raw
            .iter()
            .map(|&((c0, c1, c2), (o0, o1, o2))| {
                BoxEmb::new(vec![c0, c1, c2], vec![o0, o1, o2])
            })
            .collect();
        if let Err(msg) = invariants::check_maxmin_containment(&boxes) {
            return Err(proptest::test_runner::TestCaseError::fail(msg));
        }
    }

    /// Translating a point and its box by the same vector leaves the
    /// matching score unchanged up to f32 rounding.
    #[test]
    fn score_is_translation_invariant(
        point in (-2.0f32..2.0, -2.0f32..2.0, -2.0f32..2.0),
        cen in (-2.0f32..2.0, -2.0f32..2.0, -2.0f32..2.0),
        off in (-1.0f32..2.0, -1.0f32..2.0, -1.0f32..2.0),
        t in (-4.0f32..4.0, -4.0f32..4.0, -4.0f32..4.0),
    ) {
        let b = BoxEmb::new(vec![cen.0, cen.1, cen.2], vec![off.0, off.1, off.2]);
        let p = [point.0, point.1, point.2];
        let shift = [t.0, t.1, t.2];
        if let Err(msg) =
            invariants::check_translation_invariance(&p, &b, &shift, 12.0, 1e-4)
        {
            return Err(proptest::test_runner::TestCaseError::fail(msg));
        }
    }
}

/// The attention intersection's combined offset is gated by a sigmoid in
/// `(0, 1)`, so it can never exceed the smallest effective input offset.
/// Exercised through the real trained-shape MLP parameters of a fixture
/// model on randomly generated concept-box matrices.
#[test]
fn attention_offset_never_exceeds_smallest_input() {
    let (_ds, model, cfg) = harness::fixture(93);
    let params = ModelParams::snapshot(&model);
    let mut rng = StdRng::seed_from_u64(0x0ffb);
    for round in 0..200 {
        let n = rng.gen_range(1..6usize);
        let cens: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..cfg.dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect())
            .collect();
        let offs: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..cfg.dim).map(|_| rng.gen_range(-1.0f32..2.0)).collect())
            .collect();
        let (_cen, off) = params.intersect_attention(&cens, &offs);
        invariants::check_attention_offset_bounded(&off[0], &offs, 1e-5)
            .unwrap_or_else(|msg| panic!("round {round}: {msg}"));
    }
}

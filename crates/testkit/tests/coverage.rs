//! Failpoint coverage: one process that exercises **every** registered
//! site and then audits the registry in both directions —
//!
//! 1. every site in [`inbox_testkit::sites::ALL`] was evaluated *and*
//!    fired at least once (a site nobody can trigger is dead chaos code);
//! 2. every `failpoint!("…")` call site in the instrumented crates'
//!    sources appears in the inventory (a site nobody lists is untested
//!    chaos code).
//!
//! Kept as its own integration-test binary so the lifetime counters it
//! audits belong to this process alone.
#![cfg(feature = "failpoints")]

use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use inbox_core::persist;
use inbox_core::trainer::{TrainReport, TrainedInBox};
use inbox_kg::UserId;
use inbox_serve::{HttpServer, ServeConfig, Service};
use inbox_testkit::harness;
use inbox_testkit::{failpoints, sites, FailGuard, Trigger};

#[test]
fn every_registered_site_is_exercised_and_listed() {
    inbox_obs::set_enabled(true);

    // --- persist sites ---------------------------------------------------
    let (_ds, model, cfg) = harness::fixture(71);
    let n_users = model.sizes().n_users;
    let trained = TrainedInBox::from_parts(model, cfg, vec![None; n_users], TrainReport::default());
    let path = std::env::temp_dir().join(format!("inbox-coverage-{}.json", std::process::id()));
    {
        let _fp = FailGuard::new("persist.save.truncate", Trigger::Always);
        persist::save(&trained, &path).unwrap();
    }
    assert!(persist::load(&path).is_err());
    persist::save(&trained, &path).unwrap();
    {
        let _fp = FailGuard::new("persist.load.truncate", Trigger::Always);
        assert!(persist::load(&path).is_err());
    }
    {
        let _fp = FailGuard::new("persist.load.io", Trigger::Always);
        assert!(persist::load(&path).is_err());
    }
    {
        let _fp = FailGuard::new("persist.save.before_rename", Trigger::Always);
        assert!(persist::save(&trained, &path).is_err());
    }
    let _ = std::fs::remove_file(&path);

    // --- index sites ------------------------------------------------------
    // An injected build failure must degrade the engine to full-sort
    // serving (index absent, answers still correct), never crash startup.
    {
        let ivf_cfg = ServeConfig {
            index: inbox_serve::IndexMode::Ivf {
                nlist: 0,
                nprobe: 0,
            },
            ..ServeConfig::default()
        };
        let _fp = FailGuard::new("index.build_partition", Trigger::Always);
        let failed_before = inbox_obs::counter_value("serve.index.build_failed");
        let (_ds, _cfg, engine) = harness::engine(73, &ivf_cfg);
        assert_eq!(
            engine.index_active(),
            None,
            "failed index build must leave the engine serving full sorts"
        );
        assert_eq!(
            inbox_obs::counter_value("serve.index.build_failed"),
            failed_before + 1,
            "the failed build is counted exactly once"
        );
        engine.recommend_now(UserId(0), 5).unwrap();
    }

    // --- serve sites ------------------------------------------------------
    // Audit every answer (1-in-1 sampling) so the audit-worker sites are
    // reachable deterministically from ordinary recommend traffic.
    let serve_cfg = ServeConfig {
        audit_sample: 1,
        ..ServeConfig::default()
    };
    let (_ds, _cfg, engine) = harness::engine(72, &serve_cfg);
    {
        let _fp = FailGuard::new("serve.cache.evict", Trigger::Always);
        engine.recommend_now(UserId(0), 5).unwrap();
    }
    let service = Arc::new(Service::start(engine, &serve_cfg));
    // --- audit worker sites -----------------------------------------------
    // The sampler sheds synchronously on the calling thread, so the guard
    // scope suffices; the worker-side sites fire asynchronously and are
    // awaited via their fired counters.
    {
        let _fp = FailGuard::new("serve.audit.queue_full", Trigger::Always);
        service.recommend(UserId(1), 5).unwrap();
    }
    {
        let _fp = FailGuard::new(
            "serve.audit.stall",
            Trigger::DelayOnce(Duration::from_millis(1)),
        );
        service.recommend(UserId(2), 5).unwrap();
        wait_for(
            || failpoints::fired("serve.audit.stall") >= 1,
            "audit stall",
        );
    }
    {
        let _fp = FailGuard::new("serve.audit.panic", Trigger::Nth(1));
        service.recommend(UserId(3), 5).unwrap();
        wait_for(
            || failpoints::fired("serve.audit.panic") >= 1,
            "audit panic",
        );
        // The audit worker died; serving must be unaffected.
        service.recommend(UserId(0), 5).unwrap();
    }
    let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
    let get = |path: &str| {
        let mut stream = TcpStream::connect(http.local_addr()).unwrap();
        stream
            .write_all(
                format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n").as_bytes(),
            )
            .unwrap();
        let mut response = Vec::new();
        let _ = stream.read_to_end(&mut response);
        String::from_utf8(response).unwrap()
    };
    {
        let _fp = FailGuard::new("serve.http.torn_response", Trigger::Nth(1));
        assert!(get("/health").is_empty(), "torn response leaked bytes");
    }
    {
        let _fp = FailGuard::new("serve.http.queue_full", Trigger::Always);
        assert!(get("/recommend?user=0&k=5").starts_with("HTTP/1.1 503"));
    }
    {
        let _fp = FailGuard::new(
            "serve.http.worker_stall",
            Trigger::DelayOnce(Duration::from_millis(1)),
        );
        assert!(get("/recommend?user=0&k=5").starts_with("HTTP/1.1 200"));
    }
    {
        let _fp = FailGuard::new("serve.http.worker_panic", Trigger::Nth(1));
        assert!(get("/recommend?user=0&k=5").is_empty());
    }
    {
        // One accepted connection returns the acceptor to the top of its
        // loop, where the injected accept error fires.
        let _fp = FailGuard::new("serve.http.accept_error", Trigger::Nth(1));
        assert!(get("/health").starts_with("HTTP/1.1 200"));
        wait_for(
            || failpoints::fired("serve.http.accept_error") >= 1,
            "accept error",
        );
    }
    assert!(get("/recommend?user=0&k=5").starts_with("HTTP/1.1 200"));
    http.shutdown();
    service.shutdown();

    // --- direction 1: every listed site was hit and fired -----------------
    for &site in sites::ALL {
        assert!(
            failpoints::hits(site) >= 1,
            "site {site} was never evaluated by the coverage run"
        );
        assert!(
            failpoints::fired(site) >= 1,
            "site {site} was evaluated but never fired"
        );
    }
    let counters: std::collections::BTreeMap<&str, u64> = inbox_obs::series()
        .iter()
        .filter(|s| s.kind == inbox_obs::Kind::Counter)
        .map(|s| (s.name, s.count()))
        .collect();
    for &site in sites::ALL {
        let fired = counters.get(format!("failpoint.fired.{site}").as_str());
        assert!(
            fired.is_some_and(|&n| n >= 1),
            "obs counter failpoint.fired.{site} missing or zero: {fired:?}"
        );
    }

    // The registry saw no sites outside the inventory.
    let seen: BTreeSet<&str> = failpoints::sites().into_iter().collect();
    let listed: BTreeSet<&str> = sites::ALL.iter().copied().collect();
    assert!(
        seen.is_subset(&listed),
        "registry saw unlisted sites: {:?}",
        seen.difference(&listed).collect::<Vec<_>>()
    );

    // --- direction 2: every source call site is in the inventory -----------
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_source = BTreeSet::new();
    for crate_src in ["../core/src", "../serve/src", "../index/src"] {
        scan_sources(&manifest.join(crate_src), &mut in_source);
    }
    assert_eq!(
        in_source,
        listed
            .iter()
            .map(|s| s.to_string())
            .collect::<BTreeSet<_>>(),
        "failpoint!(…) call sites in core+serve+index sources must match sites::ALL exactly"
    );
}

/// Polls `cond` until it holds or ~1s elapses (asynchronous failpoints
/// fire on the audit worker thread, not the caller's).
fn wait_for(cond: impl Fn() -> bool, what: &str) {
    for _ in 0..500 {
        if cond() {
            return;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    panic!("timed out waiting for {what}");
}

/// Collects every `failpoint!("name")` occurrence under `dir` (recursive).
fn scan_sources(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            let mut rest = text.as_str();
            while let Some(at) = rest.find("failpoint!(\"") {
                rest = &rest[at + "failpoint!(\"".len()..];
                let end = rest.find('"').expect("unterminated failpoint name");
                out.insert(rest[..end].to_string());
            }
        }
    }
}

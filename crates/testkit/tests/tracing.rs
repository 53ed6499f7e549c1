//! Trace coverage: the span-name inventory in [`inbox_testkit::sites`]
//! must match the spans actually opened by `inbox-serve` sources, and —
//! with failpoints armed — a shed request must leave a truncated-but-
//! coherent trace tree in the notable ring.

use std::collections::BTreeSet;
use std::path::Path;

use inbox_testkit::sites;

/// Collects every span name opened under `dir` (recursive): arguments of
/// `ctx_span("…")`, `.span("…")`, `open_span("…")`, and `start_trace("…")`.
fn scan_span_names(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan_span_names(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).unwrap();
            for needle in ["span(\"", "start_trace(\""] {
                let mut rest = text.as_str();
                while let Some(at) = rest.find(needle) {
                    rest = &rest[at + needle.len()..];
                    let end = rest.find('"').expect("unterminated span name");
                    out.insert(rest[..end].to_string());
                }
            }
        }
    }
}

/// Direction audit, like the failpoint one: every span the serving sources
/// can open is in `sites::TRACE_SPANS`, and every listed name has a call
/// site. A span nobody lists is untested tracing; a listed span nobody
/// opens is a stale inventory.
#[test]
fn trace_span_inventory_matches_serve_sources() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut in_source = BTreeSet::new();
    scan_span_names(&manifest.join("../serve/src"), &mut in_source);
    let listed: BTreeSet<String> = sites::TRACE_SPANS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        in_source, listed,
        "span-opening call sites in serve sources must match sites::TRACE_SPANS exactly"
    );
}

#[cfg(feature = "failpoints")]
mod shed {
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::sync::Arc;

    use inbox_obs::TraceOutcome;
    use inbox_serve::{HttpServer, ServeConfig, Service};
    use inbox_testkit::harness;
    use inbox_testkit::{FailGuard, Trigger};

    /// A shed connection's trace: it waited in no queue and reached no
    /// worker — the root holds a closed `http.queue` span and the `503`
    /// write, but no parse and no engine stage — the outcome is `Shed`,
    /// and the notable ring retained it.
    #[test]
    fn shed_request_leaves_a_truncated_tree_in_the_notable_ring() {
        inbox_obs::set_enabled(true);
        inbox_obs::set_trace_sampling(1);
        inbox_obs::clear_traces();
        let serve_cfg = ServeConfig::default();
        let (_ds, _cfg, engine) = harness::engine(91, &serve_cfg);
        let service = Arc::new(Service::start(engine, &serve_cfg));
        let http = HttpServer::bind(Arc::clone(&service), "127.0.0.1:0").unwrap();
        {
            let _fp = FailGuard::new("serve.http.queue_full", Trigger::Always);
            let mut stream = TcpStream::connect(http.local_addr()).unwrap();
            stream
                .write_all(b"GET /recommend?user=0&k=5 HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut response = Vec::new();
            let _ = stream.read_to_end(&mut response);
            assert!(
                response.starts_with(b"HTTP/1.1 503"),
                "armed queue_full must shed"
            );
        }
        http.shutdown();
        service.shutdown();

        let notable = inbox_obs::notable_traces();
        let record = notable
            .iter()
            .find(|t| t.outcome == TraceOutcome::Shed)
            .expect("shed trace missing from the notable ring");
        let names: Vec<&str> = record.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(record.spans[0].name, "http.request");
        for reached in ["http.queue", "http.write"] {
            let span = record.spans.iter().find(|s| s.name == reached);
            let span = span.unwrap_or_else(|| panic!("shed trace lacks {reached}: {names:?}"));
            assert_eq!(span.parent, Some(0));
            assert!(span.dur_ns > 0, "{reached} span never closed");
        }
        for never_reached in ["http.parse", "engine.recommend"] {
            assert!(
                !names.contains(&never_reached),
                "shed request must not reach {never_reached}: {names:?}"
            );
        }
        assert!(
            inbox_obs::recent_traces().iter().any(|t| t.id == record.id),
            "shed trace missing from the recent ring"
        );
    }
}

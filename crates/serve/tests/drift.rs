//! The audit worker's drift monitor, read back through its gauges: the
//! ingest-coverage gauge is exactly the untagged share of the ingested
//! items, and candidate-set sizes that have not moved since the reference
//! was taken show zero PSI. Its own test binary, because the drift
//! references are captured once per process.

use std::time::{Duration, Instant};

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_kg::{ItemId, UserId};
use inbox_obs::Kind;
use inbox_serve::{Engine, IndexMode, ServeConfig, Service};

fn gauge(name: &str) -> Option<f64> {
    inbox_obs::find_series(name, Kind::Gauge).map(|s| s.gauge())
}

/// Polls until the named gauge holds `want`, failing after five seconds.
fn wait_for_gauge(name: &str, want: f64) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while gauge(name) != Some(want) {
        assert!(
            Instant::now() < deadline,
            "{name} is {:?}, want {want}",
            gauge(name)
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn drift_gauges_track_ingest_coverage_and_steady_candidates() {
    inbox_obs::set_enabled(true);
    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 68);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let serve_cfg = ServeConfig {
        index: IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        },
        ..ServeConfig::default()
    };
    let engine = Engine::new(
        InBoxModel::new(sizes, &cfg),
        cfg,
        ds.kg.clone(),
        &ds.train,
        &serve_cfg,
    );
    assert!(engine.index_active().is_some(), "IVF build must succeed");

    // All candidate traffic happens before the audit worker starts, so its
    // reference and its live window hold the same sizes.
    for user in 0..ds.train.n_users() as u32 {
        engine.recommend_now(UserId(user), 5).unwrap();
    }
    let service = Service::start(engine, &serve_cfg);
    wait_for_gauge("psi.candidates", 0.0);

    // Ingest every item once: the untagged share is a property of the KG.
    let items = ds.kg.n_items() as u32;
    let untagged = (0..items)
        .filter(|&i| ds.kg.concepts_of(ItemId(i)).is_empty())
        .count();
    for item in 0..items {
        service.ingest(UserId(0), ItemId(item)).unwrap();
    }
    wait_for_gauge(
        "ingest.untagged_fraction",
        untagged as f64 / f64::from(items),
    );
    service.shutdown();
}

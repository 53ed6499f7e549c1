//! Runtime proof of the serving stack's allocation-free steady state.
//!
//! This binary installs the instrumented global allocator and drives real
//! traffic through the full batcher → engine pipeline, once over the full
//! sort and once over the IVF index. After a warmup round has grown every
//! per-thread scratch buffer and registered every metric cell, the
//! `engine.score`, `engine.rank`, `engine.candidates`, `engine.rerank` and
//! `batcher.flush` allocation scopes must observe **zero** further
//! allocations — checked here against the real allocator. Lives in its own
//! test binary because the global tracking toggle and the scope counters
//! are process-wide.

use std::sync::Arc;

use inbox_core::{InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_kg::UserId;
use inbox_serve::{Engine, IndexMode, ServeConfig, Service};

#[global_allocator]
static ALLOC: inbox_obs::InstrumentedAlloc = inbox_obs::InstrumentedAlloc;

/// The steady-state scopes under test and the per-scope allocation counts
/// at a point in time.
const HOT_SCOPES: [&str; 5] = [
    "engine.score",
    "engine.rank",
    "engine.candidates",
    "engine.rerank",
    "batcher.flush",
];

fn hot_allocs() -> [u64; 5] {
    HOT_SCOPES.map(|s| {
        inbox_obs::alloc_scope_stats(s)
            .map(|st| st.allocs)
            .unwrap_or(0)
    })
}

/// One traffic round: sequential singles (inline flush-thread scoring)
/// plus concurrent bursts (pool fan-out), all at the same `k`.
fn drive(service: &Arc<Service>, n_users: u32, k: usize) {
    for u in 0..n_users {
        service
            .recommend(UserId(u), k)
            .unwrap_or_else(|e| panic!("single request for user {u}: {e}"));
    }
    let burst: Vec<_> = (0..4)
        .map(|t| {
            let service = Arc::clone(service);
            std::thread::spawn(move || {
                for u in 0..n_users {
                    service
                        .recommend(UserId((u + t) % n_users), k)
                        .unwrap_or_else(|e| panic!("burst request: {e}"));
                }
            })
        })
        .collect();
    for handle in burst {
        handle.join().expect("burst producer");
    }
}

#[test]
fn steady_state_serving_allocates_nothing_in_the_hot_scopes() {
    assert!(
        inbox_obs::allocator_installed(),
        "this binary must run under the instrumented allocator"
    );
    inbox_obs::set_trace_sampling(0);

    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 59);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let services = [
        IndexMode::FullSort,
        IndexMode::Ivf {
            nlist: 0,
            nprobe: 0,
        },
    ]
    .map(|index| {
        let serve_cfg = ServeConfig {
            threads: 2,
            index,
            ..ServeConfig::default()
        };
        let model = InBoxModel::new(sizes, &cfg);
        let engine = Engine::new(model, cfg.clone(), ds.kg.clone(), &ds.train, &serve_cfg);
        Arc::new(Service::start(engine, &serve_cfg))
    });
    assert!(
        services[1].engine().index_active().is_some(),
        "IVF build must succeed"
    );
    let n_users = ds.train.n_users() as u32;

    inbox_obs::set_alloc_tracking(true);
    // Warmup: grow every scratch buffer on the flush thread and both pool
    // workers, populate the box cache, and register every metric cell the
    // hot path touches. Two rounds so the second already runs warm paths
    // (cache hits as well as rebuilds).
    for _ in 0..2 {
        for service in &services {
            drive(service, n_users, 5);
        }
    }

    let before = hot_allocs();
    for service in &services {
        drive(service, n_users, 5);
    }
    let after = hot_allocs();
    inbox_obs::set_alloc_tracking(false);

    for (scope, (b, a)) in HOT_SCOPES.iter().zip(before.iter().zip(after.iter())) {
        assert_eq!(
            a - b,
            0,
            "scope {scope} allocated {} times at steady state",
            a - b
        );
    }
    for scope in HOT_SCOPES {
        assert!(
            inbox_obs::alloc_scope_stats(scope).is_some(),
            "scope {scope} was never entered"
        );
    }
    for service in services {
        service.shutdown();
    }
}

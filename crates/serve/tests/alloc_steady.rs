//! Runtime proof of the serving stack's allocation-free steady state.
//!
//! This binary installs the instrumented global allocator and drives real
//! traffic through `Service::recommend`, once over the full sort and once
//! over the IVF index, from long-lived threads as the HTTP connection
//! workers do. After warmup rounds have grown every thread's scratch
//! buffers and registered every metric cell, the `engine.score`,
//! `engine.rank`, `engine.candidates`, `engine.rerank` and `serve.reply`
//! allocation scopes must observe **zero** further allocations — checked
//! here against the real allocator. Lives in its own test binary because
//! the global tracking toggle and the scope counters are process-wide.

use std::sync::{Arc, Barrier};

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
    "serve.reply",
];

fn hot_allocs() -> [u64; 5] {
    HOT_SCOPES.map(|s| {
        inbox_obs::alloc_scope_stats(s)
            .map(|st| st.allocs)
            .unwrap_or(0)
    })
}

/// Concurrent callers besides the test thread.
const CALLERS: u32 = 4;

/// Traffic rounds: the warm ones, then the measured one.
const ROUNDS: usize = 3;

/// One caller's round: every user once on every service, at the same `k`,
/// starting from a caller-specific offset.
fn drive(services: &[Arc<Service>], n_users: u32, offset: u32) {
    for service in services {
        for u in 0..n_users {
            service
                .recommend(UserId((u + offset) % n_users), 5)
                .unwrap_or_else(|e| panic!("request for user {u}: {e}"));
        }
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
    // Warmup rounds grow every caller's scratch buffers, populate the box
    // caches, and register every metric cell the hot path touches; the
    // second already runs warm paths (cache hits as well as rebuilds). The
    // barriers pin each round's start and end, so the counts read between
    // the last two bracket exactly the measured round.
    let start = Barrier::new(CALLERS as usize + 1);
    let end = Barrier::new(CALLERS as usize + 1);
    let (before, after) = std::thread::scope(|s| {
        for t in 1..=CALLERS {
            let (services, start, end) = (&services, &start, &end);
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    start.wait();
                    drive(services, n_users, t);
                    end.wait();
                }
            });
        }
        let mut before = [0; 5];
        for round in 0..ROUNDS {
            if round == ROUNDS - 1 {
                before = hot_allocs();
            }
            start.wait();
            drive(&services, n_users, 0);
            end.wait();
        }
        (before, hot_allocs())
    });
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

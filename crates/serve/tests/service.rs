//! Integration tests for the serving stack: oracle bit-identity, versioned
//! cache invalidation, concurrency correctness, load shedding, and the
//! HTTP front-end.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use inbox_core::{InBoxConfig, InBoxModel, InBoxScorer, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_eval::top_k_masked;
use inbox_kg::{ItemId, UserId};
use inbox_serve::{Engine, IndexMode, ServeConfig, ServeError, Service};

/// Builds a tiny synthetic universe and an (untrained but deterministic)
/// model over it. Serving correctness is independent of training quality —
/// the contracts under test are caching, batching, and bit-identity.
fn fixture(seed: u64) -> (Dataset, InBoxModel, InBoxConfig) {
    let ds = Dataset::synthetic(&SyntheticConfig::tiny(), seed);
    let cfg = InBoxConfig::tiny_test();
    let sizes = UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    };
    let model = InBoxModel::new(sizes, &cfg);
    (ds, model, cfg)
}

fn engine(seed: u64, serve: &ServeConfig) -> (Dataset, InBoxConfig, Engine) {
    let (ds, model, cfg) = fixture(seed);
    let engine = Engine::new(model, cfg.clone(), ds.kg.clone(), &ds.train, serve);
    (ds, cfg, engine)
}

const K: usize = 10;

#[test]
fn served_ranking_is_bit_identical_to_offline_scorer() {
    let (ds, model, cfg) = fixture(41);
    // The offline evaluation path: score every item with the offline
    // scorer, mask training interactions, take top-K — computed up front
    // because the engine takes ownership of the model.
    let expected: Vec<Option<(Vec<ItemId>, Vec<f32>)>> = {
        use inbox_eval::Scorer;
        let boxes = inbox_core::all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        let offline = InBoxScorer::new(&model, &boxes, &cfg, ds.train.n_items());
        (0..ds.train.n_users() as u32)
            .map(|u| {
                let user = UserId(u);
                boxes[user.index()].as_ref()?;
                let scores = offline.score_items(user);
                let top = top_k_masked(&scores, ds.train.items_of(user), K);
                Some((top, scores))
            })
            .collect()
    };
    let engine = Engine::new(
        model,
        cfg,
        ds.kg.clone(),
        &ds.train,
        &ServeConfig::default(),
    );
    for u in 0..ds.train.n_users() as u32 {
        let user = UserId(u);
        let served = engine.recommend_now(user, K).unwrap();
        let Some((top, scores)) = &expected[user.index()] else {
            assert!(served.fallback, "user {u} has no box");
            continue;
        };
        assert!(!served.fallback);
        let got: Vec<ItemId> = served.items.iter().map(|&(i, _)| i).collect();
        assert_eq!(&got, top, "user {u}");
        for &(item, score) in &served.items {
            assert_eq!(score, scores[item.index()], "user {u} item {}", item.0);
        }
    }
}

#[test]
fn cached_and_fresh_answers_agree_with_oracle() {
    let (ds, _cfg, engine) = engine(42, &ServeConfig::default());
    for u in 0..ds.train.n_users() as u32 {
        let user = UserId(u);
        let fresh = engine.recommend_now(user, K).unwrap();
        let cached = engine.recommend_now(user, K).unwrap();
        let oracle = engine.oracle(user, K).unwrap();
        assert_eq!(fresh, cached, "user {u}: cache hit must not change bits");
        assert_eq!(fresh, oracle, "user {u}: served must equal oracle");
    }
    let stats = engine.stats();
    assert!(stats.cache_hits >= ds.train.n_users() as u64);
}

#[test]
fn ingest_invalidates_only_the_touched_user() {
    let (ds, cfg, engine) = engine(43, &ServeConfig::default());
    // Alice needs history *headroom*: an ingest only changes the capped
    // concept history (and bumps the version) below `max_history_infer`.
    // Bob just needs a box.
    let mut active = (0..ds.train.n_users() as u32).map(UserId).filter(|&u| {
        let n = ds.train.items_of(u).len();
        n > 0 && n < cfg.max_history_infer
    });
    let alice = active.next().expect("fixture has a user with headroom");
    let bob = active.next().expect("fixture has at least two such users");
    let obs_rebuilds_before = inbox_obs::counter_value("serve.box.rebuilds");

    // Warm both boxes.
    engine.recommend_now(alice, K).unwrap();
    engine.recommend_now(bob, K).unwrap();
    let warmed = engine.stats();
    assert_eq!(warmed.rebuilds, 2);
    assert_eq!(warmed.cache_hits, 0);

    // Ingest an item alice has not seen: her version bumps, bob's does not.
    let item = (0..ds.train.n_items() as u32)
        .map(ItemId)
        .find(|i| ds.train.items_of(alice).binary_search(i).is_err())
        .expect("an unseen item exists");
    let v_alice = engine.version_of(alice).unwrap();
    let v_bob = engine.version_of(bob).unwrap();
    let receipt = engine.ingest(alice, item).unwrap();
    assert!(receipt.mask_changed);
    assert_eq!(engine.version_of(alice).unwrap(), v_alice + 1);
    assert_eq!(engine.version_of(bob).unwrap(), v_bob);

    // Alice is rebuilt, bob is a cache hit: exactly one extra rebuild.
    let a = engine.recommend_now(alice, K).unwrap();
    let b = engine.recommend_now(bob, K).unwrap();
    let after = engine.stats();
    assert_eq!(after.rebuilds, 3, "only alice's box is recomputed");
    assert_eq!(after.cache_hits, 1, "bob's box is served from cache");
    assert_eq!(a, engine.oracle(alice, K).unwrap());
    assert_eq!(b, engine.oracle(bob, K).unwrap());
    // The ingested item is now masked out of alice's recommendations.
    assert!(a.items.iter().all(|&(i, _)| i != item));
    // The obs mirror moved too (global counter: other tests may also bump
    // it, so only the lower bound is deterministic here).
    assert!(inbox_obs::counter_value("serve.box.rebuilds") >= obs_rebuilds_before + 3);
}

#[test]
fn batched_service_matches_precomputed_oracle_under_concurrency() {
    let (ds, _cfg, engine) = engine(44, &ServeConfig::default());
    let n_users = ds.train.n_users() as u32;
    let oracle: Vec<_> = (0..n_users)
        .map(|u| engine.oracle(UserId(u), K).unwrap())
        .collect();
    let service = Service::start(engine, &ServeConfig::default());
    // No ingest in flight: every concurrent answer must be bit-identical
    // to the single-threaded oracle, batched or not.
    std::thread::scope(|s| {
        for t in 0..4u32 {
            let service = &service;
            let oracle = &oracle;
            s.spawn(move || {
                for round in 0..3 {
                    for u in 0..n_users {
                        let user = UserId((u + t + round) % n_users);
                        let got = service.recommend(user, K).unwrap();
                        assert_eq!(got, oracle[user.index()], "user {}", user.0);
                    }
                }
            });
        }
    });
    let stats = service.stats();
    assert_eq!(stats.requests, 4 * 3 * u64::from(n_users));
    assert_eq!(stats.sheds, 0, "queue_cap was never exceeded");
    assert!(stats.batches >= 1);
}

#[test]
fn concurrent_recommend_and_ingest_stay_consistent() {
    let serve_cfg = ServeConfig {
        queue_cap: 4096,
        ..ServeConfig::default()
    };
    let (ds, _cfg, engine) = engine(45, &serve_cfg);
    let n_users = ds.train.n_users() as u32;
    let n_items = ds.train.n_items() as u32;
    let service = Service::start(engine, &serve_cfg);
    let answered = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Readers hammer recommend across all users.
        for t in 0..3u32 {
            let service = &service;
            let answered = &answered;
            s.spawn(move || {
                for i in 0..200u32 {
                    let user = UserId((i * 7 + t * 13) % n_users);
                    match service.recommend(user, K) {
                        Ok(r) => {
                            answered.fetch_add(1, Ordering::Relaxed);
                            assert!(r.items.len() <= K);
                            // Scores sorted descending, ties broken toward
                            // the smaller item id, no duplicates.
                            for w in r.items.windows(2) {
                                let ((i0, s0), (i1, s1)) = (w[0], w[1]);
                                assert!(s0 > s1 || (s0 == s1 && i0 < i1), "unsorted top-K");
                            }
                        }
                        Err(ServeError::Overloaded) => {}
                        Err(e) => panic!("unexpected serving error: {e}"),
                    }
                }
            });
        }
        // One writer streams live interactions.
        let service = &service;
        s.spawn(move || {
            for i in 0..150u32 {
                let user = UserId((i * 3) % n_users);
                let item = ItemId((i * 11) % n_items);
                service.ingest(user, item).unwrap();
            }
        });
    });
    // Quiescent: every user's served answer equals the single-threaded
    // oracle over the post-ingest state.
    for u in 0..n_users {
        let user = UserId(u);
        let served = service.recommend(user, K).unwrap();
        assert_eq!(
            served,
            service.engine().oracle(user, K).unwrap(),
            "user {u}"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.ingests, 150);
    assert_eq!(
        stats.requests,
        answered.load(Ordering::Relaxed) as u64 + u64::from(n_users)
    );
}

#[test]
fn admission_queue_sheds_with_overloaded() {
    // A huge batch window holds the first request in the queue, so the
    // second arrival deterministically sees a full queue.
    let serve_cfg = ServeConfig {
        max_batch: 64,
        batch_wait: Duration::from_secs(30),
        queue_cap: 1,
        ..ServeConfig::default()
    };
    let (_ds, _cfg, engine) = engine(46, &serve_cfg);
    let service = Service::start(engine, &serve_cfg);
    std::thread::scope(|s| {
        let handle = {
            let service = &service;
            s.spawn(move || service.recommend(UserId(0), K))
        };
        // Wait until the first request is actually queued.
        while service.queued() == 0 {
            std::thread::yield_now();
        }
        assert_eq!(
            service.recommend(UserId(1), K),
            Err(ServeError::Overloaded),
            "second arrival must be shed, not queued"
        );
        // Shutdown drains the queue: the first caller still gets a real
        // answer, not an error.
        service.shutdown();
        let first = handle.join().unwrap();
        assert!(first.is_ok(), "queued request must be answered on drain");
    });
    let stats = service.stats();
    assert_eq!(stats.sheds, 1);
    assert_eq!(stats.requests, 1);
    // After shutdown, new requests are refused explicitly.
    assert_eq!(service.recommend(UserId(0), K), Err(ServeError::Closed));
}

#[test]
fn unknown_ids_are_typed_errors() {
    let (ds, _cfg, engine) = engine(47, &ServeConfig::default());
    let bad_user = UserId(ds.train.n_users() as u32);
    let bad_item = ItemId(ds.train.n_items() as u32);
    assert_eq!(
        engine.recommend_now(bad_user, K),
        Err(ServeError::UnknownUser(bad_user))
    );
    assert_eq!(
        engine.ingest(bad_user, ItemId(0)),
        Err(ServeError::UnknownUser(bad_user))
    );
    assert_eq!(
        engine.ingest(UserId(0), bad_item),
        Err(ServeError::UnknownItem(bad_item))
    );
}

#[test]
fn cold_user_gets_popularity_fallback() {
    let (ds, _cfg, engine) = engine(48, &ServeConfig::default());
    let Some(cold) = (0..ds.train.n_users() as u32)
        .map(UserId)
        .find(|&u| ds.train.items_of(u).is_empty())
    else {
        // Fixture produced no cold user at this seed; nothing to test.
        return;
    };
    let r = engine.recommend_now(cold, K).unwrap();
    assert!(r.fallback);
    assert!(!r.items.is_empty());
    // Fallback ranks by popularity: counts are non-increasing.
    let pop = ds.train.item_popularity();
    for w in r.items.windows(2) {
        assert!(pop[w[0].0.index()] >= pop[w[1].0.index()]);
    }
    assert_eq!(engine.stats().fallbacks, 1);
    // The fallback is cached too (as an absence): no rebuild on repeat.
    engine.recommend_now(cold, K).unwrap();
    let stats = engine.stats();
    assert_eq!(stats.rebuilds, 0);
    assert_eq!(stats.cache_hits, 1);
}

#[test]
fn tiny_cache_still_serves_correctly() {
    let serve_cfg = ServeConfig {
        cache_cap: 2,
        ..ServeConfig::default()
    };
    let (ds, _cfg, engine) = engine(49, &serve_cfg);
    // Cycle through many users with a 2-entry cache: correctness must not
    // depend on residency.
    for round in 0..2 {
        for u in 0..ds.train.n_users() as u32 {
            let user = UserId(u);
            let served = engine.recommend_now(user, K).unwrap();
            assert_eq!(
                served,
                engine.oracle(user, K).unwrap(),
                "round {round} user {u}"
            );
        }
    }
}

#[test]
fn oversized_ivf_knobs_clamp_to_the_built_partition_count() {
    // `nlist` beyond the catalog builds one partition per item; `nprobe`
    // must then clamp to the partitions actually built, not the request.
    let n_items = fixture(53).0.kg.n_items();
    let serve_cfg = ServeConfig {
        index: IndexMode::Ivf {
            nlist: n_items + 100,
            nprobe: n_items + 50,
        },
        ..ServeConfig::default()
    };
    let (ds, _cfg, engine) = engine(53, &serve_cfg);
    assert_eq!(engine.index_active(), Some((n_items, n_items)));
    // Probing every partition answers exactly like the full sort.
    for u in 0..ds.train.n_users() as u32 {
        let user = UserId(u);
        assert_eq!(
            engine.recommend_now(user, K).unwrap(),
            engine.oracle(user, K).unwrap(),
            "user {u}"
        );
    }
}

//! Differential tests: the production stack (fused tape ops, pooled
//! forward passes, the serving engine) against the scalar oracles of
//! `inbox_testkit::oracle`, asserting **bit-identity** everywhere the
//! production code documents it.

use inbox_autodiff::{Tape, Tensor};
use inbox_core::{HistoryCache, IntersectionMode, ItemScorer, UserBoxMode};
use inbox_eval::top_k_masked;
use inbox_kg::{ItemId, UserId};
use inbox_serve::ServeConfig;
use inbox_testkit::harness::{self, assert_bits_eq, ScalarPipeline};
use inbox_testkit::oracle;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const K: usize = 10;

/// The forward pass must agree with the scalar oracle bit-for-bit in every
/// intersection × user-box configuration the paper ablates: once with the
/// capped concept lists, and once with `max_concepts: 0`, so every history
/// item enters the interest box as its self box.
#[test]
fn forward_pass_matches_oracle_in_all_modes() {
    let modes = [
        (IntersectionMode::Attention, UserBoxMode::Both),
        (IntersectionMode::Attention, UserBoxMode::OnlyInterI),
        (IntersectionMode::Attention, UserBoxMode::OnlyInterU),
        (IntersectionMode::MaxMin, UserBoxMode::Both),
        (IntersectionMode::MaxMin, UserBoxMode::OnlyInterI),
        (IntersectionMode::MaxMin, UserBoxMode::OnlyInterU),
    ];
    for (seed, (intersection, user_box)) in modes.into_iter().enumerate() {
        for max_concepts in [None, Some(0)] {
            let (ds, model, mut cfg) = harness::fixture(100 + seed as u64);
            cfg.intersection = intersection;
            cfg.user_box = user_box;
            cfg.max_concepts = max_concepts.unwrap_or(cfg.max_concepts);
            let cache = HistoryCache::build(&ds.kg, &ds.train, &cfg);
            let compared = harness::check_forward_against_oracle(&model, &cfg, &cache);
            assert!(
                compared > 0,
                "{intersection:?}/{user_box:?}/{max_concepts:?}: no non-empty histories compared"
            );
        }
    }
}

/// Served rankings must be bit-identical to the full scalar pipeline —
/// oracle forward pass, oracle scoring, full-sort oracle ranking — for
/// every user, including after live ingests (with the testkit mirroring
/// the engine's history/mask state independently).
#[test]
fn served_rankings_match_scalar_pipeline() {
    let seed = 2024;
    let (ds, cfg, engine) = harness::engine(seed, &ServeConfig::default());
    // Engine construction consumed the model; rebuild bit-identical
    // parameters from the same seed for the oracle side.
    let (_, model, _) = harness::fixture(seed);
    let pipeline = ScalarPipeline::new(&model, &cfg, ds.train.n_items());

    // Independent mirrors of the engine's live state.
    let mut mirror = HistoryCache::build(&ds.kg, &ds.train, &cfg);
    let mut masks: Vec<Vec<ItemId>> = (0..ds.train.n_users() as u32)
        .map(|u| ds.train.items_of(UserId(u)).to_vec())
        .collect();

    let compare_all = |mirror: &HistoryCache, masks: &[Vec<ItemId>], round: &str| {
        let mut with_box = 0;
        for u in 0..ds.train.n_users() as u32 {
            let user = UserId(u);
            let served = engine.recommend_now(user, K).unwrap();
            match pipeline.answer(&cfg, user, mirror.history(user), &masks[user.index()], K) {
                None => assert!(served.fallback, "{round}: user {u} should fall back"),
                Some((top, _)) => {
                    assert!(!served.fallback, "{round}: user {u} unexpectedly fell back");
                    assert_eq!(
                        served.items.len(),
                        top.len(),
                        "{round}: user {u} top-K length"
                    );
                    for (got, want) in served.items.iter().zip(&top) {
                        assert_eq!(got.0, want.0, "{round}: user {u} item order");
                        assert_eq!(
                            got.1.to_bits(),
                            want.1.to_bits(),
                            "{round}: user {u} item {} score",
                            got.0 .0
                        );
                    }
                    with_box += 1;
                }
            }
        }
        assert!(with_box > 0, "{round}: every user fell back");
    };

    compare_all(&mirror, &masks, "cold");

    // Live ingests: drive the engine and the mirror with the same stream,
    // cross-checking the receipts against the mirror's own transitions.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
    for _ in 0..40 {
        let user = UserId(rng.gen_range(0..ds.train.n_users() as u32));
        let item = ItemId(rng.gen_range(0..ds.train.n_items() as u32));
        let receipt = engine.ingest(user, item).unwrap();
        let mask = &mut masks[user.index()];
        let mask_changed = match mask.binary_search(&item) {
            Err(pos) => {
                mask.insert(pos, item);
                true
            }
            Ok(_) => false,
        };
        let history_changed = mirror.ingest(&ds.kg, &cfg, user, item);
        assert_eq!(receipt.mask_changed, mask_changed, "mask receipt");
        assert_eq!(receipt.history_changed, history_changed, "history receipt");
        assert_eq!(receipt.version, mirror.version(user), "version receipt");
    }

    compare_all(&mirror, &masks, "after-ingest");
}

/// ≥ 1000 generated cases where a fused/pooled production path and its
/// scalar oracle must agree bit-exactly: the fused `d_pb_rows` training
/// op, the `ItemScorer` snapshot scorer, and the heap-based `top_k_masked`
/// ranking.
#[test]
fn thousand_case_oracle_agreement() {
    let mut rng = StdRng::seed_from_u64(0x1b0c);
    let mut cases = 0usize;

    // Fused d_pb_rows vs the interleaved-accumulator oracle.
    let mut tape = Tape::new();
    for _ in 0..400 {
        let rows = rng.gen_range(1..6usize);
        let cols = rng.gen_range(1..9usize);
        let broadcast_points = rng.gen_bool(0.25);
        let prow_count = if broadcast_points { 1 } else { rows };
        let randv = |rng: &mut StdRng, n: usize| -> Vec<f32> {
            (0..n).map(|_| rng.gen_range(-2.0f32..2.0)).collect()
        };
        let points = randv(&mut rng, prow_count * cols);
        let cen = randv(&mut rng, cols);
        let off = randv(&mut rng, cols);
        let w = rng.gen_range(0.0f32..1.0);

        tape.reset();
        let p = tape.constant(Tensor::from_vec(prow_count, cols, points.clone()));
        let c = tape.constant(Tensor::from_vec(1, cols, cen.clone()));
        let o = tape.constant(Tensor::from_vec(1, cols, off.clone()));
        let d = tape.d_pb_rows(p, c, o, w);
        let produced = tape.value(d).data().to_vec();

        let expected = oracle::d_pb_rows(
            &oracle::rows_from_flat(prow_count, cols, &points),
            &vec![cen.clone()],
            &vec![off.clone()],
            w,
        );
        assert_bits_eq(&produced, &expected, "d_pb_rows");
        cases += 1;
    }

    // ItemScorer::score_box vs oracle::score_items, then top_k_masked vs
    // the full-sort ranking oracle, on the fixture's real item table.
    let (ds, model, cfg) = harness::fixture(7);
    let n_items = ds.train.n_items();
    let dim = cfg.dim;
    let scorer = ItemScorer::new(&model, &cfg, n_items);
    let items_flat = model.item_point_matrix().data()[..n_items * dim].to_vec();
    for _ in 0..300 {
        let cen: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let off: Vec<f32> = (0..dim).map(|_| rng.gen_range(-0.5f32..1.0)).collect();
        let b = inbox_core::BoxEmb::new(cen.clone(), off.clone());
        let produced = scorer.score_box(&b);
        let expected =
            oracle::score_items(&items_flat, dim, &cen, &off, cfg.gamma, cfg.inside_weight);
        assert_bits_eq(&produced, &expected, "score_items");

        let mask = random_mask(&mut rng, n_items);
        let k = rng.gen_range(1..=n_items);
        assert_eq!(
            top_k_masked(&produced, &mask, k),
            oracle::rank(&expected, &mask, k),
            "ranking over scored items"
        );
        cases += 1;
    }

    // Ranking alone, on adversarial score vectors with heavy ties (the
    // heap's reversed comparator and the full sort must still agree).
    for _ in 0..300 {
        let n = rng.gen_range(1..40usize);
        let scores: Vec<f32> = (0..n)
            .map(|_| (rng.gen_range(-8i32..8) as f32) * 0.5)
            .collect();
        let mask = random_mask(&mut rng, n);
        let k = rng.gen_range(1..=n + 2);
        assert_eq!(
            top_k_masked(&scores, &mask, k),
            oracle::rank(&scores, &mask, k),
            "ranking ties (scores {scores:?}, mask {mask:?}, k {k})"
        );
        cases += 1;
    }

    assert!(cases >= 1000, "only {cases} generated cases ran");
}

/// A sorted, duplicate-free random mask over `0..n`.
fn random_mask(rng: &mut StdRng, n: usize) -> Vec<ItemId> {
    let mut mask: Vec<ItemId> = (0..n as u32)
        .filter(|_| rng.gen_bool(0.2))
        .map(ItemId)
        .collect();
    mask.dedup();
    mask
}

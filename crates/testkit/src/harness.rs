//! Shared fixtures and assertion helpers for the differential, metamorphic,
//! and chaos suites.
//!
//! The fixtures deliberately use an **untrained but deterministic** model:
//! `InBoxModel::new` is seeded by `InBoxConfig::seed`, so building twice
//! with the same seed yields bit-identical parameters. Correctness of the
//! serving/inference contracts (caching, shedding, fused ops, rankings) is
//! independent of training quality, and skipping training keeps every
//! suite fast.

use inbox_autodiff::Tape;
use inbox_core::predict::user_box_from_history;
use inbox_core::{HistoryCache, InBoxConfig, InBoxModel, UniverseSizes};
use inbox_data::{Dataset, SyntheticConfig};
use inbox_kg::{ItemId, UserId};
use inbox_serve::{Engine, Recommendation, ServeConfig};

use crate::oracle::{self, ModelParams};

/// A tiny synthetic dataset, deterministic in `seed`.
pub fn tiny_dataset(seed: u64) -> Dataset {
    Dataset::synthetic(&SyntheticConfig::tiny(), seed)
}

/// The universe sizes a dataset spans.
pub fn sizes_of(ds: &Dataset) -> UniverseSizes {
    UniverseSizes {
        n_items: ds.kg.n_items(),
        n_tags: ds.kg.n_tags(),
        n_relations: ds.kg.n_relations(),
        n_users: ds.train.n_users(),
    }
}

/// Tiny dataset + deterministic model + test config, all seeded.
pub fn fixture(seed: u64) -> (Dataset, InBoxModel, InBoxConfig) {
    let ds = tiny_dataset(seed);
    let cfg = InBoxConfig::tiny_test();
    let model = InBoxModel::new(sizes_of(&ds), &cfg);
    (ds, model, cfg)
}

/// [`fixture`] wrapped into a serving [`Engine`]. The engine takes the
/// model by value; because construction is deterministic, callers needing
/// the parameters too can rebuild them with [`fixture`] on the same seed.
pub fn engine(seed: u64, serve: &ServeConfig) -> (Dataset, InBoxConfig, Engine) {
    let (ds, model, cfg) = fixture(seed);
    let engine = Engine::new(model, cfg.clone(), ds.kg.clone(), &ds.train, serve);
    (ds, cfg, engine)
}

/// The `GET /recommend` body the HTTP front-end sends for `r`, byte for
/// byte.
pub fn recommend_body(r: &Recommendation) -> String {
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

/// Overwrites `model`'s item points with deterministic **clustered**
/// geometry: `n_clusters` centers drawn uniform in `[-0.5, 0.5)^d`, each
/// item placed on its cluster center plus per-dimension jitter in
/// `[-jitter, jitter)`. Items are assigned to clusters in contiguous
/// blocks.
///
/// Trained InBox item points cluster by concept (Figure 5 of the paper);
/// untrained `InBoxModel::new` points are uniform noise — the worst case
/// for any spatial index. Recall/latency fixtures for `inbox-index` use
/// this helper to reproduce the post-training regime without paying for
/// training, while exactness fixtures keep the adversarial uniform init.
pub fn cluster_item_points(model: &mut InBoxModel, n_clusters: usize, jitter: f32, seed: u64) {
    use rand::Rng;
    use rand::SeedableRng;
    let sizes = model.sizes();
    let (n, d) = (sizes.n_items, model.dim);
    let n_clusters = n_clusters.clamp(1, n.max(1));
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let centers: Vec<f32> = (0..n_clusters * d)
        .map(|_| rng.gen_range(-0.5f32..0.5))
        .collect();
    let mut points = vec![0.0f32; n * d];
    for i in 0..n {
        let c = i * n_clusters / n.max(1);
        for k in 0..d {
            points[i * d + k] = centers[c * d + k] + rng.gen_range(-jitter..jitter);
        }
    }
    model.set_item_points(&points);
}

/// Asserts two f32 slices are **bit-identical**, reporting the first
/// mismatching index with both bit patterns.
pub fn assert_bits_eq(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(
        a.len(),
        b.len(),
        "{what}: length {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: index {i}: {x:?} ({:#010x}) vs {y:?} ({:#010x})",
            x.to_bits(),
            y.to_bits()
        );
    }
}

/// Asserts two f32 slices agree within an absolute-or-relative tolerance
/// (`|x - y| <= tol * max(|x|, |y|, 1)`).
pub fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(
        a.len(),
        b.len(),
        "{what}: length {} vs {}",
        a.len(),
        b.len()
    );
    for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
        let denom = x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() <= tol * denom,
            "{what}: index {i}: {x} vs {y} (tol {tol})"
        );
    }
}

/// One user's scalar-pipeline answer: `(top-K items with scores, raw
/// score vector)`, or `None` for users without history (production serves
/// the popularity fallback for those).
pub type ScalarAnswer = Option<(Vec<(ItemId, f32)>, Vec<f32>)>;

/// The full inference pipeline recomputed through the scalar oracles —
/// forward pass ([`ModelParams::interest_box`]), scoring
/// ([`oracle::score_items`]), ranking ([`oracle::rank`]) — with no tape,
/// no fusion, and no cache. Production rankings must match bit-for-bit.
pub struct ScalarPipeline {
    params: ModelParams,
    /// Flat row-major `n_items × dim` item-point snapshot.
    items: Vec<f32>,
    dim: usize,
    n_items: usize,
    gamma: f32,
    inside_weight: f32,
}

impl ScalarPipeline {
    /// Snapshots everything the oracle pipeline reads from `model`.
    pub fn new(model: &InBoxModel, config: &InBoxConfig, n_items: usize) -> Self {
        let table = model.item_point_matrix();
        let dim = table.cols();
        Self {
            params: ModelParams::snapshot(model),
            items: table.data()[..n_items * dim].to_vec(),
            dim,
            n_items,
            gamma: config.gamma,
            inside_weight: config.inside_weight,
        }
    }

    /// The parameter snapshot, for direct forward-pass comparisons.
    pub fn params(&self) -> &ModelParams {
        &self.params
    }

    /// Scores and ranks one user from an explicit history + mask.
    pub fn answer(
        &self,
        config: &InBoxConfig,
        user: UserId,
        history: &[(inbox_kg::ItemId, Vec<inbox_kg::Concept>)],
        mask: &[ItemId],
        k: usize,
    ) -> ScalarAnswer {
        let (cen, off) = self.params.interest_box(config, user, history)?;
        let scores = oracle::score_items(
            &self.items,
            self.dim,
            &cen,
            &off,
            self.gamma,
            self.inside_weight,
        );
        let top = oracle::rank(&scores, mask, k)
            .into_iter()
            .map(|i| (i, scores[i.index()]))
            .collect();
        Some((top, scores))
    }

    /// Number of items in the snapshot.
    pub fn n_items(&self) -> usize {
        self.n_items
    }
}

/// Compares the production forward pass (`user_box_from_history` on a
/// real tape, with fused ops and buffer reuse) against the scalar oracle
/// for every user in `cache`, asserting bit-identity of both center and
/// offset. Returns how many non-empty histories were compared.
pub fn check_forward_against_oracle(
    model: &InBoxModel,
    config: &InBoxConfig,
    cache: &HistoryCache,
) -> usize {
    let params = ModelParams::snapshot(model);
    let mut tape = Tape::new();
    let mut compared = 0;
    for u in 0..cache.n_users() as u32 {
        let user = UserId(u);
        let history = cache.history(user);
        let produced = user_box_from_history(model, config, &mut tape, user, history);
        let expected = params.interest_box(config, user, history);
        match (produced, expected) {
            (None, None) => {}
            (Some(b), Some((cen, off))) => {
                assert_bits_eq(&b.cen, &cen, &format!("user {u} interest-box center"));
                assert_bits_eq(&b.off, &off, &format!("user {u} interest-box offset"));
                compared += 1;
            }
            (p, e) => panic!(
                "user {u}: production={} oracle={}",
                if p.is_some() { "Some" } else { "None" },
                if e.is_some() { "Some" } else { "None" }
            ),
        }
    }
    compared
}

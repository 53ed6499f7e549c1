//! Inference: building interest boxes for users and scoring items
//! (Section 3.5, Eq. (29)).
//!
//! The hot path is organised around two amortisations: a [`HistoryCache`]
//! precomputes every user's capped `(item, concepts)` history once per
//! training run (history and KG are immutable during training), and
//! [`ItemScorer`] snapshots the item-embedding table into one contiguous
//! matrix so scoring a user is a single linear scan instead of per-item row
//! lookups. [`all_user_boxes_with`] fans the per-user forward passes out
//! over the training run's persistent [`WorkerPool`].

use std::sync::Mutex;

use inbox_autodiff::Tape;
use inbox_data::Interactions;
use inbox_kg::{Concept, ItemId, KnowledgeGraph, UserId};

use crate::config::InBoxConfig;
use crate::geometry::BoxEmb;
use crate::model::{InBoxModel, ItemBoxParts, ItemSource};
use crate::pool::WorkerPool;
use crate::simd;

/// Precomputed per-user history: the first `max_history_infer` training
/// items, each with its first `max_concepts` concepts — exactly the history
/// [`user_interest_box`] derives on every call, computed once.
///
/// Training treats the cache as immutable; online serving mutates it through
/// [`HistoryCache::ingest`], which appends a freshly observed interaction to
/// one user's capped history and bumps that user's **version**. Versions let
/// downstream box caches detect staleness per user: a cached box computed at
/// version `v` is valid exactly while `version(user) == v`.
pub struct HistoryCache {
    histories: Vec<Vec<(ItemId, Vec<Concept>)>>,
    /// Monotonic per-user change counter; starts at 0, bumped by `ingest`.
    versions: Vec<u64>,
}

impl HistoryCache {
    /// Builds the cache for every user in `train`.
    pub fn build(kg: &KnowledgeGraph, train: &Interactions, config: &InBoxConfig) -> Self {
        let histories: Vec<Vec<(ItemId, Vec<Concept>)>> = (0..train.n_users() as u32)
            .map(|u| {
                let mut history = Vec::new();
                push_capped(kg, config, &mut history, train.items_of(UserId(u)));
                history
            })
            .collect();
        let versions = vec![0; histories.len()];
        Self {
            histories,
            versions,
        }
    }

    /// Number of users covered by the cache.
    pub fn n_users(&self) -> usize {
        self.histories.len()
    }

    /// The cached history of `user` (empty when the user has no history).
    pub fn history(&self, user: UserId) -> &[(ItemId, Vec<Concept>)] {
        &self.histories[user.index()]
    }

    /// The user's history version: 0 as built, +1 per effective [`ingest`].
    ///
    /// [`ingest`]: HistoryCache::ingest
    pub fn version(&self, user: UserId) -> u64 {
        self.versions[user.index()]
    }

    /// Records a live interaction: appends `item` (with its capped concept
    /// list) to the user's history and bumps their version. Returns `true`
    /// when the history actually changed; an item already present or a
    /// history already at `max_history_infer` leaves both the history and
    /// the version untouched, so cached boxes stay valid.
    pub fn ingest(
        &mut self,
        kg: &KnowledgeGraph,
        config: &InBoxConfig,
        user: UserId,
        item: ItemId,
    ) -> bool {
        let history = &mut self.histories[user.index()];
        if history.iter().any(|(i, _)| *i == item) || push_capped(kg, config, history, &[item]) == 0
        {
            return false;
        }
        self.versions[user.index()] += 1;
        true
    }
}

/// Appends `items` to `history` under the one history cap: at most
/// `max_history_infer` entries, each item with its first `max_concepts`
/// concepts. Returns how many items were appended.
fn push_capped(
    kg: &KnowledgeGraph,
    config: &InBoxConfig,
    history: &mut Vec<(ItemId, Vec<Concept>)>,
    items: &[ItemId],
) -> usize {
    let room = config.max_history_infer.saturating_sub(history.len());
    let taken = &items[..items.len().min(room)];
    history.extend(taken.iter().map(|&i| {
        let cs = kg.concepts_of(i);
        (i, cs[..cs.len().min(config.max_concepts)].to_vec())
    }));
    taken.len()
}

/// Builds the interest box of a single user from their training history
/// (forward pass only — the same tape code as training, without backward).
/// Returns `None` for users with no history.
pub fn user_interest_box(
    model: &InBoxModel,
    kg: &KnowledgeGraph,
    train: &Interactions,
    config: &InBoxConfig,
    user: UserId,
) -> Option<BoxEmb> {
    let mut history = Vec::new();
    push_capped(kg, config, &mut history, train.items_of(user));
    user_box_from_history(model, config, &mut Tape::new(), user, &history)
}

/// Builds one user's interest box from an explicit (already capped) history
/// on a reusable tape — the single-user building block behind online
/// serving and [`user_interest_box`], so a box computed here is
/// bit-identical to one computed from an [`Interactions`] set carrying the
/// same history. Returns `None` for an empty history.
pub fn user_box_from_history(
    model: &InBoxModel,
    config: &InBoxConfig,
    tape: &mut Tape,
    user: UserId,
    history: &[(ItemId, Vec<Concept>)],
) -> Option<BoxEmb> {
    box_from_history(
        model,
        config,
        tape,
        user,
        history,
        ItemSource::Record(config.intersection),
    )
}

/// One user's box from an already-capped history, its items' boxes taken
/// from `source`, on a reusable tape.
fn box_from_history(
    model: &InBoxModel,
    config: &InBoxConfig,
    tape: &mut Tape,
    user: UserId,
    history: &[(ItemId, Vec<Concept>)],
    source: ItemSource<'_>,
) -> Option<BoxEmb> {
    if history.is_empty() {
        return None;
    }
    tape.reset();
    let b = model.interest_box(tape, user, history, source, config.user_box);
    Some(model.box_values(tape, b))
}

/// Precomputes [`ItemBoxParts`] for every distinct item appearing in any
/// cached history, indexed by item id. Each item's stage-2 intersection is
/// computed once here instead of once per `(user, history item)` pair.
fn build_item_parts(
    model: &InBoxModel,
    cache: &HistoryCache,
    config: &InBoxConfig,
) -> Vec<Option<ItemBoxParts>> {
    let mut parts: Vec<Option<ItemBoxParts>> = Vec::new();
    let mut tape = Tape::new();
    for u in 0..cache.n_users() {
        for (item, concepts) in cache.history(UserId(u as u32)) {
            let idx = item.index();
            if idx >= parts.len() {
                parts.resize_with(idx + 1, || None);
            }
            if parts[idx].is_none() {
                parts[idx] =
                    Some(model.item_box_parts(&mut tape, *item, concepts, config.intersection));
            }
        }
    }
    parts
}

/// Builds interest boxes for every user.
///
/// Convenience wrapper that derives the history cache on the fly and runs
/// sequentially; training loops should build a [`HistoryCache`] once and
/// call [`all_user_boxes_with`].
pub fn all_user_boxes(
    model: &InBoxModel,
    kg: &KnowledgeGraph,
    train: &Interactions,
    config: &InBoxConfig,
) -> Vec<Option<BoxEmb>> {
    let cache = HistoryCache::build(kg, train, config);
    all_user_boxes_with(model, &cache, config, None)
}

/// Builds interest boxes for every user from a precomputed history cache,
/// fanning out over `pool` when one is supplied. The parallel split is by
/// contiguous user ranges, so the output is identical to the sequential
/// path (each user's box is an independent forward pass).
pub fn all_user_boxes_with(
    model: &InBoxModel,
    cache: &HistoryCache,
    config: &InBoxConfig,
    pool: Option<&WorkerPool>,
) -> Vec<Option<BoxEmb>> {
    let n = cache.n_users();
    // Per-item parts are rebuilt on every call: they depend on the current
    // parameters, which change between calls during training.
    let parts = build_item_parts(model, cache, config);
    let source = ItemSource::Parts(&parts);
    match pool {
        Some(pool) if pool.workers() > 1 && n >= pool.workers() * 4 => {
            let workers = pool.workers();
            let chunk = n.div_ceil(workers);
            let slots: Vec<Mutex<Vec<Option<BoxEmb>>>> =
                (0..workers).map(|_| Mutex::new(Vec::new())).collect();
            pool.run(&|w| {
                let lo = (w * chunk).min(n);
                let hi = (lo + chunk).min(n);
                let mut tape = Tape::new();
                let mut out = Vec::with_capacity(hi - lo);
                for u in lo..hi {
                    let user = UserId(u as u32);
                    out.push(box_from_history(
                        model,
                        config,
                        &mut tape,
                        user,
                        cache.history(user),
                        source,
                    ));
                }
                *slots[w].lock().unwrap() = out;
            });
            slots
                .into_iter()
                .flat_map(|m| m.into_inner().unwrap())
                .collect()
        }
        _ => {
            let mut tape = Tape::new();
            (0..n)
                .map(|u| {
                    let user = UserId(u as u32);
                    box_from_history(model, config, &mut tape, user, cache.history(user), source)
                })
                .collect()
        }
    }
}

/// f32 elements per 64-byte cache line.
const LINE: usize = 16;

/// The first index of `buf`'s allocation that starts a cache line. Fill
/// an empty `Vec` up to it, without reallocating, and the next element
/// lands on a line boundary. The AVX2 scan loads 32 bytes at a time;
/// from a line boundary, a load never straddles two lines, whatever
/// address the allocator chose.
fn line_offset(buf: &[f32]) -> usize {
    (LINE - buf.as_ptr() as usize / 4 % LINE) % LINE
}

/// Reusable buffers for [`ItemScorer::score_box_into`]: the box centre and
/// its per-dimension bounds, kept warm so steady-state scoring allocates
/// nothing. Each of the three starts a 64-byte cache line, so the AVX2
/// scan's loads never straddle two lines.
#[derive(Default)]
pub struct ScoreScratch {
    /// `[pad | cen | lo | hi]`, each part `dim` rounded up to whole lines.
    buf: Vec<f32>,
    /// Where `cen` starts in `buf`.
    at: usize,
    dim: usize,
}

impl ScoreScratch {
    /// Part `i` of the layout: 0 = `cen`, 1 = `lo`, 2 = `hi`.
    fn part(&self, i: usize) -> &[f32] {
        let start = self.at + i * self.dim.next_multiple_of(LINE);
        &self.buf[start..start + self.dim]
    }

    /// Lower box corner per dimension, as prepared by
    /// [`ItemScorer::prepare_box_bounds`].
    pub fn lo(&self) -> &[f32] {
        self.part(1)
    }

    /// Upper box corner per dimension, as prepared by
    /// [`ItemScorer::prepare_box_bounds`].
    pub fn hi(&self) -> &[f32] {
        self.part(2)
    }
}

/// Pinned for servebench; delete with the next benchmark change. The
/// item matrix is always scored in f32; this one-variant enum only keeps
/// the serving benchmark's `ServeConfig::quantize` reads compiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Quantization {
    /// Full f32 scoring, the only mode.
    #[default]
    None,
}

impl Quantization {
    /// Pinned for servebench; delete with the next benchmark change.
    pub fn as_str(&self) -> &'static str {
        "none"
    }
}

/// An owned snapshot of the item-embedding table that scores any interest
/// box against every item: `γ - D_PB(v_i, b)` (Eq. (29)).
///
/// On construction the scorer copies the item table into one contiguous
/// `n_items × d` matrix, so scoring walks a single allocation in item order.
/// [`order_rows`](Self::order_rows) may then permute the rows in place (the
/// serving engine stores them in IVF partition order); an id → row map
/// keeps every entry point addressed by item id, and
/// [`score_box_into`](Self::score_box_into) still answers in id order.
/// The per-dimension arithmetic mirrors
/// [`geometry::d_pb_weighted`](crate::geometry::d_pb_weighted) exactly
/// (separate outside/inside accumulators, same operation order), keeping
/// scores bit-identical to the per-item reference path.
///
/// Owning the snapshot (no borrow of the model or a boxes slice) is what
/// lets long-lived services score boxes computed after the snapshot was
/// taken — the item table is frozen at serving time, user boxes are not.
pub struct ItemScorer {
    gamma: f32,
    inside_weight: f32,
    n_items: usize,
    dim: usize,
    /// Row-major `n_items × dim` snapshot of the item points, from
    /// `matrix[start]` on, which starts a cache line.
    matrix: Vec<f32>,
    start: usize,
    /// `row_of[item]` is the matrix row holding `item`; empty while the
    /// rows are in item-id order.
    row_of: Vec<u32>,
    /// Present when this CPU runs AVX2, checked once here: the full scan
    /// and the per-item path then run at `__m256` width, bit-identical to
    /// [`simd::F32x8`].
    avx2: Option<simd::Avx2>,
}

impl ItemScorer {
    /// Snapshots the current item-point matrix of `model`.
    pub fn new(model: &InBoxModel, config: &InBoxConfig, n_items: usize) -> Self {
        let table = model.item_point_matrix();
        assert!(n_items <= table.rows(), "n_items exceeds item table");
        let dim = table.cols();
        let len = n_items * dim;
        let mut matrix = Vec::with_capacity(len + LINE - 1);
        let start = line_offset(&matrix);
        matrix.resize(start, 0.0);
        matrix.extend_from_slice(&table.data()[..len]);
        Self {
            gamma: config.gamma,
            inside_weight: config.inside_weight,
            n_items,
            dim,
            matrix,
            start,
            row_of: Vec::new(),
            avx2: simd::Avx2::detect(),
        }
    }

    /// Stores the rows in `order`, a permutation of the item ids: row `r`
    /// then holds item `order[r]`. The matrix is permuted in place, one
    /// cycle at a time through a single spare row, so no second copy of it
    /// exists at any moment. Scores do not change, only where a row sits.
    ///
    /// # Panics
    ///
    /// When `order` is not a permutation of `0..n_items`, or the rows
    /// were already ordered.
    pub fn order_rows(&mut self, order: &[u32]) {
        let n = self.n_items;
        assert!(self.row_of.is_empty(), "the rows are ordered once");
        assert_eq!(order.len(), n, "a row order lists every item once");
        let mut row_of = vec![u32::MAX; n];
        for (r, &item) in order.iter().enumerate() {
            let slot = &mut row_of[item as usize];
            assert_eq!(*slot, u32::MAX, "item {item} listed twice");
            *slot = r as u32;
        }
        let d = self.dim;
        let rows = &mut self.matrix[self.start..];
        let mut done = vec![false; n];
        let mut spare = vec![0.0f32; d];
        for first in 0..n {
            if done[first] {
                continue;
            }
            spare.copy_from_slice(&rows[first * d..(first + 1) * d]);
            let mut r = first;
            loop {
                done[r] = true;
                // Row `r` takes item `order[r]` from its id-order row.
                let from = order[r] as usize;
                if from == first {
                    rows[r * d..(r + 1) * d].copy_from_slice(&spare);
                    break;
                }
                rows.copy_within(from * d..(from + 1) * d, r * d);
                r = from;
            }
        }
        self.row_of = row_of;
    }

    /// Pinned for servebench; delete with the next benchmark change.
    /// The same as [`new`](Self::new): `quantization` has one value.
    pub fn with_quantization(
        model: &InBoxModel,
        config: &InBoxConfig,
        n_items: usize,
        _quantization: Quantization,
    ) -> Self {
        Self::new(model, config, n_items)
    }

    /// Pinned for servebench; delete with the next benchmark change.
    /// Always `0.0`: every score is exact f32.
    pub fn bound_slack(&self) -> f32 {
        0.0
    }

    /// Number of items the snapshot covers.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Embedding dimension of the snapshot.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The score offset `γ` (scores are `γ - distance`, Eq. (29)).
    pub fn gamma(&self) -> f32 {
        self.gamma
    }

    /// Weight of the inside-distance term of `D_PB`.
    pub fn inside_weight(&self) -> f32 {
        self.inside_weight
    }

    /// The row-major `n_items × dim` item-point snapshot, in row order:
    /// item-id order unless [`order_rows`](Self::order_rows) ran.
    pub fn items(&self) -> &[f32] {
        &self.matrix[self.start..]
    }

    /// The item point of `item`, wherever its row sits.
    fn row(&self, item: u32) -> &[f32] {
        let r = match self.row_of.as_slice() {
            [] => item,
            row_of => row_of[item as usize],
        } as usize;
        &self.items()[r * self.dim..(r + 1) * self.dim]
    }

    /// One row's score against a prepared box: [`simd::PreparedBox::score`],
    /// or the same lane program at AVX2 width when the CPU has it.
    #[inline]
    fn score_row(&self, q: &simd::PreparedBox<'_>, row: &[f32]) -> f32 {
        match self.avx2 {
            Some(avx2) => {
                let (out, inside) = avx2.d_pb_bounds_parts(row, q.cen, q.lo, q.hi);
                q.gamma - (out + q.inside_weight * inside)
            }
            None => q.score(row),
        }
    }

    /// The lane backend the full scan runs on: `"avx2"`, `"sse2"` or
    /// `"portable"`.
    pub fn backend(&self) -> &'static str {
        match self.avx2 {
            Some(_) => "avx2",
            None => simd::F32x8::BACKEND,
        }
    }

    /// The box with the bounds `scratch` holds, ready to score rows:
    /// [`score_item_prepared`](Self::score_item_prepared) and the full
    /// scan share this one kernel, which is what keeps them bit-identical
    /// (and, through the lane-striped kernel, equal to
    /// [`geometry::d_pb_weighted`](crate::geometry::d_pb_weighted)).
    fn prepared<'a>(&self, scratch: &'a ScoreScratch) -> simd::PreparedBox<'a> {
        simd::PreparedBox {
            cen: scratch.part(0),
            lo: scratch.lo(),
            hi: scratch.hi(),
            gamma: self.gamma,
            inside_weight: self.inside_weight,
        }
    }

    /// Fills `scratch` with the box's per-dimension `[lo, hi]` bounds —
    /// the exact `cen ± relu(off)` values the scan path uses. Splitting
    /// this out lets candidate-generation paths score arbitrary item
    /// subsets via [`score_item_prepared`](ItemScorer::score_item_prepared)
    /// with bit-identical results to the full scan.
    pub fn prepare_box_bounds(&self, b: &BoxEmb, scratch: &mut ScoreScratch) {
        let d = self.dim;
        let stride = d.next_multiple_of(LINE);
        let buf = &mut scratch.buf;
        buf.clear();
        // Reserved before the offset is taken: the pushes below never
        // reallocate, so every part stays where `line_offset` put it.
        buf.reserve(LINE - 1 + 3 * stride);
        let at = line_offset(buf);
        buf.resize(at, 0.0);
        buf.extend_from_slice(&b.cen[..d]);
        // relu0, not f32::max: `geometry::d_pb` derives its bounds the
        // same way, so both compute the same bits.
        buf.resize(at + stride, 0.0);
        buf.extend((0..d).map(|k| b.cen[k] - simd::relu0(b.off[k])));
        buf.resize(at + 2 * stride, 0.0);
        buf.extend((0..d).map(|k| b.cen[k] + simd::relu0(b.off[k])));
        scratch.at = at;
        scratch.dim = d;
    }

    /// Scores one item against a box whose bounds were prepared by
    /// [`prepare_box_bounds`](ItemScorer::prepare_box_bounds), reading its
    /// row through the id → row map. Identical arithmetic and operation
    /// order to the full scan (at AVX2 width when the CPU has it), so the
    /// score is bit-identical to `score_box_into`'s entry for the same
    /// item.
    pub fn score_item_prepared(&self, b: &BoxEmb, scratch: &ScoreScratch, item: u32) -> f32 {
        debug_assert_eq!(
            scratch.part(0),
            &b.cen[..],
            "scratch prepared from another box"
        );
        self.score_row(&self.prepared(scratch), self.row(item))
    }

    /// Scores every item against one interest box, in item order.
    pub fn score_box(&self, b: &BoxEmb) -> Vec<f32> {
        let mut scratch = ScoreScratch::default();
        let mut scores = Vec::new();
        self.score_box_into(b, &mut scratch, &mut scores);
        scores
    }

    /// [`score_box`](ItemScorer::score_box) writing into caller-owned
    /// buffers: identical arithmetic and accumulation order (scores stay
    /// bit-identical to the reference path), but steady-state
    /// allocation-free once `scratch` and `out` have warmed to the
    /// scorer's dimensions. Runs at AVX2 width when the CPU has it, with
    /// the same bits as the [`simd::F32x8`] scan.
    pub fn score_box_into(
        &self,
        b: &BoxEmb,
        scratch: &mut ScoreScratch,
        out_scores: &mut Vec<f32>,
    ) {
        // Per-user box bounds, computed once for all items. Using the same
        // `cen ± relu(off)` values and accumulation order as
        // `geometry::d_pb_weighted` keeps scores bit-identical.
        self.prepare_box_bounds(b, scratch);
        // The scan overwrites every slot, so a warm buffer is not re-zeroed.
        out_scores.resize(self.n_items, 0.0);
        let q = self.prepared(scratch);
        match (self.row_of.is_empty(), self.avx2) {
            (true, Some(avx2)) => avx2.score_rows(&q, self.items(), out_scores),
            (true, None) => q.score_rows(self.items(), out_scores),
            // Rows in another order: score by id, through the map.
            (false, _) => {
                for (item, score) in out_scores.iter_mut().enumerate() {
                    *score = self.score_row(&q, self.row(item as u32));
                }
            }
        }
    }

    /// The constant score vector used for users without a box: a `-∞`-like
    /// value so they rank arbitrarily but harmlessly.
    pub fn sentinel_scores(&self) -> Vec<f32> {
        vec![f32::MIN / 2.0; self.n_items]
    }

    /// A user's full score vector: [`score_box`](Self::score_box) for a
    /// user with a box, [`sentinel_scores`](Self::sentinel_scores) for a
    /// history-less one (`None`).
    pub fn score_user(&self, b: Option<&BoxEmb>) -> Vec<f32> {
        match b {
            Some(b) => self.score_box(b),
            None => self.sentinel_scores(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InBoxConfig;
    use crate::geometry;
    use crate::model::UniverseSizes;
    use crate::trainer::TrainedInBox;
    use inbox_data::{Dataset, SyntheticConfig};
    use inbox_eval::Scorer;

    fn setup() -> (Dataset, InBoxModel, InBoxConfig) {
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 33);
        let cfg = InBoxConfig::tiny_test();
        let sizes = UniverseSizes {
            n_items: ds.kg.n_items(),
            n_tags: ds.kg.n_tags(),
            n_relations: ds.kg.n_relations(),
            n_users: ds.n_users(),
        };
        let model = InBoxModel::new(sizes, &cfg);
        (ds, model, cfg)
    }

    #[test]
    fn user_boxes_built_for_active_users() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        assert_eq!(boxes.len(), ds.n_users());
        for (u, b) in boxes.iter().enumerate() {
            let has_history = !ds.train.items_of(UserId(u as u32)).is_empty();
            assert_eq!(b.is_some(), has_history, "user {u}");
            if let Some(b) = b {
                assert_eq!(b.dim(), model.dim);
                assert!(b.cen.iter().all(|v| v.is_finite()));
                assert!(b.off.iter().all(|v| v.is_finite()));
            }
        }
    }

    #[test]
    fn scorer_returns_full_score_vectors() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        let scorer = ItemScorer::new(&model, &cfg, ds.n_items());
        let scores = scorer.score_user(boxes[0].as_ref());
        assert_eq!(scores.len(), ds.n_items());
        assert!(scores.iter().all(|s| s.is_finite()));
        // Scores are bounded above by gamma (distance >= 0).
        assert!(scores.iter().all(|&s| s <= cfg.gamma));
    }

    #[test]
    fn inference_is_deterministic() {
        let (ds, model, cfg) = setup();
        let a = user_interest_box(&model, &ds.kg, &ds.train, &cfg, UserId(1)).unwrap();
        let b = user_interest_box(&model, &ds.kg, &ds.train, &cfg, UserId(1)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cached_history_matches_per_call_derivation() {
        let (ds, model, cfg) = setup();
        let cache = HistoryCache::build(&ds.kg, &ds.train, &cfg);
        assert_eq!(cache.n_users(), ds.n_users());
        let boxes = all_user_boxes_with(&model, &cache, &cfg, None);
        for (u, cached) in boxes.iter().enumerate() {
            let user = UserId(u as u32);
            let direct = user_interest_box(&model, &ds.kg, &ds.train, &cfg, user);
            assert_eq!(*cached, direct, "user {u}");
        }
    }

    #[test]
    fn parallel_user_boxes_bit_identical_to_sequential() {
        let (ds, model, cfg) = setup();
        let cache = HistoryCache::build(&ds.kg, &ds.train, &cfg);
        let sequential = all_user_boxes_with(&model, &cache, &cfg, None);
        let pool = WorkerPool::new(4);
        let parallel = all_user_boxes_with(&model, &cache, &cfg, Some(&pool));
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn matrix_snapshot_scores_match_per_item_path() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        let scorer = ItemScorer::new(&model, &cfg, ds.n_items());
        for (u, user_box) in boxes.iter().enumerate() {
            let Some(b) = user_box else { continue };
            let fast = scorer.score_box(b);
            for (i, &s) in fast.iter().enumerate() {
                let p = model.item_point_f32(ItemId(i as u32));
                let reference = cfg.gamma - geometry::d_pb_weighted(p, b, cfg.inside_weight);
                // Bit-identical: the scan path and the geometry reference
                // run the one lane-striped kernel on the same bounds.
                assert_eq!(
                    s.to_bits(),
                    reference.to_bits(),
                    "user {u} item {i}: {s} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn item_scorer_score_box_matches_the_trained_scorer() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        let owned = ItemScorer::new(&model, &cfg, ds.n_items());
        assert_eq!(owned.n_items(), ds.n_items());
        let trained = TrainedInBox::from_parts(model, cfg, boxes.clone(), Default::default());
        for (u, b) in boxes.iter().enumerate() {
            let user = UserId(u as u32);
            let via_box = match b {
                Some(b) => owned.score_box(b),
                None => owned.sentinel_scores(),
            };
            assert_eq!(owned.score_user(b.as_ref()), via_box, "user {u}");
            assert_eq!(Scorer::score_items(&trained, user), via_box, "user {u}");
        }
    }

    #[test]
    fn user_box_from_history_matches_interactions_path() {
        let (ds, model, cfg) = setup();
        let cache = HistoryCache::build(&ds.kg, &ds.train, &cfg);
        let mut tape = Tape::new();
        for u in 0..ds.n_users() as u32 {
            let user = UserId(u);
            let from_history =
                user_box_from_history(&model, &cfg, &mut tape, user, cache.history(user));
            let from_interactions = user_interest_box(&model, &ds.kg, &ds.train, &cfg, user);
            assert_eq!(from_history, from_interactions, "user {u}");
        }
    }

    #[test]
    fn ingest_bumps_only_the_touched_users_version() {
        let (ds, _model, cfg) = setup();
        let mut cache = HistoryCache::build(&ds.kg, &ds.train, &cfg);
        let user = (0..ds.n_users() as u32)
            .map(UserId)
            .find(|u| {
                let h = cache.history(*u);
                !h.is_empty() && h.len() < cfg.max_history_infer
            })
            .expect("a user with ingest headroom");
        let fresh = (0..ds.n_items() as u32)
            .map(ItemId)
            .find(|i| !cache.history(user).iter().any(|(h, _)| h == i))
            .expect("an unseen item");
        let before: Vec<u64> = (0..cache.n_users())
            .map(|u| cache.version(UserId(u as u32)))
            .collect();
        assert!(before.iter().all(|&v| v == 0));

        assert!(cache.ingest(&ds.kg, &cfg, user, fresh));
        assert_eq!(cache.version(user), 1);
        assert_eq!(
            cache.history(user).last().map(|(i, _)| *i),
            Some(fresh),
            "ingested item appended"
        );
        for u in 0..cache.n_users() as u32 {
            if UserId(u) != user {
                assert_eq!(cache.version(UserId(u)), 0, "user {u} untouched");
            }
        }

        // Re-ingesting the same item is a no-op: no version bump.
        assert!(!cache.ingest(&ds.kg, &cfg, user, fresh));
        assert_eq!(cache.version(user), 1);
    }

    #[test]
    fn ingest_respects_the_history_cap() {
        let (ds, _model, cfg) = setup();
        let mut cache = HistoryCache::build(&ds.kg, &ds.train, &cfg);
        let user = UserId(0);
        let mut added = 0;
        for i in 0..ds.n_items() as u32 {
            if cache.ingest(&ds.kg, &cfg, user, ItemId(i)) {
                added += 1;
            }
        }
        assert_eq!(cache.history(user).len(), cfg.max_history_infer);
        assert_eq!(cache.version(user), added as u64);
        // A full history rejects further items without touching the version.
        let v = cache.version(user);
        assert!(!cache.ingest(&ds.kg, &cfg, user, ItemId(0)));
        assert_eq!(cache.version(user), v);
    }

    #[test]
    fn per_item_prepared_scores_bit_match_the_full_scan() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        let scorer = ItemScorer::new(&model, &cfg, ds.n_items());
        assert_eq!(scorer.dim(), model.dim);
        assert_eq!(scorer.gamma(), cfg.gamma);
        assert_eq!(scorer.inside_weight(), cfg.inside_weight);
        assert_eq!(scorer.items().len(), ds.n_items() * model.dim);
        let mut scratch = ScoreScratch::default();
        for b in boxes.iter().flatten() {
            let full = scorer.score_box(b);
            scorer.prepare_box_bounds(b, &mut scratch);
            assert_eq!(scratch.lo().len(), model.dim);
            assert_eq!(scratch.hi().len(), model.dim);
            for (i, &s) in full.iter().enumerate() {
                let one = scorer.score_item_prepared(b, &scratch, i as u32);
                assert_eq!(one.to_bits(), s.to_bits(), "item {i}");
            }
        }
    }

    /// The dispatching scan (AVX2 when this CPU has it), the `F32x8` row
    /// loop called directly, the per-item path (AVX2 when this CPU has
    /// it) and `F32x8`'s per-row score agree to the bit, at dims with and
    /// without remainder lanes and on boxes holding signed zeros and
    /// subnormals.
    #[test]
    fn scan_backends_and_per_item_path_agree_bitwise() {
        let (ds, _, _) = setup();
        let specials = [0.0f32, -0.0, 1.1e-41, -7.0e-42, f32::MIN_POSITIVE];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |k: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            match (state >> 60) as usize {
                0 => specials[k % specials.len()],
                _ => ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 3.0,
            }
        };
        for d in [1usize, 7, 8, 13, 32, 33] {
            let cfg = InBoxConfig {
                dim: d,
                ..InBoxConfig::tiny_test()
            };
            let model = InBoxModel::new(
                UniverseSizes {
                    n_items: ds.kg.n_items(),
                    n_tags: ds.kg.n_tags(),
                    n_relations: ds.kg.n_relations(),
                    n_users: ds.n_users(),
                },
                &cfg,
            );
            let scorer = ItemScorer::new(&model, &cfg, ds.n_items());
            let mut scratch = ScoreScratch::default();
            let mut dispatched = Vec::new();
            let mut direct = vec![0.0f32; ds.n_items()];
            for _ in 0..4 {
                let cen: Vec<f32> = (0..d).map(&mut next).collect();
                let off: Vec<f32> = (0..d).map(&mut next).collect();
                let b = BoxEmb::new(cen, off);
                scorer.score_box_into(&b, &mut scratch, &mut dispatched);
                scorer
                    .prepared(&scratch)
                    .score_rows(scorer.items(), &mut direct);
                assert_eq!(dispatched.len(), ds.n_items());
                for (i, (&s, &f)) in dispatched.iter().zip(&direct).enumerate() {
                    let one = scorer.score_item_prepared(&b, &scratch, i as u32);
                    let row = &scorer.items()[i * d..(i + 1) * d];
                    let one_f32x8 = scorer.prepared(&scratch).score(row);
                    assert_eq!(
                        s.to_bits(),
                        f.to_bits(),
                        "{} vs F32x8, dim {d} item {i}",
                        scorer.backend()
                    );
                    assert_eq!(
                        s.to_bits(),
                        one.to_bits(),
                        "scan vs per-item, dim {d} item {i}"
                    );
                    assert_eq!(
                        one.to_bits(),
                        one_f32x8.to_bits(),
                        "{} per-item vs F32x8 per-row, dim {d} item {i}",
                        scorer.backend()
                    );
                }
            }
        }
    }

    /// Rows stored in another order score every item with the bits it
    /// had in id order, through the per-item path and the id-order scan
    /// alike.
    #[test]
    fn ordered_rows_keep_every_items_bits() {
        let (ds, model, cfg) = setup();
        let boxes = all_user_boxes(&model, &ds.kg, &ds.train, &cfg);
        let scorer = ItemScorer::new(&model, &cfg, ds.n_items());
        let by_id = scorer.items().to_vec();
        let mut scratch = ScoreScratch::default();
        let want: Vec<Vec<f32>> = boxes
            .iter()
            .flatten()
            .map(|b| scorer.score_box(b))
            .collect();
        let n = ds.n_items() as u32;
        let reversed: Vec<u32> = (0..n).rev().collect();
        // Odd ids first, then even: cycles of many lengths.
        let strided: Vec<u32> = (0..n)
            .filter(|i| i % 2 == 1)
            .chain((0..n).step_by(2))
            .collect();
        for order in [reversed, strided] {
            let mut scorer = ItemScorer::new(&model, &cfg, ds.n_items());
            scorer.order_rows(&order);
            let d = scorer.dim();
            for (r, &item) in order.iter().enumerate() {
                let i = item as usize;
                assert_eq!(
                    scorer.items()[r * d..(r + 1) * d],
                    by_id[i * d..(i + 1) * d],
                    "row {r} holds item {item}"
                );
            }
            let mut scan = Vec::new();
            for (b, want) in boxes.iter().flatten().zip(&want) {
                scorer.score_box_into(b, &mut scratch, &mut scan);
                for (i, w) in want.iter().enumerate() {
                    let one = scorer.score_item_prepared(b, &scratch, i as u32);
                    assert_eq!(one.to_bits(), w.to_bits(), "per-item, item {i}");
                    assert_eq!(scan[i].to_bits(), w.to_bits(), "scan, item {i}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn a_row_order_must_be_a_permutation() {
        let (ds, model, cfg) = setup();
        let mut scorer = ItemScorer::new(&model, &cfg, ds.n_items());
        let mut order: Vec<u32> = (0..ds.n_items() as u32).collect();
        order[1] = 0;
        scorer.order_rows(&order);
    }

    #[test]
    fn historyless_users_share_the_sentinel_scores() {
        let (ds, model, cfg) = setup();
        let scorer = ItemScorer::new(&model, &cfg, ds.n_items());
        let a = scorer.score_user(None);
        let b = scorer.score_user(None);
        assert_eq!(a, b);
        assert_eq!(a, vec![f32::MIN / 2.0; ds.n_items()]);
    }
}

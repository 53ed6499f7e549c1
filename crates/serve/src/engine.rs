//! The serving engine: frozen model + live per-user state + versioned box
//! cache.
//!
//! At startup the engine snapshots everything that training froze — the
//! parameter tensors (via an [`ItemScorer`] item-matrix snapshot), the
//! knowledge graph, and the popularity ranking used for cold users — and
//! keeps exactly two pieces of mutable state behind locks:
//!
//! - **live state** (`RwLock`): each user's capped concept history (a
//!   [`HistoryCache`] with per-user versions) plus their full interacted
//!   item set (the recommendation mask). [`Engine::ingest`] takes the write
//!   lock briefly; every read path shares the read lock.
//! - **box cache** (`Mutex<BoxCache>`): LRU of interest boxes keyed by
//!   `(user, history version)`. An ingest bumps the user's version, which
//!   makes their cached box unreachable — invalidation without touching any
//!   other user's entry.
//!
//! Both locks are instrumented ([`ObsRwLock`]/[`ObsMutex`]): wait times
//! land in the `lock.engine.live.wait` / `lock.engine.cache.wait` series,
//! and contended acquisitions bump the matching `.contended` counters.
//! Lock order is always live → cache; no code path acquires them in the
//! other direction, so the engine cannot deadlock against itself.
//! A panic while either lock is held poisons it; every acquisition here
//! recovers the guard with `PoisonError::into_inner`, as the HTTP front
//! end and the audit worker do, so one panicked request never turns every
//! later one into a panic.
//!
//! The hot scoring path is allocation-free at steady state: per-thread
//! scratch buffers back [`ItemScorer::score_box_into`] and the masked
//! top-k selector ([`TopKScratch`]), and the `engine.score` / `engine.rank`
//! allocation scopes make that property checkable at runtime against the
//! instrumented global allocator.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

use inbox_autodiff::Tape;
use inbox_core::predict::user_box_from_history;
use inbox_core::{
    BoxEmb, HistoryCache, InBoxConfig, InBoxModel, ItemScorer, ScoreScratch, TrainedInBox,
};
use inbox_data::Interactions;
use inbox_eval::{top_k_masked, TopKScratch};
use inbox_index::{
    auto_nlist, auto_nprobe, BoxQuery, IndexMode, IvfIndex, IvfParams, QueryScratch,
};
use inbox_kg::{ItemId, KnowledgeGraph, UserId};
use inbox_obs::{ObsMutex, ObsRwLock};

use crate::cache::BoxCache;
use crate::error::ServeError;
use crate::ServeConfig;

/// A served top-K answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Recommendation {
    /// The user the answer is for.
    pub user: UserId,
    /// Top-K `(item, score)` pairs, best first, interacted items excluded.
    pub items: Vec<(ItemId, f32)>,
    /// True when the user had no history and the popularity ranking was
    /// served instead of a box query.
    pub fallback: bool,
    /// The user's history version the answer was computed at.
    pub version: u64,
}

/// Receipt for an ingested interaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ingested {
    /// The user whose history was updated.
    pub user: UserId,
    /// The interacted item.
    pub item: ItemId,
    /// The user's history version after the ingest.
    pub version: u64,
    /// Whether the capped concept history changed (and the box cache entry
    /// was therefore invalidated).
    pub history_changed: bool,
    /// Whether the recommendation mask changed (item was new to the user).
    pub mask_changed: bool,
}

/// Monotonic serving statistics, readable at any time via
/// [`Engine::stats`]. Engine-local (not process-global) so concurrent
/// engines — e.g. parallel tests — observe only their own traffic. Only
/// the events a process-wide reader needs are also counted in `inbox-obs`:
/// requests, cache hits and sheds (`serve.requests`, `serve.cache.hits`,
/// `serve.shed`, read by the `inbox obs` dashboard), rebuilds
/// (`serve.box.rebuilds`) and ingests (`serve.ingest`, a drift input).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Recommend requests answered (including fallbacks, excluding sheds).
    pub requests: u64,
    /// Box forward passes executed (cache misses with non-empty history).
    pub rebuilds: u64,
    /// Box cache hits (including cached empty-history absences).
    pub cache_hits: u64,
    /// Box cache entries pushed out by the LRU capacity bound.
    pub evictions: u64,
    /// Requests answered from the popularity fallback.
    pub fallbacks: u64,
    /// Interactions ingested.
    pub ingests: u64,
    /// Requests shed by admission control.
    pub sheds: u64,
}

#[derive(Default)]
struct StatCells {
    requests: AtomicU64,
    rebuilds: AtomicU64,
    cache_hits: AtomicU64,
    fallbacks: AtomicU64,
    ingests: AtomicU64,
    sheds: AtomicU64,
}

struct LiveState {
    /// Capped per-user concept histories with per-user versions.
    history: HistoryCache,
    /// Every item each user has interacted with (sorted) — the top-K mask.
    /// Unlike the capped history this grows without bound per user, exactly
    /// like the offline evaluation protocol's train mask.
    masks: Vec<Vec<ItemId>>,
}

/// Per-thread reusable buffers for the score → rank pipeline. After one
/// warm request per thread, [`Engine::recommend_now`] performs no heap
/// allocation inside the `engine.score` and `engine.rank` scopes.
#[derive(Default)]
struct RecommendScratch {
    score: ScoreScratch,
    scores: Vec<f32>,
    /// The full sort's masked top-k selector.
    topk: TopKScratch,
    /// IVF probe + selector buffers (unused under [`IndexMode::FullSort`]).
    query: QueryScratch,
    /// The ranked answer, best first.
    ranked: Vec<(ItemId, f32)>,
}

thread_local! {
    static SCRATCH: RefCell<RecommendScratch> = RefCell::new(RecommendScratch::default());
}

/// The in-process recommendation engine. Thread-safe: all methods take
/// `&self` and may be called concurrently from any number of threads.
pub struct Engine {
    model: InBoxModel,
    config: InBoxConfig,
    kg: KnowledgeGraph,
    scorer: ItemScorer,
    /// Popularity score per item, frozen at startup (cold-user fallback).
    popularity: Vec<f32>,
    live: ObsRwLock<LiveState>,
    cache: ObsMutex<BoxCache>,
    /// IVF candidate index over the frozen item matrix plus the resolved
    /// probe count. `None` under [`IndexMode::FullSort`] *and* when an IVF
    /// build failed — the engine silently degrades to the full sort, which
    /// is always correct (just slower).
    index: Option<(IvfIndex, usize)>,
    stats: StatCells,
    obs_requests: inbox_obs::RateCounter,
    obs_rebuilds: inbox_obs::RateCounter,
    obs_cache_hits: inbox_obs::RateCounter,
    obs_ingests: inbox_obs::Counter,
    /// Ingested items carrying no KG concept tags — the audit layer's
    /// ingest-stream coverage signal (untagged items can never move a box).
    obs_ingest_untagged: inbox_obs::Counter,
    n_users: usize,
}

impl Engine {
    /// Builds an engine from a frozen model and the interaction set that
    /// seeds user histories and masks (typically the training split).
    pub fn new(
        model: InBoxModel,
        config: InBoxConfig,
        kg: KnowledgeGraph,
        train: &Interactions,
        serve: &ServeConfig,
    ) -> Self {
        assert_eq!(
            kg.n_items(),
            train.n_items(),
            "KG and interaction item universes must agree"
        );
        let n_users = train.n_users();
        let n_items = train.n_items();
        let scorer = ItemScorer::new(&model, &config, n_items);
        let popularity = train
            .item_popularity()
            .into_iter()
            .map(|c| c as f32)
            .collect();
        let history = HistoryCache::build(&kg, train, &config);
        let masks = (0..n_users as u32)
            .map(|u| train.items_of(UserId(u)).to_vec())
            .collect();
        let index = match serve.index {
            IndexMode::FullSort => None,
            IndexMode::Ivf { nlist, nprobe } => {
                let nlist = if nlist == 0 {
                    auto_nlist(n_items)
                } else {
                    nlist
                };
                let params = IvfParams {
                    nlist,
                    ..IvfParams::default()
                };
                match IvfIndex::build(scorer.items(), scorer.dim(), &params) {
                    Ok(ix) => {
                        let nprobe = if nprobe == 0 {
                            auto_nprobe(ix.nlist())
                        } else {
                            nprobe
                        };
                        let nprobe = nprobe.clamp(1, ix.nlist());
                        Some((ix, nprobe))
                    }
                    Err(_) => {
                        // Degrade, never crash: the full sort answers every
                        // query the index would, just without the speedup.
                        inbox_obs::counter("serve.index.build_failed").incr();
                        None
                    }
                }
            }
        };
        Self {
            model,
            config,
            kg,
            scorer,
            popularity,
            live: ObsRwLock::new("engine.live", LiveState { history, masks }),
            cache: ObsMutex::new("engine.cache", BoxCache::new(serve.cache_cap)),
            index,
            stats: StatCells::default(),
            obs_requests: inbox_obs::rate_counter("serve.requests"),
            obs_rebuilds: inbox_obs::rate_counter("serve.box.rebuilds"),
            obs_cache_hits: inbox_obs::rate_counter("serve.cache.hits"),
            obs_ingests: inbox_obs::counter("serve.ingest"),
            obs_ingest_untagged: inbox_obs::counter("serve.ingest.untagged"),
            n_users,
        }
    }

    /// Builds an engine from a training checkpoint, consuming it.
    pub fn from_trained(
        trained: TrainedInBox,
        kg: KnowledgeGraph,
        train: &Interactions,
        serve: &ServeConfig,
    ) -> Self {
        Self::new(trained.model, trained.config, kg, train, serve)
    }

    /// The live state, shared. Like every lock here, a guard poisoned by a
    /// panicking holder is recovered rather than propagated.
    fn read_live(&self) -> RwLockReadGuard<'_, LiveState> {
        self.live.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The live state, exclusive.
    fn write_live(&self) -> RwLockWriteGuard<'_, LiveState> {
        self.live.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The box cache.
    fn lock_cache(&self) -> MutexGuard<'_, BoxCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The γ of Eq. (29): a served score is `γ −` the item's distance.
    pub(crate) fn gamma(&self) -> f32 {
        self.scorer.gamma()
    }

    /// Number of users in the serving universe.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of items in the serving universe.
    pub fn n_items(&self) -> usize {
        self.scorer.n_items()
    }

    /// The live candidate index, as `(nlist, nprobe)`: `None` under
    /// [`IndexMode::FullSort`] or after a failed IVF build (the engine then
    /// serves full sorts). The resolved values reflect the auto-derivation
    /// of `0` knobs.
    pub fn index_active(&self) -> Option<(usize, usize)> {
        self.index
            .as_ref()
            .map(|(ix, nprobe)| (ix.nlist(), *nprobe))
    }

    /// Number of interest boxes currently resident in the box cache.
    pub fn cache_len(&self) -> usize {
        self.lock_cache().len()
    }

    /// Current serving statistics.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.stats.requests.load(Ordering::Relaxed),
            rebuilds: self.stats.rebuilds.load(Ordering::Relaxed),
            cache_hits: self.stats.cache_hits.load(Ordering::Relaxed),
            evictions: self.lock_cache().evictions(),
            fallbacks: self.stats.fallbacks.load(Ordering::Relaxed),
            ingests: self.stats.ingests.load(Ordering::Relaxed),
            sheds: self.stats.sheds.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn note_shed(&self) {
        self.stats.sheds.fetch_add(1, Ordering::Relaxed);
    }

    /// The user's current history version.
    pub fn version_of(&self, user: UserId) -> Result<u64, ServeError> {
        if user.index() >= self.n_users {
            return Err(ServeError::UnknownUser(user));
        }
        Ok(self.read_live().history.version(user))
    }

    /// Records a live interaction. Takes the live write lock briefly; the
    /// user's box is *not* recomputed here — the version bump makes the
    /// cached box unreachable and the next recommend rebuilds it lazily.
    pub fn ingest(&self, user: UserId, item: ItemId) -> Result<Ingested, ServeError> {
        if user.index() >= self.n_users {
            return Err(ServeError::UnknownUser(user));
        }
        if item.index() >= self.n_items() {
            return Err(ServeError::UnknownItem(item));
        }
        let (version, history_changed, mask_changed) = {
            let mut live = self.write_live();
            let mask = &mut live.masks[user.index()];
            let mask_changed = match mask.binary_search(&item) {
                Err(pos) => {
                    mask.insert(pos, item);
                    true
                }
                Ok(_) => false,
            };
            // Chaos site: a panic with the write lock held, between the
            // two updates, poisons `live`. Every lock here recovers the
            // guard, and the state left behind (mask grown, history not)
            // is one a capped history reaches anyway, so later requests
            // are still answered exactly.
            if inbox_obs::failpoint!("serve.ingest.panic") {
                panic!("injected failpoint: serve.ingest.panic");
            }
            let history_changed = live.history.ingest(&self.kg, &self.config, user, item);
            (live.history.version(user), history_changed, mask_changed)
        };
        self.stats.ingests.fetch_add(1, Ordering::Relaxed);
        self.obs_ingests.incr();
        if self.kg.concepts_of(item).is_empty() {
            self.obs_ingest_untagged.incr();
        }
        Ok(Ingested {
            user,
            item,
            version,
            history_changed,
            mask_changed,
        })
    }

    /// Resolves the user's interest box at their current history version:
    /// cache hit, or lazy rebuild (one forward pass) followed by a cache
    /// insert. Returns the version the box belongs to.
    fn resolve_box(&self, user: UserId) -> (u64, Option<Arc<BoxEmb>>) {
        let _resolve_span = inbox_obs::ctx_span("engine.resolve_box");
        let live = self.read_live();
        let version = live.history.version(user);
        if let Some(hit) = self.lock_cache().get(user.0, version) {
            drop(live);
            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            self.obs_cache_hits.incr();
            // Zero-ish-duration marker span: its presence in the tree is
            // the information.
            drop(inbox_obs::ctx_span("engine.cache_hit"));
            return (version, hit);
        }
        // Miss: clone the history under the same read lock, so the box we
        // build below belongs to exactly `version` even if an ingest lands
        // while we compute.
        let history = live.history.history(user).to_vec();
        drop(live);
        let value = if history.is_empty() {
            None
        } else {
            self.stats.rebuilds.fetch_add(1, Ordering::Relaxed);
            self.obs_rebuilds.incr();
            let _rebuild_span = inbox_obs::ctx_span("engine.rebuild");
            let mut tape = Tape::new();
            user_box_from_history(&self.model, &self.config, &mut tape, user, &history)
                .map(Arc::new)
        };
        // Chaos site: skipping the insert is indistinguishable from the
        // entry being evicted by a concurrent flood of other users the
        // instant after it was cached — the answer must not change.
        if !inbox_obs::failpoint!("serve.cache.evict") {
            self.lock_cache().insert(user.0, version, value.clone());
        }
        (version, value)
    }

    /// Answers one recommend request immediately on the calling thread
    /// ([`Service`](crate::Service) calls this inline; tests may call it
    /// directly). Users with a box get the geometric ranking; cold users
    /// get the popularity fallback instead of an error. `k` beyond the
    /// catalog is clamped to it: no answer holds more than `n_items` items,
    /// and the ranker reserves room for `k`.
    pub fn recommend_now(&self, user: UserId, k: usize) -> Result<Recommendation, ServeError> {
        if user.index() >= self.n_users {
            return Err(ServeError::UnknownUser(user));
        }
        let k = k.min(self.n_items());
        let _recommend_span = inbox_obs::ctx_span("engine.recommend");
        let (version, resolved) = self.resolve_box(user);
        let fallback = resolved.is_none();
        if fallback {
            self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
        }
        // Score and rank through per-thread scratch buffers: after one warm
        // request per thread, neither scope allocates. The answer's own
        // `items` vector is materialised outside both scopes — it leaves
        // with the caller, so it is intrinsic to the request, not overhead.
        let items = SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let RecommendScratch {
                score,
                scores,
                topk,
                query,
                ranked,
            } = &mut *scratch;
            // Indexed path: candidate generation (probe selection) + exact
            // re-rank over the probed partitions. Only box-backed users go
            // through the index — cold users keep the popularity fallback
            // below, bit-for-bit unchanged. The re-rank scores candidates
            // through the per-item kernel of the full scan and ranks them
            // with the same selector, so whenever the probed partitions
            // contain the true top-k the answer is byte-identical to
            // `IndexMode::FullSort`.
            if let (Some(b), Some((index, nprobe))) = (resolved.as_deref(), self.index.as_ref()) {
                self.scorer.prepare_box_bounds(b, score);
                let q = BoxQuery {
                    lo: score.lo(),
                    hi: score.hi(),
                    cen: &b.cen,
                    inside_weight: self.scorer.inside_weight(),
                    gamma: self.scorer.gamma(),
                    bound_slack: 0.0,
                };
                {
                    let _cand_span = inbox_obs::ctx_span("engine.candidates");
                    let _cand_alloc = inbox_obs::alloc_scope("engine.candidates");
                    index.select_probes(&q, *nprobe, query);
                }
                let rerank_stats = {
                    let _rerank_span = inbox_obs::ctx_span("engine.rerank");
                    let _rerank_alloc = inbox_obs::alloc_scope("engine.rerank");
                    let live = self.read_live();
                    let mask = &live.masks[user.index()];
                    index.rerank(
                        &q,
                        k,
                        mask,
                        |i| self.scorer.score_item_prepared(b, score, i),
                        query,
                        ranked,
                    )
                };
                inbox_obs::record_value("engine.candidates.size", rerank_stats.candidates as u64);
                return ranked.clone();
            }
            {
                let _score_span = inbox_obs::ctx_span("engine.score");
                let _score_alloc = inbox_obs::alloc_scope("engine.score");
                match resolved.as_deref() {
                    Some(b) => self.scorer.score_box_into(b, score, scores),
                    None => {
                        scores.clear();
                        scores.extend_from_slice(&self.popularity);
                    }
                }
            }
            {
                let _rank_span = inbox_obs::ctx_span("engine.rank");
                let _rank_alloc = inbox_obs::alloc_scope("engine.rank");
                let live = self.read_live();
                topk.select(scores, &live.masks[user.index()], k);
                ranked.clear();
                topk.finish(|item, s| ranked.push((item, s)));
            }
            ranked.clone()
        });
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        self.obs_requests.incr();
        Ok(Recommendation {
            user,
            items,
            fallback,
            version,
        })
    }

    /// Reference answer computed with a fresh forward pass, bypassing the
    /// box cache (the single-threaded oracle of the serving tests): the
    /// exact f32 full sort at the user's current live state. Because the
    /// forward pass is deterministic, [`Engine::recommend_now`] is
    /// bit-identical to this for any fixed history version under the full
    /// sort and under full-probe IVF.
    pub fn oracle(&self, user: UserId, k: usize) -> Result<Recommendation, ServeError> {
        if user.index() >= self.n_users {
            return Err(ServeError::UnknownUser(user));
        }
        Ok(self
            .reference(user, k, None)
            .expect("an unconditioned reference is never stale"))
    }

    /// Shadow-oracle re-rank for the online audit worker: the exact
    /// **FullSort f32** answer for `(user, version)`, computed off the hot
    /// path with fresh allocations by the same reference ranker as
    /// [`Engine::oracle`], so a healthy serving configuration compares
    /// byte-identical against it.
    ///
    /// Returns `Ok(None)` when the comparison would be against different
    /// live state than the answer was served from: the user's history
    /// version moved past `version`, or the mask grew over one of the
    /// served items without a version bump (an ingest of an item already
    /// in the capped history changes the mask only). Such samples are
    /// *stale*, not mismatched.
    pub fn audit_rerank(
        &self,
        user: UserId,
        version: u64,
        k: usize,
        served: &[(ItemId, f32)],
    ) -> Result<Option<Vec<(ItemId, f32)>>, ServeError> {
        if user.index() >= self.n_users {
            return Err(ServeError::UnknownUser(user));
        }
        Ok(self
            .reference(user, k, Some((version, served)))
            .map(|answer| answer.items))
    }

    /// The one reference ranker behind [`oracle`](Self::oracle) and
    /// [`audit_rerank`](Self::audit_rerank). Snapshots the user's version,
    /// history and mask under a single read guard, rebuilds the box with a
    /// fresh forward pass and ranks every item scored through
    /// [`ItemScorer::score_item_prepared`] — whatever the serving index —
    /// or the popularity scores for a cold user.
    ///
    /// With `served = Some((version, items))` it returns `None` instead
    /// when the snapshot is not the state those items were served from:
    /// another version, or a mask that now covers one of them.
    fn reference(
        &self,
        user: UserId,
        k: usize,
        served: Option<(u64, &[(ItemId, f32)])>,
    ) -> Option<Recommendation> {
        // As in `recommend_now`: no answer holds more than the catalog.
        let k = k.min(self.n_items());
        let (version, history, mask) = {
            let live = self.read_live();
            let version = live.history.version(user);
            if served.is_some_and(|(v, _)| v != version) {
                return None;
            }
            (
                version,
                live.history.history(user).to_vec(),
                live.masks[user.index()].clone(),
            )
        };
        if let Some((_, items)) = served {
            if items.iter().any(|(i, _)| mask.binary_search(i).is_ok()) {
                return None;
            }
        }
        let mut tape = Tape::new();
        let b = user_box_from_history(&self.model, &self.config, &mut tape, user, &history);
        let scores: Vec<f32> = match &b {
            Some(b) => {
                let mut scratch = ScoreScratch::default();
                self.scorer.prepare_box_bounds(b, &mut scratch);
                (0..self.n_items() as u32)
                    .map(|i| self.scorer.score_item_prepared(b, &scratch, i))
                    .collect()
            }
            None => self.popularity.clone(),
        };
        let items = top_k_masked(&scores, &mask, k)
            .into_iter()
            .map(|i| (i, scores[i.index()]))
            .collect();
        Some(Recommendation {
            user,
            items,
            fallback: b.is_none(),
            version,
        })
    }
}

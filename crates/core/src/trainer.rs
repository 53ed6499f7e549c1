//! Three-stage training orchestration (Figure 3) with the paper's learning
//! rate schedule and early-stopping rule.

use std::sync::OnceLock;

use inbox_autodiff::{Adam, GradStore};
use inbox_data::Dataset;
use inbox_eval::{evaluate_with_threads, top_k_masked, RankingMetrics, Scorer};
use inbox_kg::{ItemId, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::InBoxConfig;
use crate::geometry::BoxEmb;
use crate::model::{InBoxModel, UniverseSizes};
use crate::predict::{all_user_boxes_with, HistoryCache, ItemScorer};
use crate::sampler::{stage1_epoch, stage2_epoch, stage3_epoch, Stage1Stats};
use crate::stages::{stage1_loss, stage2_loss, stage3_loss, BatchRunner};

/// Per-stage training history.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct TrainReport {
    /// Mean loss per epoch for stage 1 (empty when skipped).
    pub stage1_losses: Vec<f64>,
    /// Mean loss per epoch for stage 2 (empty when skipped).
    pub stage2_losses: Vec<f64>,
    /// Mean loss per epoch for stage 3.
    pub stage3_losses: Vec<f64>,
    /// recall@20 on the test split after each stage-3 epoch.
    pub stage3_recalls: Vec<f64>,
    /// Whether early stopping fired before `epochs_stage3`.
    pub early_stopped: bool,
    /// Telemetry run id this training emitted [`inbox_obs::EpochRecord`]s
    /// under (0 for reports predating instrumentation, e.g. old checkpoints).
    #[serde(default)]
    pub run_id: u64,
}

/// A fully trained InBox model with precomputed user interest boxes.
pub struct TrainedInBox {
    /// The trained parameters.
    pub model: InBoxModel,
    /// The configuration it was trained with.
    pub config: InBoxConfig,
    /// One interest box per user (`None` for history-less users).
    pub boxes: Vec<Option<BoxEmb>>,
    /// Training history.
    pub report: TrainReport,
    /// The item-matrix snapshot every score goes through, taken on first
    /// use, so ranking many users copies the matrix once and a checkpoint
    /// that is only served never copies it here.
    scorer: OnceLock<ItemScorer>,
}

impl TrainedInBox {
    /// Assembles a trained model from parts (used by checkpoint loading).
    pub fn from_parts(
        model: InBoxModel,
        config: InBoxConfig,
        boxes: Vec<Option<BoxEmb>>,
        report: TrainReport,
    ) -> Self {
        Self {
            model,
            config,
            boxes,
            report,
            scorer: OnceLock::new(),
        }
    }

    /// The item-matrix snapshot behind [`Scorer::score_items`], built on
    /// the first call.
    pub fn scorer(&self) -> &ItemScorer {
        self.scorer
            .get_or_init(|| ItemScorer::new(&self.model, &self.config, self.model.sizes().n_items))
    }

    /// Top-`k` recommendations for `user`, excluding already-interacted
    /// `mask` items (pass the user's train items), best first.
    pub fn recommend(&self, user: UserId, mask: &[ItemId], k: usize) -> Vec<(ItemId, f32)> {
        let scores = self.score_items(user);
        top_k_masked(&scores, mask, k)
            .into_iter()
            .map(|i| (i, scores[i.index()]))
            .collect()
    }

    /// The interest box of a user, if they had history.
    pub fn interest_box_of(&self, user: UserId) -> Option<&BoxEmb> {
        self.boxes[user.index()].as_ref()
    }

    /// Online serving: rebuilds one user's interest box from an updated
    /// interaction set *without retraining* — new interactions immediately
    /// reshape the box through the (frozen) concept geometry and attention
    /// networks. Returns true when the user now has a box.
    pub fn refresh_user_box(
        &mut self,
        kg: &inbox_kg::KnowledgeGraph,
        interactions: &inbox_data::Interactions,
        user: UserId,
    ) -> bool {
        let b =
            crate::predict::user_interest_box(&self.model, kg, interactions, &self.config, user);
        let has = b.is_some();
        self.boxes[user.index()] = b;
        has
    }

    /// Evaluates recall@K / ndcg@K on a dataset split.
    pub fn evaluate(&self, dataset: &Dataset, k: usize) -> RankingMetrics {
        evaluate_with_threads(self, &dataset.train, &dataset.test, k, self.config.threads)
    }
}

impl Scorer for TrainedInBox {
    fn score_items(&self, user: UserId) -> Vec<f32> {
        self.scorer().score_user(self.boxes[user.index()].as_ref())
    }
}

/// Wall-clock scope of one training epoch; emits the telemetry record for
/// the epoch when it ends. Holding the clock open across the whole epoch
/// (sampling, gradient batches, and stage 3's in-loop evaluation) makes
/// `samples_per_sec` an end-to-end throughput number, not a kernel number.
struct EpochClock {
    start: std::time::Instant,
}

impl EpochClock {
    fn start() -> Self {
        Self {
            start: std::time::Instant::now(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit(
        self,
        run: u64,
        stage: u8,
        epoch: usize,
        loss: f64,
        samples: usize,
        grad_norm: f64,
        metrics: Option<&RankingMetrics>,
        model: &InBoxModel,
    ) {
        if !inbox_obs::enabled() {
            return;
        }
        let elapsed = self.start.elapsed();
        let secs = elapsed.as_secs_f64();
        inbox_obs::emit_epoch(inbox_obs::EpochRecord {
            run,
            stage,
            epoch,
            loss,
            samples: samples as u64,
            samples_per_sec: if secs > 0.0 {
                samples as f64 / secs
            } else {
                0.0
            },
            grad_norm,
            recall: metrics.map(|m| m.recall),
            ndcg: metrics.map(|m| m.ndcg),
            box_health: model.box_health(),
            elapsed_ms: secs * 1e3,
        });
    }
}

/// The paper's step schedule: lr × 1 until 50% of the epochs, × 0.2 until
/// 75%, × 0.04 afterwards (1e-4 → 2e-5 → 4e-6 in the paper's units).
pub fn lr_at(base: f32, epoch: usize, total: usize, decay: bool) -> f32 {
    if !decay || total == 0 {
        return base;
    }
    let frac = epoch as f32 / total as f32;
    if frac < 0.5 {
        base
    } else if frac < 0.75 {
        base * 0.2
    } else {
        base * 0.04
    }
}

/// Trains InBox on a dataset according to `config` (including any ablation
/// switches) and returns the trained model.
pub fn train(dataset: &Dataset, config: InBoxConfig) -> TrainedInBox {
    assert_eq!(
        dataset.kg.n_items(),
        dataset.train.n_items(),
        "KG and interaction item universes must agree"
    );
    let sizes = UniverseSizes {
        n_items: dataset.kg.n_items(),
        n_tags: dataset.kg.n_tags(),
        n_relations: dataset.kg.n_relations(),
        n_users: dataset.n_users(),
    };
    let mut model = InBoxModel::new(sizes, &config);
    let run = inbox_obs::next_run_id();
    let mut report = TrainReport {
        run_id: run,
        ..TrainReport::default()
    };
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let batch_counter = inbox_obs::counter("grad.batches");
    // Hot-path state shared by every batch of every stage: the persistent
    // worker pool, one reusable gradient buffer, and the per-user history
    // cache (history and KG are immutable during training).
    let runner = BatchRunner::new(config.threads);
    let mut grads = GradStore::new();
    let history = HistoryCache::build(&dataset.kg, &dataset.train, &config);

    // ---- Stage 1: basic pretraining (Section 3.2) ------------------------
    if config.use_stage1 {
        let stats = Stage1Stats::new(&dataset.kg);
        let sampled = inbox_obs::counter("sampler.stage1.samples");
        for epoch in 0..config.epochs_stage1 {
            let clock = EpochClock::start();
            let adam = Adam::with_lr(lr_at(
                config.lr,
                epoch,
                config.epochs_stage1,
                config.lr_decay,
            ));
            let (samples, _) = inbox_obs::time("sampler.stage1", || {
                stage1_epoch(&dataset.kg, &stats, &config, &mut rng)
            });
            sampled.add(samples.len() as u64);
            let n_batches = samples.len().div_ceil(config.batch_size.max(1));
            let mut loss_sum = 0.0;
            let mut batches = 0usize;
            let mut grad_norm = 0.0;
            for batch in samples.chunks(config.batch_size) {
                let span = inbox_obs::span("grad.stage1");
                let loss = runner.grad_batch_into(
                    &model,
                    batch,
                    &|m, t, s| stage1_loss(m, t, s, &config),
                    &mut grads,
                );
                span.stop();
                batch_counter.incr();
                batches += 1;
                if batches == n_batches && inbox_obs::enabled() {
                    grad_norm = grads.l2_norm();
                }
                adam.step(&mut model.store, &grads);
                loss_sum += loss;
            }
            let loss = loss_sum / batches.max(1) as f64;
            report.stage1_losses.push(loss);
            clock.emit(run, 1, epoch, loss, samples.len(), grad_norm, None, &model);
        }
    }

    // ---- Stage 2: box intersection (Section 3.3) -------------------------
    if config.use_stage2 {
        let sampled = inbox_obs::counter("sampler.stage2.samples");
        for epoch in 0..config.epochs_stage2 {
            let clock = EpochClock::start();
            let adam = Adam::with_lr(lr_at(
                config.lr,
                epoch,
                config.epochs_stage2,
                config.lr_decay,
            ));
            let (samples, _) = inbox_obs::time("sampler.stage2", || {
                stage2_epoch(&dataset.kg, &config, &mut rng)
            });
            sampled.add(samples.len() as u64);
            let n_batches = samples.len().div_ceil(config.batch_size.max(1));
            let mut loss_sum = 0.0;
            let mut batches = 0usize;
            let mut grad_norm = 0.0;
            for batch in samples.chunks(config.batch_size) {
                let span = inbox_obs::span("grad.stage2");
                let loss = runner.grad_batch_into(
                    &model,
                    batch,
                    &|m, t, s| stage2_loss(m, t, s, &config),
                    &mut grads,
                );
                span.stop();
                batch_counter.incr();
                batches += 1;
                if batches == n_batches && inbox_obs::enabled() {
                    grad_norm = grads.l2_norm();
                }
                adam.step(&mut model.store, &grads);
                loss_sum += loss;
            }
            let loss = loss_sum / batches.max(1) as f64;
            report.stage2_losses.push(loss);
            clock.emit(run, 2, epoch, loss, samples.len(), grad_norm, None, &model);
        }
    }

    // ---- Stage 3: interest-box recommendation (Section 3.4) --------------
    // Early stopping per the paper: stop when recall@20 fails to improve for
    // `patience` consecutive epochs (the paper uses 2).
    let mut best_recall = f64::MIN;
    let mut stale = 0usize;
    let sampled = inbox_obs::counter("sampler.stage3.samples");
    for epoch in 0..config.epochs_stage3 {
        let clock = EpochClock::start();
        let adam = Adam::with_lr(lr_at(
            config.lr,
            epoch,
            config.epochs_stage3,
            config.lr_decay,
        ));
        let (samples, _) = inbox_obs::time("sampler.stage3", || {
            stage3_epoch(&dataset.kg, &dataset.train, &config, &mut rng)
        });
        sampled.add(samples.len() as u64);
        let n_batches = samples.len().div_ceil(config.batch_size.max(1));
        let mut loss_sum = 0.0;
        let mut batches = 0usize;
        let mut grad_norm = 0.0;
        for batch in samples.chunks(config.batch_size) {
            let span = inbox_obs::span("grad.stage3");
            let loss = runner.grad_batch_into(
                &model,
                batch,
                &|m, t, s| stage3_loss(m, t, s, &config),
                &mut grads,
            );
            span.stop();
            batch_counter.incr();
            batches += 1;
            if batches == n_batches && inbox_obs::enabled() {
                grad_norm = grads.l2_norm();
            }
            adam.step(&mut model.store, &grads);
            loss_sum += loss;
        }
        let loss = loss_sum / batches.max(1) as f64;
        report.stage3_losses.push(loss);

        let boxes = all_user_boxes_with(&model, &history, &config, runner.pool());
        let scorer = ItemScorer::new(&model, &config, sizes.n_items);
        let score = |user: UserId| scorer.score_user(boxes[user.index()].as_ref());
        let metrics =
            evaluate_with_threads(&score, &dataset.train, &dataset.test, 20, config.threads);
        report.stage3_recalls.push(metrics.recall);
        clock.emit(
            run,
            3,
            epoch,
            loss,
            samples.len(),
            grad_norm,
            Some(&metrics),
            &model,
        );
        if metrics.recall > best_recall + 1e-6 {
            best_recall = metrics.recall;
            stale = 0;
        } else {
            stale += 1;
            if stale >= config.patience {
                report.early_stopped = true;
                break;
            }
        }
    }

    let boxes = all_user_boxes_with(&model, &history, &config, runner.pool());
    TrainedInBox::from_parts(model, config, boxes, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use inbox_data::SyntheticConfig;

    #[test]
    fn lr_schedule_steps() {
        assert_eq!(lr_at(1e-3, 0, 100, true), 1e-3);
        assert_eq!(lr_at(1e-3, 49, 100, true), 1e-3);
        assert!((lr_at(1e-3, 50, 100, true) - 2e-4).abs() < 1e-9);
        assert!((lr_at(1e-3, 74, 100, true) - 2e-4).abs() < 1e-9);
        assert!((lr_at(1e-3, 75, 100, true) - 4e-5).abs() < 1e-9);
        assert_eq!(lr_at(1e-3, 90, 100, false), 1e-3);
    }

    #[test]
    fn full_pipeline_trains_and_beats_random() {
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 55);
        let cfg = InBoxConfig {
            epochs_stage1: 6,
            epochs_stage2: 6,
            epochs_stage3: 10,
            ..InBoxConfig::tiny_test()
        };
        let trained = train(&ds, cfg);
        assert!(!trained.report.stage1_losses.is_empty());
        assert!(!trained.report.stage2_losses.is_empty());
        assert!(!trained.report.stage3_losses.is_empty());
        let metrics = trained.evaluate(&ds, 20);
        assert!(metrics.n_users_evaluated > 0);
        // A random scorer on ~120 items achieves recall@20 ≈ 20/120 ≈ 0.17 in
        // expectation only when every user has 1 test item; demand clearly
        // better than chance.
        assert!(
            metrics.recall > 0.2,
            "trained recall@20 {} not above chance",
            metrics.recall
        );
    }

    #[test]
    fn telemetry_emits_one_record_per_epoch() {
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 57);
        let capture = std::sync::Arc::new(inbox_obs::CaptureSink::new());
        inbox_obs::add_sink(capture.clone());
        let trained = train(&ds, InBoxConfig::tiny_test());
        let run = trained.report.run_id;
        assert!(run > 0, "train() must allocate a run id");
        let records: Vec<inbox_obs::EpochRecord> = capture
            .events()
            .into_iter()
            .filter_map(|e| match e {
                inbox_obs::TelemetryEvent::Epoch(r) if r.run == run => Some(r),
                _ => None,
            })
            .collect();
        let per_stage = |s: u8| records.iter().filter(|r| r.stage == s).count();
        assert_eq!(per_stage(1), trained.report.stage1_losses.len());
        assert_eq!(per_stage(2), trained.report.stage2_losses.len());
        assert_eq!(per_stage(3), trained.report.stage3_losses.len());
        for rec in &records {
            assert!(rec.loss.is_finite());
            assert!(rec.samples > 0);
            assert!(rec.samples_per_sec > 0.0);
            assert!(rec.grad_norm > 0.0, "last-batch gradient norm recorded");
            assert!(rec.box_health.mean_size > 0.0);
            assert!((0.0..=1.0).contains(&rec.box_health.collapsed_frac));
            if rec.stage == 3 {
                assert!(rec.recall.is_some() && rec.ndcg.is_some());
            } else {
                assert!(rec.recall.is_none() && rec.ndcg.is_none());
            }
        }
        // Spans and counters accumulated in the registry alongside.
        for name in [
            "sampler.stage1",
            "sampler.stage2",
            "sampler.stage3",
            "grad.stage1",
        ] {
            let snap = inbox_obs::span_snapshot(name).unwrap_or_else(|| panic!("span {name}"));
            assert!(snap.count > 0);
        }
        assert!(inbox_obs::counter_value("grad.batches") > 0);
        assert!(inbox_obs::counter_value("box.intersections") > 0);
    }

    #[test]
    fn recommend_excludes_mask_and_orders_scores() {
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 55);
        let trained = train(&ds, InBoxConfig::tiny_test());
        let user = UserId(0);
        let mask = ds.train.items_of(user);
        let recs = trained.recommend(user, mask, 10);
        assert_eq!(recs.len(), 10);
        for w in recs.windows(2) {
            assert!(w[0].1 >= w[1].1, "recommendations must be sorted");
        }
        for (item, _) in &recs {
            assert!(!mask.contains(item), "masked item recommended");
        }
    }

    #[test]
    fn ablation_without_stages_skips_them() {
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 56);
        let cfg = crate::config::Ablation::WithoutBAndI.configure(InBoxConfig::tiny_test());
        let trained = train(&ds, cfg);
        assert!(trained.report.stage1_losses.is_empty());
        assert!(trained.report.stage2_losses.is_empty());
        assert!(!trained.report.stage3_losses.is_empty());
    }
}

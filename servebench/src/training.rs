//! The training section: one epoch of stages 1–3 on the `small` twin at
//! d=32 with one worker thread, as the throughput bench runs it — sampling
//! (`stage{1,2,3}_epoch`), `grad_batch_into` and `Adam::step`.

use std::time::Instant;

use inbox_autodiff::{Adam, GradStore, Tape, Var};
use inbox_core::model::{InBoxModel, UniverseSizes};
use inbox_core::sampler::{stage1_epoch, stage2_epoch, stage3_epoch, Stage1Stats};
use inbox_core::stages::{stage1_loss, stage2_loss, stage3_loss, BatchRunner};
use inbox_core::InBoxConfig;
use inbox_data::{Dataset, SyntheticConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{median, quantile, sorted};

/// Everything an epoch needs, built before its first batch.
pub struct Trainer {
    model: InBoxModel,
    stats: Stage1Stats,
    runner: BatchRunner,
    adam: Adam,
    grads: GradStore,
}

/// One epoch's timings, seconds, per stage.
#[derive(Debug, Default, Clone)]
pub struct Epoch {
    pub samples: [usize; 3],
    pub sample_s: [f64; 3],
    pub grad_s: [f64; 3],
    pub adam_s: [f64; 3],
    /// Sum of every batch's mean loss.
    pub loss: f64,
    pub grad_batch_s: Vec<f64>,
    pub adam_step_s: Vec<f64>,
}

impl Epoch {
    pub fn total_samples(&self) -> usize {
        self.samples.iter().sum()
    }

    pub fn total_s(&self) -> f64 {
        (0..3)
            .map(|i| self.sample_s[i] + self.grad_s[i] + self.adam_s[i])
            .sum()
    }
}

pub struct TrainInputs {
    ds: Dataset,
    cfg: InBoxConfig,
    sizes: UniverseSizes,
}

impl TrainInputs {
    pub fn new() -> Self {
        let ds = Dataset::synthetic(&SyntheticConfig::small(), 7);
        let sizes = UniverseSizes {
            n_items: ds.kg.n_items(),
            n_tags: ds.kg.n_tags(),
            n_relations: ds.kg.n_relations(),
            n_users: ds.n_users(),
        };
        TrainInputs {
            ds,
            cfg: InBoxConfig {
                threads: 1,
                ..InBoxConfig::for_dim(32)
            },
            sizes,
        }
    }

    /// Model and sampler construction: the training set-up.
    pub fn setup(&self) -> Trainer {
        Trainer {
            model: InBoxModel::new(self.sizes, &self.cfg),
            stats: Stage1Stats::new(&self.ds.kg),
            runner: BatchRunner::new(self.cfg.threads),
            adam: Adam::with_lr(self.cfg.lr),
            grads: GradStore::new(),
        }
    }

    /// One epoch of stages 1–3, negatives and shuffles drawn from `seed`.
    pub fn epoch(&self, t: &mut Trainer, seed: u64) -> Epoch {
        let (ds, cfg) = (&self.ds, &self.cfg);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut e = Epoch::default();

        let clock = Instant::now();
        let s1 = stage1_epoch(&ds.kg, &t.stats, cfg, &mut rng);
        e.sample_s[0] = clock.elapsed().as_secs_f64();
        run_stage(t, &mut e, 0, &s1, cfg.batch_size, &|m, tape, s| {
            stage1_loss(m, tape, s, cfg)
        });

        let clock = Instant::now();
        let s2 = stage2_epoch(&ds.kg, cfg, &mut rng);
        e.sample_s[1] = clock.elapsed().as_secs_f64();
        run_stage(t, &mut e, 1, &s2, cfg.batch_size, &|m, tape, s| {
            stage2_loss(m, tape, s, cfg)
        });

        let clock = Instant::now();
        let s3 = stage3_epoch(&ds.kg, &ds.train, cfg, &mut rng);
        e.sample_s[2] = clock.elapsed().as_secs_f64();
        run_stage(t, &mut e, 2, &s3, cfg.batch_size, &|m, tape, s| {
            stage3_loss(m, tape, s, cfg)
        });
        e
    }
}

fn run_stage<S: Sync>(
    t: &mut Trainer,
    e: &mut Epoch,
    stage: usize,
    samples: &[S],
    batch: usize,
    loss: &(dyn Fn(&InBoxModel, &mut Tape, &S) -> Var + Sync),
) {
    e.samples[stage] = samples.len();
    for chunk in samples.chunks(batch) {
        let clock = Instant::now();
        e.loss += t
            .runner
            .grad_batch_into(&t.model, chunk, loss, &mut t.grads);
        let mid = Instant::now();
        t.adam.step(&mut t.model.store, &t.grads);
        let end = Instant::now();
        let (g, a) = ((mid - clock).as_secs_f64(), (end - mid).as_secs_f64());
        e.grad_s[stage] += g;
        e.adam_s[stage] += a;
        e.grad_batch_s.push(g);
        e.adam_step_s.push(a);
    }
}

/// The training section's results.
pub struct Training {
    pub setup_s: Vec<f64>,
    pub epochs: Vec<Epoch>,
}

impl Training {
    pub fn new() -> Self {
        Training {
            setup_s: Vec::new(),
            epochs: Vec::new(),
        }
    }

    /// Set-up plus one epoch, repeated on a fresh model until `budget_s`
    /// has passed (at least once). Every epoch uses the same `seed`, so
    /// every epoch must report the same, finite loss.
    pub fn extend(&mut self, inputs: &TrainInputs, seed: u64, budget_s: f64) -> Result<(), String> {
        let started = Instant::now();
        loop {
            let clock = Instant::now();
            let mut trainer = inputs.setup();
            self.setup_s.push(clock.elapsed().as_secs_f64());
            let e = inputs.epoch(&mut trainer, seed);
            if !e.loss.is_finite() {
                return Err(format!("epoch {} loss is {}", self.epochs.len(), e.loss));
            }
            if let Some(first) = self.epochs.first() {
                if first.loss.to_bits() != e.loss.to_bits() {
                    return Err(format!(
                        "same-seed epochs disagree: loss {} then {}",
                        first.loss, e.loss
                    ));
                }
            }
            self.epochs.push(e);
            if started.elapsed().as_secs_f64() >= budget_s {
                return Ok(());
            }
        }
    }

    /// Median samples per second over whole epochs.
    pub fn samples_per_s(&self) -> f64 {
        median(
            self.epochs
                .iter()
                .map(|e| e.total_samples() as f64 / e.total_s()),
        )
    }

    pub fn stage_samples_per_s(&self, stage: usize) -> f64 {
        median(self.epochs.iter().map(|e| {
            e.samples[stage] as f64 / (e.sample_s[stage] + e.grad_s[stage] + e.adam_s[stage])
        }))
    }

    pub fn sample_epoch_s(&self) -> f64 {
        median(self.epochs.iter().map(|e| e.sample_s.iter().sum()))
    }

    pub fn grad_batch_us_p50(&self) -> f64 {
        let all = sorted(
            self.epochs
                .iter()
                .flat_map(|e| e.grad_batch_s.iter().copied()),
        );
        quantile(&all, 0.5) * 1e6
    }

    pub fn adam_step_us_p50(&self) -> f64 {
        let all = sorted(
            self.epochs
                .iter()
                .flat_map(|e| e.adam_step_s.iter().copied()),
        );
        quantile(&all, 0.5) * 1e6
    }

    pub fn setup_median_s(&self) -> f64 {
        median(self.setup_s.iter().copied())
    }
}

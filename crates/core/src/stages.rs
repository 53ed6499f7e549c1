//! Per-sample loss graphs for the three training stages (Sections 3.2–3.4)
//! and the batched gradient runner shared by all of them.

use std::sync::Mutex;

use inbox_autodiff::{GradStore, Tape, Var};
use inbox_kg::{ItemId, TagId};

use crate::config::InBoxConfig;
use crate::model::{InBoxModel, ItemSource, TapeBox};
use crate::pool::WorkerPool;
use crate::sampler::{IrtNegatives, Stage1Sample, Stage2Sample, Stage3Sample};

/// Builds the stage-1 loss (basic pretraining, Section 3.2) for one sample.
pub fn stage1_loss(
    model: &InBoxModel,
    tape: &mut Tape,
    s: &Stage1Sample,
    config: &InBoxConfig,
) -> Var {
    let gamma = config.gamma;
    match s {
        Stage1Sample::Iri {
            head,
            rel,
            tail,
            neg_heads,
            weight,
        } => {
            // Eq. (2): v'_h = v_t + Cen(b_r); Eq. (3): D_PP = |v_h - v'_h|_1.
            let v_t = model.item_points(tape, &[ItemId(*tail)]);
            let r_cen = model.relation_centers(tape, &[*rel]);
            let pred = tape.add(v_t, r_cen);
            let v_h = model.item_points(tape, &[ItemId(*head)]);
            let d_pos = l1_rows(tape, v_h, pred);
            let negs: Vec<ItemId> = neg_heads.iter().map(|&i| ItemId(i)).collect();
            let v_neg = model.item_points(tape, &negs);
            let d_neg = l1_rows(tape, v_neg, pred);
            model.margin_loss_with(tape, d_pos, d_neg, gamma, *weight, config.loss_form)
        }
        Stage1Sample::Trt {
            head,
            rel,
            tail,
            neg_heads,
            weight,
        } => {
            // Eq. (4)/(5): project the tail tag box through the relation;
            // Eq. (6): D_BB against the head tag box.
            let (t_cen, t_off) = model.tag_boxes(tape, &[*tail]);
            let r_cen = model.relation_centers(tape, &[*rel]);
            let r_off = model.relation_offsets(tape, &[*rel]);
            let pred_cen = tape.add(t_cen, r_cen);
            let t_off_pos = tape.relu(t_off);
            let pred_off_raw = tape.add(t_off_pos, r_off);
            let pred_off = tape.relu(pred_off_raw);

            let (h_cen, h_off) = model.tag_boxes(tape, &[*head]);
            let h_off_pos = tape.relu(h_off);
            let cen_term = l1_rows(tape, h_cen, pred_cen);
            let off_term = l1_rows(tape, h_off_pos, pred_off);
            let d_pos = tape.add(cen_term, off_term);

            let (n_cen, n_off) = model.tag_boxes(tape, neg_heads);
            let n_off_pos = tape.relu(n_off);
            let cen_term_n = l1_rows(tape, n_cen, pred_cen);
            let off_term_n = l1_rows(tape, n_off_pos, pred_off);
            let d_neg = tape.add(cen_term_n, off_term_n);
            model.margin_loss_with(tape, d_pos, d_neg, gamma, *weight, config.loss_form)
        }
        Stage1Sample::Irt {
            item,
            rel,
            tag,
            negatives,
            weight,
        } => {
            use inbox_kg::{Concept, RelationId};
            // Eq. (7)–(9): point-to-box distance between the item point and
            // the concept box projected from (rel, tag).
            let concept = Concept::new(RelationId(*rel), TagId(*tag));
            let (cen, off) = model.concept_boxes(tape, &[concept]);
            let b = TapeBox { cen, off };
            let v = model.item_points(tape, &[ItemId(*item)]);
            let d_pos = model.point_to_box_weighted(tape, v, b, config.inside_weight);
            let d_neg = match negatives {
                IrtNegatives::Items(neg) => {
                    let negs: Vec<ItemId> = neg.iter().map(|&i| ItemId(i)).collect();
                    let pts = model.item_points(tape, &negs);
                    model.point_to_box_weighted(tape, pts, b, config.inside_weight)
                }
                IrtNegatives::Tags(neg_tags) => {
                    // Corrupt the tag: n concept boxes against the same point.
                    let concepts: Vec<Concept> = neg_tags
                        .iter()
                        .map(|&t| Concept::new(RelationId(*rel), TagId(t)))
                        .collect();
                    let (ncen, noff) = model.concept_boxes(tape, &concepts);
                    let nb = TapeBox {
                        cen: ncen,
                        off: noff,
                    };
                    model.point_to_box_weighted(tape, v, nb, config.inside_weight)
                }
            };
            model.margin_loss_with(tape, d_pos, d_neg, gamma, *weight, config.loss_form)
        }
    }
}

/// Builds the stage-2 loss (box intersection, Section 3.3) for one sample.
pub fn stage2_loss(
    model: &InBoxModel,
    tape: &mut Tape,
    s: &Stage2Sample,
    config: &InBoxConfig,
) -> Var {
    let (cens, offs) = model.concept_boxes(tape, &s.concepts);
    let b = model.intersect(tape, cens, offs, config.intersection);
    let v = model.item_points(tape, &[s.item]);
    let d_pos = model.point_to_box_weighted(tape, v, b, config.inside_weight);
    let negs: Vec<ItemId> = s.neg_items.iter().map(|&i| ItemId(i)).collect();
    let pts = model.item_points(tape, &negs);
    let d_neg = model.point_to_box_weighted(tape, pts, b, config.inside_weight);
    model.margin_loss_with(tape, d_pos, d_neg, config.gamma, s.weight, config.loss_form)
}

/// Builds the stage-3 loss (interest-box recommendation, Section 3.4) for
/// one user sample.
pub fn stage3_loss(
    model: &InBoxModel,
    tape: &mut Tape,
    s: &Stage3Sample,
    config: &InBoxConfig,
) -> Var {
    let b_u = model.interest_box(
        tape,
        s.user,
        &s.history,
        ItemSource::Record(config.intersection),
        config.user_box,
    );
    let pos: Vec<ItemId> = s.pos_items.iter().map(|&i| ItemId(i)).collect();
    let pos_pts = model.item_points(tape, &pos);
    let d_pos = model.point_to_box_weighted(tape, pos_pts, b_u, config.inside_weight);
    let negs: Vec<ItemId> = s.neg_items.iter().map(|&i| ItemId(i)).collect();
    let neg_pts = model.item_points(tape, &negs);
    let d_neg = model.point_to_box_weighted(tape, neg_pts, b_u, config.inside_weight);
    model.margin_loss_with(tape, d_pos, d_neg, config.gamma, s.weight, config.loss_form)
}

/// Row-wise L1 distance `|a - b|_1` between `n x d` (or broadcastable)
/// variables, as an `n x 1` column.
fn l1_rows(tape: &mut Tape, a: Var, b: Var) -> Var {
    tape.l1_rows(a, b)
}

/// Per-worker reusable buffers: the tape keeps its node capacity across
/// samples and the scratch `GradStore` keeps its tensors and row buffers
/// across batches, so the steady-state gradient path allocates nothing.
struct WorkerScratch {
    tape: Tape,
    grads: GradStore,
    loss: f64,
}

impl WorkerScratch {
    fn new() -> Self {
        Self {
            tape: Tape::new(),
            grads: GradStore::new(),
            loss: 0.0,
        }
    }
}

/// Batched gradient runner shared by all three training stages. Owns the
/// persistent [`WorkerPool`] (for `threads > 1`) and one scratch buffer per
/// worker; create it once per training run and reuse it for every batch of
/// every epoch.
pub struct BatchRunner {
    pool: Option<WorkerPool>,
    scratch: Vec<Mutex<WorkerScratch>>,
}

impl BatchRunner {
    /// Creates a runner with `threads` workers (clamped to at least 1; the
    /// pool threads are only spawned when `threads > 1`).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        Self {
            pool: (threads > 1).then(|| WorkerPool::new(threads)),
            scratch: (0..threads)
                .map(|_| Mutex::new(WorkerScratch::new()))
                .collect(),
        }
    }

    /// Number of workers this runner distributes batches over.
    pub fn threads(&self) -> usize {
        self.scratch.len()
    }

    /// The persistent worker pool, when running multi-threaded. Shared with
    /// other fan-out work (e.g. parallel inference) so a training run never
    /// spawns more than one set of threads.
    pub fn pool(&self) -> Option<&WorkerPool> {
        self.pool.as_ref()
    }

    /// Accumulates gradients over `samples` into `out` (cleared first, scaled
    /// by `1/len`) and returns the mean loss. Worker partials are merged in
    /// worker order, so results are reproducible for a fixed thread count.
    pub fn grad_batch_into<S: Sync>(
        &self,
        model: &InBoxModel,
        samples: &[S],
        build: &(dyn Fn(&InBoxModel, &mut Tape, &S) -> Var + Sync),
        out: &mut GradStore,
    ) -> f64 {
        out.clear();
        let threads = self.scratch.len();
        let mut loss_sum = 0.0f64;
        let pool = self.pool.as_ref().filter(|_| samples.len() >= threads * 4);
        if let Some(pool) = pool {
            let chunk = samples.len().div_ceil(threads);
            pool.run(&|w| {
                let mut scratch = self.scratch[w].lock().unwrap();
                let scratch = &mut *scratch;
                scratch.grads.clear();
                scratch.loss = 0.0;
                let lo = (w * chunk).min(samples.len());
                let hi = (lo + chunk).min(samples.len());
                for s in &samples[lo..hi] {
                    scratch.tape.reset();
                    let loss = build(model, &mut scratch.tape, s);
                    scratch.loss += scratch.tape.value(loss).item() as f64;
                    scratch.tape.backward_into(loss, &mut scratch.grads);
                }
            });
            for slot in &self.scratch {
                let scratch = slot.lock().unwrap();
                loss_sum += scratch.loss;
                out.merge_from(&scratch.grads);
            }
        } else {
            let mut scratch = self.scratch[0].lock().unwrap();
            let scratch = &mut *scratch;
            for s in samples {
                scratch.tape.reset();
                let loss = build(model, &mut scratch.tape, s);
                loss_sum += scratch.tape.value(loss).item() as f64;
                scratch.tape.backward_into(loss, out);
            }
        }
        let n = samples.len().max(1);
        out.scale(1.0 / n as f32);
        loss_sum / n as f64
    }
}

/// Accumulates gradients over a slice of samples, optionally across worker
/// threads, returning the merged gradients (scaled by `1/len`) and the mean
/// loss.
///
/// Convenience wrapper that builds a transient [`BatchRunner`]; hot loops
/// should create one runner per training run and call
/// [`BatchRunner::grad_batch_into`] instead.
pub fn grad_batch<S: Sync>(
    model: &InBoxModel,
    samples: &[S],
    threads: usize,
    build: &(dyn Fn(&InBoxModel, &mut Tape, &S) -> Var + Sync),
) -> (GradStore, f64) {
    let runner = BatchRunner::new(threads);
    let mut grads = GradStore::new();
    let loss = runner.grad_batch_into(model, samples, build, &mut grads);
    (grads, loss)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InBoxConfig;
    use crate::model::UniverseSizes;
    use crate::sampler::{stage1_epoch, stage2_epoch, stage3_epoch, Stage1Stats};
    use inbox_autodiff::Adam;
    use inbox_data::{Dataset, SyntheticConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Dataset, InBoxModel, InBoxConfig) {
        let ds = Dataset::synthetic(&SyntheticConfig::tiny(), 21);
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
    fn stage1_losses_are_finite_scalars() {
        let (ds, model, cfg) = setup();
        let stats = Stage1Stats::new(&ds.kg);
        let mut rng = StdRng::seed_from_u64(1);
        let epoch = stage1_epoch(&ds.kg, &stats, &cfg, &mut rng);
        for s in epoch.iter().take(50) {
            let mut tape = Tape::new();
            let loss = stage1_loss(&model, &mut tape, s, &cfg);
            let v = tape.value(loss);
            assert_eq!(v.shape(), (1, 1));
            assert!(v.item().is_finite(), "loss must be finite");
            let grads = tape.backward(loss);
            assert!(!grads.is_empty());
            assert!(grads.max_abs().is_finite());
        }
    }

    #[test]
    fn stage1_training_reduces_loss() {
        let (ds, mut model, mut cfg) = setup();
        cfg.n_negatives = 8;
        let stats = Stage1Stats::new(&ds.kg);
        let adam = Adam::with_lr(5e-3);
        let mut first = None;
        let mut last = 0.0;
        for epoch in 0..5 {
            let mut rng = StdRng::seed_from_u64(epoch);
            let samples = stage1_epoch(&ds.kg, &stats, &cfg, &mut rng);
            let (grads, loss) =
                grad_batch(&model, &samples, 1, &|m, t, s| stage1_loss(m, t, s, &cfg));
            adam.step(&mut model.store, &grads);
            if first.is_none() {
                first = Some(loss);
            }
            last = loss;
        }
        assert!(
            last < first.unwrap(),
            "stage-1 loss should fall: {first:?} -> {last}"
        );
    }

    #[test]
    fn stage2_and_stage3_losses_backprop() {
        let (ds, model, cfg) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let s2 = stage2_epoch(&ds.kg, &cfg, &mut rng);
        let mut tape = Tape::new();
        let loss = stage2_loss(&model, &mut tape, &s2[0], &cfg);
        assert!(tape.value(loss).item().is_finite());
        let g = tape.backward(loss);
        assert!(!g.is_empty());

        let s3 = stage3_epoch(&ds.kg, &ds.train, &cfg, &mut rng);
        let mut tape = Tape::new();
        let loss = stage3_loss(&model, &mut tape, &s3[0], &cfg);
        assert!(tape.value(loss).item().is_finite());
        let g = tape.backward(loss);
        assert!(!g.is_empty());
    }

    #[test]
    fn stage3_maxmin_and_useri_modes_work() {
        use crate::config::{IntersectionMode, UserBoxMode};
        let (ds, model, mut cfg) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let s3 = stage3_epoch(&ds.kg, &ds.train, &cfg, &mut rng);
        for (inter, ub) in [
            (IntersectionMode::MaxMin, UserBoxMode::Both),
            (IntersectionMode::Attention, UserBoxMode::OnlyInterI),
            (IntersectionMode::Attention, UserBoxMode::OnlyInterU),
        ] {
            cfg.intersection = inter;
            cfg.user_box = ub;
            let mut tape = Tape::new();
            let loss = stage3_loss(&model, &mut tape, &s3[0], &cfg);
            assert!(tape.value(loss).item().is_finite(), "{inter:?}/{ub:?}");
            let g = tape.backward(loss);
            assert!(!g.is_empty());
        }
    }

    /// Mean loss must be invariant to the worker count (within f64 summation
    /// reordering, far below 1e-9 here) and gradients must agree closely, for
    /// all three stage losses under the pooled runner.
    #[test]
    fn grad_batch_threads_match_sequential_loss() {
        fn check<S: Sync>(
            what: &str,
            model: &InBoxModel,
            samples: &[S],
            build: &(dyn Fn(&InBoxModel, &mut Tape, &S) -> Var + Sync),
        ) {
            let runner1 = BatchRunner::new(1);
            let mut g1 = GradStore::new();
            let l1 = runner1.grad_batch_into(model, samples, build, &mut g1);
            for threads in [2, 8] {
                let runner = BatchRunner::new(threads);
                let mut g = GradStore::new();
                let l = runner.grad_batch_into(model, samples, build, &mut g);
                assert!(
                    (l1 - l).abs() < 1e-9,
                    "{what}: loss diverged at {threads} threads: {l1} vs {l}"
                );
                assert!(
                    (g1.max_abs() - g.max_abs()).abs() < 1e-5,
                    "{what}: grads diverged at {threads} threads"
                );
                assert!(
                    (g1.l2_norm() - g.l2_norm()).abs() < 1e-4,
                    "{what}: grad norm diverged at {threads} threads"
                );
            }
        }

        let (ds, model, cfg) = setup();
        let stats = Stage1Stats::new(&ds.kg);
        let mut rng = StdRng::seed_from_u64(7);
        let s1 = stage1_epoch(&ds.kg, &stats, &cfg, &mut rng);
        check("stage1", &model, &s1, &|m, t, s| stage1_loss(m, t, s, &cfg));
        let s2 = stage2_epoch(&ds.kg, &cfg, &mut rng);
        check("stage2", &model, &s2, &|m, t, s| stage2_loss(m, t, s, &cfg));
        let s3 = stage3_epoch(&ds.kg, &ds.train, &cfg, &mut rng);
        check("stage3", &model, &s3, &|m, t, s| stage3_loss(m, t, s, &cfg));
    }

    /// A runner reused across batches (the trainer's pattern) must produce
    /// the same result as a fresh runner per batch: scratch state may not
    /// leak between batches.
    #[test]
    fn reused_runner_matches_fresh_runner() {
        let (ds, model, cfg) = setup();
        let stats = Stage1Stats::new(&ds.kg);
        let mut rng = StdRng::seed_from_u64(11);
        let samples = stage1_epoch(&ds.kg, &stats, &cfg, &mut rng);
        let build = |m: &InBoxModel, t: &mut Tape, s: &Stage1Sample| stage1_loss(m, t, s, &cfg);
        for threads in [1, 4] {
            let runner = BatchRunner::new(threads);
            let mut reused = GradStore::new();
            for batch in samples.chunks(16) {
                let l_reused = runner.grad_batch_into(&model, batch, &build, &mut reused);
                let (fresh, l_fresh) = grad_batch(&model, batch, threads, &build);
                assert_eq!(l_reused, l_fresh, "{threads} threads");
                assert_eq!(reused.max_abs(), fresh.max_abs(), "{threads} threads");
                assert_eq!(reused.l2_norm(), fresh.l2_norm(), "{threads} threads");
            }
        }
    }
}

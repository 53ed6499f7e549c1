//! The InBox model: embedding tables, intersection networks, and the tape
//! fragments shared by all three training stages.
//!
//! Representation (Section 3.1):
//! * each **item** is a point `v ∈ R^d` (`item_emb`),
//! * each **tag** is a box `(Cen, Off) ∈ R^{2d}` (`tag_cen`/`tag_off`),
//! * each **relation** is a box used as a projector (`rel_cen`/`rel_off`),
//! * each **user** is a bias vector `u ∈ R^d` feeding the user-bias
//!   attention of Eq. (23)/(24) (`user_emb`).
//!
//! All graph-building methods record onto a caller-supplied [`Tape`], so the
//! exact same code path serves training (with `backward`) and inference
//! (forward only).

use inbox_autodiff::{ParamId, ParamStore, Tape, Tensor, Var};
use inbox_kg::{Concept, ItemId, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::InBoxConfig;
use crate::geometry::BoxEmb;

/// Cached handle for the hot-path intersection counter (a fresh
/// `inbox_obs::counter` lookup takes a registry lock per call).
fn intersections_counter() -> &'static inbox_obs::Counter {
    static C: std::sync::OnceLock<inbox_obs::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| inbox_obs::counter("box.intersections"))
}

/// Dimensions of the problem: how many of each embedding to allocate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniverseSizes {
    /// Number of items.
    pub n_items: usize,
    /// Number of tags.
    pub n_tags: usize,
    /// Number of relations.
    pub n_relations: usize,
    /// Number of users.
    pub n_users: usize,
}

/// A box under construction on a tape: center and *raw* offset variables
/// (`1 x d` each). The effective half-width is `relu(off)`.
#[derive(Debug, Clone, Copy)]
pub struct TapeBox {
    /// Center variable (`1 x d`).
    pub cen: Var,
    /// Raw offset variable (`1 x d`).
    pub off: Var,
}

/// The values of [`InBoxModel::item_boxes`] for one history item: the
/// user-independent part of its contribution to an interest box. Values
/// depend on the current parameters, so caches of these must be rebuilt
/// whenever parameters change.
pub struct ItemBoxParts {
    /// `1 x d` center of `b_interI` (or of the degenerate self box).
    cen: Tensor,
    /// `1 x d` raw offset of `b_interI` (zero for the self box).
    off: Tensor,
    /// `n x d` concept-box centers and raw offsets (`None` for items
    /// without KG concepts).
    concepts: Option<(Tensor, Tensor)>,
}

/// Where [`InBoxModel::interest_box`] takes each history item's boxes from.
#[derive(Clone, Copy)]
pub enum ItemSource<'a> {
    /// Record [`InBoxModel::item_boxes`] on the tape with this intersection:
    /// the training path, differentiable end to end.
    Record(crate::config::IntersectionMode),
    /// Read the item's precomputed [`ItemBoxParts`] (indexed by item id) as
    /// constants: the same values with no intersection recomputed, for
    /// inference on frozen parameters.
    Parts(&'a [Option<ItemBoxParts>]),
}

impl ItemSource<'_> {
    /// One history item's `b_interI` and concept boxes on `tape`. The parts
    /// source copies the concept boxes only when `with_concepts` is set, so
    /// a `b_interI`-only interest box copies nothing it does not read.
    fn item_boxes(
        self,
        model: &InBoxModel,
        tape: &mut Tape,
        item: ItemId,
        concepts: &[Concept],
        with_concepts: bool,
    ) -> (TapeBox, Option<(Var, Var)>) {
        match self {
            ItemSource::Record(intersection) => {
                model.item_boxes(tape, item, concepts, intersection)
            }
            ItemSource::Parts(parts) => {
                let p = parts[item.index()]
                    .as_ref()
                    .expect("history item missing from parts cache");
                let b_i = TapeBox {
                    cen: tape.constant_ref(&p.cen),
                    off: tape.constant_ref(&p.off),
                };
                let concept_boxes = match &p.concepts {
                    Some((cens, offs)) if with_concepts => {
                        Some((tape.constant_ref(cens), tape.constant_ref(offs)))
                    }
                    _ => None,
                };
                (b_i, concept_boxes)
            }
        }
    }
}

/// The InBox parameter set.
pub struct InBoxModel {
    /// All trainable parameters (embeddings + intersection MLPs).
    pub store: ParamStore,
    /// Embedding dimension `d`.
    pub dim: usize,
    sizes: UniverseSizes,

    item_emb: ParamId,
    tag_cen: ParamId,
    tag_off: ParamId,
    rel_cen: ParamId,
    rel_off: ParamId,
    user_emb: ParamId,

    // Attention-network intersection (Eq. (13)–(16)).
    att_cen_w1: ParamId,
    att_cen_b1: ParamId,
    att_cen_w2: ParamId,
    att_cen_b2: ParamId,
    att_off_in_w: ParamId,
    att_off_in_b: ParamId,
    att_off_out_w: ParamId,
    att_off_out_b: ParamId,

    // User-bias intersection (Eq. (21)–(24)); MLPs map R^{2d} -> R^d.
    ub_cen_w1: ParamId,
    ub_cen_b1: ParamId,
    ub_cen_w2: ParamId,
    ub_cen_b2: ParamId,
    ub_off_w1: ParamId,
    ub_off_b1: ParamId,
    ub_off_w2: ParamId,
    ub_off_b2: ParamId,
}

impl InBoxModel {
    /// Allocates and randomly initialises all parameters.
    ///
    /// Centers and item points start uniform in `[-0.5, 0.5)`; tag offsets
    /// start strictly positive (`[0.1, 0.4)`) so every box opens with
    /// nonzero volume; relation offsets start small around zero since they
    /// only *adjust* tag boxes (Eq. (5)).
    pub fn new(sizes: UniverseSizes, config: &InBoxConfig) -> Self {
        let d = config.dim;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut store = ParamStore::new();
        let uniform = |rng: &mut StdRng, rows: usize, scale: f32| {
            Tensor::rand_uniform(rows.max(1), d, scale, rng)
        };
        let positive = |rng: &mut StdRng, rows: usize| {
            let mut t = Tensor::rand_uniform(rows.max(1), d, 0.15, rng);
            for v in t.data_mut() {
                *v = v.abs() + 0.1;
            }
            t
        };

        let item_emb = store.add("item_emb", uniform(&mut rng, sizes.n_items, 0.5));
        let tag_cen = store.add("tag_cen", uniform(&mut rng, sizes.n_tags, 0.5));
        let tag_off = store.add("tag_off", positive(&mut rng, sizes.n_tags));
        let rel_cen = store.add("rel_cen", uniform(&mut rng, sizes.n_relations, 0.25));
        let rel_off = store.add("rel_off", uniform(&mut rng, sizes.n_relations, 0.05));
        let user_emb = store.add("user_emb", uniform(&mut rng, sizes.n_users, 0.5));

        let mut linear = |name: &str, fan_in: usize, fan_out: usize| {
            let w = store.add(
                &format!("{name}_w"),
                Tensor::xavier_uniform(fan_in, fan_out, &mut rng),
            );
            let b = store.add(&format!("{name}_b"), Tensor::zeros(1, fan_out));
            (w, b)
        };
        let (att_cen_w1, att_cen_b1) = linear("att_cen1", d, d);
        let (att_cen_w2, att_cen_b2) = linear("att_cen2", d, d);
        let (att_off_in_w, att_off_in_b) = linear("att_off_in", d, d);
        let (att_off_out_w, att_off_out_b) = linear("att_off_out", d, d);
        let (ub_cen_w1, ub_cen_b1) = linear("ub_cen1", 2 * d, d);
        let (ub_cen_w2, ub_cen_b2) = linear("ub_cen2", d, d);
        let (ub_off_w1, ub_off_b1) = linear("ub_off1", 2 * d, d);
        let (ub_off_w2, ub_off_b2) = linear("ub_off2", d, d);

        Self {
            store,
            dim: d,
            sizes,
            item_emb,
            tag_cen,
            tag_off,
            rel_cen,
            rel_off,
            user_emb,
            att_cen_w1,
            att_cen_b1,
            att_cen_w2,
            att_cen_b2,
            att_off_in_w,
            att_off_in_b,
            att_off_out_w,
            att_off_out_b,
            ub_cen_w1,
            ub_cen_b1,
            ub_cen_w2,
            ub_cen_b2,
            ub_off_w1,
            ub_off_b1,
            ub_off_w2,
            ub_off_b2,
        }
    }

    /// The universe sizes this model was allocated for.
    pub fn sizes(&self) -> UniverseSizes {
        self.sizes
    }

    // ------------------------------------------------------------------
    // Tape fragments
    // ------------------------------------------------------------------

    /// Gathers item points as an `n x d` variable.
    pub fn item_points(&self, tape: &mut Tape, items: &[ItemId]) -> Var {
        let idx: Vec<u32> = items.iter().map(|i| i.0).collect();
        tape.gather(&self.store, self.item_emb, &idx)
    }

    /// Gathers a user's bias vector (`1 x d`).
    pub fn user_vector(&self, tape: &mut Tape, user: UserId) -> Var {
        tape.gather(&self.store, self.user_emb, &[user.0])
    }

    /// Gathers relation centers (`n x d`).
    pub fn relation_centers(&self, tape: &mut Tape, rels: &[u32]) -> Var {
        tape.gather(&self.store, self.rel_cen, rels)
    }

    /// Gathers raw relation offsets (`n x d`); may contain negative entries
    /// used to *shrink* tag boxes (Eq. (5)).
    pub fn relation_offsets(&self, tape: &mut Tape, rels: &[u32]) -> Var {
        tape.gather(&self.store, self.rel_off, rels)
    }

    /// Raw tag boxes (`n x d` centers, `n x d` raw offsets), *without*
    /// relation projection. Used when the head of a TRT triple is compared
    /// against a projected box.
    pub fn tag_boxes(&self, tape: &mut Tape, tags: &[u32]) -> (Var, Var) {
        let cen = tape.gather(&self.store, self.tag_cen, tags);
        let off = tape.gather(&self.store, self.tag_off, tags);
        (cen, off)
    }

    /// Concept boxes (Eq. (4), (5)): projects each `(relation, tag)` pair
    /// into a box. Returns `(centers, offsets)` as `n x d` variables where
    /// `centers = Cen(b_t) + Cen(b_r)` and
    /// `offsets = relu(Off(b_t)) + Off(b_r)` (raw; corners apply another
    /// ReLU).
    pub fn concept_boxes(&self, tape: &mut Tape, concepts: &[Concept]) -> (Var, Var) {
        let tags: Vec<u32> = concepts.iter().map(|c| c.tag.0).collect();
        let rels: Vec<u32> = concepts.iter().map(|c| c.relation.0).collect();
        let t_cen = tape.gather(&self.store, self.tag_cen, &tags);
        let t_off = tape.gather(&self.store, self.tag_off, &tags);
        let r_cen = tape.gather(&self.store, self.rel_cen, &rels);
        let r_off = tape.gather(&self.store, self.rel_off, &rels);
        let cen = tape.add(t_cen, r_cen);
        let t_off_pos = tape.relu(t_off);
        let off = tape.add(t_off_pos, r_off);
        (cen, off)
    }

    /// Two-layer MLP `relu(x W1 + b1) W2 + b2`.
    fn mlp2(
        &self,
        tape: &mut Tape,
        x: Var,
        w1: ParamId,
        b1: ParamId,
        w2: ParamId,
        b2: ParamId,
    ) -> Var {
        let w1v = tape.param(&self.store, w1);
        let b1v = tape.param(&self.store, b1);
        let w2v = tape.param(&self.store, w2);
        let b2v = tape.param(&self.store, b2);
        let h = tape.linear(x, w1v, b1v);
        let h = tape.relu(h);
        tape.linear(h, w2v, b2v)
    }

    /// Two-layer MLP over an implicitly concatenated `[x | row]` input:
    /// `relu(concat_cols_row(x, row) W1 + b1) W2 + b2`, with the first layer
    /// fused so the shared `row · W1_bot` half is computed once per call
    /// instead of once per row of `x`.
    fn mlp2_concat_row(
        &self,
        tape: &mut Tape,
        x: Var,
        row: Var,
        (w1, b1, w2, b2): (ParamId, ParamId, ParamId, ParamId),
    ) -> Var {
        let w1v = tape.param(&self.store, w1);
        let b1v = tape.param(&self.store, b1);
        let w2v = tape.param(&self.store, w2);
        let b2v = tape.param(&self.store, b2);
        let h = tape.concat_row_linear(x, row, w1v, b1v);
        let h = tape.relu(h);
        tape.linear(h, w2v, b2v)
    }

    /// Attention-network intersection (Eq. (13)–(16)) of `n` boxes given as
    /// `n x d` center/raw-offset variables. Returns a `1 x d` box.
    pub fn intersect_attention(&self, tape: &mut Tape, cens: Var, offs: Var) -> TapeBox {
        intersections_counter().incr();
        // Eq. (14): a_i = softmax_i(MLP(Cen(b_i))), per dimension.
        let scores = self.mlp2(
            tape,
            cens,
            self.att_cen_w1,
            self.att_cen_b1,
            self.att_cen_w2,
            self.att_cen_b2,
        );
        // Eq. (13): Cen(b_inter) = Σ a_i ∘ Cen(b_i) (fused softmax-combine).
        let cen = tape.attn_combine(scores, cens);

        // Eq. (16): g = sigmoid(MLP_out(mean_i relu(MLP_in(Off(b_i))))).
        let w_in = tape.param(&self.store, self.att_off_in_w);
        let b_in = tape.param(&self.store, self.att_off_in_b);
        let inner = tape.linear(offs, w_in, b_in);
        let inner = tape.relu(inner);
        let pooled = tape.mean_axis0(inner);
        let w_out = tape.param(&self.store, self.att_off_out_w);
        let b_out = tape.param(&self.store, self.att_off_out_b);
        let gate_pre = tape.linear(pooled, w_out, b_out);
        let gate = tape.sigmoid(gate_pre);
        // Eq. (15): Off(b_inter) = Min_i(σ(Off(b_i))) ∘ g.
        let offs_pos = tape.relu(offs);
        let min_off = tape.min_axis0(offs_pos);
        let off = tape.mul(min_off, gate);
        TapeBox { cen, off }
    }

    /// Max-Min intersection (Eq. (17)–(20)): upper corner is the elementwise
    /// min of upper corners, lower corner the max of lower corners.
    pub fn intersect_maxmin(&self, tape: &mut Tape, cens: Var, offs: Var) -> TapeBox {
        intersections_counter().incr();
        let half = tape.relu(offs);
        let upper = tape.add(cens, half);
        let neg_half = tape.neg(half);
        let lower = tape.add(cens, neg_half);
        let u = tape.min_axis0(upper);
        // max_axis0(x) = -min_axis0(-x)
        let neg_lower = tape.neg(lower);
        let neg_l = tape.min_axis0(neg_lower);
        let l = tape.neg(neg_l);
        let sum = tape.add(u, l);
        let cen = tape.scale(sum, 0.5);
        let diff = tape.sub(u, l);
        let width = tape.relu(diff);
        let off = tape.scale(width, 0.5);
        TapeBox { cen, off }
    }

    /// The stage-2 intersection `b_interI` of `n` boxes under `mode`:
    /// [`Self::intersect_attention`] or [`Self::intersect_maxmin`].
    pub fn intersect(
        &self,
        tape: &mut Tape,
        cens: Var,
        offs: Var,
        mode: crate::config::IntersectionMode,
    ) -> TapeBox {
        use crate::config::IntersectionMode;
        match mode {
            IntersectionMode::Attention => self.intersect_attention(tape, cens, offs),
            IntersectionMode::MaxMin => self.intersect_maxmin(tape, cens, offs),
        }
    }

    /// User-bias intersection (Eq. (21)–(24)): attention over concept boxes
    /// conditioned on the user vector (`1 x d`).
    pub fn intersect_user_bias(&self, tape: &mut Tape, cens: Var, offs: Var, user: Var) -> TapeBox {
        intersections_counter().incr();
        // Eq. (23): c_i = softmax_i(MLP([Cen(b_i), u])), with the concat and
        // first layer fused so `u`'s half of the product is computed once.
        let c_scores = self.mlp2_concat_row(
            tape,
            cens,
            user,
            (
                self.ub_cen_w1,
                self.ub_cen_b1,
                self.ub_cen_w2,
                self.ub_cen_b2,
            ),
        );
        let cen = tape.attn_combine(c_scores, cens);

        // Eq. (24): d_i = softmax_i(MLP([Off(b_i), u])), applied to the
        // effective (ReLU'd) offsets so the combined offset stays positive.
        let offs_pos = tape.relu(offs);
        let d_scores = self.mlp2_concat_row(
            tape,
            offs_pos,
            user,
            (
                self.ub_off_w1,
                self.ub_off_b1,
                self.ub_off_w2,
                self.ub_off_b2,
            ),
        );
        let off = tape.attn_combine(d_scores, offs_pos);
        TapeBox { cen, off }
    }

    /// Point-to-box distance `D_PB` (Eq. (7)–(9)) between `n x d` points and
    /// a `1 x d` box, returning an `n x 1` column of distances. Equivalent to
    /// [`Self::point_to_box_weighted`] with `inside_weight = 1`.
    pub fn point_to_box(&self, tape: &mut Tape, points: Var, b: TapeBox) -> Var {
        self.point_to_box_weighted(tape, points, b, 1.0)
    }

    /// `D_out + inside_weight · D_in` between points and a box (see
    /// [`crate::geometry::d_pb_weighted`] for why the inside term must be
    /// down-weighted during training).
    pub fn point_to_box_weighted(
        &self,
        tape: &mut Tape,
        points: Var,
        b: TapeBox,
        inside_weight: f32,
    ) -> Var {
        // Fused `D_out + inside_weight · D_in` node: same values/gradients as
        // the hi/lo + relu + clamp + abs chain, at one node per call.
        tape.d_pb_rows(points, b.cen, b.off, inside_weight)
    }

    /// Weighted margin loss of Eq. (12):
    /// `L = -w (mean log σ(γ - D_pos) + mean log σ(D_neg - γ))`.
    ///
    /// Note on fidelity: Eq. (12) as printed subtracts `log σ(γ - D_neg)`,
    /// whose gradient w.r.t. a negative's distance is `σ(D_neg - γ)` — near
    /// zero exactly for the *hard* negatives already close to the box, so the
    /// term only inflates distances of easy negatives and the loss is
    /// unbounded below. We use the standard RotatE-style negative term
    /// `-log σ(D_neg - γ)` the equation is clearly modelled on (same margin,
    /// same sigmoid, bounded, strongest push on hard negatives). See
    /// DESIGN.md for the documented deviation.
    ///
    /// `d_pos` and `d_neg` are columns of distances (`p x 1`, `n x 1`).
    pub fn margin_loss(&self, tape: &mut Tape, d_pos: Var, d_neg: Var, gamma: f32, w: f32) -> Var {
        self.margin_loss_with(
            tape,
            d_pos,
            d_neg,
            gamma,
            w,
            crate::config::LossForm::Rotate,
        )
    }

    /// [`Self::margin_loss`] with an explicit negative-term form (the
    /// `PaperLiteral` variant exists for the design-choice ablation).
    pub fn margin_loss_with(
        &self,
        tape: &mut Tape,
        d_pos: Var,
        d_neg: Var,
        gamma: f32,
        w: f32,
        form: crate::config::LossForm,
    ) -> Var {
        let pos_term = tape.mean_log_sigmoid_affine(d_pos, -1.0, gamma);

        let neg_term = match form {
            crate::config::LossForm::Rotate => tape.mean_log_sigmoid_affine(d_neg, 1.0, -gamma),
            crate::config::LossForm::PaperLiteral => {
                // L contains +log σ(γ - D_neg): encode as the negative of the
                // term inside (pos_term + neg_term) so the final -w scaling
                // reproduces Eq. (12) verbatim.
                let m = tape.mean_log_sigmoid_affine(d_neg, -1.0, gamma);
                tape.neg(m)
            }
        };

        let total = tape.add(pos_term, neg_term);
        tape.scale(total, -w)
    }

    /// One history item's user-independent boxes: its stage-2 intersection
    /// `b_interI` (Eq. (13)–(20)) and the concept boxes it intersects, which
    /// the user-bias attention (Eq. (21)–(24)) reads. An item without KG
    /// concepts gets a degenerate "self box" centered at its point
    /// embedding, with zero width, and no concept boxes.
    pub fn item_boxes(
        &self,
        tape: &mut Tape,
        item: ItemId,
        concepts: &[Concept],
        intersection: crate::config::IntersectionMode,
    ) -> (TapeBox, Option<(Var, Var)>) {
        if concepts.is_empty() {
            let cen = self.item_points(tape, &[item]);
            let off = tape.zeros(1, self.dim);
            return (TapeBox { cen, off }, None);
        }
        let (cens, offs) = self.concept_boxes(tape, concepts);
        let b_i = self.intersect(tape, cens, offs, intersection);
        (b_i, Some((cens, offs)))
    }

    /// Builds a user's **interest box** (Section 3.4) from their interaction
    /// history.
    ///
    /// For every history item, `source` gives `b_interI` and the concept
    /// boxes; the user-bias attention intersects those into `b_interU`
    /// (Eq. (21)–(24)), and the two are averaged per Eq. (25), (26). The
    /// interest box is the mean over items (Eq. (27), (28)). `mode` selects
    /// the paper's `w/o userI` / `only userI` ablations; a self box enters
    /// the mean as it is. Both sources feed the same values to the same
    /// ops, so their boxes are bit-identical.
    pub fn interest_box(
        &self,
        tape: &mut Tape,
        user: UserId,
        history: &[(ItemId, Vec<Concept>)],
        source: ItemSource<'_>,
        mode: crate::config::UserBoxMode,
    ) -> TapeBox {
        use crate::config::UserBoxMode;
        assert!(!history.is_empty(), "interest box requires history");
        let user_var = (mode != UserBoxMode::OnlyInterI).then(|| self.user_vector(tape, user));
        let m = history.len();
        let mut acc: Option<TapeBox> = None;
        for (item, concepts) in history {
            let (b_i, concept_boxes) =
                source.item_boxes(self, tape, *item, concepts, user_var.is_some());
            let item_box = match (concept_boxes, user_var) {
                (Some((cens, offs)), Some(u)) => {
                    let b_u = self.intersect_user_bias(tape, cens, offs, u);
                    if mode == UserBoxMode::OnlyInterU {
                        b_u
                    } else {
                        // Eq. (25), (26): elementwise average of the two boxes.
                        let cen_sum = tape.add(b_i.cen, b_u.cen);
                        let off_sum = tape.add(b_i.off, b_u.off);
                        TapeBox {
                            cen: tape.scale(cen_sum, 0.5),
                            off: tape.scale(off_sum, 0.5),
                        }
                    }
                }
                _ => b_i,
            };
            acc = Some(match acc {
                None => item_box,
                Some(prev) => TapeBox {
                    cen: tape.add(prev.cen, item_box.cen),
                    off: tape.add(prev.off, item_box.off),
                },
            });
        }
        let total = acc.expect("non-empty history");
        // Eq. (27), (28): mean over the m history items.
        TapeBox {
            cen: tape.scale(total.cen, 1.0 / m as f32),
            off: tape.scale(total.off, 1.0 / m as f32),
        }
    }

    /// The values of [`Self::item_boxes`] on a freshly reset `tape`. They
    /// depend only on the item and the current parameters, so inference
    /// computes them once per distinct item and shares them across all
    /// users through [`ItemSource::Parts`].
    pub fn item_box_parts(
        &self,
        tape: &mut Tape,
        item: ItemId,
        concepts: &[Concept],
        intersection: crate::config::IntersectionMode,
    ) -> ItemBoxParts {
        tape.reset();
        let (b_i, concept_boxes) = self.item_boxes(tape, item, concepts, intersection);
        ItemBoxParts {
            cen: tape.value(b_i.cen).clone(),
            off: tape.value(b_i.off).clone(),
            concepts: concept_boxes
                .map(|(cens, offs)| (tape.value(cens).clone(), tape.value(offs).clone())),
        }
    }

    // ------------------------------------------------------------------
    // Plain-f32 accessors (inference / analysis)
    // ------------------------------------------------------------------

    /// The point embedding of an item.
    pub fn item_point_f32(&self, item: ItemId) -> &[f32] {
        self.store.value(self.item_emb).row_slice(item.index())
    }

    /// The full item-point table as a contiguous row-major tensor
    /// (`n_items × d`), for snapshot-based scoring.
    pub fn item_point_matrix(&self) -> &Tensor {
        self.store.value(self.item_emb)
    }

    /// Warm-starts the item-point table from externally supplied vectors
    /// (flat row-major `n_items × d`), replacing the random init.
    ///
    /// Trained InBox item points cluster by concept (Section 4.5 /
    /// Figure 5); this hook lets callers start from pretrained or
    /// synthetic-but-clustered geometry instead of training from scratch —
    /// benchmark and index fixtures use it to reproduce the post-training
    /// regime deterministically.
    ///
    /// # Panics
    /// If `points.len() != n_items * dim`.
    pub fn set_item_points(&mut self, points: &[f32]) {
        let table = self.store.value_mut(self.item_emb);
        assert_eq!(
            points.len(),
            table.rows() * table.cols(),
            "item-point warm start must be n_items * dim values"
        );
        table.data_mut().copy_from_slice(points);
    }

    /// All item points as owned vectors (for PCA / Figure 5).
    pub fn all_item_points(&self) -> Vec<Vec<f32>> {
        let t = self.store.value(self.item_emb);
        (0..t.rows()).map(|r| t.row_slice(r).to_vec()).collect()
    }

    /// The projected concept box (Eq. (4), (5)) for a relation-tag pair,
    /// as plain geometry.
    pub fn concept_box_f32(&self, concept: Concept) -> BoxEmb {
        let t_cen = self
            .store
            .value(self.tag_cen)
            .row_slice(concept.tag.index());
        let t_off = self
            .store
            .value(self.tag_off)
            .row_slice(concept.tag.index());
        let r_cen = self
            .store
            .value(self.rel_cen)
            .row_slice(concept.relation.index());
        let r_off = self
            .store
            .value(self.rel_off)
            .row_slice(concept.relation.index());
        let tag = BoxEmb::new(t_cen.to_vec(), t_off.to_vec());
        let rel = BoxEmb::new(r_cen.to_vec(), r_off.to_vec());
        tag.project(&rel)
    }

    /// Extracts a [`TapeBox`]'s concrete values from a tape.
    pub fn box_values(&self, tape: &Tape, b: TapeBox) -> BoxEmb {
        BoxEmb::new(
            tape.value(b.cen).row_slice(0).to_vec(),
            tape.value(b.off).row_slice(0).to_vec(),
        )
    }

    /// Geometry health of the tag boxes, for training telemetry.
    ///
    /// The effective half-width of a tag box is `relu(off)`, so a raw offset
    /// driven to ≤ 0 collapses that dimension to a point — a degenerate box
    /// that can no longer contain items. This reports the mean effective L1
    /// size per box, the fraction of (tag, dim) entries whose effective
    /// offset is below `1e-4` (near-collapsed), and the raw offset extremes.
    pub fn box_health(&self) -> inbox_obs::BoxHealth {
        let t = self.store.value(self.tag_off);
        let data = t.data();
        if data.is_empty() {
            return inbox_obs::BoxHealth::empty();
        }
        let mut size_sum = 0.0f64;
        let mut collapsed = 0usize;
        let mut raw_min = f32::INFINITY;
        let mut raw_max = f32::NEG_INFINITY;
        for &v in data {
            let eff = v.max(0.0);
            size_sum += eff as f64;
            if eff < 1e-4 {
                collapsed += 1;
            }
            raw_min = raw_min.min(v);
            raw_max = raw_max.max(v);
        }
        inbox_obs::BoxHealth {
            mean_size: size_sum / t.rows() as f64,
            collapsed_frac: collapsed as f64 / data.len() as f64,
            off_min: raw_min as f64,
            off_max: raw_max as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry;
    use inbox_kg::RelationId;
    use inbox_kg::TagId;

    fn tiny_model() -> InBoxModel {
        let sizes = UniverseSizes {
            n_items: 10,
            n_tags: 6,
            n_relations: 3,
            n_users: 4,
        };
        let cfg = InBoxConfig {
            dim: 6,
            ..InBoxConfig::tiny_test()
        };
        InBoxModel::new(sizes, &cfg)
    }

    #[test]
    fn parameter_shapes() {
        let m = tiny_model();
        assert_eq!(m.store.value(m.item_emb).shape(), (10, 6));
        assert_eq!(m.store.value(m.tag_cen).shape(), (6, 6));
        assert_eq!(m.store.value(m.rel_cen).shape(), (3, 6));
        assert_eq!(m.store.value(m.user_emb).shape(), (4, 6));
        assert_eq!(m.store.value(m.ub_cen_w1).shape(), (12, 6));
        // tag offsets initialise strictly positive
        assert!(m.store.value(m.tag_off).data().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let sizes = UniverseSizes {
            n_items: 5,
            n_tags: 5,
            n_relations: 2,
            n_users: 2,
        };
        let cfg = InBoxConfig::tiny_test();
        let a = InBoxModel::new(sizes, &cfg);
        let b = InBoxModel::new(sizes, &cfg);
        assert_eq!(a.item_point_f32(ItemId(3)), b.item_point_f32(ItemId(3)));
        let cfg2 = InBoxConfig {
            seed: 7,
            ..InBoxConfig::tiny_test()
        };
        let c = InBoxModel::new(sizes, &cfg2);
        assert_ne!(a.item_point_f32(ItemId(3)), c.item_point_f32(ItemId(3)));
    }

    #[test]
    fn concept_boxes_match_plain_projection() {
        let m = tiny_model();
        let c = Concept::new(RelationId(1), TagId(2));
        let mut tape = Tape::new();
        let (cens, offs) = m.concept_boxes(&mut tape, &[c]);
        let tape_cen = tape.value(cens).row_slice(0).to_vec();
        let tape_off = tape.value(offs).row_slice(0).to_vec();
        let plain = m.concept_box_f32(c);
        assert_eq!(tape_cen, plain.cen);
        assert_eq!(tape_off, plain.off);
    }

    #[test]
    fn maxmin_intersection_matches_geometry() {
        let m = tiny_model();
        let concepts = [
            Concept::new(RelationId(0), TagId(0)),
            Concept::new(RelationId(1), TagId(3)),
        ];
        let mut tape = Tape::new();
        let (cens, offs) = m.concept_boxes(&mut tape, &concepts);
        let inter = m.intersect_maxmin(&mut tape, cens, offs);
        let got = m.box_values(&tape, inter);
        let expected = geometry::BoxEmb::intersect_max_min(&[
            m.concept_box_f32(concepts[0]),
            m.concept_box_f32(concepts[1]),
        ]);
        for (a, b) in got.cen.iter().zip(&expected.cen) {
            assert!((a - b).abs() < 1e-5, "cen {a} vs {b}");
        }
        for (a, b) in got.off.iter().zip(&expected.off) {
            assert!((a - b).abs() < 1e-5, "off {a} vs {b}");
        }
    }

    #[test]
    fn attention_intersection_offset_shrinks() {
        let m = tiny_model();
        let concepts = [
            Concept::new(RelationId(0), TagId(1)),
            Concept::new(RelationId(2), TagId(4)),
            Concept::new(RelationId(1), TagId(5)),
        ];
        let mut tape = Tape::new();
        let (cens, offs) = m.concept_boxes(&mut tape, &concepts);
        let inter = m.intersect_attention(&mut tape, cens, offs);
        let got = m.box_values(&tape, inter);
        // Eq. (15): the intersection offset is the elementwise min of the
        // operand offsets scaled by a sigmoid gate, so it cannot exceed any
        // operand's effective offset.
        let operand_offs: Vec<Vec<f32>> = concepts
            .iter()
            .map(|&c| {
                m.concept_box_f32(c)
                    .off
                    .iter()
                    .map(|&o| o.max(0.0))
                    .collect()
            })
            .collect();
        for dim in 0..m.dim {
            let min_off = operand_offs.iter().map(|o| o[dim]).fold(f32::MAX, f32::min);
            assert!(
                got.off[dim] <= min_off + 1e-6,
                "dim {dim}: {} > min {}",
                got.off[dim],
                min_off
            );
            assert!(got.off[dim] >= 0.0);
        }
    }

    #[test]
    fn point_to_box_matches_geometry() {
        let m = tiny_model();
        let c = Concept::new(RelationId(0), TagId(0));
        let items = [ItemId(0), ItemId(5), ItemId(9)];
        let mut tape = Tape::new();
        let (cens, offs) = m.concept_boxes(&mut tape, &[c]);
        let b = TapeBox {
            cen: cens,
            off: offs,
        };
        let pts = m.item_points(&mut tape, &items);
        let dists = m.point_to_box(&mut tape, pts, b);
        let plain_box = m.concept_box_f32(c);
        for (row, &item) in items.iter().enumerate() {
            let expected = geometry::d_pb(m.item_point_f32(item), &plain_box);
            let got = tape.value(dists).at(row, 0);
            assert!(
                (got - expected).abs() < 1e-5,
                "item {item}: tape {got} vs plain {expected}"
            );
        }
    }

    #[test]
    fn user_bias_intersection_shapes_and_positivity() {
        let m = tiny_model();
        let concepts = [
            Concept::new(RelationId(0), TagId(0)),
            Concept::new(RelationId(1), TagId(1)),
        ];
        let mut tape = Tape::new();
        let (cens, offs) = m.concept_boxes(&mut tape, &concepts);
        let u = m.user_vector(&mut tape, UserId(2));
        let b = m.intersect_user_bias(&mut tape, cens, offs, u);
        assert_eq!(tape.value(b.cen).shape(), (1, m.dim));
        assert_eq!(tape.value(b.off).shape(), (1, m.dim));
        // Offsets are convex combinations of relu'd offsets: non-negative.
        assert!(tape.value(b.off).data().iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn margin_loss_prefers_close_positive_far_negative() {
        let m = tiny_model();
        let mut tape = Tape::new();
        let near = tape.constant(Tensor::from_vec(1, 1, vec![0.1]));
        let far = tape.constant(Tensor::from_vec(2, 1, vec![20.0, 25.0]));
        let good = m.margin_loss(&mut tape, near, far, 12.0, 1.0);
        let good_v = tape.value(good).item();

        let mut tape2 = Tape::new();
        let pos_far = tape2.constant(Tensor::from_vec(1, 1, vec![20.0]));
        let neg_near = tape2.constant(Tensor::from_vec(2, 1, vec![0.1, 0.2]));
        let bad = m.margin_loss(&mut tape2, pos_far, neg_near, 12.0, 1.0);
        let bad_v = tape2.value(bad).item();
        assert!(
            good_v < bad_v,
            "well-separated case must have lower loss: {good_v} vs {bad_v}"
        );
    }
}

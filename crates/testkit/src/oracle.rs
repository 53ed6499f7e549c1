//! Naive scalar reference implementations ("oracles") for differential
//! testing.
//!
//! Everything here is written in plain loops over `Vec<Vec<f32>>` with no
//! tape, no buffer pooling, and no fusion — independently re-derived from
//! the paper's equations and the documented contracts of the production
//! ops, so a bug in the optimised path cannot hide in a shared helper.
//!
//! **Bit-exactness discipline.** f32 addition is not associative, so an
//! oracle can only assert `to_bits` equality if it folds in the *same
//! order* the production code documents. Since the SIMD kernel overhaul
//! that order is the **lane-striped** contract of `inbox_autodiff::simd`
//! for every row reduction, replicated here by `striped_fold` with a
//! plain array (no `F32x8`), plus select-based min/max matching the SSE
//! instruction semantics. Each function notes which contract it mirrors:
//!
//! * the tape ops promise fused == unfused-chain up to reassociation
//!   (gradients bitwise; forward values pinned against *these* oracles),
//! * [`score_items`] mirrors `core::predict::ItemScorer` /
//!   `core::geometry::d_pb_weighted` (separate outside/inside
//!   lane-striped sums),
//! * [`d_pb_rows`] mirrors the *fused training op*, which folds a single
//!   interleaved lane-striped accumulator and is therefore deliberately a
//!   different function from [`score_items`],
//! * [`ModelParams::interest_box`] mirrors `InBoxModel::interest_box`
//!   fragment by fragment.
//!
//! Where a production op documents f32-rounding equivalence instead
//! (`concat_row_linear` vs. its unfused chain), tests must use tolerances
//! — but the fused op itself is deterministic, so its oracle replica
//! ([`concat_row_linear`]) still matches it bit-for-bit.

use inbox_autodiff::Tensor;
use inbox_core::{InBoxConfig, InBoxModel, IntersectionMode, UserBoxMode};
use inbox_kg::{Concept, ItemId, UserId};

/// A dense row-major matrix for oracle arithmetic: `m[r][c]`.
pub type Rows = Vec<Vec<f32>>;

// ---------------------------------------------------------------------
// Scalar activations (independent replicas of the tape's stable forms)
// ---------------------------------------------------------------------

/// Numerically-stable logistic sigmoid, same branch structure as
/// `inbox_autodiff::sigmoid_f`.
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically-stable `log(sigmoid(x))`, same branch structure as
/// `inbox_autodiff::log_sigmoid_f`.
pub fn log_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        -(-x).exp().ln_1p()
    } else {
        x - x.exp().ln_1p()
    }
}

// ---------------------------------------------------------------------
// Shape helpers
// ---------------------------------------------------------------------

/// Converts a production [`Tensor`] into oracle rows.
pub fn tensor_rows(t: &Tensor) -> Rows {
    (0..t.rows()).map(|r| t.row_slice(r).to_vec()).collect()
}

/// Builds an oracle matrix from a flat row-major slice.
pub fn rows_from_flat(rows: usize, cols: usize, data: &[f32]) -> Rows {
    assert_eq!(rows * cols, data.len(), "flat data length mismatch");
    data.chunks_exact(cols).map(|c| c.to_vec()).collect()
}

fn bcast(m: &Rows, r: usize) -> &[f32] {
    &m[if m.len() == 1 { 0 } else { r }]
}

// ---------------------------------------------------------------------
// The lane-striped reduction order (independent replica)
// ---------------------------------------------------------------------

/// Folds per-dimension terms in the workspace's **lane-striped** order —
/// the reduction-order contract every SIMD row kernel documents
/// (`inbox_autodiff::simd`): term `k` accumulates into lane `k % 8`
/// sequentially, then the eight lanes reduce through the fixed pairwise
/// tree `[0+4, 1+5, 2+6, 3+7] → [·0+·2, ·1+·3] → left + right`. Written
/// here with a plain array and explicit adds, no shared helper, so the
/// production kernels cannot hide a fold-order bug in common code.
fn striped_fold(terms: impl Iterator<Item = f32>) -> f32 {
    let mut lanes = [0.0f32; 8];
    for (k, t) in terms.enumerate() {
        lanes[k % 8] += t;
    }
    let b = [
        lanes[0] + lanes[4],
        lanes[1] + lanes[5],
        lanes[2] + lanes[6],
        lanes[3] + lanes[7],
    ];
    let c = [b[0] + b[2], b[1] + b[3]];
    c[0] + c[1]
}

/// Select-based max with SSE `maxps` semantics (the second operand wins
/// ties and unordered comparisons) — the min/max contract of the SIMD
/// kernels, distinct from `f32::max`'s unspecified signed-zero result.
fn smax(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Select-based min with SSE `minps` semantics.
fn smin(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

fn bcast_rows(a: &Rows, b: &Rows, what: &str) -> usize {
    assert_eq!(a[0].len(), b[0].len(), "{what}: column mismatch");
    match (a.len(), b.len()) {
        (x, y) if x == y => x,
        (1, y) => y,
        (x, 1) => x,
        (x, y) => panic!("{what}: incompatible row counts {x} vs {y}"),
    }
}

// ---------------------------------------------------------------------
// Elementwise / unary ops (mirror `binary_elementwise` and the unary
// tape ops: row-major visit order, row broadcast when either side is 1×d)
// ---------------------------------------------------------------------

fn zip2(a: &Rows, b: &Rows, what: &str, f: impl Fn(f32, f32) -> f32) -> Rows {
    let rows = bcast_rows(a, b, what);
    (0..rows)
        .map(|r| {
            let (ra, rb) = (bcast(a, r), bcast(b, r));
            ra.iter().zip(rb).map(|(&x, &y)| f(x, y)).collect()
        })
        .collect()
}

/// Elementwise `a + b` with row broadcast.
pub fn add(a: &Rows, b: &Rows) -> Rows {
    zip2(a, b, "add", |x, y| x + y)
}

/// Elementwise `a - b` with row broadcast.
pub fn sub(a: &Rows, b: &Rows) -> Rows {
    zip2(a, b, "sub", |x, y| x - y)
}

/// Elementwise `a * b` with row broadcast.
pub fn mul(a: &Rows, b: &Rows) -> Rows {
    zip2(a, b, "mul", |x, y| x * y)
}

fn map1(a: &Rows, f: impl Fn(f32) -> f32) -> Rows {
    a.iter()
        .map(|row| row.iter().map(|&x| f(x)).collect())
        .collect()
}

/// Elementwise `max(x, 0)`.
pub fn relu(a: &Rows) -> Rows {
    map1(a, |x| x.max(0.0))
}

/// Elementwise negation.
pub fn neg(a: &Rows) -> Rows {
    map1(a, |x| -x)
}

/// Elementwise scaling by `s`.
pub fn scale(a: &Rows, s: f32) -> Rows {
    map1(a, |x| x * s)
}

/// Elementwise sigmoid.
pub fn sigmoid_rows(a: &Rows) -> Rows {
    map1(a, sigmoid)
}

// ---------------------------------------------------------------------
// Reductions and matrix ops
// ---------------------------------------------------------------------

/// Matrix product `a · b`. Mirrors `Tensor::matmul_into`: per output row
/// the accumulator folds over `p` in ascending order, skipping `a[i][p]
/// == 0` (the skip only omits `±0.0 · x` additions, which cannot change
/// an f32 accumulator, so values stay bit-identical to the dense fold).
pub fn matmul(a: &Rows, b: &Rows) -> Rows {
    let (n, k) = (a.len(), a[0].len());
    assert_eq!(k, b.len(), "matmul inner-dimension mismatch");
    let m = b[0].len();
    let mut out = vec![vec![0.0f32; m]; n];
    for i in 0..n {
        for p in 0..k {
            let av = a[i][p];
            if av == 0.0 {
                continue;
            }
            for j in 0..m {
                out[i][j] += av * b[p][j];
            }
        }
    }
    out
}

/// Affine layer `x · w + b` (`b` a `1 × m` bias row). Mirrors
/// `Tape::linear`: matmul first, then the bias row added in column order.
pub fn linear(x: &Rows, w: &Rows, b: &Rows) -> Rows {
    assert_eq!(b.len(), 1, "linear bias must be a 1 x m row");
    let mut out = matmul(x, w);
    for row in &mut out {
        for (o, &bj) in row.iter_mut().zip(&b[0]) {
            *o += bj;
        }
    }
    out
}

/// Column-wise softmax over rows (`n × d -> n × d`). Mirrors
/// `Tape::softmax_axis0`: per column, max-subtract, exponentiate in row
/// order accumulating the denominator, then divide.
pub fn softmax_axis0(a: &Rows) -> Rows {
    let (rows, cols) = (a.len(), a[0].len());
    assert!(rows > 0, "softmax_axis0 on empty input");
    let mut out = vec![vec![0.0f32; cols]; rows];
    for c in 0..cols {
        let mut mx = f32::NEG_INFINITY;
        for row in a {
            mx = mx.max(row[c]);
        }
        let mut denom = 0.0f32;
        for r in 0..rows {
            let e = (a[r][c] - mx).exp();
            out[r][c] = e;
            denom += e;
        }
        for row in out.iter_mut() {
            row[c] /= denom;
        }
    }
    out
}

/// Column-wise minimum (`n × d -> 1 × d`). Mirrors `Tape::min_axis0`
/// (copy row 0, then strict `<` updates in row order).
pub fn min_axis0(a: &Rows) -> Rows {
    let mut out = a[0].clone();
    for row in &a[1..] {
        for (o, &v) in out.iter_mut().zip(row) {
            if v < *o {
                *o = v;
            }
        }
    }
    vec![out]
}

/// Column-wise sum (`n × d -> 1 × d`), accumulated in row order.
pub fn sum_axis0(a: &Rows) -> Rows {
    let mut out = vec![0.0f32; a[0].len()];
    for row in a {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    vec![out]
}

/// Column-wise mean (`n × d -> 1 × d`). Mirrors `Tape::mean_axis0`: sum
/// in row order, then divide by the row count.
pub fn mean_axis0(a: &Rows) -> Rows {
    let n = a.len() as f32;
    let mut out = sum_axis0(a);
    for o in &mut out[0] {
        *o /= n;
    }
    out
}

/// Fused `sum_axis0(a * values)` for equal-shape inputs. Mirrors
/// `Tape::weighted_sum_axis0` (accumulate `a[r][j] * v[r][j]` in row
/// order).
pub fn weighted_sum_axis0(a: &Rows, values: &Rows) -> Rows {
    assert_eq!(a.len(), values.len(), "weighted_sum_axis0 row mismatch");
    let mut out = vec![0.0f32; a[0].len()];
    for (ar, vr) in a.iter().zip(values) {
        for ((o, &x), &v) in out.iter_mut().zip(ar).zip(vr) {
            *o += x * v;
        }
    }
    vec![out]
}

/// Attention combine `sum_axis0(softmax_axis0(scores) * values)`. Mirrors
/// `Tape::attn_combine` (softmax first, then the weighted sum).
pub fn attn_combine(scores: &Rows, values: &Rows) -> Rows {
    weighted_sum_axis0(&softmax_axis0(scores), values)
}

/// Per-row L1 distance `sum_axis1(|a - b|)` with row broadcast on either
/// side. Mirrors `Tape::l1_rows` (per row, `|x - y|` folded in the
/// lane-striped order).
pub fn l1_rows(a: &Rows, b: &Rows) -> Vec<f32> {
    let rows = bcast_rows(a, b, "l1_rows");
    (0..rows)
        .map(|r| {
            let (ra, rb) = (bcast(a, r), bcast(b, r));
            striped_fold(ra.iter().zip(rb).map(|(&x, &y)| (x - y).abs()))
        })
        .collect()
}

/// Fused `mean(log_sigmoid(sign * a + offset))` over all elements.
/// Mirrors `Tape::mean_log_sigmoid_affine` (flat row-major sum, one
/// division at the end).
pub fn mean_log_sigmoid_affine(a: &Rows, sign: f32, offset: f32) -> f32 {
    assert!(sign == 1.0 || sign == -1.0, "sign must be ±1");
    let n: usize = a.iter().map(Vec::len).sum();
    let total: f32 = a
        .iter()
        .flat_map(|row| row.iter())
        .map(|&x| log_sigmoid(sign * x + offset))
        .sum();
    total / n as f32
}

/// `[a | row]` with the `1 × d` row appended to every row of `a`.
/// Mirrors `Tape::concat_cols_row`.
pub fn concat_cols_row(a: &Rows, row: &Rows) -> Rows {
    assert_eq!(row.len(), 1, "concat_cols_row requires a 1 x d row");
    a.iter()
        .map(|ar| {
            let mut out = ar.clone();
            out.extend_from_slice(&row[0]);
            out
        })
        .collect()
}

/// Fused `linear(concat_cols_row(a, row), w, b)`. Mirrors
/// `Tape::concat_row_linear`'s documented fold order: the shared base
/// `row · W_bot + b` accumulates first (zero entries of `row` skipped),
/// then each output row adds `a[r] · W_top` on top of a copy of the base
/// (zero entries of `a[r]` skipped). NOT bit-identical to the unfused
/// chain — only to the fused op.
pub fn concat_row_linear(a: &Rows, row: &Rows, w: &Rows, b: &Rows) -> Rows {
    assert_eq!(row.len(), 1, "concat_row_linear requires a 1 x d row");
    assert_eq!(b.len(), 1, "concat_row_linear bias must be a row");
    let ca = a[0].len();
    let cr = row[0].len();
    let m = w[0].len();
    assert_eq!(w.len(), ca + cr, "concat_row_linear weight rows mismatch");
    assert_eq!(b[0].len(), m, "concat_row_linear bias width mismatch");
    let mut base = vec![0.0f32; m];
    for (p, &rval) in row[0].iter().enumerate() {
        if rval == 0.0 {
            continue;
        }
        for (o, &wj) in base.iter_mut().zip(&w[ca + p]) {
            *o += rval * wj;
        }
    }
    for (o, &bj) in base.iter_mut().zip(&b[0]) {
        *o += bj;
    }
    a.iter()
        .map(|ar| {
            let mut out = base.clone();
            for (c, &aval) in ar.iter().enumerate() {
                if aval == 0.0 {
                    continue;
                }
                for (o, &wj) in out.iter_mut().zip(&w[c]) {
                    *o += aval * wj;
                }
            }
            out
        })
        .collect()
}

/// Fused point-to-box distance, mirroring the *training* op
/// `Tape::d_pb_rows`: per row a **single** accumulator folds
/// `(over + under) + inside_weight · inside` dimension by dimension,
/// with row broadcast on any of the three inputs. This fold order
/// differs from [`score_items`] / `geometry::d_pb_weighted` (separate
/// outside/inside sums), which is why the two get separate oracles.
pub fn d_pb_rows(points: &Rows, cen: &Rows, off: &Rows, inside_weight: f32) -> Vec<f32> {
    assert_eq!(cen.len(), off.len(), "d_pb_rows box shape mismatch");
    let rows = bcast_rows(points, cen, "d_pb_rows");
    let cols = points[0].len();
    (0..rows)
        .map(|r| {
            let prow = bcast(points, r);
            let crow = bcast(cen, r);
            let orow = bcast(off, r);
            striped_fold((0..cols).map(|c| {
                let half = smax(orow[c], 0.0);
                let hi = crow[c] + half;
                let lo = crow[c] - half;
                let p = prow[c];
                let over = smax(p - hi, 0.0);
                let under = smax(lo - p, 0.0);
                let clamped = smin(smax(p, lo), hi);
                let inside = (crow[c] - clamped).abs();
                (over + under) + inside_weight * inside
            }))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Geometry / scoring oracles (inference path)
// ---------------------------------------------------------------------

/// Point-to-point L1 distance (Eq. (3)), folded in the lane-striped
/// order of `geometry::d_pp`.
pub fn d_pp(a: &[f32], b: &[f32]) -> f32 {
    striped_fold(a.iter().zip(b).map(|(&x, &y)| (x - y).abs()))
}

/// The `(D_out, D_in)` pair for one point against a `(cen, raw off)`
/// box, each summed over dimensions in its own accumulator — the fold
/// order of `geometry::d_out` / `geometry::d_in` and of
/// `predict::ItemScorer`.
pub fn d_pb_parts(point: &[f32], cen: &[f32], off: &[f32]) -> (f32, f32) {
    let mut out = 0.0f32;
    let mut inside = 0.0f32;
    for k in 0..point.len() {
        let half = off[k].max(0.0);
        let lo = cen[k] - half;
        let hi = cen[k] + half;
        let p = point[k];
        out += (p - hi).max(0.0) + (lo - p).max(0.0);
        inside += (cen[k] - p.clamp(lo, hi)).abs();
    }
    (out, inside)
}

/// Scores every item point (flat row-major `n × dim`) against one box:
/// `γ - (D_out + inside_weight · D_in)` per item. Mirrors
/// `ItemScorer::score_box` bit-for-bit (per-dimension `lo`/`hi`
/// precomputed from `cen ± relu(off)`, separate outside/inside
/// accumulators, item order).
pub fn score_items(
    items: &[f32],
    dim: usize,
    cen: &[f32],
    off: &[f32],
    gamma: f32,
    inside_weight: f32,
) -> Vec<f32> {
    let mut lo = Vec::with_capacity(dim);
    let mut hi = Vec::with_capacity(dim);
    for k in 0..dim {
        let half = smax(off[k], 0.0);
        lo.push(cen[k] - half);
        hi.push(cen[k] + half);
    }
    items
        .chunks_exact(dim)
        .map(|row| {
            let out = striped_fold(
                (0..dim).map(|k| smax(row[k] - hi[k], 0.0) + smax(lo[k] - row[k], 0.0)),
            );
            let inside =
                striped_fold((0..dim).map(|k| (cen[k] - smin(smax(row[k], lo[k]), hi[k])).abs()));
            gamma - (out + inside_weight * inside)
        })
        .collect()
}

/// Full-sort top-K ranking oracle: every unmasked item sorted best-first
/// with the exact comparator of `inbox_eval::top_k_masked` (score
/// descending, ties to the smaller item id), truncated to `k`. The
/// heap-based production path must return the identical vector.
pub fn rank(scores: &[f32], mask: &[ItemId], k: usize) -> Vec<ItemId> {
    let mut entries: Vec<(ItemId, f32)> = scores
        .iter()
        .enumerate()
        .map(|(i, &s)| (ItemId(i as u32), s))
        .filter(|(i, _)| mask.binary_search(i).is_err())
        .collect();
    entries.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });
    entries.truncate(k);
    entries.into_iter().map(|(i, _)| i).collect()
}

// ---------------------------------------------------------------------
// Full InBox forward pass (mirrors `InBoxModel::interest_box`)
// ---------------------------------------------------------------------

/// Fetches a parameter matrix by its registered name.
pub fn param(model: &InBoxModel, name: &str) -> Rows {
    let id = model
        .store
        .id(name)
        .unwrap_or_else(|| panic!("model has no parameter named {name:?}"));
    tensor_rows(model.store.value(id))
}

fn gather(table: &Rows, idx: impl IntoIterator<Item = u32>) -> Rows {
    idx.into_iter().map(|i| table[i as usize].clone()).collect()
}

/// Parameter matrices the forward oracle reads, fetched once per model so
/// repeated [`interest_box`](Self::interest_box) calls don't re-copy the
/// embedding tables.
pub struct ModelParams {
    item_emb: Rows,
    tag_cen: Rows,
    tag_off: Rows,
    rel_cen: Rows,
    rel_off: Rows,
    user_emb: Rows,
    att_cen_w1: Rows,
    att_cen_b1: Rows,
    att_cen_w2: Rows,
    att_cen_b2: Rows,
    att_off_in_w: Rows,
    att_off_in_b: Rows,
    att_off_out_w: Rows,
    att_off_out_b: Rows,
    ub_cen_w1: Rows,
    ub_cen_b1: Rows,
    ub_cen_w2: Rows,
    ub_cen_b2: Rows,
    ub_off_w1: Rows,
    ub_off_b1: Rows,
    ub_off_w2: Rows,
    ub_off_b2: Rows,
}

impl ModelParams {
    /// Snapshots every parameter the forward pass reads.
    pub fn snapshot(model: &InBoxModel) -> Self {
        let p = |name: &str| param(model, name);
        Self {
            item_emb: p("item_emb"),
            tag_cen: p("tag_cen"),
            tag_off: p("tag_off"),
            rel_cen: p("rel_cen"),
            rel_off: p("rel_off"),
            user_emb: p("user_emb"),
            att_cen_w1: p("att_cen1_w"),
            att_cen_b1: p("att_cen1_b"),
            att_cen_w2: p("att_cen2_w"),
            att_cen_b2: p("att_cen2_b"),
            att_off_in_w: p("att_off_in_w"),
            att_off_in_b: p("att_off_in_b"),
            att_off_out_w: p("att_off_out_w"),
            att_off_out_b: p("att_off_out_b"),
            ub_cen_w1: p("ub_cen1_w"),
            ub_cen_b1: p("ub_cen1_b"),
            ub_cen_w2: p("ub_cen2_w"),
            ub_cen_b2: p("ub_cen2_b"),
            ub_off_w1: p("ub_off1_w"),
            ub_off_b1: p("ub_off1_b"),
            ub_off_w2: p("ub_off2_w"),
            ub_off_b2: p("ub_off2_b"),
        }
    }

    /// Concept boxes (Eq. (4), (5)): `cen = Cen(b_t) + Cen(b_r)`,
    /// `off = relu(Off(b_t)) + Off(b_r)`. Mirrors
    /// `InBoxModel::concept_boxes`.
    pub fn concept_boxes(&self, concepts: &[Concept]) -> (Rows, Rows) {
        let t_cen = gather(&self.tag_cen, concepts.iter().map(|c| c.tag.0));
        let t_off = gather(&self.tag_off, concepts.iter().map(|c| c.tag.0));
        let r_cen = gather(&self.rel_cen, concepts.iter().map(|c| c.relation.0));
        let r_off = gather(&self.rel_off, concepts.iter().map(|c| c.relation.0));
        (add(&t_cen, &r_cen), add(&relu(&t_off), &r_off))
    }

    fn mlp2(&self, x: &Rows, w1: &Rows, b1: &Rows, w2: &Rows, b2: &Rows) -> Rows {
        linear(&relu(&linear(x, w1, b1)), w2, b2)
    }

    fn mlp2_concat_row(
        &self,
        x: &Rows,
        row: &Rows,
        w1: &Rows,
        b1: &Rows,
        w2: &Rows,
        b2: &Rows,
    ) -> Rows {
        linear(&relu(&concat_row_linear(x, row, w1, b1)), w2, b2)
    }

    /// Attention-network intersection (Eq. (13)–(16)). Mirrors
    /// `InBoxModel::intersect_attention`.
    pub fn intersect_attention(&self, cens: &Rows, offs: &Rows) -> (Rows, Rows) {
        let scores = self.mlp2(
            cens,
            &self.att_cen_w1,
            &self.att_cen_b1,
            &self.att_cen_w2,
            &self.att_cen_b2,
        );
        let cen = attn_combine(&scores, cens);
        let inner = relu(&linear(offs, &self.att_off_in_w, &self.att_off_in_b));
        let pooled = mean_axis0(&inner);
        let gate = sigmoid_rows(&linear(&pooled, &self.att_off_out_w, &self.att_off_out_b));
        let off = mul(&min_axis0(&relu(offs)), &gate);
        (cen, off)
    }

    /// Max-Min intersection (Eq. (17)–(20)). Mirrors
    /// `InBoxModel::intersect_maxmin` op for op (including the
    /// `max = -min(-x)` encoding and the final `relu` on the width).
    pub fn intersect_maxmin(&self, cens: &Rows, offs: &Rows) -> (Rows, Rows) {
        let half = relu(offs);
        let upper = add(cens, &half);
        let lower = add(cens, &neg(&half));
        let u = min_axis0(&upper);
        let l = neg(&min_axis0(&neg(&lower)));
        let cen = scale(&add(&u, &l), 0.5);
        let off = scale(&relu(&sub(&u, &l)), 0.5);
        (cen, off)
    }

    /// User-bias intersection (Eq. (21)–(24)). Mirrors
    /// `InBoxModel::intersect_user_bias`.
    pub fn intersect_user_bias(&self, cens: &Rows, offs: &Rows, user: &Rows) -> (Rows, Rows) {
        let c_scores = self.mlp2_concat_row(
            cens,
            user,
            &self.ub_cen_w1,
            &self.ub_cen_b1,
            &self.ub_cen_w2,
            &self.ub_cen_b2,
        );
        let cen = attn_combine(&c_scores, cens);
        let offs_pos = relu(offs);
        let d_scores = self.mlp2_concat_row(
            &offs_pos,
            user,
            &self.ub_off_w1,
            &self.ub_off_b1,
            &self.ub_off_w2,
            &self.ub_off_b2,
        );
        let off = attn_combine(&d_scores, &offs_pos);
        (cen, off)
    }

    /// The full interest-box forward pass (Section 3.4), mirroring
    /// `InBoxModel::interest_box` fragment by fragment: per history item
    /// intersect concept boxes (self box with zero offset when the item
    /// has no concepts), combine per `mode` (Eq. (25), (26) averaging for
    /// `Both`), sum sequentially, then scale by `1/m` (Eq. (27), (28)).
    /// Returns `None` on empty history — the contract of
    /// `user_box_from_history`.
    pub fn interest_box(
        &self,
        config: &InBoxConfig,
        user: UserId,
        history: &[(ItemId, Vec<Concept>)],
    ) -> Option<(Vec<f32>, Vec<f32>)> {
        if history.is_empty() {
            return None;
        }
        let dim = self.item_emb[0].len();
        let user_row = if config.user_box == UserBoxMode::OnlyInterI {
            None
        } else {
            Some(gather(&self.user_emb, [user.0]))
        };
        let m = history.len();
        let mut acc: Option<(Rows, Rows)> = None;
        for (item, concepts) in history {
            let item_box = if concepts.is_empty() {
                (gather(&self.item_emb, [item.0]), vec![vec![0.0f32; dim]])
            } else {
                let (cens, offs) = self.concept_boxes(concepts);
                let b_i = match config.intersection {
                    IntersectionMode::Attention => self.intersect_attention(&cens, &offs),
                    IntersectionMode::MaxMin => self.intersect_maxmin(&cens, &offs),
                };
                match (config.user_box, &user_row) {
                    (UserBoxMode::OnlyInterI, _) | (_, None) => b_i,
                    (UserBoxMode::OnlyInterU, Some(u)) => self.intersect_user_bias(&cens, &offs, u),
                    (UserBoxMode::Both, Some(u)) => {
                        let b_u = self.intersect_user_bias(&cens, &offs, u);
                        (
                            scale(&add(&b_i.0, &b_u.0), 0.5),
                            scale(&add(&b_i.1, &b_u.1), 0.5),
                        )
                    }
                }
            };
            acc = Some(match acc {
                None => item_box,
                Some(prev) => (add(&prev.0, &item_box.0), add(&prev.1, &item_box.1)),
            });
        }
        let (cen, off) = acc.expect("non-empty history");
        let inv_m = 1.0 / m as f32;
        Some((
            scale(&cen, inv_m).swap_remove(0),
            scale(&off, inv_m).swap_remove(0),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_activations_match_autodiff() {
        for &x in &[-20.0f32, -3.5, -0.0, 0.0, 1e-3, 2.75, 19.0] {
            assert_eq!(sigmoid(x).to_bits(), inbox_autodiff::sigmoid_f(x).to_bits());
            assert_eq!(
                log_sigmoid(x).to_bits(),
                inbox_autodiff::log_sigmoid_f(x).to_bits()
            );
        }
    }

    #[test]
    fn rank_skips_mask_and_breaks_ties_by_id() {
        let scores = [1.0f32, 3.0, 3.0, 2.0];
        let mask = [ItemId(3)];
        assert_eq!(
            rank(&scores, &mask, 3),
            vec![ItemId(1), ItemId(2), ItemId(0)]
        );
    }

    #[test]
    fn d_pb_parts_matches_geometry() {
        let b = inbox_core::BoxEmb::new(vec![0.5, -1.0, 2.0], vec![0.4, -0.3, 1.0]);
        let p = [0.9f32, -2.0, 2.1];
        let (out, inside) = d_pb_parts(&p, &b.cen, &b.off);
        assert_eq!(out.to_bits(), inbox_core::geometry::d_out(&p, &b).to_bits());
        assert_eq!(
            inside.to_bits(),
            inbox_core::geometry::d_in(&p, &b).to_bits()
        );
    }
}

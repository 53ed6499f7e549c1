//! Explicit 8-lane f32 SIMD for the distance/score hot loops, with a
//! portable fallback that is **bit-identical** by construction.
//!
//! # The lane-striped reduction-order contract
//!
//! f32 addition is not associative, so "SIMD but bit-identical to the old
//! sequential sum" is impossible. Instead the workspace defines one
//! reduction order — *lane striping* — and every implementation (SSE2,
//! portable, and the testkit's independently written scalar oracles)
//! commits to it:
//!
//! * A row of `d` elements is processed in chunks of 8. Lane `j` of the
//!   accumulator sums elements `8c + j` for `c = 0, 1, …` — eight
//!   independent sequential sums.
//! * A remainder of `r = d % 8` elements lands in lanes `0..r`; lanes
//!   `r..8` receive `+0.0`. Every per-dimension term produced by these
//!   kernels is `≥ +0.0` (relu/abs outputs, and non-negative products of
//!   them), and the accumulators start at `+0.0`, so adding `+0.0` is a
//!   bit-exact identity — remainder handling is equivalent to
//!   zero-padding the inputs to a multiple of 8.
//! * The horizontal sum is the fixed pairwise tree
//!   `b = [a0+a4, a1+a5, a2+a6, a3+a7]`, `c = [b0+b2, b1+b3]`,
//!   `sum = c0 + c1` — exactly what two SSE `addps` halves followed by
//!   `movhl`/`shuffle` reductions compute.
//!
//! # min/max selection semantics
//!
//! Rust's `f32::max` lowers to `llvm.maxnum`, whose `±0.0` behaviour is
//! unspecified and differs from SSE's `maxps`. The kernels therefore use
//! *select-based* comparisons matching the SSE instructions exactly:
//! [`pmax`]`(a, b) = if a > b { a } else { b }` (`maxps`) and
//! [`pmin`]`(a, b) = if a < b { a } else { b }` (`minps`) — the second
//! operand wins on equality or unordered inputs. `relu(x) = pmax(x, 0.0)`
//! maps `-0.0` to `+0.0` in both paths. `abs` clears the sign bit.
//!
//! # Backends
//!
//! * x86_64 default: two `__m128` halves via SSE2 intrinsics — SSE2 is
//!   part of the x86_64 baseline, so no `target_feature` gymnastics and
//!   no runtime dispatch.
//! * `scalar-fallback` feature (or any non-x86_64 target): a plain
//!   `[f32; 8]` loop body implementing the identical lane semantics.
//!
//! The testkit's `simd` suite proptests every kernel against the scalar
//! oracles across remainder-lane dims, signed zeros, and subnormals; CI
//! runs it under both backends.

#![allow(clippy::needless_range_loop)]

#[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
use std::arch::x86_64::*;

/// Select-based maximum with SSE `maxps` semantics: returns `b` when
/// `a <= b`, when the operands compare unordered, and for `±0.0` ties.
#[inline(always)]
pub fn pmax(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Select-based minimum with SSE `minps` semantics: returns `b` when
/// `a >= b`, when the operands compare unordered, and for `±0.0` ties.
#[inline(always)]
pub fn pmin(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `relu` under the kernel contract: `pmax(x, +0.0)`. Maps `-0.0` to
/// `+0.0`, unlike `f32::max(x, 0.0)` whose signed-zero result is
/// unspecified.
#[inline(always)]
pub fn relu0(x: f32) -> f32 {
    pmax(x, 0.0)
}

// ---------------------------------------------------------------------
// F32x8: eight f32 lanes (two __m128 halves or a plain array)
// ---------------------------------------------------------------------

/// Eight f32 lanes with the operation set the distance kernels need.
/// All operations are lane-wise; [`F32x8::hsum`] is the only cross-lane
/// operation and follows the documented pairwise tree.
#[derive(Clone, Copy)]
pub struct F32x8(Repr);

#[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
type Repr = (__m128, __m128);

#[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-fallback"))))]
type Repr = [f32; 8];

#[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
// Inherent `add`/`sub`/`mul` rather than the `std::ops` traits: the
// kernels spell out every arithmetic step of the reduction-order
// contract, and method syntax keeps those chains grep-able against the
// contract's wording (no operator sugar hiding an intrinsic).
#[allow(clippy::should_implement_trait)]
impl F32x8 {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        unsafe { Self((_mm_setzero_ps(), _mm_setzero_ps())) }
    }

    /// All lanes `x`.
    #[inline(always)]
    pub fn splat(x: f32) -> Self {
        unsafe { Self((_mm_set1_ps(x), _mm_set1_ps(x))) }
    }

    /// Loads lanes from `s[0..8]`. Panics if `s` is shorter than 8.
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        assert!(s.len() >= 8, "F32x8::load needs 8 elements");
        // SAFETY: bounds asserted above; loadu has no alignment demands.
        unsafe { Self((_mm_loadu_ps(s.as_ptr()), _mm_loadu_ps(s.as_ptr().add(4)))) }
    }

    /// Lane-wise `a + b`.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        unsafe { Self((_mm_add_ps(self.0 .0, o.0 .0), _mm_add_ps(self.0 .1, o.0 .1))) }
    }

    /// Lane-wise `a - b`.
    #[inline(always)]
    pub fn sub(self, o: Self) -> Self {
        unsafe { Self((_mm_sub_ps(self.0 .0, o.0 .0), _mm_sub_ps(self.0 .1, o.0 .1))) }
    }

    /// Lane-wise `a * b`.
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        unsafe { Self((_mm_mul_ps(self.0 .0, o.0 .0), _mm_mul_ps(self.0 .1, o.0 .1))) }
    }

    /// Lane-wise [`pmax`] (`maxps`).
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        unsafe { Self((_mm_max_ps(self.0 .0, o.0 .0), _mm_max_ps(self.0 .1, o.0 .1))) }
    }

    /// Lane-wise [`pmin`] (`minps`).
    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        unsafe { Self((_mm_min_ps(self.0 .0, o.0 .0), _mm_min_ps(self.0 .1, o.0 .1))) }
    }

    /// Lane-wise `relu` ([`relu0`]): `max(x, +0.0)` with `maxps`
    /// semantics, so `-0.0` lanes become `+0.0`.
    #[inline(always)]
    pub fn relu(self) -> Self {
        self.max(Self::zero())
    }

    /// Lane-wise absolute value (sign bit cleared).
    #[inline(always)]
    pub fn abs(self) -> Self {
        unsafe {
            let m = _mm_castsi128_ps(_mm_set1_epi32(0x7fff_ffff));
            Self((_mm_and_ps(self.0 .0, m), _mm_and_ps(self.0 .1, m)))
        }
    }

    /// Horizontal sum under the documented pairwise tree:
    /// `[a0+a4, a1+a5, a2+a6, a3+a7]` → `[b0+b2, b1+b3]` → `c0 + c1`.
    #[inline(always)]
    pub fn hsum(self) -> f32 {
        unsafe {
            let b = _mm_add_ps(self.0 .0, self.0 .1);
            // movhlps pairs lanes (0,2) and (1,3).
            let hi = _mm_movehl_ps(b, b);
            let c = _mm_add_ps(b, hi);
            let c1 = _mm_shuffle_ps::<0b01>(c, c);
            _mm_cvtss_f32(_mm_add_ss(c, c1))
        }
    }

    /// The lanes as an array (tests / diagnostics).
    #[inline(always)]
    pub fn to_array(self) -> [f32; 8] {
        let mut out = [0.0f32; 8];
        unsafe {
            _mm_storeu_ps(out.as_mut_ptr(), self.0 .0);
            _mm_storeu_ps(out.as_mut_ptr().add(4), self.0 .1);
        }
        out
    }
}

#[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-fallback"))))]
#[allow(clippy::should_implement_trait)]
impl F32x8 {
    /// All lanes zero.
    #[inline(always)]
    pub fn zero() -> Self {
        Self([0.0; 8])
    }

    /// All lanes `x`.
    #[inline(always)]
    pub fn splat(x: f32) -> Self {
        Self([x; 8])
    }

    /// Loads lanes from `s[0..8]`. Panics if `s` is shorter than 8.
    #[inline(always)]
    pub fn load(s: &[f32]) -> Self {
        assert!(s.len() >= 8, "F32x8::load needs 8 elements");
        let mut out = [0.0f32; 8];
        out.copy_from_slice(&s[..8]);
        Self(out)
    }

    /// Lane-wise `a + b`.
    #[inline(always)]
    pub fn add(self, o: Self) -> Self {
        let mut out = self.0;
        for j in 0..8 {
            out[j] += o.0[j];
        }
        Self(out)
    }

    /// Lane-wise `a - b`.
    #[inline(always)]
    pub fn sub(self, o: Self) -> Self {
        let mut out = self.0;
        for j in 0..8 {
            out[j] -= o.0[j];
        }
        Self(out)
    }

    /// Lane-wise `a * b`.
    #[inline(always)]
    pub fn mul(self, o: Self) -> Self {
        let mut out = self.0;
        for j in 0..8 {
            out[j] *= o.0[j];
        }
        Self(out)
    }

    /// Lane-wise [`pmax`] (`maxps` semantics).
    #[inline(always)]
    pub fn max(self, o: Self) -> Self {
        let mut out = [0.0f32; 8];
        for j in 0..8 {
            out[j] = pmax(self.0[j], o.0[j]);
        }
        Self(out)
    }

    /// Lane-wise [`pmin`] (`minps` semantics).
    #[inline(always)]
    pub fn min(self, o: Self) -> Self {
        let mut out = [0.0f32; 8];
        for j in 0..8 {
            out[j] = pmin(self.0[j], o.0[j]);
        }
        Self(out)
    }

    /// Lane-wise `relu` ([`relu0`]).
    #[inline(always)]
    pub fn relu(self) -> Self {
        self.max(Self::zero())
    }

    /// Lane-wise absolute value (sign bit cleared).
    #[inline(always)]
    pub fn abs(self) -> Self {
        let mut out = self.0;
        for o in &mut out {
            *o = f32::from_bits(o.to_bits() & 0x7fff_ffff);
        }
        Self(out)
    }

    /// Horizontal sum under the documented pairwise tree.
    #[inline(always)]
    pub fn hsum(self) -> f32 {
        let a = self.0;
        let b = [a[0] + a[4], a[1] + a[5], a[2] + a[6], a[3] + a[7]];
        let c = [b[0] + b[2], b[1] + b[3]];
        c[0] + c[1]
    }

    /// The lanes as an array (tests / diagnostics).
    #[inline(always)]
    pub fn to_array(self) -> [f32; 8] {
        self.0
    }
}

/// Loads up to 8 elements of `s` into lanes `0..s.len()`, zero-filling
/// the rest — the remainder-chunk load of the lane-striping contract.
#[inline(always)]
fn load_tail(s: &[f32]) -> F32x8 {
    debug_assert!(s.len() < 8);
    let mut buf = [0.0f32; 8];
    buf[..s.len()].copy_from_slice(s);
    F32x8::load(&buf)
}

/// Splits a row into full 8-lane chunks plus the remainder slice.
#[inline(always)]
fn chunks(d: usize) -> (usize, usize) {
    (d / 8, d % 8)
}

// ---------------------------------------------------------------------
// Row kernels (shared by tape ops, geometry, and the item scorer)
// ---------------------------------------------------------------------

/// Lane-striped L1 distance `Σ |a - b|` over equal-length rows — the
/// kernel behind `Tape::l1_rows` and `geometry::d_pp`.
#[inline]
pub fn l1_row(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let (full, rem) = chunks(a.len());
    let mut acc = F32x8::zero();
    for c in 0..full {
        let va = F32x8::load(&a[c * 8..]);
        let vb = F32x8::load(&b[c * 8..]);
        acc = acc.add(va.sub(vb).abs());
    }
    if rem > 0 {
        let va = load_tail(&a[full * 8..]);
        let vb = load_tail(&b[full * 8..]);
        acc = acc.add(va.sub(vb).abs());
    }
    acc.hsum()
}

/// Lane-striped `(D_out, D_in)` of one point against per-dimension box
/// bounds `lo`/`hi` and center `cen` — the inference contract shared by
/// `geometry::d_pb`/`d_pb_weighted` and `ItemScorer`. Separate
/// outside/inside accumulator groups; per dimension:
/// `out += relu(p - hi) + relu(lo - p)`,
/// `in += |cen - clamp(p, lo, hi)|` with `clamp = pmin(pmax(p, lo), hi)`.
#[inline]
pub fn d_pb_bounds_parts(p: &[f32], cen: &[f32], lo: &[f32], hi: &[f32]) -> (f32, f32) {
    debug_assert_eq!(p.len(), cen.len());
    debug_assert_eq!(p.len(), lo.len());
    debug_assert_eq!(p.len(), hi.len());
    let (full, rem) = chunks(p.len());
    let mut out = F32x8::zero();
    let mut inside = F32x8::zero();
    #[inline(always)]
    fn step(vp: F32x8, vc: F32x8, vl: F32x8, vh: F32x8, out: &mut F32x8, inside: &mut F32x8) {
        *out = out.add(vp.sub(vh).relu().add(vl.sub(vp).relu()));
        let clamped = vp.max(vl).min(vh);
        *inside = inside.add(vc.sub(clamped).abs());
    }
    for c in 0..full {
        step(
            F32x8::load(&p[c * 8..]),
            F32x8::load(&cen[c * 8..]),
            F32x8::load(&lo[c * 8..]),
            F32x8::load(&hi[c * 8..]),
            &mut out,
            &mut inside,
        );
    }
    if rem > 0 {
        let at = full * 8;
        step(
            load_tail(&p[at..]),
            load_tail(&cen[at..]),
            load_tail(&lo[at..]),
            load_tail(&hi[at..]),
            &mut out,
            &mut inside,
        );
    }
    (out.hsum(), inside.hsum())
}

/// [`d_pb_bounds_parts`] with the bounds derived on the fly from a
/// `(cen, raw off)` box: per lane `half = relu(off)`, `lo = cen - half`,
/// `hi = cen + half` — the exact values `prepare_box_bounds` materialises,
/// so both forms produce bit-identical totals.
#[inline]
pub fn d_pb_box_parts(p: &[f32], cen: &[f32], off: &[f32]) -> (f32, f32) {
    debug_assert_eq!(p.len(), cen.len());
    debug_assert_eq!(p.len(), off.len());
    let (full, rem) = chunks(p.len());
    let mut out = F32x8::zero();
    let mut inside = F32x8::zero();
    #[inline(always)]
    fn step(vp: F32x8, vc: F32x8, vo: F32x8, out: &mut F32x8, inside: &mut F32x8) {
        let half = vo.relu();
        let vl = vc.sub(half);
        let vh = vc.add(half);
        *out = out.add(vp.sub(vh).relu().add(vl.sub(vp).relu()));
        let clamped = vp.max(vl).min(vh);
        *inside = inside.add(vc.sub(clamped).abs());
    }
    for c in 0..full {
        step(
            F32x8::load(&p[c * 8..]),
            F32x8::load(&cen[c * 8..]),
            F32x8::load(&off[c * 8..]),
            &mut out,
            &mut inside,
        );
    }
    if rem > 0 {
        let at = full * 8;
        step(
            load_tail(&p[at..]),
            load_tail(&cen[at..]),
            load_tail(&off[at..]),
            &mut out,
            &mut inside,
        );
    }
    (out.hsum(), inside.hsum())
}

/// Lane-striped fused point-to-box distance of the **training** op
/// `Tape::d_pb_rows`: a single interleaved accumulator folding
/// `(over + under) + inside_weight · inside` per dimension (deliberately
/// a different fold from the inference kernels' separate out/in groups,
/// matching the fused op's documented contract).
#[inline]
pub fn d_pb_row_interleaved(p: &[f32], cen: &[f32], off: &[f32], inside_weight: f32) -> f32 {
    debug_assert_eq!(p.len(), cen.len());
    debug_assert_eq!(p.len(), off.len());
    let (full, rem) = chunks(p.len());
    let w = F32x8::splat(inside_weight);
    let mut acc = F32x8::zero();
    #[inline(always)]
    fn step(vp: F32x8, vc: F32x8, vo: F32x8, w: F32x8, acc: &mut F32x8) {
        let half = vo.relu();
        let vl = vc.sub(half);
        let vh = vc.add(half);
        let over = vp.sub(vh).relu();
        let under = vl.sub(vp).relu();
        let clamped = vp.max(vl).min(vh);
        let inside = vc.sub(clamped).abs();
        *acc = acc.add(over.add(under).add(w.mul(inside)));
    }
    for c in 0..full {
        step(
            F32x8::load(&p[c * 8..]),
            F32x8::load(&cen[c * 8..]),
            F32x8::load(&off[c * 8..]),
            w,
            &mut acc,
        );
    }
    if rem > 0 {
        let at = full * 8;
        step(
            load_tail(&p[at..]),
            load_tail(&cen[at..]),
            load_tail(&off[at..]),
            w,
            &mut acc,
        );
    }
    acc.hsum()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Independent scalar replica of the lane-striping contract: eight
    /// explicit accumulators and the pairwise tree, no F32x8.
    fn striped_sum(terms: impl Iterator<Item = (usize, f32)>) -> f32 {
        let mut lanes = [0.0f32; 8];
        for (k, t) in terms {
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

    fn vals(seed: u64, n: usize) -> Vec<f32> {
        // Deterministic mixed-magnitude values without pulling in rand.
        (0..n)
            .map(|i| {
                let mixed = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((i as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
                let x = ((mixed >> 33) as f32) / (u32::MAX >> 1) as f32;
                (x - 0.5) * 4.0
            })
            .collect()
    }

    #[test]
    fn lane_ops_match_scalar_semantics() {
        let a = [
            1.0f32,
            -0.0,
            0.0,
            -3.5,
            f32::MIN_POSITIVE,
            -1e-40,
            7.25,
            -2.0,
        ];
        let b = [0.5f32, 0.0, -0.0, -3.5, 0.0, 1e-40, -7.25, 8.0];
        let va = F32x8::load(&a);
        let vb = F32x8::load(&b);
        let max = va.max(vb).to_array();
        let min = va.min(vb).to_array();
        let abs = va.abs().to_array();
        let relu = va.relu().to_array();
        for j in 0..8 {
            assert_eq!(max[j].to_bits(), pmax(a[j], b[j]).to_bits(), "max lane {j}");
            assert_eq!(min[j].to_bits(), pmin(a[j], b[j]).to_bits(), "min lane {j}");
            assert_eq!(
                abs[j].to_bits(),
                f32::from_bits(a[j].to_bits() & 0x7fff_ffff).to_bits(),
                "abs lane {j}"
            );
            assert_eq!(relu[j].to_bits(), relu0(a[j]).to_bits(), "relu lane {j}");
        }
    }

    #[test]
    fn hsum_follows_the_documented_tree() {
        let a = [0.1f32, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
        let v = F32x8::load(&a);
        let b = [a[0] + a[4], a[1] + a[5], a[2] + a[6], a[3] + a[7]];
        let c = [b[0] + b[2], b[1] + b[3]];
        assert_eq!(v.hsum().to_bits(), (c[0] + c[1]).to_bits());
    }

    #[test]
    fn l1_row_is_lane_striped_across_remainders() {
        for d in [1usize, 3, 7, 8, 9, 15, 16, 17, 31, 32, 40] {
            let a = vals(d as u64, d);
            let b = vals(d as u64 + 99, d);
            let got = l1_row(&a, &b);
            let want = striped_sum((0..d).map(|k| (k, (a[k] - b[k]).abs())));
            assert_eq!(got.to_bits(), want.to_bits(), "dim {d}");
        }
    }

    #[test]
    fn bounds_and_box_forms_agree_bitwise() {
        for d in [4usize, 8, 13, 32] {
            let p = vals(d as u64, d);
            let cen = vals(d as u64 + 7, d);
            let off = vals(d as u64 + 13, d);
            let lo: Vec<f32> = cen.iter().zip(&off).map(|(&c, &o)| c - relu0(o)).collect();
            let hi: Vec<f32> = cen.iter().zip(&off).map(|(&c, &o)| c + relu0(o)).collect();
            let a = d_pb_box_parts(&p, &cen, &off);
            let b = d_pb_bounds_parts(&p, &cen, &lo, &hi);
            assert_eq!(a.0.to_bits(), b.0.to_bits(), "dim {d} d_out");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "dim {d} d_in");
        }
    }

    #[test]
    fn zero_padding_is_a_bit_exact_identity() {
        // A dim-5 row must equal the same row zero-padded to dim 8: the
        // remainder-lane contract in its purest form.
        let p = [0.7f32, -1.2, 0.0, -0.0, 2.5];
        let cen = [0.1f32, 0.2, -0.0, 0.0, -0.3];
        let off = [0.4f32, -0.1, 0.0, 0.2, 0.6];
        let pad = |s: &[f32]| {
            let mut v = s.to_vec();
            v.resize(8, 0.0);
            v
        };
        let a = d_pb_box_parts(&p, &cen, &off);
        let b = d_pb_box_parts(&pad(&p), &pad(&cen), &pad(&off));
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
        let ai = d_pb_row_interleaved(&p, &cen, &off, 0.5);
        let bi = d_pb_row_interleaved(&pad(&p), &pad(&cen), &pad(&off), 0.5);
        assert_eq!(ai.to_bits(), bi.to_bits());
    }
}

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
//! Three row kernels: [`l1_row`] (point-to-point L1),
//! [`d_pb_bounds_parts`] (the one inference point-to-box kernel; a
//! `(cen, off)` box first materialises `cen ∓ relu0(off)`) and
//! [`d_pb_row_interleaved`] (the training op `Tape::d_pb_rows`).
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
//! * x86_64 default: [`F32x8`] is two `__m128` halves via SSE2
//!   intrinsics. SSE2 is part of the x86_64 baseline, so every kernel
//!   runs on it with no runtime check.
//! * AVX2, for the full item scan only. The [`d_pb_bounds_parts`] lane
//!   program is written once, generic over a small lane trait, and
//!   instantiated a second time on one `__m256`: lane-wise add, sub,
//!   max, min and and-abs, no FMA, and an `hsum` that adds the low and
//!   high 128-bit halves and then runs the same pairwise tree. Each lane
//!   sees the same IEEE operations in the same order as on SSE2, so every
//!   score is bit-identical by construction. [`Avx2::detect`] checks the
//!   CPU (the item scorer does so once, at construction), and
//!   [`Avx2::score_rows`] runs the whole row loop inside one
//!   `#[target_feature(enable = "avx2")]` function: AVX2 is entered once
//!   per scan, never once per item.
//! * `scalar-fallback` feature (or any non-x86_64 target): a plain
//!   `[f32; 8]` loop body implementing the identical lane semantics. No
//!   AVX2 code is compiled, and [`Avx2::detect`] returns `None`.
//!
//! The testkit's `simd` suite proptests every kernel against the scalar
//! oracles across remainder-lane dims, signed zeros, and subnormals, the
//! AVX2 instance included when the CPU has it; CI runs it under both
//! builds.

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
    /// The name of this build's lane backend.
    pub const BACKEND: &'static str = "sse2";

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
    /// The name of this build's lane backend.
    pub const BACKEND: &'static str = "portable";

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

// ---------------------------------------------------------------------
// Lanes: the operation set of the scoring lane program
// ---------------------------------------------------------------------

/// What the [`d_pb_bounds_parts`] lane program needs of eight f32 lanes:
/// lane-wise ops and the pinned [`F32x8::hsum`] tree. [`F32x8`]
/// implements it, and so does the one-`__m256` type of the AVX2 path.
trait Lanes: Copy {
    fn zero() -> Self;
    /// Loads lanes from `s[0..8]`.
    fn load(s: &[f32]) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn max(self, o: Self) -> Self;
    fn min(self, o: Self) -> Self;
    fn abs(self) -> Self;
    fn hsum(self) -> f32;

    /// A hint to start loading the cache line holding `x`; a no-op unless
    /// the backend overrides it.
    #[inline(always)]
    fn prefetch(x: &f32) {
        let _ = x;
    }

    /// Loads up to 8 elements of `s` into lanes `0..s.len()`, zero-filling
    /// the rest — the remainder-chunk load of the lane-striping contract.
    #[inline(always)]
    fn load_tail(s: &[f32]) -> Self {
        debug_assert!(s.len() < 8);
        let mut buf = [0.0f32; 8];
        buf[..s.len()].copy_from_slice(s);
        Self::load(&buf)
    }
}

impl Lanes for F32x8 {
    #[inline(always)]
    fn zero() -> Self {
        F32x8::zero()
    }
    #[inline(always)]
    fn load(s: &[f32]) -> Self {
        F32x8::load(s)
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        F32x8::add(self, o)
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        F32x8::sub(self, o)
    }
    #[inline(always)]
    fn max(self, o: Self) -> Self {
        F32x8::max(self, o)
    }
    #[inline(always)]
    fn min(self, o: Self) -> Self {
        F32x8::min(self, o)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        F32x8::abs(self)
    }
    #[inline(always)]
    fn hsum(self) -> f32 {
        F32x8::hsum(self)
    }
}

/// Lane-wise `relu` under the kernel contract: `max(x, +0.0)`.
#[inline(always)]
fn relu<L: Lanes>(v: L) -> L {
    v.max(L::zero())
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
        let va = F32x8::load_tail(&a[full * 8..]);
        let vb = F32x8::load_tail(&b[full * 8..]);
        acc = acc.add(va.sub(vb).abs());
    }
    acc.hsum()
}

/// Lane-striped `(D_out, D_in)` of one point against per-dimension box
/// bounds `lo`/`hi` and center `cen` — the one inference point-to-box
/// kernel, behind `geometry::d_pb`/`d_pb_weighted`, `ItemScorer` and the
/// IVF probe's centroid distance. Separate
/// outside/inside accumulator groups; per dimension:
/// `out += relu(p - hi) + relu(lo - p)`,
/// `in += |cen - clamp(p, lo, hi)|` with `clamp = pmin(pmax(p, lo), hi)`.
#[inline]
pub fn d_pb_bounds_parts(p: &[f32], cen: &[f32], lo: &[f32], hi: &[f32]) -> (f32, f32) {
    bounds_parts::<F32x8>(p, cen, lo, hi)
}

/// The lane program of [`d_pb_bounds_parts`], written once for every
/// [`Lanes`] width. Every helper it calls is an `#[inline(always)]` fn,
/// so inside a `target_feature` function the whole program inlines.
#[inline(always)]
fn bounds_parts<L: Lanes>(p: &[f32], cen: &[f32], lo: &[f32], hi: &[f32]) -> (f32, f32) {
    debug_assert_eq!(p.len(), cen.len());
    debug_assert_eq!(p.len(), lo.len());
    debug_assert_eq!(p.len(), hi.len());
    #[inline(always)]
    fn step<L: Lanes>(vp: L, vc: L, vl: L, vh: L, out: &mut L, inside: &mut L) {
        *out = out.add(relu(vp.sub(vh)).add(relu(vl.sub(vp))));
        let clamped = vp.max(vl).min(vh);
        *inside = inside.add(vc.sub(clamped).abs());
    }
    let mut out = L::zero();
    let mut inside = L::zero();
    let (ps, cs) = (p.chunks_exact(8), cen.chunks_exact(8));
    let (ls, hs) = (lo.chunks_exact(8), hi.chunks_exact(8));
    let tail = (
        ps.remainder(),
        cs.remainder(),
        ls.remainder(),
        hs.remainder(),
    );
    for (((p8, c8), l8), h8) in ps.zip(cs).zip(ls).zip(hs) {
        step(
            L::load(p8),
            L::load(c8),
            L::load(l8),
            L::load(h8),
            &mut out,
            &mut inside,
        );
    }
    if !tail.0.is_empty() {
        step(
            L::load_tail(tail.0),
            L::load_tail(tail.1),
            L::load_tail(tail.2),
            L::load_tail(tail.3),
            &mut out,
            &mut inside,
        );
    }
    (out.hsum(), inside.hsum())
}

/// How far ahead of the row being scored the AVX2 row loop prefetches.
/// Measured on the 40k × 32 catalog (5 MB) on a 2-vCPU host: a scan of a
/// matrix just evicted from cache took 1.35 ms without prefetch, 0.87 ms
/// at 2 KiB ahead, 0.78 ms at 4 KiB and 0.80 ms at 8 KiB; a warm scan
/// took 0.62–0.64 ms at every distance. Without it the AVX2 scan is
/// memory-bound whenever its matrix is not cache-resident.
const PREFETCH_BYTES: usize = 8192;

/// A box prepared for scoring item rows against it, Eq. (29):
/// `γ − (D_out + w·D_in)`, with `(D_out, D_in)` from
/// [`d_pb_bounds_parts`] over the per-dimension bounds `lo`/`hi` and the
/// centre `cen`.
#[derive(Clone, Copy)]
pub struct PreparedBox<'a> {
    /// Box centre, one entry per dimension.
    pub cen: &'a [f32],
    /// Lower box corner, `cen − relu(off)`.
    pub lo: &'a [f32],
    /// Upper box corner, `cen + relu(off)`.
    pub hi: &'a [f32],
    /// The score offset `γ`.
    pub gamma: f32,
    /// Weight `w` of the inside distance.
    pub inside_weight: f32,
}

impl PreparedBox<'_> {
    /// The score of one row, on [`F32x8`].
    #[inline]
    pub fn score(&self, row: &[f32]) -> f32 {
        self.score_in::<F32x8>(row)
    }

    /// Scores each `cen.len()`-wide row of the row-major `items` into the
    /// matching slot of `out`, on [`F32x8`]. [`Avx2::score_rows`] computes
    /// the same bits.
    pub fn score_rows(&self, items: &[f32], out: &mut [f32]) {
        self.score_rows_in::<F32x8>(items, out);
    }

    #[inline(always)]
    fn score_in<L: Lanes>(&self, row: &[f32]) -> f32 {
        let (out, inside) = bounds_parts::<L>(row, self.cen, self.lo, self.hi);
        self.gamma - (out + self.inside_weight * inside)
    }

    /// The row loop. Before scoring row `r` it asks, line by line, for
    /// the row [`PREFETCH_BYTES`] further on, so a matrix that has left the
    /// cache streams in ahead of the arithmetic instead of stalling it.
    /// Only the AVX2 lanes prefetch; on [`F32x8`] the scan is
    /// compute-bound and the hint compiles away.
    #[inline(always)]
    fn score_rows_in<L: Lanes>(&self, items: &[f32], out: &mut [f32]) {
        let d = self.cen.len();
        debug_assert_eq!(items.len(), out.len() * d);
        const AHEAD: usize = PREFETCH_BYTES / 4;
        for (r, (row, score)) in items.chunks_exact(d).zip(out).enumerate() {
            let next = r * d + AHEAD;
            for at in (next..next + d).step_by(16) {
                if let Some(x) = items.get(at) {
                    L::prefetch(x);
                }
            }
            *score = self.score_in::<L>(row);
        }
    }
}

/// Proof that the running CPU has AVX2: the only way to run the
/// one-`__m256` instance of the scoring lane program. Get one from
/// [`Avx2::detect`]; its results are bit-identical to [`F32x8`]'s.
#[derive(Debug, Clone, Copy)]
pub struct Avx2(Avx2Proof);

#[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
type Avx2Proof = ();

/// Uninhabited: builds without the AVX2 path can hold no [`Avx2`].
#[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-fallback"))))]
type Avx2Proof = std::convert::Infallible;

impl Avx2 {
    /// `Some` when this build has the AVX2 path (x86_64 without
    /// `scalar-fallback`) and the running CPU supports AVX2.
    pub fn detect() -> Option<Self> {
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Some(Self(()));
        }
        None
    }

    /// [`d_pb_bounds_parts`] at AVX2 width.
    pub fn d_pb_bounds_parts(self, p: &[f32], cen: &[f32], lo: &[f32], hi: &[f32]) -> (f32, f32) {
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
        {
            // SAFETY: `self` exists only once AVX2 was detected.
            unsafe { avx2::bounds_parts(p, cen, lo, hi) }
        }
        #[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-fallback"))))]
        {
            let _ = (p, cen, lo, hi);
            match self.0 {}
        }
    }

    /// [`PreparedBox::score_rows`] at AVX2 width: the whole row loop runs
    /// inside one `target_feature` function.
    pub fn score_rows(self, q: &PreparedBox<'_>, items: &[f32], out: &mut [f32]) {
        #[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
        {
            // SAFETY: `self` exists only once AVX2 was detected.
            unsafe { avx2::score_rows(q, items, out) }
        }
        #[cfg(not(all(target_arch = "x86_64", not(feature = "scalar-fallback"))))]
        {
            let _ = (q, items, out);
            match self.0 {}
        }
    }
}

/// The one-`__m256` lane type and the `target_feature` entry points that
/// instantiate the lane program on it.
#[cfg(all(target_arch = "x86_64", not(feature = "scalar-fallback")))]
mod avx2 {
    use std::arch::x86_64::*;

    use super::{Lanes, PreparedBox};

    /// Eight f32 lanes in one `__m256`, lane for lane the same ops as
    /// [`F32x8`](super::F32x8)'s two `__m128` halves, and no FMA.
    ///
    /// SAFETY of every method: the type is private to this module and is
    /// only instantiated by the `#[target_feature(enable = "avx2")]`
    /// functions below, which [`Avx2`](super::Avx2) enters only once AVX2
    /// was detected.
    #[derive(Clone, Copy)]
    struct Lanes256(__m256);

    impl Lanes for Lanes256 {
        #[inline(always)]
        fn zero() -> Self {
            unsafe { Self(_mm256_setzero_ps()) }
        }
        #[inline(always)]
        fn load(s: &[f32]) -> Self {
            assert!(s.len() >= 8, "Lanes256::load needs 8 elements");
            // SAFETY: bounds asserted above; loadu has no alignment demands.
            unsafe { Self(_mm256_loadu_ps(s.as_ptr())) }
        }
        #[inline(always)]
        fn add(self, o: Self) -> Self {
            unsafe { Self(_mm256_add_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn sub(self, o: Self) -> Self {
            unsafe { Self(_mm256_sub_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn max(self, o: Self) -> Self {
            unsafe { Self(_mm256_max_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn min(self, o: Self) -> Self {
            unsafe { Self(_mm256_min_ps(self.0, o.0)) }
        }
        #[inline(always)]
        fn abs(self) -> Self {
            unsafe {
                let m = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
                Self(_mm256_and_ps(self.0, m))
            }
        }
        /// Adds the low and high 128-bit halves (`[a0+a4, …, a3+a7]`),
        /// then runs [`F32x8::hsum`](super::F32x8::hsum)'s tree.
        #[inline(always)]
        fn hsum(self) -> f32 {
            unsafe {
                let b = _mm_add_ps(
                    _mm256_castps256_ps128(self.0),
                    _mm256_extractf128_ps::<1>(self.0),
                );
                let hi = _mm_movehl_ps(b, b);
                let c = _mm_add_ps(b, hi);
                let c1 = _mm_shuffle_ps::<0b01>(c, c);
                _mm_cvtss_f32(_mm_add_ss(c, c1))
            }
        }
        #[inline(always)]
        fn prefetch(x: &f32) {
            unsafe { _mm_prefetch::<_MM_HINT_T0>((x as *const f32).cast()) }
        }
        /// One masked load: lanes past `s.len()` are neither read nor
        /// kept (they load `+0.0`), and no copy routine is called.
        #[inline(always)]
        fn load_tail(s: &[f32]) -> Self {
            debug_assert!(s.len() < 8);
            unsafe {
                let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
                let mask = _mm256_cmpgt_epi32(_mm256_set1_epi32(s.len() as i32), lanes);
                // SAFETY: only the `s.len()` lanes the mask enables are read.
                Self(_mm256_maskload_ps(s.as_ptr(), mask))
            }
        }
    }

    /// [`d_pb_bounds_parts`](super::d_pb_bounds_parts) on [`Lanes256`].
    #[target_feature(enable = "avx2")]
    pub(super) fn bounds_parts(p: &[f32], cen: &[f32], lo: &[f32], hi: &[f32]) -> (f32, f32) {
        super::bounds_parts::<Lanes256>(p, cen, lo, hi)
    }

    /// The full row loop of [`PreparedBox::score_rows`] on [`Lanes256`].
    #[target_feature(enable = "avx2")]
    pub(super) fn score_rows(q: &PreparedBox<'_>, items: &[f32], out: &mut [f32]) {
        q.score_rows_in::<Lanes256>(items, out);
    }
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
            F32x8::load_tail(&p[at..]),
            F32x8::load_tail(&cen[at..]),
            F32x8::load_tail(&off[at..]),
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
        let lo: Vec<f32> = cen.iter().zip(&off).map(|(&c, &o)| c - relu0(o)).collect();
        let hi: Vec<f32> = cen.iter().zip(&off).map(|(&c, &o)| c + relu0(o)).collect();
        let a = d_pb_bounds_parts(&p, &cen, &lo, &hi);
        let b = d_pb_bounds_parts(&pad(&p), &pad(&cen), &pad(&lo), &pad(&hi));
        assert_eq!(a.0.to_bits(), b.0.to_bits());
        assert_eq!(a.1.to_bits(), b.1.to_bits());
        let ai = d_pb_row_interleaved(&p, &cen, &off, 0.5);
        let bi = d_pb_row_interleaved(&pad(&p), &pad(&cen), &pad(&off), 0.5);
        assert_eq!(ai.to_bits(), bi.to_bits());
    }
}

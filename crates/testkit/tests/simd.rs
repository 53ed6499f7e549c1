//! SIMD-vs-scalar bit-identity suite for every row-kernel entry point.
//!
//! The workspace's reduction-order contract (`inbox_autodiff::simd`, DESIGN
//! §13) promises that the SIMD kernels are **bit-identical** to a scalar
//! program that follows the same lane-striped fold: term `k` accumulates
//! into lane `k % 8`, the eight lanes reduce through the fixed pairwise
//! tree, min/max are selects with `maxps`/`minps` semantics. This suite
//! holds the production kernels to that promise against replicas written
//! *here*, with plain arrays and explicit adds — independent of both the
//! kernel implementation and the `testkit::oracle` copies.
//!
//! Inputs deliberately include the values where floating-point folds and
//! select-based min/max diverge from naive scalar code: ±0.0, subnormals,
//! tiny/normal magnitude mixes, and every remainder-lane width (dims not
//! divisible by 8). The same assertions run in CI under the default
//! (intrinsics) build *and* `--features scalar-fallback`, proving both
//! backends implement the same contract. The AVX2 instance of the scoring
//! lane program runs against the same replica wherever the CPU has AVX2.

use inbox_core::geometry::{self, BoxEmb};
use inbox_core::simd::{d_pb_bounds_parts, d_pb_row_interleaved, l1_row, Avx2, PreparedBox};
use proptest::prelude::*;

/// Largest dimensionality exercised; covers 5 full chunks and every
/// remainder width 1..=7 as `dim` sweeps 1..=MAX_DIM.
const MAX_DIM: usize = 40;

/// Largest dimensionality of the AVX2 sweep: 8 full chunks plus every
/// remainder width, each dim in `1..=AVX2_MAX_DIM` checked per case.
const AVX2_MAX_DIM: usize = 70;

// ---------------------------------------------------------------------
// Independent scalar replica of the reduction-order contract
// ---------------------------------------------------------------------

/// Select-based max (`maxps`: second operand wins ties/unordered).
fn smax(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// Select-based min (`minps`).
fn smin(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `relu` as the kernels define it: `smax(x, 0.0)` (so `-0.0 → +0.0`).
fn relu(x: f32) -> f32 {
    smax(x, 0.0)
}

/// The lane-striped fold: eight explicit accumulators, pairwise tree.
fn striped(terms: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for (k, &t) in terms.iter().enumerate() {
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

// ---------------------------------------------------------------------
// Input strategies: remainder widths + adversarial lane values
// ---------------------------------------------------------------------

/// One coordinate: signed zeros, subnormals, smallest normals, and two
/// magnitude bands that force cancellation and rounding in the folds.
fn lane_value() -> impl Strategy<Value = f32> {
    prop_oneof![
        Just(0.0f32),
        Just(-0.0f32),
        Just(1.1e-41f32),        // subnormal
        Just(-7.0e-42f32),       // subnormal
        Just(f32::MIN_POSITIVE), // smallest normal
        Just(-f32::MIN_POSITIVE),
        -4.0f32..4.0,
        -2.0e-4f32..2.0e-4,
    ]
}

fn row() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(lane_value(), MAX_DIM)
}

fn avx2_row() -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(lane_value(), AVX2_MAX_DIM)
}

/// The CPU's AVX2 instance, or `None` with one note on stderr: the AVX2
/// tests pass vacuously on a CPU (or build) without it.
fn avx2() -> Option<Avx2> {
    static NOTE: std::sync::Once = std::sync::Once::new();
    let found = Avx2::detect();
    if found.is_none() {
        NOTE.call_once(|| eprintln!("AVX2 absent (CPU or build): AVX2 lane tests skipped"));
    }
    found
}

fn dim() -> impl Strategy<Value = usize> {
    1usize..=MAX_DIM
}

/// Per-dimension `(out, inside)` terms of the inference kernels, given
/// prematerialised bounds: `out = relu(p-hi) + relu(lo-p)`,
/// `inside = |cen - clamp(p, lo, hi)|` with a select-based clamp.
fn parts_terms(p: &[f32], cen: &[f32], lo: &[f32], hi: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let out = (0..p.len())
        .map(|k| relu(p[k] - hi[k]) + relu(lo[k] - p[k]))
        .collect();
    let inside = (0..p.len())
        .map(|k| (cen[k] - smin(smax(p[k], lo[k]), hi[k])).abs())
        .collect();
    (out, inside)
}

proptest! {
    /// `l1_row` (behind `geometry::d_pp` and `Tape::l1_rows`) equals the
    /// striped fold of `|a - b|`, to the bit, at every remainder width.
    #[test]
    fn l1_row_is_bit_identical_to_the_striped_replica(
        d in dim(),
        a in row(),
        b in row(),
    ) {
        let (a, b) = (&a[..d], &b[..d]);
        let terms: Vec<f32> = a.iter().zip(b).map(|(&x, &y)| (x - y).abs()).collect();
        let want = striped(&terms);
        let got = l1_row(a, b);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "dim {}: {} vs {}", d, got, want);
        prop_assert_eq!(got.to_bits(), geometry::d_pp(a, b).to_bits());
        prop_assert!(got.is_finite() && got >= 0.0, "dim {}: {}", d, got);
    }

    /// `d_pb_bounds_parts` — the inference kernel behind `ItemScorer` and
    /// `geometry::d_pb`/`d_pb_weighted` — equals the striped replica on
    /// both accumulator groups, to the bit, and the geometry entry points
    /// are exactly its parts.
    #[test]
    fn bounds_parts_are_bit_identical_to_the_striped_replica(
        d in dim(),
        p in row(),
        cen in row(),
        off in row(),
    ) {
        let (p, cen, off) = (&p[..d], &cen[..d], &off[..d]);
        // The exact bounds `prepare_box_bounds` materialises.
        let lo: Vec<f32> = (0..d).map(|k| cen[k] - relu(off[k])).collect();
        let hi: Vec<f32> = (0..d).map(|k| cen[k] + relu(off[k])).collect();
        let (out_terms, in_terms) = parts_terms(p, cen, &lo, &hi);
        let (want_out, want_in) = (striped(&out_terms), striped(&in_terms));
        let (got_out, got_in) = d_pb_bounds_parts(p, cen, &lo, &hi);
        prop_assert_eq!(got_out.to_bits(), want_out.to_bits(), "dim {} out", d);
        prop_assert_eq!(got_in.to_bits(), want_in.to_bits(), "dim {} inside", d);
        prop_assert!(got_out.is_finite() && got_out >= 0.0);
        prop_assert!(got_in.is_finite() && got_in >= 0.0);
        let b = BoxEmb::new(cen.to_vec(), off.to_vec());
        prop_assert_eq!(geometry::d_pb(p, &b).to_bits(), (got_out + got_in).to_bits());
        prop_assert_eq!(
            geometry::d_pb_weighted(p, &b, 0.5).to_bits(),
            (got_out + 0.5 * got_in).to_bits()
        );
    }

    /// The AVX2 instance of the `d_pb_bounds_parts` lane program equals
    /// the striped replica on both accumulator groups, to the bit, at
    /// every dim from 1 to `AVX2_MAX_DIM`; its row loop equals the
    /// `F32x8` row loop on the same rows.
    #[test]
    fn avx2_bounds_parts_are_bit_identical_to_the_striped_replica(
        p in avx2_row(),
        cen in avx2_row(),
        off in avx2_row(),
        w in prop_oneof![Just(0.0f32), Just(1.0f32), 0.0f32..2.0],
    ) {
        let Some(avx2) = avx2() else { return Ok(()) };
        for d in 1..=AVX2_MAX_DIM {
            let (p, cen, off) = (&p[..d], &cen[..d], &off[..d]);
            let lo: Vec<f32> = (0..d).map(|k| cen[k] - relu(off[k])).collect();
            let hi: Vec<f32> = (0..d).map(|k| cen[k] + relu(off[k])).collect();
            let (out_terms, in_terms) = parts_terms(p, cen, &lo, &hi);
            let (want_out, want_in) = (striped(&out_terms), striped(&in_terms));
            let (got_out, got_in) = avx2.d_pb_bounds_parts(p, cen, &lo, &hi);
            prop_assert_eq!(got_out.to_bits(), want_out.to_bits(), "dim {} out", d);
            prop_assert_eq!(got_in.to_bits(), want_in.to_bits(), "dim {} inside", d);

            // Three item rows, scored by both row loops.
            let items = [p, off, cen].concat();
            let q = PreparedBox { cen, lo: &lo, hi: &hi, gamma: 2.5, inside_weight: w };
            let (mut wide, mut narrow) = ([0.0f32; 3], [0.0f32; 3]);
            avx2.score_rows(&q, &items, &mut wide);
            q.score_rows(&items, &mut narrow);
            prop_assert_eq!(wide.map(f32::to_bits), narrow.map(f32::to_bits), "dim {} rows", d);
            prop_assert_eq!(
                wide[0].to_bits(),
                (2.5 - (want_out + w * want_in)).to_bits(),
                "dim {} score",
                d
            );
        }
    }

    /// `d_pb_row_interleaved` — the training op's fused kernel — equals
    /// the striped fold of the interleaved per-dimension terms
    /// `(over + under) + w·inside`, to the bit.
    #[test]
    fn interleaved_row_is_bit_identical_to_the_striped_replica(
        d in dim(),
        p in row(),
        cen in row(),
        off in row(),
        w in prop_oneof![Just(0.0f32), Just(1.0f32), 0.0f32..2.0],
    ) {
        let (p, cen, off) = (&p[..d], &cen[..d], &off[..d]);
        let terms: Vec<f32> = (0..d)
            .map(|k| {
                let half = relu(off[k]);
                let (lo, hi) = (cen[k] - half, cen[k] + half);
                let over = relu(p[k] - hi);
                let under = relu(lo - p[k]);
                let inside = (cen[k] - smin(smax(p[k], lo), hi)).abs();
                (over + under) + w * inside
            })
            .collect();
        let want = striped(&terms);
        let got = d_pb_row_interleaved(p, cen, off, w);
        prop_assert_eq!(got.to_bits(), want.to_bits(), "dim {}: {} vs {}", d, got, want);
        prop_assert!(got.is_finite() && got >= 0.0, "dim {}: {}", d, got);
    }

    /// Zero-padding identity: appending zero dimensions to every operand
    /// never changes any kernel's bits — the exact property the remainder
    /// (`load_tail`) path relies on.
    #[test]
    fn zero_padding_never_changes_the_bits(
        d in 1usize..=16,
        pad in 1usize..=9,
        p in row(),
        cen in row(),
        off in row(),
    ) {
        let (p, cen, off) = (&p[..d], &cen[..d], &off[..d]);
        let extend = |s: &[f32]| {
            let mut v = s.to_vec();
            v.resize(d + pad, 0.0);
            v
        };
        let (pp, pc, po) = (extend(p), extend(cen), extend(off));
        prop_assert_eq!(l1_row(p, cen).to_bits(), l1_row(&pp, &pc).to_bits());
        let lo: Vec<f32> = (0..d).map(|k| cen[k] - relu(off[k])).collect();
        let hi: Vec<f32> = (0..d).map(|k| cen[k] + relu(off[k])).collect();
        let (o1, i1) = d_pb_bounds_parts(p, cen, &lo, &hi);
        let (o2, i2) = d_pb_bounds_parts(&pp, &pc, &extend(&lo), &extend(&hi));
        prop_assert_eq!(o1.to_bits(), o2.to_bits());
        prop_assert_eq!(i1.to_bits(), i2.to_bits());
        prop_assert_eq!(
            d_pb_row_interleaved(p, cen, off, 0.5).to_bits(),
            d_pb_row_interleaved(&pp, &pc, &po, 0.5).to_bits()
        );
    }
}

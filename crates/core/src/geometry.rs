//! Pure-`f32` box geometry: the representation of Section 3.1 and the
//! distance functions of Section 3.2, without the autodiff tape: for
//! explanations, tests and examples (serving scores through `ItemScorer`).
//!
//! A box embedding is `b = (Cen(b), Off(b)) ∈ R^{2d}`; its extent on each
//! dimension is `Cen(b) ± σ(Off(b))` with `σ = ReLU` (Eq. (1)). Items are
//! points `v ∈ R^d`. Three distances drive training and scoring:
//!
//! * [`d_pp`] — point-to-point L1 distance (Eq. (3), IRI triples),
//! * [`d_bb`] — box-to-box distance over centers and softplus'd offsets
//!   (Eq. (6), TRT triples),
//! * [`d_pb`] — point-to-box distance `D_out + D_in` (Eq. (7)–(9), IRT
//!   triples, stage-2 intersections and final scoring, Eq. (29)).

use crate::simd::{d_pb_bounds_parts, relu0};

/// An owned box embedding: center and raw offset (offset may contain
/// negative entries; the effective half-width is `relu(off)`).
#[derive(Debug, Clone, PartialEq)]
pub struct BoxEmb {
    /// Center point `Cen(b)`.
    pub cen: Vec<f32>,
    /// Raw offset `Off(b)` (pre-ReLU).
    pub off: Vec<f32>,
}

impl BoxEmb {
    /// Creates a box from center and raw offset. Panics on dimension mismatch.
    pub fn new(cen: Vec<f32>, off: Vec<f32>) -> Self {
        assert_eq!(cen.len(), off.len(), "box center/offset dims differ");
        Self { cen, off }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.cen.len()
    }

    /// Upper corner `b^max = Cen(b) + σ(Off(b))` (Eq. (10)).
    pub fn upper(&self) -> Vec<f32> {
        self.cen
            .iter()
            .zip(&self.off)
            .map(|(&c, &o)| c + o.max(0.0))
            .collect()
    }

    /// Lower corner `b^min = Cen(b) - σ(Off(b))` (Eq. (11)).
    pub fn lower(&self) -> Vec<f32> {
        self.cen
            .iter()
            .zip(&self.off)
            .map(|(&c, &o)| c - o.max(0.0))
            .collect()
    }

    /// True when `point` lies inside the box on every dimension.
    pub fn contains(&self, point: &[f32]) -> bool {
        debug_assert_eq!(point.len(), self.dim());
        self.cen
            .iter()
            .zip(&self.off)
            .zip(point)
            .all(|((&c, &o), &p)| {
                let half = o.max(0.0);
                (c - half..=c + half).contains(&p)
            })
    }

    /// Box volume proxy: sum of effective half-widths (L1 "size").
    pub fn l1_size(&self) -> f32 {
        self.off.iter().map(|&o| o.max(0.0)).sum()
    }

    /// Projects a tag box through a relation box (Eq. (4), (5)):
    /// `Cen(b') = Cen(b_t) + Cen(b_r)`, `Off(b') = σ(Off(b_t)) + Off(b_r)`.
    pub fn project(&self, relation: &BoxEmb) -> BoxEmb {
        debug_assert_eq!(self.dim(), relation.dim());
        let cen = self
            .cen
            .iter()
            .zip(&relation.cen)
            .map(|(&t, &r)| t + r)
            .collect();
        let off = self
            .off
            .iter()
            .zip(&relation.off)
            .map(|(&t, &r)| t.max(0.0) + r)
            .collect();
        BoxEmb::new(cen, off)
    }

    /// Max-Min intersection of several boxes (Eq. (17)–(20)):
    /// upper corner is the elementwise min of the upper corners, lower corner
    /// the elementwise max of the lower corners; an empty intersection
    /// degenerates to a zero-width box at the midpoint.
    pub fn intersect_max_min(boxes: &[BoxEmb]) -> BoxEmb {
        assert!(!boxes.is_empty(), "intersection of zero boxes is undefined");
        let d = boxes[0].dim();
        let mut upper = boxes[0].upper();
        let mut lower = boxes[0].lower();
        for b in &boxes[1..] {
            debug_assert_eq!(b.dim(), d);
            for (u, bu) in upper.iter_mut().zip(b.upper()) {
                *u = u.min(bu);
            }
            for (l, bl) in lower.iter_mut().zip(b.lower()) {
                *l = l.max(bl);
            }
        }
        let cen = upper
            .iter()
            .zip(&lower)
            .map(|(&u, &l)| (u + l) / 2.0)
            .collect();
        let off = upper
            .iter()
            .zip(&lower)
            .map(|(&u, &l)| ((u - l) / 2.0).max(0.0))
            .collect();
        BoxEmb::new(cen, off)
    }
}

/// Point-to-point L1 distance `D_PP` (Eq. (3)), summed in the
/// lane-striped order of [`crate::simd`].
pub fn d_pp(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    crate::simd::l1_row(a, b)
}

/// Box-to-box distance `D_BB` (Eq. (6)): L1 between centers plus L1 between
/// effective (ReLU'd) offsets.
pub fn d_bb(a: &BoxEmb, b: &BoxEmb) -> f32 {
    debug_assert_eq!(a.dim(), b.dim());
    let cen: f32 = d_pp(&a.cen, &b.cen);
    let off: f32 = a
        .off
        .iter()
        .zip(&b.off)
        .map(|(&x, &y)| (x.max(0.0) - y.max(0.0)).abs())
        .sum();
    cen + off
}

/// Outside distance `D_out` (Eq. (8)): how far the point sticks out of the
/// box, per dimension.
pub fn d_out(point: &[f32], b: &BoxEmb) -> f32 {
    debug_assert_eq!(point.len(), b.dim());
    point
        .iter()
        .zip(b.cen.iter().zip(&b.off))
        .map(|(&p, (&cen, &off))| {
            let half = off.max(0.0);
            (p - (cen + half)).max(0.0) + ((cen - half) - p).max(0.0)
        })
        .sum()
}

/// Inside distance `D_in` (Eq. (9)): distance from the box center to the
/// point clamped into the box.
pub fn d_in(point: &[f32], b: &BoxEmb) -> f32 {
    debug_assert_eq!(point.len(), b.dim());
    point
        .iter()
        .zip(b.cen.iter().zip(&b.off))
        .map(|(&p, (&cen, &off))| {
            let half = off.max(0.0);
            (cen - p.clamp(cen - half, cen + half)).abs()
        })
        .sum()
}

/// Point-to-box distance `D_PB = D_out + D_in` (Eq. (7)): [`d_pb_weighted`]
/// at weight 1. The scalar [`d_out`] / [`d_in`] pair above is the readable
/// reference form, kept scalar on purpose as an independent cross-check
/// for the testkit.
pub fn d_pb(point: &[f32], b: &BoxEmb) -> f32 {
    d_pb_weighted(point, b, 1.0)
}

/// Point-to-box distance with a weighted inside term:
/// `D_out + α · D_in`, through the inference kernel [`d_pb_bounds_parts`]
/// on the bounds `cen ∓ relu0(off)` that `ItemScorer::prepare_box_bounds`
/// materialises, so it computes the scorer's bits.
///
/// Note on fidelity: Eq. (7) sums the two terms with equal weight, but the
/// unweighted sum is *flat in the box offset* — for a point outside the box,
/// growing the box reduces `D_out` by exactly the amount it adds to `D_in`,
/// so offsets receive no training signal and containment can never be
/// learned. Query2Box (Ren et al., 2020), which InBox's geometry builds on,
/// down-weights the inside term (`α = 0.02` there) for exactly this reason;
/// we expose the weight as `InBoxConfig::inside_weight`. See DESIGN.md.
pub fn d_pb_weighted(point: &[f32], b: &BoxEmb, inside_weight: f32) -> f32 {
    debug_assert_eq!(point.len(), b.dim());
    let cen_off = || b.cen.iter().zip(&b.off);
    let lo: Vec<f32> = cen_off().map(|(&c, &o)| c - relu0(o)).collect();
    let hi: Vec<f32> = cen_off().map(|(&c, &o)| c + relu0(o)).collect();
    let (out, inside) = d_pb_bounds_parts(point, &b.cen, &lo, &hi);
    out + inside_weight * inside
}

/// Matching score of Eq. (29): `γ - D_PB(v, b_u)`.
pub fn score(point: &[f32], user_box: &BoxEmb, gamma: f32) -> f32 {
    gamma - d_pb(point, user_box)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_box_at(cen: Vec<f32>, half: f32) -> BoxEmb {
        let d = cen.len();
        BoxEmb::new(cen, vec![half; d])
    }

    #[test]
    fn corners_and_containment() {
        let b = unit_box_at(vec![1.0, -1.0], 0.5);
        assert_eq!(b.upper(), vec![1.5, -0.5]);
        assert_eq!(b.lower(), vec![0.5, -1.5]);
        assert!(b.contains(&[1.0, -1.0]));
        assert!(b.contains(&[1.5, -0.5])); // boundary counts
        assert!(!b.contains(&[1.6, -1.0]));
        assert!(!b.contains(&[1.0, 0.0]));
    }

    #[test]
    fn negative_offsets_degenerate_to_point() {
        let b = BoxEmb::new(vec![2.0, 3.0], vec![-1.0, -0.1]);
        assert_eq!(b.upper(), vec![2.0, 3.0]);
        assert_eq!(b.lower(), vec![2.0, 3.0]);
        assert!(b.contains(&[2.0, 3.0]));
        assert!(!b.contains(&[2.0, 3.01]));
        assert_eq!(b.l1_size(), 0.0);
    }

    #[test]
    fn d_pp_is_l1() {
        assert_eq!(d_pp(&[1.0, 2.0], &[3.0, -1.0]), 5.0);
        assert_eq!(d_pp(&[0.0], &[0.0]), 0.0);
    }

    #[test]
    fn d_out_zero_iff_inside() {
        let b = unit_box_at(vec![0.0, 0.0], 1.0);
        assert_eq!(d_out(&[0.5, -0.5], &b), 0.0);
        assert_eq!(d_out(&[1.0, 1.0], &b), 0.0); // boundary
        assert_eq!(d_out(&[2.0, 0.0], &b), 1.0);
        assert_eq!(d_out(&[2.0, -3.0], &b), 3.0);
    }

    #[test]
    fn d_in_is_center_distance_clamped() {
        let b = unit_box_at(vec![0.0, 0.0], 1.0);
        // Inside: plain distance to center.
        assert_eq!(d_in(&[0.5, -0.25], &b), 0.75);
        // Outside: clamped to the border, so each dim contributes at most the
        // half-width.
        assert_eq!(d_in(&[5.0, 0.0], &b), 1.0);
        assert_eq!(d_in(&[5.0, -7.0], &b), 2.0);
    }

    #[test]
    fn d_pb_at_center_is_zero() {
        let b = unit_box_at(vec![0.3, -0.7], 0.4);
        assert_eq!(d_pb(&[0.3, -0.7], &b), 0.0);
        assert!(d_pb(&[0.3, -0.2], &b) > 0.0);
    }

    #[test]
    fn score_is_gamma_minus_distance() {
        let b = unit_box_at(vec![0.0], 1.0);
        assert_eq!(score(&[0.0], &b, 12.0), 12.0);
        assert!(score(&[5.0], &b, 12.0) < 12.0);
    }

    #[test]
    fn d_bb_center_and_size_components() {
        let a = unit_box_at(vec![0.0, 0.0], 1.0);
        let b = unit_box_at(vec![1.0, 0.0], 2.0);
        // centers differ by 1 on dim0; effective offsets differ by 1 on both dims.
        assert_eq!(d_bb(&a, &b), 1.0 + 2.0);
        assert_eq!(d_bb(&a, &a), 0.0);
        // Negative raw offsets are relu'd before comparison.
        let c = BoxEmb::new(vec![0.0, 0.0], vec![-5.0, -5.0]);
        let d = BoxEmb::new(vec![0.0, 0.0], vec![0.0, 0.0]);
        assert_eq!(d_bb(&c, &d), 0.0);
    }

    #[test]
    fn projection_translates_and_resizes() {
        let tag = unit_box_at(vec![1.0, 1.0], 1.0);
        let rel = BoxEmb::new(vec![0.5, -0.5], vec![0.5, -0.6]);
        let p = tag.project(&rel);
        assert_eq!(p.cen, vec![1.5, 0.5]);
        // off = relu(1.0) + rel.off: 1.5 on dim0, 0.4 on dim1.
        assert!((p.off[0] - 1.5).abs() < 1e-6);
        assert!((p.off[1] - 0.4).abs() < 1e-6);
        // A strongly negative relation offset can close the box entirely.
        let shrink = BoxEmb::new(vec![0.0, 0.0], vec![-2.0, -2.0]);
        let closed = tag.project(&shrink);
        assert_eq!(closed.upper(), closed.lower());
    }

    #[test]
    fn max_min_intersection_overlapping() {
        let a = unit_box_at(vec![0.0, 0.0], 1.0); // [-1,1]^2
        let b = unit_box_at(vec![1.0, 1.0], 1.0); // [0,2]^2
        let inter = BoxEmb::intersect_max_min(&[a.clone(), b.clone()]);
        assert_eq!(inter.cen, vec![0.5, 0.5]);
        assert_eq!(inter.off, vec![0.5, 0.5]);
        // Intersection is contained in both operands.
        assert!(a.contains(&inter.upper()) && a.contains(&inter.lower()));
        assert!(b.contains(&inter.upper()) && b.contains(&inter.lower()));
    }

    #[test]
    fn max_min_intersection_disjoint_is_empty_box() {
        let a = unit_box_at(vec![0.0], 1.0); // [-1,1]
        let b = unit_box_at(vec![5.0], 1.0); // [4,6]
        let inter = BoxEmb::intersect_max_min(&[a, b]);
        assert_eq!(inter.off, vec![0.0], "disjoint boxes give zero width");
        assert_eq!(inter.cen, vec![2.5], "center is the midpoint of the gap");
    }

    #[test]
    fn max_min_intersection_single_box_is_identity_region() {
        let a = BoxEmb::new(vec![1.0, 2.0], vec![0.5, -1.0]);
        let inter = BoxEmb::intersect_max_min(std::slice::from_ref(&a));
        assert_eq!(inter.upper(), a.upper());
        assert_eq!(inter.lower(), a.lower());
    }

    #[test]
    #[should_panic(expected = "intersection of zero boxes")]
    fn empty_intersection_panics() {
        let _ = BoxEmb::intersect_max_min(&[]);
    }
}

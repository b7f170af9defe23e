//! Minimum bounding rectangles, the building block of the R-tree.

use crate::Point;
use serde::{Deserialize, Serialize};

/// An axis-aligned minimum bounding rectangle.
///
/// An `Mbr` is always non-empty once constructed: `min.x <= max.x` and
/// `min.y <= max.y`. Degenerate rectangles (points, horizontal/vertical
/// segments) are valid and common — every data object in the workload is
/// indexed as a degenerate point MBR.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Mbr {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Mbr {
    /// Creates an MBR from two opposite corners, normalising their order.
    #[inline]
    pub fn new(a: Point, b: Point) -> Self {
        Mbr {
            min: Point::new(a.x.min(b.x), a.y.min(b.y)),
            max: Point::new(a.x.max(b.x), a.y.max(b.y)),
        }
    }

    /// The degenerate MBR covering a single point.
    #[inline]
    pub fn from_point(p: Point) -> Self {
        Mbr { min: p, max: p }
    }

    /// The smallest MBR covering every point of `points`.
    ///
    /// Returns `None` for an empty slice.
    pub fn from_points(points: &[Point]) -> Option<Self> {
        let (first, rest) = points.split_first()?;
        let mut mbr = Mbr::from_point(*first);
        for p in rest {
            mbr.expand_point(*p);
        }
        Some(mbr)
    }

    /// Grows the MBR to cover `p`.
    #[inline]
    pub fn expand_point(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Grows the MBR to cover `other` entirely.
    #[inline]
    pub fn expand_mbr(&mut self, other: &Mbr) {
        self.expand_point(other.min);
        self.expand_point(other.max);
    }

    /// Union of two MBRs.
    #[inline]
    pub fn union(&self, other: &Mbr) -> Mbr {
        let mut u = *self;
        u.expand_mbr(other);
        u
    }

    /// Width along x.
    #[inline]
    pub fn width(&self) -> f64 {
        self.max.x - self.min.x
    }

    /// Height along y.
    #[inline]
    pub fn height(&self) -> f64 {
        self.max.y - self.min.y
    }

    /// Area (zero for degenerate rectangles).
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Half-perimeter; the classic R-tree "margin" tie-breaker.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.width() + self.height()
    }

    /// Geometric centre.
    #[inline]
    pub fn center(&self) -> Point {
        self.min.midpoint(&self.max)
    }

    /// Area increase caused by expanding `self` to cover `other`.
    #[inline]
    pub fn enlargement(&self, other: &Mbr) -> f64 {
        self.union(other).area() - self.area()
    }

    /// `true` when the rectangles share at least a boundary point.
    #[inline]
    pub fn intersects(&self, other: &Mbr) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// `true` when `other` lies entirely inside `self` (boundaries count).
    #[inline]
    pub fn contains_mbr(&self, other: &Mbr) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && self.max.x >= other.max.x
            && self.max.y >= other.max.y
    }

    /// `true` when the point lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.min.x <= p.x && p.x <= self.max.x && self.min.y <= p.y && p.y <= self.max.y
    }

    /// Minimum Euclidean distance from `p` to any point of the rectangle
    /// (zero when `p` is inside). This is the `mindist` of the classic
    /// best-first R-tree traversal and of the paper's Euclidean skyline
    /// algorithm (§4.2).
    #[inline]
    pub fn min_dist(&self, p: &Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        (dx * dx + dy * dy).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    fn mbr(x0: f64, y0: f64, x1: f64, y1: f64) -> Mbr {
        Mbr::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn new_normalises_corners() {
        let m = Mbr::new(Point::new(5.0, 1.0), Point::new(2.0, 4.0));
        assert_eq!(m.min, Point::new(2.0, 1.0));
        assert_eq!(m.max, Point::new(5.0, 4.0));
    }

    #[test]
    fn area_and_margin() {
        let m = mbr(0.0, 0.0, 4.0, 3.0);
        assert!(approx_eq(m.area(), 12.0));
        assert!(approx_eq(m.margin(), 7.0));
        assert_eq!(m.center(), Point::new(2.0, 1.5));
    }

    #[test]
    fn union_covers_both() {
        let a = mbr(0.0, 0.0, 1.0, 1.0);
        let b = mbr(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains_mbr(&a));
        assert!(u.contains_mbr(&b));
        assert_eq!(u, mbr(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn intersections() {
        let a = mbr(0.0, 0.0, 2.0, 2.0);
        assert!(a.intersects(&mbr(1.0, 1.0, 3.0, 3.0)));
        assert!(a.intersects(&mbr(2.0, 2.0, 3.0, 3.0))); // corner touch
        assert!(!a.intersects(&mbr(2.1, 2.1, 3.0, 3.0)));
    }

    #[test]
    fn min_dist_inside_is_zero() {
        let m = mbr(0.0, 0.0, 10.0, 10.0);
        assert_eq!(m.min_dist(&Point::new(5.0, 5.0)), 0.0);
        assert_eq!(m.min_dist(&Point::new(0.0, 0.0)), 0.0);
    }

    #[test]
    fn min_dist_outside() {
        let m = mbr(0.0, 0.0, 10.0, 10.0);
        // Straight left of the box.
        assert!(approx_eq(m.min_dist(&Point::new(-3.0, 5.0)), 3.0));
        // Diagonal from the corner.
        assert!(approx_eq(m.min_dist(&Point::new(-3.0, -4.0)), 5.0));
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = mbr(0.0, 0.0, 10.0, 10.0);
        let b = mbr(1.0, 1.0, 2.0, 2.0);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    fn arb_pt() -> impl Strategy<Value = Point> {
        (-100.0..100.0f64, -100.0..100.0f64).prop_map(|(x, y)| Point::new(x, y))
    }

    fn arb_mbr() -> impl Strategy<Value = Mbr> {
        (arb_pt(), arb_pt()).prop_map(|(a, b)| Mbr::new(a, b))
    }

    proptest! {
        #[test]
        fn union_is_commutative(a in arb_mbr(), b in arb_mbr()) {
            prop_assert_eq!(a.union(&b), b.union(&a));
        }

        #[test]
        fn min_dist_le_max_dist(m in arb_mbr(), p in arb_pt()) {
            // The farthest point of a rectangle is one of its corners.
            let max_dist = [
                m.min,
                m.max,
                Point::new(m.min.x, m.max.y),
                Point::new(m.max.x, m.min.y),
            ]
            .iter()
            .map(|c| p.distance(c))
            .fold(0.0, f64::max);
            prop_assert!(m.min_dist(&p) <= max_dist + 1e-9);
        }

        #[test]
        fn min_dist_le_center_distance(m in arb_mbr(), p in arb_pt()) {
            prop_assert!(m.min_dist(&p) <= p.distance(&m.center()) + 1e-9);
        }

        #[test]
        fn contains_implies_intersects(a in arb_mbr(), b in arb_mbr()) {
            if a.contains_mbr(&b) {
                prop_assert!(a.intersects(&b));
            }
        }

        #[test]
        fn from_points_covers_all(pts in proptest::collection::vec(arb_pt(), 1..20)) {
            let m = Mbr::from_points(&pts).unwrap();
            for p in &pts {
                prop_assert!(m.contains_point(p));
            }
        }
    }
}

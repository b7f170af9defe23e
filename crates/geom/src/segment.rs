//! Straight-line segments.

use crate::{Mbr, Point};
use serde::{Deserialize, Serialize};

/// A directed straight-line segment from `a` to `b`.
///
/// Road edges whose geometry is a straight line are represented directly as
/// one segment; polyline edges are chains of segments (see
/// [`crate::Polyline`]).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Segment {
    /// Start point.
    pub a: Point,
    /// End point.
    pub b: Point,
}

impl Segment {
    /// Creates a segment between two points.
    #[inline]
    pub const fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    /// Euclidean length.
    #[inline]
    pub fn length(&self) -> f64 {
        self.a.distance(&self.b)
    }

    /// Point at parameter `t in [0, 1]` along the segment.
    #[inline]
    pub fn point_at(&self, t: f64) -> Point {
        self.a.lerp(&self.b, t)
    }

    /// Point at arc-length `offset` from `a`, clamped to the segment.
    #[inline]
    pub fn point_at_offset(&self, offset: f64) -> Point {
        let len = self.length();
        if len == 0.0 {
            return self.a;
        }
        self.point_at((offset / len).clamp(0.0, 1.0))
    }

    /// Parameter `t in [0, 1]` of the point on the segment closest to `p`.
    pub fn project(&self, p: &Point) -> f64 {
        let d = self.b - self.a;
        let len_sq = d.dot(&d);
        if len_sq == 0.0 {
            return 0.0;
        }
        let v = *p - self.a;
        (v.dot(&d) / len_sq).clamp(0.0, 1.0)
    }

    /// Bounding rectangle of the segment.
    #[inline]
    pub fn mbr(&self) -> Mbr {
        Mbr::new(self.a, self.b)
    }

    /// The segment with orientation reversed.
    #[inline]
    pub fn reversed(&self) -> Segment {
        Segment::new(self.b, self.a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use proptest::prelude::*;

    #[test]
    fn length_and_point_at() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(6.0, 8.0));
        assert!(approx_eq(s.length(), 10.0));
        assert_eq!(s.point_at(0.5), Point::new(3.0, 4.0));
        assert_eq!(s.point_at_offset(5.0), Point::new(3.0, 4.0));
    }

    #[test]
    fn point_at_offset_clamps() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.point_at_offset(-5.0), s.a);
        assert_eq!(s.point_at_offset(25.0), s.b);
    }

    #[test]
    fn project_perpendicular_foot() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        let p = Point::new(4.0, 7.0);
        assert!(approx_eq(s.project(&p), 0.4));
        assert!(approx_eq(s.point_at(s.project(&p)).distance(&p), 7.0));
    }

    #[test]
    fn project_clamps_to_endpoints() {
        let s = Segment::new(Point::new(0.0, 0.0), Point::new(10.0, 0.0));
        assert_eq!(s.project(&Point::new(-5.0, 1.0)), 0.0);
        assert_eq!(s.project(&Point::new(15.0, 1.0)), 1.0);
        let p = Point::new(13.0, 4.0);
        assert!(approx_eq(s.point_at(s.project(&p)).distance(&p), 5.0));
    }

    #[test]
    fn degenerate_segment() {
        let s = Segment::new(Point::new(2.0, 2.0), Point::new(2.0, 2.0));
        assert_eq!(s.length(), 0.0);
        assert_eq!(s.project(&Point::new(9.0, 9.0)), 0.0);
        assert_eq!(s.point_at_offset(3.0), s.a);
    }

    fn arb_pt() -> impl Strategy<Value = Point> {
        (-100.0..100.0f64, -100.0..100.0f64).prop_map(|(x, y)| Point::new(x, y))
    }

    proptest! {
        #[test]
        fn closest_point_is_on_segment(a in arb_pt(), b in arb_pt(), p in arb_pt()) {
            let s = Segment::new(a, b);
            let t = s.project(&p);
            prop_assert!((0.0..=1.0).contains(&t));
            // The projected point can be no farther from p than either endpoint.
            let d = s.point_at(t).distance(&p);
            prop_assert!(d <= p.distance(&a) + 1e-9);
            prop_assert!(d <= p.distance(&b) + 1e-9);
        }

        #[test]
        fn mbr_contains_interior_points(a in arb_pt(), b in arb_pt(), t in 0.0..1.0f64) {
            let s = Segment::new(a, b);
            prop_assert!(s.mbr().contains_point(&s.point_at(t)));
        }
    }
}

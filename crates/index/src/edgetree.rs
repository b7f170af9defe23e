//! The edge R-tree: spatial access to road segments.
//!
//! §6.1: "The edges are indexed by an R-tree on edge MBRs." Its two jobs:
//!
//! * **locating** — map an arbitrary planar point (a GPS fix, a clicked
//!   map position) to the nearest on-network position, which is how query
//!   points and data objects enter the system in the first place;
//! * **windowing** — enumerate the road segments intersecting a
//!   rectangle (rendering, partial loads).
//!
//! Locating runs a best-first search whose node bound is the MBR mindist
//! and whose leaf score is the *exact* point-to-polyline distance, so the
//! first item popped is the true nearest edge even though polylines can
//! stray far from their bounding boxes.

use crate::rtree::RTree;
use rn_geom::Point;
use rn_graph::{EdgeId, NetPosition, RoadNetwork};

/// Spatial index over a network's edges.
pub struct EdgeLocator {
    tree: RTree<EdgeId>,
}

impl EdgeLocator {
    /// Bulk-loads the index from a network's edge geometry.
    pub fn build(net: &RoadNetwork) -> Self {
        EdgeLocator {
            tree: RTree::bulk_load(
                net.edges()
                    .iter()
                    .enumerate()
                    .map(|(i, e)| (e.geometry.mbr(), EdgeId(i as u32)))
                    .collect(),
            ),
        }
    }

    /// Number of indexed edges.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// `true` for an empty (edgeless) network.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// The nearest on-network position to `p`, with its Euclidean
    /// distance; `None` for an edgeless network.
    pub fn locate(&self, net: &RoadNetwork, p: Point) -> Option<(NetPosition, f64)> {
        let (dist, _, &edge) = self
            .tree
            .best_first(|mbr, item| {
                Some(match item {
                    None => mbr.min_dist(&p),
                    // Exact refinement at the leaves.
                    Some(&e) => net.edge(e).geometry.closest_offset(&p).0,
                })
            })
            .next()?;
        let (_, offset) = net.edge(edge).geometry.closest_offset(&p);
        Some((NetPosition::new(edge, offset), dist))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_geom::{Mbr, Polyline};
    use rn_graph::NetworkBuilder;

    fn cross() -> RoadNetwork {
        // A + shape centred at (0,0) plus a far detached segment.
        let mut b = NetworkBuilder::new();
        let c = b.add_node(Point::new(0.0, 0.0));
        let e = b.add_node(Point::new(10.0, 0.0));
        let w = b.add_node(Point::new(-10.0, 0.0));
        let n = b.add_node(Point::new(0.0, 10.0));
        let s = b.add_node(Point::new(0.0, -10.0));
        b.add_straight_edge(c, e).unwrap(); // edge 0
        b.add_straight_edge(c, w).unwrap(); // edge 1
        b.add_straight_edge(c, n).unwrap(); // edge 2
        b.add_straight_edge(c, s).unwrap(); // edge 3
        b.build().unwrap()
    }

    #[test]
    fn locates_on_the_correct_arm() {
        let net = cross();
        let loc = EdgeLocator::build(&net);
        let (pos, d) = loc.locate(&net, Point::new(6.0, 1.0)).unwrap();
        assert_eq!(pos.edge, EdgeId(0));
        assert!(rn_geom::approx_eq(pos.offset, 6.0));
        assert!(rn_geom::approx_eq(d, 1.0));

        let (pos, _) = loc.locate(&net, Point::new(-0.5, -7.0)).unwrap();
        assert_eq!(pos.edge, EdgeId(3));
        assert!(rn_geom::approx_eq(pos.offset, 7.0));
    }

    #[test]
    fn locate_clamps_to_endpoints() {
        let net = cross();
        let loc = EdgeLocator::build(&net);
        // Far beyond the east arm's tip.
        let (pos, d) = loc.locate(&net, Point::new(15.0, 0.0)).unwrap();
        assert_eq!(pos.edge, EdgeId(0));
        assert!(rn_geom::approx_eq(pos.offset, 10.0));
        assert!(rn_geom::approx_eq(d, 5.0));
    }

    #[test]
    fn polyline_geometry_beats_mbr_approximation() {
        // A polyline edge whose bounding box contains a point that is far
        // from the actual geometry, next to a straight edge that is
        // genuinely close: exact leaf scoring must pick the straight one.
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 10.0));
        let d = b.add_node(Point::new(8.0, 0.5));
        let e = b.add_node(Point::new(10.0, 0.5));
        // L-shaped polyline hugging the left and top: its MBR covers the
        // whole square.
        b.add_polyline_edge(
            a,
            c,
            Polyline::new(vec![
                Point::new(0.0, 0.0),
                Point::new(0.0, 10.0),
                Point::new(10.0, 10.0),
            ]),
        )
        .unwrap();
        b.add_straight_edge(d, e).unwrap(); // short edge near (9, 0.5)
        let net = b.build().unwrap();
        let loc = EdgeLocator::build(&net);
        // Point inside the polyline's MBR but far from its geometry.
        let (pos, dist) = loc.locate(&net, Point::new(9.0, 1.0)).unwrap();
        assert_eq!(pos.edge, EdgeId(1), "exact scoring must pick the near edge");
        assert!(rn_geom::approx_eq(dist, 0.5));
    }

    #[test]
    fn window_query_finds_arms() {
        let net = cross();
        let loc = EdgeLocator::build(&net);
        let east = Mbr::new(Point::new(2.0, -1.0), Point::new(8.0, 1.0));
        let got: Vec<EdgeId> = loc.tree.window(&east).into_iter().copied().collect();
        assert!(got.contains(&EdgeId(0)));
        assert!(!got.contains(&EdgeId(2)));
    }

    #[test]
    fn empty_network() {
        let net = NetworkBuilder::new().build().unwrap();
        let loc = EdgeLocator::build(&net);
        assert!(loc.is_empty());
        assert!(loc.locate(&net, Point::ORIGIN).is_none());
    }

    #[test]
    fn point_on_edge_has_zero_distance() {
        let net = cross();
        let loc = EdgeLocator::build(&net);
        let (pos, d) = loc.locate(&net, Point::new(3.0, 0.0)).unwrap();
        assert!(d < 1e-9);
        assert!(pos.edge == EdgeId(0) || pos.edge == EdgeId(1));
    }
}

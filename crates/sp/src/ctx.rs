//! The shared query context: network metadata, counted storage, and the
//! object middle layer, bundled so algorithm signatures stay small.

use crate::oracle::{LowerBound, EUCLID};
use rn_geom::Point;
use rn_graph::{NetPosition, RoadNetwork};
use rn_index::MiddleLayer;
use rn_obs::ExecGuard;
use rn_storage::NetworkStore;

/// Borrowed bundle of everything a network query touches.
///
/// Division of labour:
///
/// * `store` — **all wavefront traversal**. Every adjacency read during
///   Dijkstra/A* expansion is a buffered, counted page access; this is the
///   "network disk pages" metric of the evaluation.
/// * `net` — static metadata resolved at query-setup time (mapping a
///   [`NetPosition`] to coordinates, finding the endpoints of the one edge
///   a query point or object lies on). The paper performs this mapping
///   through the edge R-tree / middle layer before the search proper; it is
///   not part of the per-expansion I/O it measures.
/// * `mid` — the object middle layer, probed once per wavefront-crossed
///   edge (a B⁺-tree access, counted by the middle layer itself).
pub struct NetCtx<'a> {
    /// Static network metadata (edge endpoints, lengths, geometry).
    pub net: &'a RoadNetwork,
    /// Counted, buffered adjacency storage.
    pub store: &'a NetworkStore,
    /// Edge-id-keyed object directory.
    pub mid: &'a MiddleLayer,
    /// Budget enforcement for the query driving this context, if any.
    /// Sequential engines check it at heap-pop granularity; parallel
    /// worker contexts carry `None` so tripping stays coordinator-side
    /// and worker-count independent (DESIGN.md §12).
    pub guard: Option<&'a ExecGuard>,
    /// The network-distance lower bound feeding the pruning rules (EDC
    /// windows, LBC seeds); A\* keys its heap by the Euclidean distance
    /// and never reads it. Defaults to the Euclidean bound ([`EUCLID`]),
    /// which reproduces the paper's engines bitwise;
    /// [`NetCtx::with_bound`] swaps in a precomputed oracle (DESIGN.md
    /// §14).
    pub lb: &'a dyn LowerBound,
}

impl<'a> NetCtx<'a> {
    /// Bundles the three substrate references, with no budget guard and
    /// the Euclidean lower bound.
    pub fn new(net: &'a RoadNetwork, store: &'a NetworkStore, mid: &'a MiddleLayer) -> Self {
        NetCtx {
            net,
            store,
            mid,
            guard: None,
            lb: &EUCLID,
        }
    }

    /// Like [`NetCtx::new`], but with a budget guard the shortest-path
    /// engines will consult on every heap pop.
    pub fn with_guard(
        net: &'a RoadNetwork,
        store: &'a NetworkStore,
        mid: &'a MiddleLayer,
        guard: Option<&'a ExecGuard>,
    ) -> Self {
        NetCtx {
            net,
            store,
            mid,
            guard,
            lb: &EUCLID,
        }
    }

    /// Returns the context with its lower bound replaced (builder-style).
    pub fn with_bound(mut self, lb: &'a dyn LowerBound) -> Self {
        self.lb = lb;
        self
    }

    /// Resolves a network position to planar coordinates.
    pub fn point_of(&self, pos: &NetPosition) -> Point {
        self.net.position_point(pos)
    }
}

/// A query point: a network position plus its (pre-resolved) coordinates.
///
/// Resolving the coordinates once at query registration keeps the planar
/// point available for Euclidean lower bounds without repeated geometry
/// interpolation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QueryPoint {
    /// Where the query point sits on the network.
    pub pos: NetPosition,
    /// Its planar coordinates.
    pub point: Point,
}

impl QueryPoint {
    /// Builds a query point, resolving its coordinates from the network.
    pub fn on_network(net: &RoadNetwork, pos: NetPosition) -> Self {
        QueryPoint {
            pos,
            point: net.position_point(&pos),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_graph::{EdgeId, NetworkBuilder};

    #[test]
    fn query_point_resolves_coordinates() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(10.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        let g = b.build().unwrap();
        let q = QueryPoint::on_network(&g, NetPosition::new(EdgeId(0), 4.0));
        assert_eq!(q.point, Point::new(4.0, 0.0));
    }
}

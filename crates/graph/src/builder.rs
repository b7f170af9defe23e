//! Mutable construction of [`RoadNetwork`]s with invariant validation.

use crate::network::{Edge, EdgeId, Node, NodeId, RoadNetwork};
use rn_geom::{Point, Polyline};
use std::fmt;

/// Errors produced while assembling a network.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// An edge referenced a node id that was never added.
    UnknownNode(NodeId),
    /// An edge connected a node to itself; self-loops never participate in
    /// shortest paths and are rejected to keep the adjacency simple.
    SelfLoop(NodeId),
    /// Edge geometry endpoints do not coincide with the junction positions.
    GeometryMismatch(EdgeId),
    /// Edge length is shorter than the Euclidean distance between its
    /// endpoints, which would break A* heuristic consistency.
    LengthBelowChord {
        /// Offending edge.
        edge: EdgeId,
        /// Declared network length.
        length: f64,
        /// Euclidean distance between the endpoints.
        chord: f64,
    },
    /// Edge length is non-finite or non-positive.
    BadLength(EdgeId),
    /// A node coordinate was NaN or infinite.
    BadCoordinate(NodeId),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownNode(n) => write!(f, "edge references unknown node {n:?}"),
            BuildError::SelfLoop(n) => write!(f, "self-loop at node {n:?}"),
            BuildError::GeometryMismatch(e) => {
                write!(f, "geometry endpoints of edge {e:?} do not match junctions")
            }
            BuildError::LengthBelowChord {
                edge,
                length,
                chord,
            } => write!(
                f,
                "edge {edge:?} length {length} is below endpoint Euclidean distance {chord}"
            ),
            BuildError::BadLength(e) => write!(f, "edge {e:?} has non-positive length"),
            BuildError::BadCoordinate(n) => write!(f, "node {n:?} has non-finite coordinates"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Incremental builder for [`RoadNetwork`].
///
/// The builder enforces, at [`NetworkBuilder::build`] time, the two
/// invariants the query algorithms rely on:
///
/// 1. every edge's geometry starts at its `u` junction and ends at its `v`
///    junction (within a small snapping tolerance), and
/// 2. every edge's length is at least the Euclidean distance between its
///    endpoints — without this the A* heuristic would be inadmissible and
///    "shortest" paths could be wrong.
#[derive(Default)]
pub struct NetworkBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

/// Tolerance (in coordinate units) for matching geometry endpoints to
/// junction positions, and for forgiving float drift in the length-vs-chord
/// check.
const SNAP_EPS: f64 = 1e-6;

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetworkBuilder::default()
    }

    /// Creates an empty builder with capacity hints.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        NetworkBuilder {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a junction and returns its id.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { point });
        id
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges added so far.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Position of an already-added node.
    pub fn node_point(&self, n: NodeId) -> Point {
        self.nodes[n.idx()].point
    }

    /// Adds a straight-line edge between `u` and `v`; its length is their
    /// Euclidean distance.
    pub fn add_straight_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, BuildError> {
        let (pu, pv) = self.endpoints(u, v)?;
        self.push_edge(u, v, Polyline::straight(pu, pv))
    }

    /// Adds an edge with explicit polyline geometry running from `u`'s
    /// position to `v`'s position. The edge length is the polyline's arc
    /// length.
    pub fn add_polyline_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        geometry: Polyline,
    ) -> Result<EdgeId, BuildError> {
        self.endpoints(u, v)?;
        self.push_edge(u, v, geometry)
    }

    /// Adds a straight-geometry edge whose *network length* is stretched to
    /// `length` (≥ chord). Generators use this to model roads whose detour
    /// is not worth shaping (the geometry stays the chord, the metric gets
    /// the real length).
    pub fn add_weighted_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        length: f64,
    ) -> Result<EdgeId, BuildError> {
        let (pu, pv) = self.endpoints(u, v)?;
        if u == v {
            return Err(BuildError::SelfLoop(u));
        }
        let id = EdgeId(self.edges.len() as u32);
        if !length.is_finite() || length <= 0.0 {
            return Err(BuildError::BadLength(id));
        }
        let chord = pu.distance(&pv);
        if length + SNAP_EPS < chord {
            return Err(BuildError::LengthBelowChord {
                edge: id,
                length,
                chord,
            });
        }
        self.edges.push(Edge {
            u,
            v,
            length: length.max(chord),
            geometry: Polyline::straight(pu, pv),
        });
        Ok(id)
    }

    /// Junction positions of `u` and `v`. A non-finite one is rejected
    /// here rather than at [`NetworkBuilder::build`], because the edge
    /// geometry built from it would panic first.
    fn endpoints(&self, u: NodeId, v: NodeId) -> Result<(Point, Point), BuildError> {
        let point = |n: NodeId| {
            let p = self
                .nodes
                .get(n.idx())
                .ok_or(BuildError::UnknownNode(n))?
                .point;
            if p.is_finite() {
                Ok(p)
            } else {
                Err(BuildError::BadCoordinate(n))
            }
        };
        Ok((point(u)?, point(v)?))
    }

    fn push_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        geometry: Polyline,
    ) -> Result<EdgeId, BuildError> {
        if u == v {
            return Err(BuildError::SelfLoop(u));
        }
        let id = EdgeId(self.edges.len() as u32);
        let length = geometry.length();
        if !length.is_finite() || length <= 0.0 {
            return Err(BuildError::BadLength(id));
        }
        self.edges.push(Edge {
            u,
            v,
            length,
            geometry,
        });
        Ok(id)
    }

    /// Validates all invariants and produces the immutable network.
    pub fn build(self) -> Result<RoadNetwork, BuildError> {
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.point.is_finite() {
                return Err(BuildError::BadCoordinate(NodeId(i as u32)));
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            let pu = self.nodes[e.u.idx()].point;
            let pv = self.nodes[e.v.idx()].point;
            if pu.distance(&e.geometry.start()) > SNAP_EPS
                || pv.distance(&e.geometry.end()) > SNAP_EPS
            {
                return Err(BuildError::GeometryMismatch(id));
            }
            let chord = pu.distance(&pv);
            if e.length + SNAP_EPS < chord {
                return Err(BuildError::LengthBelowChord {
                    edge: id,
                    length: e.length,
                    chord,
                });
            }
        }

        // Build the CSR adjacency: count degrees, prefix-sum, scatter.
        let n = self.nodes.len();
        let mut deg = vec![0u32; n + 1];
        for e in &self.edges {
            deg[e.u.idx() + 1] += 1;
            deg[e.v.idx() + 1] += 1;
        }
        for i in 0..n {
            deg[i + 1] += deg[i];
        }
        let adj_off = deg.clone();
        let mut cursor = deg;
        let mut adj = vec![(EdgeId(0), NodeId(0)); self.edges.len() * 2];
        for (i, e) in self.edges.iter().enumerate() {
            let id = EdgeId(i as u32);
            adj[cursor[e.u.idx()] as usize] = (id, e.v);
            cursor[e.u.idx()] += 1;
            adj[cursor[e.v.idx()] as usize] = (id, e.u);
            cursor[e.v.idx()] += 1;
        }

        Ok(RoadNetwork::from_parts(
            self.nodes, self.edges, adj_off, adj,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_geom::approx_eq;

    #[test]
    fn straight_edge_length_is_chord() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(3.0, 4.0));
        b.add_straight_edge(a, c).unwrap();
        let g = b.build().unwrap();
        assert!(approx_eq(g.edge(EdgeId(0)).length, 5.0));
    }

    #[test]
    fn polyline_edge_is_longer_than_chord() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(2.0, 0.0));
        let geom = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 0.0),
        ]);
        b.add_polyline_edge(a, c, geom).unwrap();
        let g = b.build().unwrap();
        let e = g.edge(EdgeId(0));
        assert!(e.length > g.euclidean(e.u, e.v));
    }

    #[test]
    fn weighted_edge_keeps_declared_length() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        b.add_weighted_edge(a, c, 2.5).unwrap();
        let g = b.build().unwrap();
        assert!(approx_eq(g.edge(EdgeId(0)).length, 2.5));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        assert_eq!(b.add_straight_edge(a, a), Err(BuildError::SelfLoop(a)));
    }

    #[test]
    fn rejects_unknown_node() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::ORIGIN);
        let ghost = NodeId(42);
        assert_eq!(
            b.add_straight_edge(a, ghost),
            Err(BuildError::UnknownNode(ghost))
        );
    }

    #[test]
    fn rejects_length_below_chord() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        let err = b.add_weighted_edge(a, c, 4.0).unwrap_err();
        assert!(matches!(err, BuildError::LengthBelowChord { .. }));
    }

    #[test]
    fn rejects_mismatched_geometry() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(5.0, 0.0));
        // Geometry that ends nowhere near node c.
        let geom = Polyline::straight(Point::new(0.0, 0.0), Point::new(9.0, 9.0));
        b.add_polyline_edge(a, c, geom).unwrap();
        assert!(matches!(b.build(), Err(BuildError::GeometryMismatch(_))));
    }

    #[test]
    fn rejects_zero_length_edge() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(0.0, 0.0));
        // Distinct ids at the same position -> zero-length straight edge.
        assert!(matches!(
            b.add_straight_edge(a, c),
            Err(BuildError::BadLength(_))
        ));
    }

    #[test]
    fn rejects_nan_coordinates() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(f64::NAN, 0.0));
        let c = b.add_node(Point::new(1.0, 0.0));
        // Every edge kind refuses the bad endpoint before building geometry.
        assert_eq!(b.add_straight_edge(c, a), Err(BuildError::BadCoordinate(a)));
        assert_eq!(
            b.add_weighted_edge(a, c, 2.0),
            Err(BuildError::BadCoordinate(a))
        );
        let geom = Polyline::straight(Point::new(0.0, 0.0), Point::new(1.0, 0.0));
        assert_eq!(
            b.add_polyline_edge(a, c, geom),
            Err(BuildError::BadCoordinate(a))
        );
        assert!(matches!(b.build(), Err(BuildError::BadCoordinate(_))));
    }

    #[test]
    fn csr_adjacency_complete() {
        let mut b = NetworkBuilder::new();
        let n: Vec<NodeId> = (0..5)
            .map(|i| b.add_node(Point::new(i as f64, 0.0)))
            .collect();
        for w in n.windows(2) {
            b.add_straight_edge(w[0], w[1]).unwrap();
        }
        let g = b.build().unwrap();
        assert_eq!(g.degree(n[0]), 1);
        assert_eq!(g.degree(n[2]), 2);
        let total: usize = g.node_ids().map(|v| g.degree(v)).sum();
        assert_eq!(total, 2 * g.edge_count());
    }
}

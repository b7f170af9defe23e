//! The in-memory road network and on-network positions.

use rn_geom::{Mbr, Point, Polyline};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a road junction. Indexes into [`RoadNetwork::nodes`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Identifier of a road segment. Indexes into [`RoadNetwork::edges`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Identifier of a data object (an element of the paper's set `D`).
///
/// Objects are not part of the network itself — they live at
/// [`NetPosition`]s and are joined to the network through the middle layer —
/// but the id type is defined here because every layer of the stack
/// (indexes, shortest paths, skyline algorithms) refers to objects.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The id as a usize index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// A road junction.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct Node {
    /// Planar position of the junction.
    pub point: Point,
}

/// An undirected road segment between two junctions.
///
/// `length` is the network-metric *weight* of the segment. At build time it
/// equals the arc length of `geometry` (or a caller-chosen stretch of it),
/// and it is always at least the Euclidean distance between the endpoint
/// junctions — the invariant that makes the Euclidean A* heuristic
/// *consistent* (validated at build time by [`crate::NetworkBuilder`]).
/// Dynamic weight updates ([`RoadNetwork::set_edge_weight`]) may raise it
/// without bound but never push it below the geometry arc length.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Edge {
    /// One endpoint junction ("u side"; geometry starts here).
    pub u: NodeId,
    /// The other endpoint junction ("v side"; geometry ends here).
    pub v: NodeId,
    /// Network-metric weight of the segment (initially the arc length of
    /// `geometry`; see [`RoadNetwork::set_edge_weight`]).
    pub length: f64,
    /// Shape of the road segment, from `u`'s position to `v`'s.
    pub geometry: Polyline,
}

impl Edge {
    /// The endpoint opposite to `n`.
    ///
    /// # Panics
    /// Panics when `n` is not an endpoint of this edge.
    #[inline]
    pub fn other(&self, n: NodeId) -> NodeId {
        if n == self.u {
            self.v
        } else {
            assert_eq!(n, self.v, "node is not an endpoint of this edge");
            self.u
        }
    }

    /// `true` when `n` is one of the two endpoints.
    #[inline]
    pub fn touches(&self, n: NodeId) -> bool {
        n == self.u || n == self.v
    }
}

/// A position *on* the network: a point partway along an edge.
///
/// Both data objects and query points live at `NetPosition`s. The `offset`
/// is measured along the edge geometry from the `u` endpoint, so
/// `offset == 0` is at `u` and `offset == edge.length` is at `v`. The two
/// complementary distances `d(u, p) = offset` and `d(v, p) = length - offset`
/// are exactly what the paper's *middle layer* pre-computes (§3).
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct NetPosition {
    /// The edge this position lies on.
    pub edge: EdgeId,
    /// Arc-length distance from the edge's `u` endpoint, in `[0, length]`.
    pub offset: f64,
}

impl NetPosition {
    /// Creates a position on `edge` at arc-length `offset` from its `u` end.
    #[inline]
    pub const fn new(edge: EdgeId, offset: f64) -> Self {
        NetPosition { edge, offset }
    }
}

/// An immutable road network with CSR-compressed adjacency.
///
/// Construct via [`crate::NetworkBuilder`]. Node ids are dense `0..n`;
/// edge ids dense `0..m`. The adjacency array stores, for each node, the
/// list of `(incident edge, opposite node)` pairs, so a Dijkstra/A*
/// expansion touches exactly one contiguous slice per visited node — this
/// slice is also the unit the storage layer lays out on disk pages.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    /// CSR offsets: adjacency of node `i` is `adj[adj_off[i]..adj_off[i+1]]`.
    adj_off: Vec<u32>,
    /// Flat adjacency entries.
    adj: Vec<(EdgeId, NodeId)>,
}

impl RoadNetwork {
    /// Assembles a network from parts; callers should prefer
    /// [`crate::NetworkBuilder`], which validates the invariants.
    pub(crate) fn from_parts(
        nodes: Vec<Node>,
        edges: Vec<Edge>,
        adj_off: Vec<u32>,
        adj: Vec<(EdgeId, NodeId)>,
    ) -> Self {
        RoadNetwork {
            nodes,
            edges,
            adj_off,
            adj,
        }
    }

    /// Number of junctions `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of road segments `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// All nodes, indexable by [`NodeId`].
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All edges, indexable by [`EdgeId`].
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The node record for `id`.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.idx()]
    }

    /// The edge record for `id`.
    #[inline]
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.idx()]
    }

    /// Planar coordinates of node `id`.
    #[inline]
    pub fn point(&self, id: NodeId) -> Point {
        self.nodes[id.idx()].point
    }

    /// Euclidean distance between two junctions — the paper's `d_E`.
    #[inline]
    pub fn euclidean(&self, a: NodeId, b: NodeId) -> f64 {
        self.point(a).distance(&self.point(b))
    }

    /// The `(incident edge, neighbour node)` pairs of `n`.
    #[inline]
    pub fn adjacent(&self, n: NodeId) -> &[(EdgeId, NodeId)] {
        let lo = self.adj_off[n.idx()] as usize;
        let hi = self.adj_off[n.idx() + 1] as usize;
        &self.adj[lo..hi]
    }

    /// Degree of node `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacent(n).len()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// Planar coordinates of an on-network position.
    pub fn position_point(&self, pos: &NetPosition) -> Point {
        self.edge(pos.edge).geometry.point_at_offset(pos.offset)
    }

    /// Sets the traversal weight of edge `e` to the absolute value `w`,
    /// returning the old weight. The geometry is untouched.
    ///
    /// `w` is clamped to the *free-flow floor* — the arc length of the
    /// edge geometry. The floor preserves both invariants the static
    /// stack relies on (DESIGN.md §15.2): the Euclidean heuristic stays
    /// consistent (`w ≥ arc ≥ chord = d_E(u, v)`), and
    /// [`RoadNetwork::position_point`] stays 1-Lipschitz from *both*
    /// endpoints, which keeps Euclidean pair bounds between interpolated
    /// position points admissible.
    ///
    /// # Panics
    /// Panics when `w` is not finite and positive.
    pub fn set_edge_weight(&mut self, e: EdgeId, w: f64) -> f64 {
        assert!(
            w.is_finite() && w > 0.0,
            "edge weight must be finite and positive, got {w}"
        );
        let edge = &mut self.edges[e.idx()];
        let floor = edge.geometry.length();
        let old = edge.length;
        edge.length = if w < floor { floor } else { w };
        old
    }

    /// The two pre-computed endpoint distances of a position: `(d(u, p),
    /// d(v, p))` — the payload the middle layer stores per object.
    #[inline]
    pub fn position_endpoint_dists(&self, pos: &NetPosition) -> (f64, f64) {
        let len = self.edge(pos.edge).length;
        (pos.offset, (len - pos.offset).max(0.0))
    }

    /// Bounding rectangle of the whole network (nodes and edge geometry).
    pub fn mbr(&self) -> Option<Mbr> {
        let mut it = self.edges.iter().map(|e| e.geometry.mbr());
        let first = it
            .next()
            .or_else(|| self.nodes.first().map(|n| Mbr::from_point(n.point)))?;
        let mut mbr = first;
        for m in it {
            mbr.expand_mbr(&m);
        }
        for n in &self.nodes {
            mbr.expand_point(n.point);
        }
        Some(mbr)
    }

    /// Total road length of the network.
    pub fn total_length(&self) -> f64 {
        self.edges.iter().map(|e| e.length).sum()
    }

    /// Sample estimate of delta = `avg(d_N / d_E)` over edges — the paper's
    /// density-linked parameter (§5). Uses per-edge `length / chord`, which
    /// lower-bounds the path-level delta but moves in the same direction.
    pub fn edge_delta(&self) -> f64 {
        let mut sum = 0.0;
        let mut k = 0usize;
        for e in &self.edges {
            let chord = e.geometry.chord();
            if chord > 0.0 {
                sum += e.length / chord;
                k += 1;
            }
        }
        if k == 0 {
            1.0
        } else {
            sum / k as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;

    /// Builds the 4-node diamond used across this crate's tests:
    ///
    /// ```text
    ///      1
    ///    /   \
    ///   0     3      plus chord 0-2 and 2-3 along the bottom
    ///    \   /
    ///      2
    /// ```
    fn diamond() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 1.0));
        let n2 = b.add_node(Point::new(1.0, -1.0));
        let n3 = b.add_node(Point::new(2.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        b.add_straight_edge(n1, n3).unwrap();
        b.add_straight_edge(n0, n2).unwrap();
        b.add_straight_edge(n2, n3).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts() {
        let g = diamond();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn adjacency_is_symmetric() {
        let g = diamond();
        for n in g.node_ids() {
            for &(e, nb) in g.adjacent(n) {
                assert!(g.edge(e).touches(n));
                assert_eq!(g.edge(e).other(n), nb);
                // The reverse entry exists.
                assert!(g.adjacent(nb).iter().any(|&(e2, n2)| e2 == e && n2 == n));
            }
        }
    }

    #[test]
    fn degrees() {
        let g = diamond();
        for n in g.node_ids() {
            assert_eq!(g.degree(n), 2);
        }
    }

    #[test]
    fn position_point_interpolates() {
        let g = diamond();
        let e = EdgeId(0); // 0 -> 1, length sqrt(2)
        let len = g.edge(e).length;
        let mid = g.position_point(&NetPosition::new(e, len / 2.0));
        assert!(rn_geom::approx_eq(mid.x, 0.5));
        assert!(rn_geom::approx_eq(mid.y, 0.5));
        let (du, dv) = g.position_endpoint_dists(&NetPosition::new(e, len / 2.0));
        assert!(rn_geom::approx_eq(du, dv));
    }

    #[test]
    fn mbr_covers_all_nodes() {
        let g = diamond();
        let m = g.mbr().unwrap();
        for n in g.node_ids() {
            assert!(m.contains_point(&g.point(n)));
        }
    }

    #[test]
    fn edge_other_panics_for_stranger() {
        let g = diamond();
        let e = g.edge(EdgeId(0)).clone();
        let stranger = NodeId(3);
        assert!(!e.touches(stranger));
        let r = std::panic::catch_unwind(|| e.other(stranger));
        assert!(r.is_err());
    }

    #[test]
    fn straight_edges_have_delta_one() {
        let g = diamond();
        assert!(rn_geom::approx_eq(g.edge_delta(), 1.0));
    }

    #[test]
    fn set_edge_weight_clamps_to_free_flow_floor() {
        let mut g = diamond();
        let e = EdgeId(0);
        let arc = g.edge(e).geometry.length();
        let old = g.set_edge_weight(e, arc * 3.0);
        assert!(rn_geom::approx_eq(old, arc));
        assert!(rn_geom::approx_eq(g.edge(e).length, arc * 3.0));
        // A decrease below the arc length clamps to the floor.
        g.set_edge_weight(e, arc * 0.25);
        assert_eq!(g.edge(e).length.to_bits(), arc.to_bits());
        // Geometry (and so the interpolated points) is untouched.
        let p = g.position_point(&NetPosition::new(e, arc / 2.0));
        assert!(rn_geom::approx_eq(p.x, 0.5));
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn set_edge_weight_rejects_nonpositive() {
        let mut g = diamond();
        g.set_edge_weight(EdgeId(0), 0.0);
    }
}

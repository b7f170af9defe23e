//! Shortest-path reconstruction.
//!
//! The skyline algorithms only need distances, but a road-network library
//! that cannot hand back the actual route would be useless downstream —
//! "which hotels are on the skyline" is always followed by "how do I get
//! there". [`PathFinder`] runs a parent-tracking A\* between two network
//! positions and returns a [`NetPath`]: the node sequence, the edges
//! traversed, and the exact length (which always equals the distance the
//! query engines report — property-tested against them).

use crate::ctx::NetCtx;
use crate::nodemap::NodeMap;
use rn_geom::{OrdF64, Point};
use rn_graph::{EdgeId, NetPosition, NodeId};
use rn_storage::AdjRecord;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A reconstructed shortest path between two on-network positions.
#[derive(Clone, Debug, PartialEq)]
pub struct NetPath {
    /// Total network length.
    pub length: f64,
    /// Junctions visited, in order (empty when the path stays on one
    /// edge).
    pub nodes: Vec<NodeId>,
    /// Edges traversed, in order. Includes the partial first/last edges;
    /// a same-edge path is the single shared edge.
    pub edges: Vec<EdgeId>,
}

/// One-shot shortest-path solver with parent tracking.
pub struct PathFinder<'a> {
    ctx: &'a NetCtx<'a>,
}

impl<'a> PathFinder<'a> {
    /// Creates a solver over the given substrates.
    pub fn new(ctx: &'a NetCtx<'a>) -> Self {
        PathFinder { ctx }
    }

    /// Computes the shortest path from `source` to `target`, or `None`
    /// when they are disconnected.
    pub fn shortest_path(&self, source: NetPosition, target: NetPosition) -> Option<NetPath> {
        let net = self.ctx.net;
        let s_edge = net.edge(source.edge);
        let t_edge = net.edge(target.edge);
        let (su, sv) = net.position_endpoint_dists(&source);
        let (tu, tv) = net.position_endpoint_dists(&target);
        let t_point = net.position_point(&target);

        // Same-edge direct candidate.
        let direct = if source.edge == target.edge {
            (source.offset - target.offset).abs()
        } else {
            f64::INFINITY
        };

        // Parent-tracking A*: parent[n] = (previous node, via edge).
        let n_nodes = net.node_count();
        let mut dist: NodeMap<f64> = NodeMap::new(n_nodes);
        let mut open: NodeMap<f64> = NodeMap::new(n_nodes);
        let mut parent: NodeMap<Option<(NodeId, EdgeId)>> = NodeMap::new(n_nodes);
        let mut heap: BinaryHeap<Reverse<(OrdF64, OrdF64, NodeId)>> = BinaryHeap::new();
        let mut rec = AdjRecord::default();

        let push = |open: &mut NodeMap<f64>,
                    heap: &mut BinaryHeap<Reverse<(OrdF64, OrdF64, NodeId)>>,
                    n: NodeId,
                    g: f64,
                    p: Point| {
            open.insert(n, g);
            heap.push(Reverse((
                OrdF64::new(g + p.distance(&t_point)),
                OrdF64::new(g),
                n,
            )));
        };
        push(&mut open, &mut heap, s_edge.u, su, net.point(s_edge.u));
        parent.insert(s_edge.u, None);
        if sv < open.get_copied(s_edge.v).unwrap_or(f64::INFINITY) {
            push(&mut open, &mut heap, s_edge.v, sv, net.point(s_edge.v));
            parent.insert(s_edge.v, None);
        }

        // Best known arrival at the target via a settled endpoint.
        let mut best: Option<(f64, NodeId)> = None;
        let consider = |best: &mut Option<(f64, NodeId)>, d: f64, via: NodeId| {
            if best.map_or(true, |(b, _)| d < b) {
                *best = Some((d, via));
            }
        };

        while let Some(Reverse((key, g, n))) = heap.pop() {
            if open.get_copied(n) != Some(g.get()) {
                continue; // stale
            }
            if let Some((b, _)) = best {
                if key.get() >= b.min(direct) {
                    break; // nothing on the frontier can improve
                }
            } else if key.get() >= direct {
                break;
            }
            let g = g.get();
            open.remove(n);
            dist.insert(n, g);
            if n == t_edge.u {
                consider(&mut best, g + tu, n);
            }
            if n == t_edge.v {
                consider(&mut best, g + tv, n);
            }
            self.ctx.store.read_adjacency_into(n, &mut rec);
            for i in 0..rec.entries.len() {
                let ent = rec.entries[i];
                if dist.contains(ent.node) {
                    continue;
                }
                let ng = g + ent.length;
                if ng < open.get_copied(ent.node).unwrap_or(f64::INFINITY) {
                    parent.insert(ent.node, Some((n, ent.edge)));
                    push(&mut open, &mut heap, ent.node, ng, ent.point);
                }
            }
        }

        match best {
            Some((d, _)) if direct <= d => Some(NetPath {
                length: direct,
                nodes: Vec::new(),
                edges: vec![source.edge],
            }),
            None if direct.is_finite() => Some(NetPath {
                length: direct,
                nodes: Vec::new(),
                edges: vec![source.edge],
            }),
            None => None,
            Some((d, via)) => {
                // Walk the parent chain back to a source-edge endpoint.
                let mut nodes = vec![via];
                let mut edges = vec![target.edge];
                let mut cur = via;
                while let Some(&Some((prev, edge))) = parent.get(cur) {
                    nodes.push(prev);
                    edges.push(edge);
                    cur = prev;
                }
                edges.push(source.edge);
                nodes.reverse();
                edges.reverse();
                Some(NetPath {
                    length: d,
                    nodes,
                    edges,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astar::AStar;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use rn_geom::approx_eq;
    use rn_graph::{NetworkBuilder, RoadNetwork};
    use rn_index::MiddleLayer;
    use rn_storage::NetworkStore;

    fn random_net(n: usize, seed: u64) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetworkBuilder::new();
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
            .collect();
        for p in &pts {
            b.add_node(*p);
        }
        for i in 1..n {
            let j = rng.random_range(0..i);
            let len = pts[i].distance(&pts[j]) * rng.random_range(1.0..1.4);
            b.add_weighted_edge(NodeId(i as u32), NodeId(j as u32), len)
                .unwrap();
        }
        for _ in 0..n / 2 {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..n);
            if i != j {
                let len = pts[i].distance(&pts[j]) * rng.random_range(1.0..1.3);
                let _ = b.add_weighted_edge(NodeId(i as u32), NodeId(j as u32), len);
            }
        }
        b.build().unwrap()
    }

    fn rand_pos(g: &RoadNetwork, rng: &mut StdRng) -> NetPosition {
        let e = EdgeId(rng.random_range(0..g.edge_count() as u32));
        NetPosition::new(e, rng.random_range(0.0..g.edge(e).length))
    }

    /// The reconstructed edge sequence must re-add to the reported length.
    fn check_path_consistency(
        g: &RoadNetwork,
        src: &NetPosition,
        dst: &NetPosition,
        path: &NetPath,
    ) {
        if path.nodes.is_empty() {
            assert_eq!(path.edges, vec![src.edge]);
            assert_eq!(src.edge, dst.edge);
            assert!(approx_eq(path.length, (src.offset - dst.offset).abs()));
            return;
        }
        // First hop: source offset to the first node along the source edge.
        let first = path.nodes[0];
        let s_edge = g.edge(src.edge);
        // The first node need not be on the source edge (the chain starts
        // at whichever endpoint was settled), but the first edge is the
        // source edge.
        assert_eq!(*path.edges.first().unwrap(), src.edge);
        assert_eq!(*path.edges.last().unwrap(), dst.edge);
        let mut total = if first == s_edge.u {
            src.offset
        } else {
            s_edge.length - src.offset
        };
        // Interior edges connect consecutive nodes.
        for (k, w) in path.nodes.windows(2).enumerate() {
            let e = g.edge(path.edges[k + 1]);
            assert!(e.touches(w[0]) && e.touches(w[1]), "edge chain broken");
            total += e.length;
        }
        // Last hop: from the last node to the target offset.
        let last = *path.nodes.last().unwrap();
        let t_edge = g.edge(dst.edge);
        total += if last == t_edge.u {
            dst.offset
        } else {
            t_edge.length - dst.offset
        };
        assert!(
            approx_eq(total, path.length),
            "edge walk {total} != reported {}",
            path.length
        );
    }

    #[test]
    fn path_length_matches_astar_distance() {
        for seed in 0..5u64 {
            let g = random_net(50, seed);
            let store = NetworkStore::build(&g);
            let mid = MiddleLayer::build(&g, &[]);
            let ctx = NetCtx::new(&g, &store, &mid);
            let finder = PathFinder::new(&ctx);
            let mut rng = StdRng::seed_from_u64(seed + 500);
            for _ in 0..8 {
                let src = rand_pos(&g, &mut rng);
                let dst = rand_pos(&g, &mut rng);
                let path = finder.shortest_path(src, dst).expect("connected");
                let mut astar = AStar::new(&ctx, src);
                let d = astar.distance_to(dst);
                assert!(
                    approx_eq(path.length, d),
                    "seed {seed}: path {} vs A* {d}",
                    path.length
                );
                check_path_consistency(&g, &src, &dst, &path);
            }
        }
    }

    #[test]
    fn same_edge_path() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(10.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        let g = b.build().unwrap();
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let finder = PathFinder::new(&ctx);
        let p = finder
            .shortest_path(
                NetPosition::new(EdgeId(0), 2.0),
                NetPosition::new(EdgeId(0), 9.0),
            )
            .unwrap();
        assert!(p.nodes.is_empty(), "same-edge path crosses no junction");
        assert!(approx_eq(p.length, 7.0));
    }

    #[test]
    fn same_edge_but_detour_wins() {
        // Long edge with a short bypass: the reconstructed path must take
        // the bypass, not the direct along-edge walk.
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        b.add_weighted_edge(n0, n1, 100.0).unwrap(); // edge 0: slow
        b.add_straight_edge(n0, n1).unwrap(); // edge 1: fast (1.0)
        let g = b.build().unwrap();
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let finder = PathFinder::new(&ctx);
        let src = NetPosition::new(EdgeId(0), 1.0);
        let dst = NetPosition::new(EdgeId(0), 99.0);
        let p = finder.shortest_path(src, dst).unwrap();
        // 1 back to n0, across the fast edge (1), then 1 from n1: total 3.
        assert!(approx_eq(p.length, 3.0));
        assert!(!p.nodes.is_empty());
        assert!(p.edges.contains(&EdgeId(1)));
    }

    #[test]
    fn disconnected_returns_none() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let n2 = b.add_node(Point::new(5.0, 0.0));
        let n3 = b.add_node(Point::new(6.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        b.add_straight_edge(n2, n3).unwrap();
        let g = b.build().unwrap();
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let finder = PathFinder::new(&ctx);
        assert!(finder
            .shortest_path(
                NetPosition::new(EdgeId(0), 0.5),
                NetPosition::new(EdgeId(1), 0.5)
            )
            .is_none());
    }

    #[test]
    fn zero_length_path() {
        let g = random_net(10, 3);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let finder = PathFinder::new(&ctx);
        let pos = NetPosition::new(EdgeId(0), 1.0_f64.min(g.edge(EdgeId(0)).length / 2.0));
        let p = finder.shortest_path(pos, pos).unwrap();
        assert!(approx_eq(p.length, 0.0));
    }
}

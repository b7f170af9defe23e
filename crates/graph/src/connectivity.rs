//! Connected-component analysis.
//!
//! Every experiment in the paper implicitly assumes finite network
//! distances between query points and all candidate objects. The workload
//! generator builds connected networks by construction (a spanning tree
//! first); this module lets tests check it.

use crate::network::{NodeId, RoadNetwork};

/// Label of the connected component of each node: `labels[n] == labels[m]`
/// iff `n` and `m` are connected. Labels are dense `0..component_count`.
pub struct Components {
    /// Per-node component label.
    pub labels: Vec<u32>,
    /// Number of components.
    pub count: u32,
}

/// Computes connected components with an iterative BFS (no recursion, so
/// arbitrarily large road networks are safe).
pub fn components(g: &RoadNetwork) -> Components {
    let n = g.node_count();
    let mut labels = vec![u32::MAX; n];
    let mut count = 0u32;
    let mut queue = Vec::new();
    for start in 0..n {
        if labels[start] != u32::MAX {
            continue;
        }
        labels[start] = count;
        queue.push(NodeId(start as u32));
        while let Some(v) = queue.pop() {
            for &(_, nb) in g.adjacent(v) {
                if labels[nb.idx()] == u32::MAX {
                    labels[nb.idx()] = count;
                    queue.push(nb);
                }
            }
        }
        count += 1;
    }
    Components { labels, count }
}

/// `true` when the whole network is a single connected component (or empty).
pub fn is_connected(g: &RoadNetwork) -> bool {
    components(g).count <= 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use rn_geom::Point;

    fn two_islands() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        // Island A: triangle (3 nodes).
        let a0 = b.add_node(Point::new(0.0, 0.0));
        let a1 = b.add_node(Point::new(1.0, 0.0));
        let a2 = b.add_node(Point::new(0.0, 1.0));
        b.add_straight_edge(a0, a1).unwrap();
        b.add_straight_edge(a1, a2).unwrap();
        b.add_straight_edge(a2, a0).unwrap();
        // Island B: a 2-node bridge far away.
        let b0 = b.add_node(Point::new(100.0, 100.0));
        let b1 = b.add_node(Point::new(101.0, 100.0));
        b.add_straight_edge(b0, b1).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn counts_components() {
        let g = two_islands();
        let c = components(&g);
        assert_eq!(c.count, 2);
        assert!(!is_connected(&g));
        assert_eq!(c.labels[0], c.labels[1]);
        assert_eq!(c.labels[0], c.labels[2]);
        assert_eq!(c.labels[3], c.labels[4]);
        assert_ne!(c.labels[0], c.labels[3]);
    }

    #[test]
    fn isolated_nodes_form_their_own_components() {
        let mut b = NetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(5.0, 5.0));
        let g = b.build().unwrap();
        assert_eq!(components(&g).count, 2);
    }

    #[test]
    fn empty_network_is_connected() {
        let g = NetworkBuilder::new().build().unwrap();
        assert!(is_connected(&g));
    }
}

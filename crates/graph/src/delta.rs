//! Dynamic-network updates: edge-weight deltas and object churn.
//!
//! The paper's algorithms evaluate a static snapshot; the dynamic layer
//! (DESIGN.md §15) replays *update batches* against that snapshot. An
//! update is one of:
//!
//! * [`Update::SetEdgeWeight`] — the traversal cost of an edge changes
//!   (traffic). Weights are **absolute** values, not multiplicative
//!   factors, so a batch and its [`UpdateBatch::inverse`] round-trip
//!   bitwise: re-applying the recorded old weight restores the exact
//!   `f64` the network held before.
//! * [`Update::InsertObject`] / [`Update::DeleteObject`] — object churn
//!   against the middle layer and the object R-tree.
//!
//! The weight of an edge may rise without bound but never drops below the
//! *free-flow floor* — the arc length of the edge geometry. That floor is
//! what keeps the Euclidean lower bound admissible under any update
//! history: every edge always costs at least the length of the road, which
//! is at least the straight-line distance between its endpoints
//! ([`RoadNetwork::set_edge_weight`] enforces it).

use crate::network::{EdgeId, NetPosition, ObjectId, RoadNetwork};

/// One dynamic update against a network snapshot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Update {
    /// Set the traversal weight of `edge` to the absolute value `weight`.
    SetEdgeWeight {
        /// The edge whose weight changes.
        edge: EdgeId,
        /// The new absolute weight (clamped to the free-flow floor on
        /// application).
        weight: f64,
    },
    /// Insert a new data object at `pos`. The object receives the next
    /// dense [`ObjectId`] when the batch is applied.
    InsertObject {
        /// Where the new object lives. The offset is interpreted against
        /// the edge weight at application time.
        pos: NetPosition,
    },
    /// Delete the data object `object`. Deletion is terminal: the dense id
    /// is retired (never reused), so a delete has no exact inverse.
    DeleteObject {
        /// The object to remove.
        object: ObjectId,
    },
}

/// An ordered batch of updates, applied atomically between queries.
///
/// # Panics
/// Construction panics when two weight updates in the same batch target
/// the same edge — the inverse of such a batch would be ambiguous, and
/// the seeded generators never emit one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateBatch {
    updates: Vec<Update>,
}

impl UpdateBatch {
    /// Wraps a list of updates as a batch.
    pub fn new(updates: Vec<Update>) -> Self {
        let mut edges: Vec<EdgeId> = updates
            .iter()
            .filter_map(|u| match u {
                Update::SetEdgeWeight { edge, .. } => Some(*edge),
                _ => None,
            })
            .collect();
        edges.sort_unstable();
        assert!(
            edges.windows(2).all(|w| w[0] != w[1]),
            "batch contains two weight updates for the same edge"
        );
        UpdateBatch { updates }
    }

    /// The updates in application order.
    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Number of updates in the batch.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// `true` when the batch contains no updates.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    /// Edges whose weight this batch changes, sorted and deduplicated.
    pub fn touched_edges(&self) -> Vec<EdgeId> {
        let mut edges: Vec<EdgeId> = self
            .updates
            .iter()
            .filter_map(|u| match u {
                Update::SetEdgeWeight { edge, .. } => Some(*edge),
                _ => None,
            })
            .collect();
        edges.sort_unstable();
        edges
    }

    /// The exact inverse of this batch against the pre-application state.
    ///
    /// * weight updates record the old absolute weight of `net_before`, so
    ///   applying the inverse restores it bitwise;
    /// * inserts become deletes of the ids they will receive —
    ///   `next_object` is the object count of the engine *before* this
    ///   batch is applied;
    /// * deletes have no inverse (ids are retired, never restored).
    ///
    /// # Panics
    /// Panics when the batch contains a [`Update::DeleteObject`].
    pub fn inverse(&self, net_before: &RoadNetwork, next_object: u32) -> UpdateBatch {
        let mut next = next_object;
        // Undo in reverse application order so nested structure (if a
        // caller ever interleaves) stays well-formed; with per-batch
        // distinct edges the order only matters for readability.
        let mut inv: Vec<Update> = self
            .updates
            .iter()
            .map(|u| match u {
                Update::SetEdgeWeight { edge, .. } => Update::SetEdgeWeight {
                    edge: *edge,
                    weight: net_before.edge(*edge).length,
                },
                Update::InsertObject { .. } => {
                    let id = ObjectId(next);
                    next += 1;
                    Update::DeleteObject { object: id }
                }
                Update::DeleteObject { .. } => {
                    panic!("DeleteObject has no exact inverse: object ids are retired")
                }
            })
            .collect();
        inv.reverse();
        UpdateBatch::new(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkBuilder;
    use rn_geom::Point;

    fn two_edge_net() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(10.0, 0.0));
        let n2 = b.add_node(Point::new(20.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        b.add_weighted_edge(n1, n2, 14.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn touched_edges_lists_reweighted_edges() {
        let b = UpdateBatch::new(vec![
            Update::SetEdgeWeight {
                edge: EdgeId(1),
                weight: 12.0,
            },
            Update::InsertObject {
                pos: NetPosition::new(EdgeId(0), 1.0),
            },
        ]);
        assert_eq!(b.touched_edges(), vec![EdgeId(1)]);
    }

    #[test]
    fn inverse_restores_weights_bitwise_and_deletes_inserts() {
        let net = two_edge_net();
        let old = net.edge(EdgeId(1)).length;
        let b = UpdateBatch::new(vec![
            Update::SetEdgeWeight {
                edge: EdgeId(1),
                weight: 17.5,
            },
            Update::InsertObject {
                pos: NetPosition::new(EdgeId(0), 2.0),
            },
        ]);
        let inv = b.inverse(&net, 5);
        assert_eq!(
            inv.updates(),
            &[
                Update::DeleteObject {
                    object: ObjectId(5)
                },
                Update::SetEdgeWeight {
                    edge: EdgeId(1),
                    weight: old,
                },
            ]
        );
    }

    #[test]
    #[should_panic(expected = "same edge")]
    fn rejects_duplicate_edge_updates() {
        UpdateBatch::new(vec![
            Update::SetEdgeWeight {
                edge: EdgeId(0),
                weight: 11.0,
            },
            Update::SetEdgeWeight {
                edge: EdgeId(0),
                weight: 12.0,
            },
        ]);
    }

    #[test]
    #[should_panic(expected = "no exact inverse")]
    fn deletes_are_not_invertible() {
        let net = two_edge_net();
        UpdateBatch::new(vec![Update::DeleteObject {
            object: ObjectId(0),
        }])
        .inverse(&net, 0);
    }
}

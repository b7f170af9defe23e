//! Dense per-node scratch maps for search-state bookkeeping.
//!
//! The search engines in this crate ([`crate::Dijkstra`], [`crate::AStar`],
//! [`crate::PathFinder`]) keep per-node state — settled distances, frontier
//! labels, parent pointers — that was originally held in `HashMap<NodeId, _>`.
//! Node ids are dense (`0..node_count`, a [`rn_graph::NetworkBuilder`]
//! invariant), so a flat vector indexed by [`NodeId::idx`] does the same job
//! with O(1) worst-case access, no hashing, and — important for the query
//! path — fully deterministic behaviour: a `HashMap`'s iteration order
//! varies per process and can silently reorder equal-distance work.
//!
//! Entries are *generation-stamped*: each slot records the map generation it
//! was last written in, and [`NodeMap::clear`] simply bumps the generation.
//! Resetting a map between queries is therefore O(1) instead of the old
//! O(|V|) zero-fill, which is what makes the engines' `rebase` methods (and
//! the parallel batch engine's engine reuse) cheap.
//!
//! A map has no iteration: an engine that must walk its entries keeps
//! them in a dense vector of its own and maps each node to its position
//! here, as the A\* frontier does (a `NodeMap<u32>` of rows).

use rn_graph::NodeId;

/// A map from [`NodeId`] to `T` backed by a dense, generation-stamped
/// vector.
///
/// Semantically equivalent to `HashMap<NodeId, T>` for dense node-id
/// universes of known size. Out-of-range lookups return `None`; inserting
/// out of range grows the map (positions are sometimes probed before the
/// network's node count is known to the caller).
#[derive(Clone, Debug)]
pub struct NodeMap<T> {
    /// Per node: the generation that last wrote the slot, and its value.
    /// A slot is live iff its stamp equals `gen` and the value is `Some`.
    slots: Vec<(u32, Option<T>)>,
    /// Current generation; starts at 1 so fresh slots (stamp 0) are dead.
    gen: u32,
    len: usize,
}

impl<T> NodeMap<T> {
    /// An empty map pre-sized for `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(node_count, || (0, None));
        NodeMap {
            slots,
            gen: 1,
            len: 0,
        }
    }

    /// Number of nodes with an entry.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no node has an entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Empties the map in O(1) by advancing the generation; allocations are
    /// kept for reuse.
    pub fn clear(&mut self) {
        if self.gen == u32::MAX {
            // Stamp wrap: one full refill per ~4 billion clears.
            for s in &mut self.slots {
                *s = (0, None);
            }
            self.gen = 0;
        }
        self.gen += 1;
        self.len = 0;
    }

    /// The entry for `n`, if present.
    #[inline]
    pub fn get(&self, n: NodeId) -> Option<&T> {
        match self.slots.get(n.idx()) {
            Some((stamp, v)) if *stamp == self.gen => v.as_ref(),
            _ => None,
        }
    }

    /// `true` when `n` has an entry.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.get(n).is_some()
    }

    /// Inserts `v` for `n`, returning the previous entry if any.
    #[inline]
    pub fn insert(&mut self, n: NodeId, v: T) -> Option<T> {
        let i = n.idx();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || (0, None));
        }
        let slot = &mut self.slots[i];
        if slot.0 != self.gen {
            // First touch this generation.
            slot.0 = self.gen;
            slot.1 = Some(v);
            self.len += 1;
            return None;
        }
        let old = slot.1.replace(v);
        if old.is_none() {
            // Re-inserted after a removal.
            self.len += 1;
        }
        old
    }

    /// Removes and returns the entry for `n`.
    #[inline]
    pub fn remove(&mut self, n: NodeId) -> Option<T> {
        let old = match self.slots.get_mut(n.idx()) {
            Some((stamp, v)) if *stamp == self.gen => v.take(),
            _ => None,
        };
        if old.is_some() {
            self.len -= 1;
        }
        old
    }
}

impl<T: Copy> NodeMap<T> {
    /// The entry for `n` by value, if present.
    #[inline]
    pub fn get_copied(&self, n: NodeId) -> Option<T> {
        self.get(n).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove() {
        let mut m: NodeMap<f64> = NodeMap::new(4);
        assert!(m.is_empty());
        assert_eq!(m.insert(NodeId(2), 1.5), None);
        assert_eq!(m.insert(NodeId(2), 2.5), Some(1.5));
        assert_eq!(m.len(), 1);
        assert_eq!(m.get_copied(NodeId(2)), Some(2.5));
        assert!(m.contains(NodeId(2)));
        assert!(!m.contains(NodeId(3)));
        assert_eq!(m.remove(NodeId(2)), Some(2.5));
        assert_eq!(m.remove(NodeId(2)), None);
        assert!(m.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut m: NodeMap<u32> = NodeMap::new(1);
        assert_eq!(m.get(NodeId(9)), None);
        m.insert(NodeId(9), 7);
        assert_eq!(m.get_copied(NodeId(9)), Some(7));
    }

    #[test]
    fn clear_is_logical_and_reuses_slots() {
        let mut m: NodeMap<u32> = NodeMap::new(4);
        m.insert(NodeId(0), 1);
        m.insert(NodeId(3), 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(NodeId(0)), None);
        assert!(!m.contains(NodeId(3)));
        // Stale stamps must not leak into the new generation.
        assert_eq!(m.insert(NodeId(3), 9), None);
        assert_eq!(m.get_copied(NodeId(3)), Some(9));
        assert_eq!(m.len(), 1);
        assert!(!m.contains(NodeId(0)));
    }

    #[test]
    fn removal_then_reinsert_keeps_iteration_deduplicated() {
        let mut m: NodeMap<u32> = NodeMap::new(4);
        m.insert(NodeId(2), 1);
        m.remove(NodeId(2));
        assert!(m.is_empty());
        assert!(!m.contains(NodeId(2)));
        // A re-insert after a removal reads back once and counts once.
        assert_eq!(m.insert(NodeId(2), 5), None);
        assert_eq!(m.get_copied(NodeId(2)), Some(5));
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(NodeId(2)), Some(5));
        assert!(m.is_empty());
    }

    #[test]
    fn many_clears_stay_consistent() {
        let mut m: NodeMap<u32> = NodeMap::new(8);
        for round in 0..1000u32 {
            m.insert(NodeId(round % 8), round);
            assert_eq!(m.len(), 1);
            assert_eq!(m.get_copied(NodeId(round % 8)), Some(round));
            m.clear();
            assert!(m.is_empty());
        }
    }

    #[test]
    fn generation_wraparound_refills_without_resurrection() {
        let mut m: NodeMap<u32> = NodeMap::new(4);
        // A slot written in generation 1, then left untouched while ~4
        // billion clears advance the counter to its ceiling (the length is
        // reset here as those clears would have done).
        m.insert(NodeId(2), 7);
        m.gen = u32::MAX;
        m.len = 0;
        assert_eq!(m.get(NodeId(2)), None, "stale stamp must not read back");
        // Entries written at the ceiling generation behave normally...
        m.insert(NodeId(1), 9);
        assert_eq!(m.get_copied(NodeId(1)), Some(9));
        assert_eq!(m.len(), 1);
        // ...and die at the wrapping clear. The clear's full refill is
        // what keeps the ancient gen-1 slot from colliding with the
        // restarted counter.
        m.clear();
        assert_eq!(m.gen, 1, "counter restarts after the wrap");
        assert!(m.is_empty());
        assert_eq!(m.get(NodeId(1)), None);
        assert_eq!(
            m.get(NodeId(2)),
            None,
            "pre-wrap slot resurrected after the stamp wrap"
        );
        assert_eq!(m.insert(NodeId(2), 11), None);
        assert_eq!(m.get_copied(NodeId(2)), Some(11));
        assert_eq!(m.len(), 1);
        assert!(!m.contains(NodeId(1)));
    }

    #[test]
    fn clear_cycles_across_the_wrap_stay_consistent() {
        let mut m: NodeMap<u32> = NodeMap::new(8);
        // Start close enough to the ceiling that the loop crosses it.
        m.gen = u32::MAX - 500;
        for round in 0..1000u32 {
            let a = NodeId(round % 8);
            let b = NodeId((round + 3) % 8);
            assert_eq!(m.insert(a, round), None);
            assert_eq!(m.insert(b, round + 1), None);
            assert_eq!(m.len(), 2);
            assert_eq!(m.get_copied(a), Some(round));
            assert_eq!(m.get_copied(b), Some(round + 1));
            let others = (0..8).map(NodeId).filter(|&n| n != a && n != b);
            for n in others {
                assert!(!m.contains(n), "round {round}: {n:?} has an entry");
            }
            m.clear();
            assert!(m.is_empty());
            assert_eq!(m.get(a), None, "round {round}: entry survived clear");
        }
        assert!(m.gen < 600, "counter wrapped and restarted low");
    }
}

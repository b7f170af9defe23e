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
//! the parallel batch engine's engine reuse) cheap. A side list of
//! first-touch keys makes [`NodeMap::iter`] proportional to the number of
//! touched nodes, not |V|; [`NodeMap::compact`] trims it to the live
//! entries, for maps that shed most of what they touch (an A\* frontier).

use rn_graph::NodeId;

/// A map from [`NodeId`] to `T` backed by a dense, generation-stamped
/// vector.
///
/// Semantically equivalent to `HashMap<NodeId, T>` for dense node-id
/// universes of known size. Out-of-range lookups return `None`; inserting
/// out of range grows the map (positions are sometimes probed before the
/// network's node count is known to the caller).
///
/// [`NodeMap::iter`] yields entries in **first-insertion order** within the
/// current generation — deterministic, but not sorted by node id.
#[derive(Clone, Debug)]
pub struct NodeMap<T> {
    /// Per node: the generation that last wrote the slot, and its value.
    /// A slot is live iff its stamp equals `gen` and the value is `Some`.
    slots: Vec<(u32, Option<T>)>,
    /// Nodes first touched in the current generation, in touch order.
    /// May contain nodes whose entry was later removed, until the next
    /// [`NodeMap::compact`].
    keys: Vec<u32>,
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
            keys: Vec::new(),
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
        self.keys.clear();
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
            self.keys.push(n.0);
            self.len += 1;
            return None;
        }
        let old = slot.1.replace(v);
        if old.is_none() {
            // Re-inserted after a removal; the key list already has `n`.
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

    /// Iterates `(node, &value)` in first-insertion order — deterministic
    /// (unlike a hash map) and proportional to the touched-node count
    /// (unlike a dense scan).
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &T)> {
        self.keys.iter().filter_map(move |&i| {
            let (stamp, v) = &self.slots[i as usize];
            debug_assert_eq!(*stamp, self.gen, "key list entry from a past gen");
            v.as_ref().map(|v| (NodeId(i), v))
        })
    }

    /// Drops removed nodes from the key list, keeping the live ones in
    /// first-insertion order, so [`NodeMap::iter`] walks exactly
    /// [`NodeMap::len`] keys until the next removal. A dropped slot's
    /// stamp is reset, so re-inserting its node counts as a first touch.
    ///
    /// Costs one pass over the keys accumulated since the last compaction
    /// or clear: amortized O(1) per insertion.
    pub fn compact(&mut self) {
        let slots = &mut self.slots;
        self.keys.retain(|&i| {
            let slot = &mut slots[i as usize];
            if slot.1.is_none() {
                // Stamp 0 is never a live generation (`gen` starts at 1).
                slot.0 = 0;
            }
            slot.1.is_some()
        });
        debug_assert_eq!(self.keys.len(), self.len);
    }

    /// Length of the key list, removed entries included.
    #[cfg(test)]
    pub(crate) fn key_list_len(&self) -> usize {
        self.keys.len()
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
    fn iterates_in_insertion_order() {
        let mut m: NodeMap<u32> = NodeMap::new(8);
        m.insert(NodeId(5), 50);
        m.insert(NodeId(1), 10);
        m.insert(NodeId(3), 30);
        let got: Vec<(NodeId, u32)> = m.iter().map(|(n, &v)| (n, v)).collect();
        assert_eq!(got, vec![(NodeId(5), 50), (NodeId(1), 10), (NodeId(3), 30)]);
    }

    #[test]
    fn clear_is_logical_and_reuses_slots() {
        let mut m: NodeMap<u32> = NodeMap::new(4);
        m.insert(NodeId(0), 1);
        m.insert(NodeId(3), 2);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.get(NodeId(0)), None);
        assert_eq!(m.iter().count(), 0);
        // Stale stamps must not leak into the new generation.
        assert_eq!(m.insert(NodeId(3), 9), None);
        assert_eq!(m.get_copied(NodeId(3)), Some(9));
        assert_eq!(m.len(), 1);
        let got: Vec<NodeId> = m.iter().map(|(n, _)| n).collect();
        assert_eq!(got, vec![NodeId(3)]);
    }

    #[test]
    fn removal_then_reinsert_keeps_iteration_deduplicated() {
        let mut m: NodeMap<u32> = NodeMap::new(4);
        m.insert(NodeId(2), 1);
        m.remove(NodeId(2));
        assert_eq!(m.iter().count(), 0);
        m.insert(NodeId(2), 5);
        let got: Vec<(NodeId, u32)> = m.iter().map(|(n, &v)| (n, v)).collect();
        assert_eq!(got, vec![(NodeId(2), 5)]);
        assert_eq!(m.len(), 1);
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
        // billion clears advance the counter to its ceiling (the key list
        // and length are reset here as those clears would have done).
        m.insert(NodeId(2), 7);
        m.gen = u32::MAX;
        m.keys.clear();
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
        assert_eq!(m.iter().count(), 1);
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
            let keys: Vec<NodeId> = m.iter().map(|(n, _)| n).collect();
            assert_eq!(keys, vec![a, b], "round {round}");
            m.clear();
            assert!(m.is_empty());
            assert_eq!(m.get(a), None, "round {round}: entry survived clear");
        }
        assert!(m.gen < 600, "counter wrapped and restarted low");
    }

    /// The raw key list, removed entries included.
    fn raw_keys(m: &NodeMap<u32>) -> Vec<NodeId> {
        m.keys.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn compact_keeps_live_keys_in_insertion_order() {
        let mut m: NodeMap<u32> = NodeMap::new(8);
        for n in [6, 2, 7, 0, 4] {
            m.insert(NodeId(n), n * 10);
        }
        m.remove(NodeId(2));
        m.remove(NodeId(0));
        assert_eq!(raw_keys(&m).len(), 5, "removal leaves keys behind");
        m.compact();
        let want = vec![NodeId(6), NodeId(7), NodeId(4)];
        assert_eq!(raw_keys(&m), want);
        let got: Vec<(NodeId, u32)> = m.iter().map(|(n, &v)| (n, v)).collect();
        assert_eq!(got, vec![(NodeId(6), 60), (NodeId(7), 70), (NodeId(4), 40)]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.get_copied(NodeId(7)), Some(70));
        assert_eq!(m.get(NodeId(2)), None);
    }

    #[test]
    fn compact_then_reinsert_appears_exactly_once() {
        let mut m: NodeMap<u32> = NodeMap::new(4);
        m.insert(NodeId(1), 1);
        m.insert(NodeId(3), 3);
        m.remove(NodeId(1));
        m.compact();
        assert_eq!(m.insert(NodeId(1), 11), None, "dropped slot reads as empty");
        assert_eq!(m.len(), 2);
        // Re-inserted after compaction: a first touch again, so it sits at
        // the end of the key list, once.
        assert_eq!(raw_keys(&m), vec![NodeId(3), NodeId(1)]);
        let got: Vec<(NodeId, u32)> = m.iter().map(|(n, &v)| (n, v)).collect();
        assert_eq!(got, vec![(NodeId(3), 3), (NodeId(1), 11)]);
        // A second remove/compact/insert round stays deduplicated too.
        m.remove(NodeId(1));
        m.compact();
        m.compact();
        m.insert(NodeId(1), 21);
        assert_eq!(raw_keys(&m), vec![NodeId(3), NodeId(1)]);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn compact_on_empty_or_cleared_map_is_a_no_op() {
        let mut m: NodeMap<u32> = NodeMap::new(4);
        m.compact();
        assert!(m.is_empty());
        assert_eq!(m.iter().count(), 0);
        m.insert(NodeId(2), 5);
        m.insert(NodeId(0), 6);
        m.clear();
        m.compact();
        assert!(m.is_empty());
        assert!(raw_keys(&m).is_empty());
        // The previous generation's stamps are untouched and still dead.
        assert_eq!(m.get(NodeId(2)), None);
        assert_eq!(m.insert(NodeId(2), 7), None);
        assert_eq!(raw_keys(&m), vec![NodeId(2)]);
    }

    #[test]
    fn compact_cycles_across_the_wrap_stay_consistent() {
        let mut m: NodeMap<u32> = NodeMap::new(8);
        // Start close enough to the ceiling that the loop crosses it.
        m.gen = u32::MAX - 500;
        for round in 0..1000u32 {
            let a = NodeId(round % 8);
            let b = NodeId((round + 3) % 8);
            let c = NodeId((round + 5) % 8);
            m.insert(a, round);
            m.insert(b, round + 1);
            m.insert(c, round + 2);
            m.remove(b);
            m.compact();
            assert_eq!(raw_keys(&m), vec![a, c], "round {round}");
            // The dropped node comes back as a fresh first touch.
            assert_eq!(m.insert(b, round + 3), None, "round {round}");
            let got: Vec<(NodeId, u32)> = m.iter().map(|(n, &v)| (n, v)).collect();
            assert_eq!(
                got,
                vec![(a, round), (c, round + 2), (b, round + 3)],
                "round {round}"
            );
            assert_eq!(m.len(), 3);
            m.clear();
            assert!(m.is_empty());
            assert_eq!(m.get(b), None, "round {round}: entry survived clear");
        }
        assert!(m.gen < 600, "counter wrapped and restarted low");
    }
}

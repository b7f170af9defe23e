//! Dense page-id bitset for cold/warm fault attribution.
//!
//! Page ids are small dense integers (a store's pages are numbered
//! `0..page_count`), so first-touch tracking needs one bit per page, not
//! a hash-set entry. At continental scale (~100k network pages) the
//! `HashSet<PageId>` the pool used to carry cost ~48 bytes of table per
//! touched page plus a hash per lookup; the bitset costs a fixed
//! `page_count / 8` bytes and an AND/OR per lookup, and its iteration
//! order problems simply do not exist because it is never iterated.

/// A growable bitset keyed by [`crate::PageId`] index.
///
/// Semantically identical to a `HashSet<PageId>` restricted to
/// `insert`/`contains`/`clear` — the regression test in
/// [`crate::buffer`] pins that equivalence property-style.
#[derive(Clone, Debug, Default)]
pub struct PageBitSet {
    words: Vec<u64>,
    /// Number of set bits, so `len` stays O(1).
    ones: usize,
}

impl PageBitSet {
    /// An empty set.
    pub fn new() -> Self {
        PageBitSet::default()
    }

    /// Inserts `idx`, returning `true` when it was not yet present —
    /// the same contract as `HashSet::insert`.
    #[inline]
    pub fn insert(&mut self, idx: usize) -> bool {
        let (w, bit) = (idx / 64, 1u64 << (idx % 64));
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let fresh = self.words[w] & bit == 0;
        self.words[w] |= bit;
        self.ones += fresh as usize;
        fresh
    }

    /// `true` when `idx` is present.
    #[inline]
    pub fn contains(&self, idx: usize) -> bool {
        self.words
            .get(idx / 64)
            .is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// Removes every element, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Number of elements present.
    pub fn len(&self) -> usize {
        self.ones
    }

    /// `true` when no element is present.
    pub fn is_empty(&self) -> bool {
        self.ones == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_clear() {
        let mut s = PageBitSet::new();
        assert!(!s.contains(0));
        assert!(s.insert(0));
        assert!(!s.insert(0), "second insert reports already-present");
        assert!(s.insert(1000));
        assert!(s.contains(0));
        assert!(s.contains(1000));
        assert!(!s.contains(999));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(0));
        assert!(s.insert(0), "cleared set treats everything as fresh");
    }

    #[test]
    fn matches_hashset_model() {
        use proptest::prelude::*;
        let mut runner =
            proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(64));
        runner
            .run(&proptest::collection::vec(0usize..512, 0..400), |inserts| {
                let mut bits = PageBitSet::new();
                let mut model = std::collections::HashSet::new();
                for &i in &inserts {
                    prop_assert_eq!(bits.insert(i), model.insert(i));
                }
                for i in 0..512 {
                    prop_assert_eq!(bits.contains(i), model.contains(&i));
                }
                prop_assert_eq!(bits.len(), model.len());
                Ok(())
            })
            .unwrap();
    }
}

//! An O(1) LRU buffer pool.
//!
//! §6.1: "a 1MB LRU buffer is used in all experiments". With 4 KB pages
//! that is 256 frames. The pool sits between the query algorithms and the
//! simulated [`crate::page::Disk`]; every request is classified as a hit or
//! a fault and tallied into [`crate::IoStats`].

use crate::bitset::PageBitSet;
use crate::fault::FaultPlan;
use crate::page::{Disk, PageId, PAGE_SIZE};
use crate::stats::IoStats;
use bytes::Bytes;
use std::collections::HashMap;

/// Default buffer size in bytes (1 MB, as in the paper).
pub const DEFAULT_BUFFER_BYTES: usize = 1 << 20;

const NIL: usize = usize::MAX;

/// A frame in the pool's intrusive LRU list.
struct Frame {
    page: PageId,
    data: Bytes,
    prev: usize,
    next: usize,
    /// `true` while the frame holds a readahead-staged page no demand
    /// request has touched yet. Cleared on the first demand hit (which
    /// counts as a prefetch hit); still set at eviction means the
    /// speculative read was wasted.
    prefetched: bool,
}

/// LRU page cache with a fixed number of frames.
///
/// All operations are O(1): a `HashMap` locates the frame of a cached page
/// and an intrusive doubly-linked list over the frame arena maintains
/// recency order. The pool itself is deliberately lock-free and
/// single-owner; [`crate::NetworkStore`] wraps it in a mutex for shared
/// use, and batch workers get *private* pools via
/// [`crate::NetworkStore::session`] so their fault counts stay
/// deterministic regardless of thread scheduling.
pub struct BufferPool {
    frames: Vec<Frame>,
    map: HashMap<PageId, usize>,
    /// Most recently used frame, or NIL when empty.
    head: usize,
    /// Least recently used frame, or NIL when empty.
    tail: usize,
    capacity: usize,
    stats: IoStats,
    /// Every page this pool has ever *demand*-touched, for cold/warm
    /// fault attribution: a miss on a never-seen page is compulsory
    /// (cold), a miss on a seen page is a re-fault of an evicted page
    /// (warm). A dense bitset keyed by page index — page ids are small
    /// dense integers, so this is one bit per page instead of a
    /// hash-set entry per touched page (the old `HashSet<PageId>` cost
    /// ~48 bytes/page at 1M-node scale). Cleared together with the
    /// cache so a `clear()`ed pool attributes like a fresh one.
    /// Readahead staging does not mark pages seen: attribution follows
    /// demand touches only, so it is identical with readahead on or off.
    seen: PageBitSet,
    /// Deterministic fault schedule applied to disk reads on misses;
    /// `None` injects nothing (the default).
    plan: Option<FaultPlan>,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages.
    ///
    /// # Panics
    /// Panics when `capacity == 0`.
    pub fn new(capacity: usize, stats: IoStats) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            frames: Vec::with_capacity(capacity.min(4096)),
            map: HashMap::with_capacity(capacity.min(4096)),
            head: NIL,
            tail: NIL,
            capacity,
            stats,
            seen: PageBitSet::new(),
            plan: None,
        }
    }

    /// A pool sized to `bytes` of 4 KB pages (the paper's configuration is
    /// [`DEFAULT_BUFFER_BYTES`], i.e. 256 frames).
    pub fn with_bytes(bytes: usize, stats: IoStats) -> Self {
        BufferPool::new((bytes / PAGE_SIZE).max(1), stats)
    }

    /// Number of frames currently occupied.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no page is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of cached pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The stats handle this pool reports into.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// Installs (or removes) a deterministic fault schedule for future
    /// misses. The cache contents and counters are untouched.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
    }

    /// The fault schedule currently applied to misses, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.plan
    }

    /// Fetches a page through the cache, reading from `disk` on a miss.
    ///
    /// The miss is classified cold/warm exactly once, *before* the
    /// retry loop: injected transient errors multiply the physical read
    /// attempts, not the fault attribution — a faulted page retried
    /// three times is still one cold (or warm) fault.
    pub fn get(&mut self, disk: &Disk, page: PageId) -> Bytes {
        self.get_classified(disk, page).0
    }

    /// [`BufferPool::get`] that also reports whether the request was a
    /// demand miss — the signal [`crate::ShardedPool`] uses to trigger
    /// Hilbert-run readahead.
    pub fn get_classified(&mut self, disk: &Disk, page: PageId) -> (Bytes, bool) {
        if let Some(&fi) = self.map.get(&page) {
            self.stats.record_hit();
            if self.frames[fi].prefetched {
                // First demand touch of a readahead-staged page: the
                // speculative read paid off. Only now does the page
                // enter the first-touch history — attribution follows
                // demand accesses, never the prefetcher.
                self.frames[fi].prefetched = false;
                self.seen.insert(page.idx());
                self.stats.record_prefetch_hit();
            }
            self.touch(fi);
            return (self.frames[fi].data.clone(), false);
        }
        if self.seen.insert(page.idx()) {
            self.stats.record_fault_cold();
        } else {
            self.stats.record_fault_warm();
        }
        let data = self.read_with_retries(disk, page);
        self.insert(page, data.clone(), false);
        (data, true)
    }

    /// Stages `page` speculatively (readahead): if it is not already
    /// cached, reads it from `disk` and inserts it at the MRU position
    /// flagged as prefetched. Returns `true` when a read was issued.
    ///
    /// Staging is invisible to demand accounting: it never touches
    /// `logical`/`faults`/cold/warm or the first-touch history, and it
    /// bypasses the fault plan (the plan models demand-read errors; a
    /// failed speculative read would simply be dropped, which is
    /// indistinguishable from not prefetching). Already-cached pages are
    /// left untouched — no recency update, no counter.
    pub fn stage(&mut self, disk: &Disk, page: PageId) -> bool {
        if self.map.contains_key(&page) {
            return false;
        }
        self.stats.record_prefetch_issued();
        let data = disk.read(page);
        self.insert(page, data, true);
        true
    }

    /// One disk read under the fault plan: replay the per-attempt error
    /// schedule, accounting a capped-exponential simulated backoff per
    /// retry. [`FaultPlan`] clamps consecutive failures below the
    /// attempt budget, so this always returns the page's true bytes.
    fn read_with_retries(&self, disk: &Disk, page: PageId) -> Bytes {
        let Some(plan) = &self.plan else {
            return disk.read(page);
        };
        let mut attempt = 0u32;
        while plan.fails(page, attempt) {
            self.stats
                .record_injected_error(FaultPlan::backoff_us(attempt));
            attempt += 1;
        }
        debug_assert!(attempt <= FaultPlan::MAX_CONSECUTIVE_FAILURES);
        disk.read(page)
    }

    /// Drops every cached page (the counters are left untouched, except
    /// that still-unread prefetched frames are tallied as wasted — the
    /// speculative read can no longer pay off). The cold/warm
    /// attribution history is dropped too, so a cleared pool classifies
    /// faults exactly like a freshly built one.
    pub fn clear(&mut self) {
        for f in &self.frames {
            if f.prefetched {
                self.stats.record_prefetch_wasted();
            }
        }
        self.frames.clear();
        self.map.clear();
        self.head = NIL;
        self.tail = NIL;
        self.seen.clear();
    }

    /// `true` when `page` is currently cached (no recency update, no
    /// accounting — for tests and introspection).
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    /// Moves frame `fi` to the MRU position.
    fn touch(&mut self, fi: usize) {
        if self.head == fi {
            return;
        }
        self.unlink(fi);
        self.push_front(fi);
    }

    fn unlink(&mut self, fi: usize) {
        let (prev, next) = (self.frames[fi].prev, self.frames[fi].next);
        if prev != NIL {
            self.frames[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.frames[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, fi: usize) {
        self.frames[fi].prev = NIL;
        self.frames[fi].next = self.head;
        if self.head != NIL {
            self.frames[self.head].prev = fi;
        }
        self.head = fi;
        if self.tail == NIL {
            self.tail = fi;
        }
    }

    fn insert(&mut self, page: PageId, data: Bytes, prefetched: bool) {
        let fi = if self.frames.len() < self.capacity {
            // Grow the arena.
            self.frames.push(Frame {
                page,
                data,
                prev: NIL,
                next: NIL,
                prefetched,
            });
            self.frames.len() - 1
        } else {
            // Evict the LRU frame and reuse it.
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "capacity > 0 but no tail");
            self.unlink(victim);
            if self.frames[victim].prefetched {
                self.stats.record_prefetch_wasted();
            }
            let old = self.frames[victim].page;
            self.map.remove(&old);
            self.frames[victim].page = page;
            self.frames[victim].data = data;
            self.frames[victim].prefetched = prefetched;
            victim
        };
        self.map.insert(page, fi);
        self.push_front(fi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn disk_with(n: usize) -> Disk {
        let mut d = Disk::new();
        for i in 0..n {
            d.append(Bytes::from(vec![i as u8; 8]));
        }
        d
    }

    #[test]
    fn caches_repeat_reads() {
        let d = disk_with(4);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(2, stats.clone());
        pool.get(&d, PageId(0));
        pool.get(&d, PageId(0));
        pool.get(&d, PageId(0));
        let s = stats.snapshot();
        assert_eq!(s.logical, 3);
        assert_eq!(s.faults, 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let d = disk_with(4);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(2, stats.clone());
        pool.get(&d, PageId(0));
        pool.get(&d, PageId(1));
        pool.get(&d, PageId(0)); // 0 becomes MRU, 1 is LRU
        pool.get(&d, PageId(2)); // evicts 1
        assert!(pool.contains(PageId(0)));
        assert!(!pool.contains(PageId(1)));
        assert!(pool.contains(PageId(2)));
        pool.get(&d, PageId(1)); // fault again
        assert_eq!(stats.snapshot().faults, 4);
    }

    #[test]
    fn returns_correct_data_after_eviction() {
        let d = disk_with(10);
        let mut pool = BufferPool::new(3, IoStats::new());
        for round in 0..3 {
            for i in 0..10u32 {
                let b = pool.get(&d, PageId(i));
                assert_eq!(b[0], i as u8, "round {round}");
            }
        }
    }

    #[test]
    fn capacity_is_respected() {
        let d = disk_with(100);
        let mut pool = BufferPool::new(5, IoStats::new());
        for i in 0..100u32 {
            pool.get(&d, PageId(i));
            assert!(pool.len() <= 5);
        }
        assert_eq!(pool.len(), 5);
    }

    #[test]
    fn single_frame_pool() {
        let d = disk_with(3);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(1, stats.clone());
        pool.get(&d, PageId(0));
        pool.get(&d, PageId(1));
        pool.get(&d, PageId(0));
        assert_eq!(stats.snapshot().faults, 3);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn classifies_cold_and_warm_faults() {
        let d = disk_with(4);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(2, stats.clone());
        pool.get(&d, PageId(0)); // cold
        pool.get(&d, PageId(1)); // cold
        pool.get(&d, PageId(2)); // cold, evicts 0
        pool.get(&d, PageId(0)); // warm re-fault, evicts 1
        pool.get(&d, PageId(0)); // hit
        let s = stats.snapshot();
        assert_eq!(s.faults, 4);
        assert_eq!(s.cold_faults, 3);
        assert_eq!(s.warm_faults, 1);
        assert_eq!(s.cold_faults + s.warm_faults, s.faults);
    }

    #[test]
    fn clear_resets_cold_warm_attribution() {
        let d = disk_with(2);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(2, stats.clone());
        pool.get(&d, PageId(0));
        pool.clear();
        pool.get(&d, PageId(0)); // cold again: history was dropped
        let s = stats.snapshot();
        assert_eq!(s.cold_faults, 2);
        assert_eq!(s.warm_faults, 0);
    }

    #[test]
    fn clear_drops_cache_but_keeps_counters() {
        let d = disk_with(2);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(2, stats.clone());
        pool.get(&d, PageId(0));
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(stats.snapshot().faults, 1);
        pool.get(&d, PageId(0));
        assert_eq!(stats.snapshot().faults, 2);
    }

    #[test]
    fn with_bytes_sizes_frames() {
        let pool = BufferPool::with_bytes(DEFAULT_BUFFER_BYTES, IoStats::new());
        assert_eq!(pool.capacity(), 256);
    }

    /// Model-based check: the pool must evict exactly like a reference
    /// LRU implemented with a VecDeque.
    #[test]
    fn matches_reference_lru_model() {
        use proptest::prelude::*;
        let mut runner =
            proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(64));
        runner
            .run(
                &(proptest::collection::vec(0u32..32, 1..300), 2usize..8),
                |(accesses, cap)| {
                    let d = disk_with(32);
                    let stats = IoStats::new();
                    let mut pool = BufferPool::new(cap, stats.clone());
                    // Reference model: front = MRU.
                    let mut model: std::collections::VecDeque<u32> =
                        std::collections::VecDeque::new();
                    let mut model_faults = 0u64;
                    for &a in &accesses {
                        let before = stats.snapshot().faults;
                        let bytes = pool.get(&d, PageId(a));
                        prop_assert_eq!(bytes[0], a as u8);
                        let faulted = stats.snapshot().faults > before;
                        // Update the model.
                        if let Some(i) = model.iter().position(|&x| x == a) {
                            model.remove(i);
                            prop_assert!(!faulted, "model hit but pool faulted");
                        } else {
                            model_faults += 1;
                            prop_assert!(faulted, "model miss but pool hit");
                            if model.len() == cap {
                                model.pop_back();
                            }
                        }
                        model.push_front(a);
                    }
                    prop_assert_eq!(stats.snapshot().faults, model_faults);
                    // Cached set must match exactly.
                    for &x in &model {
                        prop_assert!(pool.contains(PageId(x)));
                    }
                    prop_assert_eq!(pool.len(), model.len());
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn faulted_page_retries_do_not_double_count_cold_faults() {
        let d = disk_with(4);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(2, stats.clone());
        // "Always fail" plan: every miss pays the full retry ladder but
        // is attributed exactly once.
        pool.set_fault_plan(Some(FaultPlan::new(5, 1 << 16)));
        pool.get(&d, PageId(0)); // cold + 3 injected errors
        let s = stats.snapshot();
        assert_eq!(s.cold_faults, 1, "one cold fault despite retries");
        assert_eq!(s.warm_faults, 0);
        assert_eq!(s.faults, 1);
        assert_eq!(
            s.injected_errors,
            FaultPlan::MAX_CONSECUTIVE_FAILURES as u64
        );
        assert_eq!(s.retries, s.injected_errors);
        assert_eq!(s.backoff_us, 100 + 200 + 400);

        pool.get(&d, PageId(1)); // cold, evictions start next
        pool.get(&d, PageId(2)); // cold, evicts 0
        pool.get(&d, PageId(0)); // warm re-fetch of the faulted page
        let s = stats.snapshot();
        assert_eq!(s.cold_faults, 3, "re-fetch must not re-count cold");
        assert_eq!(s.warm_faults, 1);
        assert_eq!(
            s.injected_errors,
            4 * FaultPlan::MAX_CONSECUTIVE_FAILURES as u64,
            "each of the 4 misses replays the same per-attempt schedule"
        );

        pool.get(&d, PageId(0)); // hit: no disk read, no injection
        let s2 = stats.snapshot();
        assert_eq!(s2.injected_errors, s.injected_errors);
        assert_eq!(s2.logical, s.logical + 1);
    }

    #[test]
    fn fault_plan_preserves_page_bytes_and_eviction_order() {
        let d = disk_with(10);
        let stats_plain = IoStats::new();
        let stats_faulty = IoStats::new();
        let mut plain = BufferPool::new(3, stats_plain.clone());
        let mut faulty = BufferPool::new(3, stats_faulty.clone());
        faulty.set_fault_plan(Some(FaultPlan::new(11, 1 << 14)));
        for i in 0..1000u32 {
            let p = PageId((i * 13 + i / 7) % 10);
            let a = plain.get(&d, p);
            let b = faulty.get(&d, p);
            assert_eq!(a, b, "faulted read must return identical bytes");
        }
        let (a, b) = (stats_plain.snapshot(), stats_faulty.snapshot());
        assert_eq!(a.logical, b.logical);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.cold_faults, b.cold_faults);
        assert_eq!(a.warm_faults, b.warm_faults);
        assert_eq!(a.injected_errors, 0);
        assert!(b.injected_errors > 0, "the plan should have injected");
        assert!(b.backoff_us >= b.retries * FaultPlan::BACKOFF_BASE_US);
    }

    #[test]
    fn fault_schedule_is_reproducible_across_pools() {
        let d = disk_with(8);
        let run = || {
            let stats = IoStats::new();
            let mut pool = BufferPool::new(2, stats.clone());
            pool.set_fault_plan(Some(FaultPlan::new(77, 1 << 15)));
            for i in 0..200u32 {
                pool.get(&d, PageId((i * 5 + 1) % 8));
            }
            stats.snapshot()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stage_serves_the_next_demand_request_without_a_fault() {
        let d = disk_with(4);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(2, stats.clone());
        assert!(pool.stage(&d, PageId(1)));
        let s = stats.snapshot();
        assert_eq!(s.prefetch_issued, 1);
        assert_eq!((s.logical, s.faults), (0, 0), "staging is speculative");
        let (b, missed) = pool.get_classified(&d, PageId(1));
        assert_eq!(b[0], 1);
        assert!(!missed, "prefetched page must not demand-miss");
        let s = stats.snapshot();
        assert_eq!(s.prefetch_hits, 1);
        assert_eq!(s.logical, 1);
        assert_eq!(s.faults, 0);
        // Second demand hit of the same frame is a plain hit.
        pool.get(&d, PageId(1));
        assert_eq!(stats.snapshot().prefetch_hits, 1);
    }

    #[test]
    fn stage_of_a_cached_page_is_a_no_op() {
        let d = disk_with(2);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(2, stats.clone());
        pool.get(&d, PageId(0));
        assert!(!pool.stage(&d, PageId(0)));
        assert_eq!(stats.snapshot().prefetch_issued, 0);
    }

    #[test]
    fn untouched_prefetched_frames_count_as_wasted() {
        let d = disk_with(8);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(2, stats.clone());
        pool.stage(&d, PageId(0));
        pool.stage(&d, PageId(1));
        // Demand traffic evicts both staged frames untouched.
        pool.get(&d, PageId(2));
        pool.get(&d, PageId(3));
        let s = stats.snapshot();
        assert_eq!(s.prefetch_issued, 2);
        assert_eq!(s.prefetch_wasted, 2);
        assert_eq!(s.prefetch_hits, 0);
        // A clear() also retires staged frames as wasted.
        pool.stage(&d, PageId(4));
        pool.clear();
        assert_eq!(stats.snapshot().prefetch_wasted, 3);
    }

    #[test]
    fn prefetch_issued_balances_hits_wasted_and_resident() {
        let d = disk_with(16);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(4, stats.clone());
        for i in 0..200u32 {
            let p = PageId((i * 7 + i / 3) % 16);
            pool.get(&d, p);
            pool.stage(&d, PageId((p.0 + 1) % 16));
        }
        pool.clear(); // retire any still-resident staged frames
        let s = stats.snapshot();
        assert!(s.prefetch_issued > 0);
        assert_eq!(s.prefetch_issued, s.prefetch_hits + s.prefetch_wasted);
    }

    #[test]
    fn attribution_only_follows_demand_touches() {
        // A prefetched-then-evicted page was never demand-touched, so its
        // eventual demand miss is still compulsory (cold); a prefetched
        // page that *was* demand-hit re-faults warm after eviction.
        let d = disk_with(8);
        let stats = IoStats::new();
        let mut pool = BufferPool::new(1, stats.clone());
        pool.stage(&d, PageId(0));
        pool.get(&d, PageId(1)); // evicts staged 0, wasted
        pool.get(&d, PageId(0)); // first demand touch: cold
        let s = stats.snapshot();
        assert_eq!(s.cold_faults, 2);
        assert_eq!(s.warm_faults, 0);
        assert_eq!(s.prefetch_wasted, 1);

        pool.stage(&d, PageId(2));
        pool.get(&d, PageId(2)); // prefetch hit: demand-touched now
        pool.get(&d, PageId(3)); // evicts 2
        pool.get(&d, PageId(2)); // re-fault of a demand-touched page: warm
        let s = stats.snapshot();
        assert_eq!(s.warm_faults, 1);
        assert_eq!(s.prefetch_hits, 1);
    }

    /// Satellite regression (ISSUE 9): swapping the first-touch
    /// `HashSet<PageId>` for the dense [`PageBitSet`] must leave
    /// cold/warm attribution bitwise unchanged. The model here *is* the
    /// old implementation — a `HashSet` insert on every demand miss.
    #[test]
    fn bitset_attribution_matches_hashset_model() {
        use proptest::prelude::*;
        let mut runner =
            proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(64));
        runner
            .run(
                &(proptest::collection::vec(0u32..48, 1..400), 1usize..8),
                |(accesses, cap)| {
                    let d = disk_with(48);
                    let stats = IoStats::new();
                    let mut pool = BufferPool::new(cap, stats.clone());
                    let mut model_seen = std::collections::HashSet::new();
                    let mut model_cached = std::collections::VecDeque::new();
                    let (mut cold, mut warm) = (0u64, 0u64);
                    for &a in &accesses {
                        pool.get(&d, PageId(a));
                        if !model_cached.contains(&a) {
                            if model_seen.insert(a) {
                                cold += 1;
                            } else {
                                warm += 1;
                            }
                            if model_cached.len() == cap {
                                model_cached.pop_back();
                            }
                        } else {
                            let i = model_cached.iter().position(|&x| x == a).unwrap();
                            model_cached.remove(i);
                        }
                        model_cached.push_front(a);
                    }
                    let s = stats.snapshot();
                    prop_assert_eq!(s.cold_faults, cold);
                    prop_assert_eq!(s.warm_faults, warm);
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn lru_order_survives_many_touches() {
        // Stress the intrusive list: random-ish access pattern, then verify
        // the cache still returns correct bytes for everything.
        let d = disk_with(16);
        let mut pool = BufferPool::new(4, IoStats::new());
        for i in 0..1000u32 {
            let p = PageId((i * 7 + i / 3) % 16);
            let b = pool.get(&d, p);
            assert_eq!(b[0], p.0 as u8);
        }
    }
}

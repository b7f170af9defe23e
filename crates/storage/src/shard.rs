//! Sharded buffer pool with optional Hilbert-run readahead.
//!
//! One global `Mutex<BufferPool>` serializes every concurrent session
//! that shares a pool: at continental scale the lock, not the disk, is
//! the bottleneck. [`ShardedPool`] splits the frame budget into N
//! independent sub-pools, each behind its own lock, and routes each page
//! to a shard by a page-id hash — two sessions touching different shards
//! never contend.
//!
//! Determinism (DESIGN.md §16):
//!
//! * With `shards = 1` the pool *is* one [`BufferPool`] of the same
//!   capacity — the page→shard map is constant and every operation
//!   forwards 1:1, so hit/fault sequences are bitwise identical to the
//!   legacy pool (pinned by a proptest below).
//! * For any shard count, a shard's LRU state depends only on the
//!   subsequence of requests hashed to it, so a single session's demand
//!   misses are a pure function of its access sequence — private
//!   sessions stay worker-count-invariant exactly as before.
//! * Readahead (`readahead > 0`) stages the next R pages of the Hilbert
//!   run after a demand miss. Staging is metered in the separate
//!   `storage.prefetch.*` counters and never touches demand accounting,
//!   so the paper's fault series is bitwise unchanged when readahead is
//!   off — and still *exact* (just smaller) when it is on.
//!
//! Lock discipline: no method ever holds two shard locks at once. The
//! demand path releases its shard before staging, and each staged page
//! takes exactly one shard lock at a time — so cross-shard deadlock is
//! impossible by construction. The `shard-lock` rule of `xtask lint`
//! enforces the "one `.lock()` per function" shape statically.

use crate::buffer::{BufferPool, DEFAULT_BUFFER_BYTES};
use crate::fault::FaultPlan;
use crate::page::{Disk, PageId, PAGE_SIZE};
use crate::stats::IoStats;
use bytes::Bytes;
use parking_lot::Mutex;

/// Buffer-pool shape: size, shard count and readahead depth.
///
/// The default — 1 MB, one shard, no readahead — reproduces the paper's
/// configuration bit for bit; everything else is opt-in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Total buffer size in bytes across all shards (the paper's 1 MB).
    pub buffer_bytes: usize,
    /// Number of independent sub-pools (≥ 1). The frame budget is split
    /// evenly (rounded up, at least one frame per shard).
    pub shards: usize,
    /// Pages of the Hilbert run staged after each demand miss; 0
    /// disables readahead entirely.
    pub readahead: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            buffer_bytes: DEFAULT_BUFFER_BYTES,
            shards: 1,
            readahead: 0,
        }
    }
}

impl PoolConfig {
    /// The paper's configuration with a caller-chosen buffer size.
    pub fn with_bytes(buffer_bytes: usize) -> Self {
        PoolConfig {
            buffer_bytes,
            ..PoolConfig::default()
        }
    }

    /// Total frame budget implied by `buffer_bytes`.
    pub fn total_frames(&self) -> usize {
        (self.buffer_bytes / PAGE_SIZE).max(1)
    }

    /// Frames each shard gets (even split, rounded up, ≥ 1).
    pub fn frames_per_shard(&self) -> usize {
        self.total_frames().div_ceil(self.shards.max(1)).max(1)
    }
}

/// SplitMix64 finalizer — the page→shard hash. Deterministic, stateless
/// and avalanching, so consecutive Hilbert-run pages scatter across
/// shards instead of convoying behind one lock.
#[inline]
fn mix_page(p: u32) -> u64 {
    let mut z = (p as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// N independent LRU sub-pools behind per-shard locks, fronted by one
/// shared [`IoStats`].
///
/// `&ShardedPool` is freely shareable across threads; all interior
/// mutability is per-shard. Private sessions (the deterministic default)
/// still own their whole pool, so for them the locks are uncontended —
/// sharding only changes *which* frames a page may occupy, never how
/// many demand misses a given access sequence pays at `shards = 1`.
pub struct ShardedPool {
    shards: Vec<Mutex<BufferPool>>,
    config: PoolConfig,
    stats: IoStats,
}

impl ShardedPool {
    /// Builds a pool of `config.shards` sub-pools reporting into `stats`.
    pub fn new(config: PoolConfig, stats: IoStats) -> Self {
        let shards = config.shards.max(1);
        let per_shard = config.frames_per_shard();
        ShardedPool {
            shards: (0..shards)
                .map(|_| Mutex::new(BufferPool::new(per_shard, stats.clone())))
                .collect(),
            config,
            stats,
        }
    }

    /// The shard index `page` hashes to.
    #[inline]
    fn shard_of(&self, page: PageId) -> usize {
        if self.shards.len() == 1 {
            0
        } else {
            (mix_page(page.0) % self.shards.len() as u64) as usize
        }
    }

    /// Fetches a page through its shard; on a demand miss, stages the
    /// next `readahead` pages of the Hilbert run (consecutive page ids —
    /// records are laid out in Hilbert order, so page `p + 1` holds the
    /// spatially-next records).
    ///
    /// The demand lock is released before any staging: staging takes one
    /// shard lock at a time, so no execution ever holds two.
    // lint: allow(lock-reach) — the per-shard lock IS the page-buffer
    // model (one uncontended lock per page request on the deterministic
    // private-session path); this is the designed per-request cost, and
    // the shard-lock rule pins the one-lock-per-fn discipline.
    pub fn get(&self, disk: &Disk, page: PageId) -> Bytes {
        let si = self.shard_of(page);
        let (data, missed) = self.shards[si].lock().get_classified(disk, page);
        if missed && self.config.readahead > 0 {
            self.stage_run(disk, page);
        }
        data
    }

    /// Stages the `readahead` pages following `page`, clamped to the
    /// disk's end (no wraparound: a Hilbert run ends at the last page).
    fn stage_run(&self, disk: &Disk, page: PageId) {
        let last = disk.page_count() as u64;
        for i in 1..=self.config.readahead as u64 {
            let q = page.0 as u64 + i;
            if q >= last {
                break;
            }
            self.stage_one(disk, PageId(q as u32));
        }
    }

    /// Stages one page into its shard (one lock acquisition, held only
    /// for the staging itself).
    // lint: allow(lock-reach) — same per-shard seam as `get`; staging
    // runs at most `readahead` times per demand miss, never in a loop
    // over the frontier.
    fn stage_one(&self, disk: &Disk, page: PageId) {
        let si = self.shard_of(page);
        self.shards[si].lock().stage(disk, page);
    }

    /// Drops every cached page in every shard (demand counters are left
    /// untouched; still-unread prefetched frames tally as wasted).
    // lint: allow(lock-reach) — per-run housekeeping, one shard at a
    // time, outside any query loop.
    pub fn clear(&self) {
        for s in &self.shards {
            s.lock().clear();
        }
    }

    /// Installs (or removes) a deterministic fault schedule on every
    /// shard. Cache contents and counters are untouched.
    // lint: allow(lock-reach) — setup path, one shard at a time.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        for s in &self.shards {
            s.lock().set_fault_plan(plan);
        }
    }

    /// `true` when `page` is currently cached in its shard (no recency
    /// update, no accounting — tests and introspection).
    // lint: allow(lock-reach) — introspection only.
    pub fn contains(&self, page: PageId) -> bool {
        self.shards[self.shard_of(page)].lock().contains(page)
    }

    /// Number of pages cached across all shards.
    // lint: allow(lock-reach) — introspection only.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// `true` when no shard caches any page.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total frame capacity across shards (≥ the configured budget; the
    /// even split rounds up).
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.config.frames_per_shard()
    }

    /// The configuration this pool was built with.
    pub fn config(&self) -> PoolConfig {
        self.config
    }

    /// The stats handle every shard reports into.
    pub fn stats(&self) -> &IoStats {
        &self.stats
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

    fn config(frames: usize, shards: usize, readahead: usize) -> PoolConfig {
        PoolConfig {
            buffer_bytes: frames * PAGE_SIZE,
            shards,
            readahead,
        }
    }

    #[test]
    fn single_shard_matches_legacy_pool_bitwise() {
        use proptest::prelude::*;
        let mut runner =
            proptest::test_runner::TestRunner::new(proptest::test_runner::Config::with_cases(64));
        runner
            .run(
                &(proptest::collection::vec(0u32..32, 1..400), 1usize..8),
                |(accesses, cap)| {
                    let d = disk_with(32);
                    let (s_new, s_old) = (IoStats::new(), IoStats::new());
                    let sharded = ShardedPool::new(config(cap, 1, 0), s_new.clone());
                    let mut legacy = BufferPool::new(cap, s_old.clone());
                    for &a in &accesses {
                        let x = sharded.get(&d, PageId(a));
                        let y = legacy.get(&d, PageId(a));
                        prop_assert_eq!(&x[..], &y[..]);
                        // Counters must track each other request by request.
                        prop_assert_eq!(s_new.snapshot(), s_old.snapshot());
                    }
                    prop_assert_eq!(sharded.len(), legacy.len());
                    for p in 0..32u32 {
                        prop_assert_eq!(sharded.contains(PageId(p)), legacy.contains(PageId(p)));
                    }
                    Ok(())
                },
            )
            .unwrap();
    }

    #[test]
    fn shard_split_covers_the_frame_budget() {
        let pool = ShardedPool::new(config(256, 4, 0), IoStats::new());
        assert_eq!(pool.capacity(), 256);
        // Uneven split rounds up, at least one frame per shard.
        let pool = ShardedPool::new(config(5, 4, 0), IoStats::new());
        assert_eq!(pool.capacity(), 8);
        let pool = ShardedPool::new(config(1, 8, 0), IoStats::new());
        assert!(pool.capacity() >= 8);
    }

    #[test]
    fn sequential_demand_misses_are_shard_count_invariant_when_uncapped() {
        // With enough frames that nothing evicts, every pool faults
        // exactly once per distinct page, whatever the shard count.
        let d = disk_with(64);
        for shards in [1, 2, 4, 8] {
            let stats = IoStats::new();
            // 64 frames *per shard*: the page→shard hash is uneven, so
            // only a per-shard capacity ≥ the page count rules out
            // evictions for every shard count.
            let pool = ShardedPool::new(config(64 * shards, shards, 0), stats.clone());
            for round in 0..3 {
                for p in 0..64u32 {
                    let b = pool.get(&d, PageId(p));
                    assert_eq!(b[0], p as u8, "round {round} shards {shards}");
                }
            }
            let s = stats.snapshot();
            assert_eq!(s.faults, 64, "shards {shards}");
            assert_eq!(s.cold_faults, 64);
            assert_eq!(s.logical, 3 * 64);
        }
    }

    #[test]
    fn readahead_turns_sequential_misses_into_prefetch_hits() {
        let d = disk_with(32);
        let stats = IoStats::new();
        let pool = ShardedPool::new(config(32, 4, 4), stats.clone());
        for p in 0..32u32 {
            pool.get(&d, PageId(p));
        }
        let s = stats.snapshot();
        // A sequential scan with depth-4 readahead demand-misses roughly
        // every 5th page; the rest are prefetch hits.
        assert!(s.faults < 10, "faults {} should collapse", s.faults);
        assert!(s.prefetch_hits >= 24, "hits {}", s.prefetch_hits);
        assert_eq!(s.faults + s.prefetch_hits, 32);
        assert_eq!(s.logical, 32, "every demand request is still counted");
    }

    #[test]
    fn readahead_off_is_bitwise_silent() {
        let d = disk_with(16);
        let stats = IoStats::new();
        let pool = ShardedPool::new(config(4, 2, 0), stats.clone());
        for i in 0..100u32 {
            pool.get(&d, PageId(i % 16));
        }
        let s = stats.snapshot();
        assert_eq!(s.prefetch_issued, 0);
        assert_eq!(s.prefetch_hits, 0);
        assert_eq!(s.prefetch_wasted, 0);
    }

    #[test]
    fn readahead_stops_at_the_last_page() {
        let d = disk_with(4);
        let stats = IoStats::new();
        let pool = ShardedPool::new(config(8, 2, 8), stats.clone());
        pool.get(&d, PageId(3)); // nothing after the last page
        assert_eq!(stats.snapshot().prefetch_issued, 0);
        // Only pages 2 and 3 exist ahead of page 1, and 3 is already
        // cached (staging a cached page is a silent no-op).
        pool.get(&d, PageId(1));
        assert_eq!(stats.snapshot().prefetch_issued, 1);
        assert!(pool.contains(PageId(2)));
    }

    #[test]
    fn clear_and_fault_plan_reach_every_shard() {
        let d = disk_with(16);
        let stats = IoStats::new();
        let pool = ShardedPool::new(config(64, 4, 0), stats.clone());
        for p in 0..16u32 {
            pool.get(&d, PageId(p));
        }
        assert_eq!(pool.len(), 16);
        pool.clear();
        assert!(pool.is_empty());
        // Cleared pools attribute cold again, like the legacy pool.
        pool.get(&d, PageId(0));
        assert_eq!(stats.snapshot().cold_faults, 17);

        pool.set_fault_plan(Some(FaultPlan::new(5, 1 << 16)));
        let before = stats.snapshot().injected_errors;
        pool.clear();
        for p in 0..16u32 {
            pool.get(&d, PageId(p));
        }
        assert!(stats.snapshot().injected_errors > before);
    }

    #[test]
    fn concurrent_shared_access_is_exact_in_aggregate() {
        // Demand misses through one shared pool are scheduling-dependent
        // per thread but the *data* is always right and the counters
        // account every request exactly once.
        let d = disk_with(64);
        let stats = IoStats::new();
        let pool = ShardedPool::new(config(256, 4, 0), stats.clone());
        std::thread::scope(|s| {
            for t in 0..4 {
                let (pool, d) = (&pool, &d);
                s.spawn(move || {
                    for i in 0..64u32 {
                        let p = PageId((i + 16 * t) % 64);
                        assert_eq!(pool.get(d, p)[0], p.0 as u8);
                    }
                });
            }
        });
        let s = stats.snapshot();
        assert_eq!(s.logical, 4 * 64);
        // Capacity covers the whole disk: every page faults exactly once
        // across all threads (whoever gets there first), never more.
        assert_eq!(s.faults, 64);
    }
}

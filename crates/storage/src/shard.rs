//! Sharded buffer pool.
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
//!
//! Lock discipline: no method ever holds two shard locks at once. A
//! page request takes exactly one shard lock, and the housekeeping
//! methods visit the shards one at a time — so cross-shard deadlock is
//! impossible by construction. The `shard-lock` rule of `xtask lint`
//! enforces the "one `.lock()` per function" shape statically.

use crate::buffer::{BufferPool, DEFAULT_BUFFER_BYTES};
use crate::fault::FaultPlan;
use crate::page::{Disk, PageId, PAGE_SIZE};
use crate::stats::IoStats;
use bytes::Bytes;
use parking_lot::Mutex;

/// Buffer-pool shape: size and shard count.
///
/// The default — 1 MB, one shard — reproduces the paper's configuration
/// bit for bit; sharding is opt-in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolConfig {
    /// Total buffer size in bytes across all shards (the paper's 1 MB).
    pub buffer_bytes: usize,
    /// Number of independent sub-pools (≥ 1). The frame budget is split
    /// evenly (rounded up, at least one frame per shard).
    pub shards: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            buffer_bytes: DEFAULT_BUFFER_BYTES,
            shards: 1,
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
    frames_per_shard: usize,
    stats: IoStats,
}

impl ShardedPool {
    /// Builds a pool of `config.shards` sub-pools reporting into `stats`.
    pub fn new(config: PoolConfig, stats: IoStats) -> Self {
        let shards = config.shards.max(1);
        let frames_per_shard = config.frames_per_shard();
        ShardedPool {
            shards: (0..shards)
                .map(|_| Mutex::new(BufferPool::new(frames_per_shard, stats.clone())))
                .collect(),
            frames_per_shard,
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

    /// Fetches a page through its shard's [`BufferPool::get`].
    // lint: allow(lock-reach) — the per-shard lock IS the page-buffer
    // model (one uncontended lock per page request on the deterministic
    // private-session path); this is the designed per-request cost, and
    // the shard-lock rule pins the one-lock-per-fn discipline.
    pub fn get(&self, disk: &Disk, page: PageId) -> Bytes {
        self.shards[self.shard_of(page)].lock().get(disk, page)
    }

    /// Drops every cached page in every shard (the counters are left
    /// untouched).
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
        self.shards.len() * self.frames_per_shard
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

    fn config(frames: usize, shards: usize) -> PoolConfig {
        PoolConfig {
            buffer_bytes: frames * PAGE_SIZE,
            shards,
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
                    let sharded = ShardedPool::new(config(cap, 1), s_new.clone());
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
        let pool = ShardedPool::new(config(256, 4), IoStats::new());
        assert_eq!(pool.capacity(), 256);
        // Uneven split rounds up, at least one frame per shard.
        let pool = ShardedPool::new(config(5, 4), IoStats::new());
        assert_eq!(pool.capacity(), 8);
        let pool = ShardedPool::new(config(1, 8), IoStats::new());
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
            let pool = ShardedPool::new(config(64 * shards, shards), stats.clone());
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
    fn clear_and_fault_plan_reach_every_shard() {
        let d = disk_with(16);
        let stats = IoStats::new();
        let pool = ShardedPool::new(config(64, 4), stats.clone());
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
        let pool = ShardedPool::new(config(256, 4), stats.clone());
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

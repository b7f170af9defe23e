//! Shared I/O accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative I/O counters for one store.
///
/// Cheap to clone (an `Arc`), so an experiment harness keeps one handle
/// while the query engine holds another. `Relaxed` ordering suffices:
/// counters are monotonic tallies, never used for synchronisation.
#[derive(Clone, Debug, Default)]
pub struct IoStats {
    inner: Arc<Counters>,
}

#[derive(Debug, Default)]
struct Counters {
    logical: AtomicU64,
    faults: AtomicU64,
    cold_faults: AtomicU64,
    warm_faults: AtomicU64,
    injected_errors: AtomicU64,
    retries: AtomicU64,
    backoff_us: AtomicU64,
}

/// A point-in-time copy of the counters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Page requests issued (buffer hits + faults).
    pub logical: u64,
    /// Buffer misses that had to touch the simulated disk — the paper's
    /// "disk pages accessed".
    pub faults: u64,
    /// Compulsory faults: first-ever touch of a page by this pool.
    pub cold_faults: u64,
    /// Re-faults: the page had been cached before and was evicted.
    pub warm_faults: u64,
    /// Page-read errors injected by a deterministic
    /// [`crate::FaultPlan`]; each one triggered a retry.
    pub injected_errors: u64,
    /// Read retries performed after injected errors.
    pub retries: u64,
    /// Total simulated exponential-backoff delay across those retries,
    /// in microseconds. Modeled (accumulated, never slept), so it is a
    /// deterministic function of the fault schedule.
    pub backoff_us: u64,
}

impl IoSnapshot {
    /// Counter-wise difference `self - earlier`; saturates at zero so a
    /// stale snapshot can never produce bogus negative deltas.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            logical: self.logical.saturating_sub(earlier.logical),
            faults: self.faults.saturating_sub(earlier.faults),
            cold_faults: self.cold_faults.saturating_sub(earlier.cold_faults),
            warm_faults: self.warm_faults.saturating_sub(earlier.warm_faults),
            injected_errors: self.injected_errors.saturating_sub(earlier.injected_errors),
            retries: self.retries.saturating_sub(earlier.retries),
            backoff_us: self.backoff_us.saturating_sub(earlier.backoff_us),
        }
    }

    /// Buffer hit ratio in `[0, 1]`; 1.0 when no requests were issued.
    pub fn hit_ratio(&self) -> f64 {
        if self.logical == 0 {
            1.0
        } else {
            1.0 - self.faults as f64 / self.logical as f64
        }
    }
}

impl IoStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        IoStats::default()
    }

    /// Records one page request that was served from the buffer.
    #[inline]
    pub fn record_hit(&self) {
        self.inner.logical.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one page request that missed the buffer and hit the disk,
    /// without cold/warm attribution (legacy callers).
    #[inline]
    pub fn record_fault(&self) {
        self.inner.logical.fetch_add(1, Ordering::Relaxed);
        self.inner.faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a compulsory (first-touch) fault.
    #[inline]
    pub fn record_fault_cold(&self) {
        self.record_fault();
        self.inner.cold_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a re-fault of a page that was cached before and evicted.
    #[inline]
    pub fn record_fault_warm(&self) {
        self.record_fault();
        self.inner.warm_faults.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one injected page-read error and the retry that follows
    /// it, with `backoff_us` of simulated backoff before the retry.
    #[inline]
    pub fn record_injected_error(&self, backoff_us: u64) {
        self.inner.injected_errors.fetch_add(1, Ordering::Relaxed);
        self.inner.retries.fetch_add(1, Ordering::Relaxed);
        self.inner
            .backoff_us
            .fetch_add(backoff_us, Ordering::Relaxed);
    }

    /// Current total fault count (cold + warm) — the single load the
    /// per-pop budget checks need, cheaper than a full snapshot.
    #[inline]
    pub fn faults(&self) -> u64 {
        self.inner.faults.load(Ordering::Relaxed)
    }

    /// Copies the current counter values.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot {
            logical: self.inner.logical.load(Ordering::Relaxed),
            faults: self.inner.faults.load(Ordering::Relaxed),
            cold_faults: self.inner.cold_faults.load(Ordering::Relaxed),
            warm_faults: self.inner.warm_faults.load(Ordering::Relaxed),
            injected_errors: self.inner.injected_errors.load(Ordering::Relaxed),
            retries: self.inner.retries.load(Ordering::Relaxed),
            backoff_us: self.inner.backoff_us.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.inner.logical.store(0, Ordering::Relaxed);
        self.inner.faults.store(0, Ordering::Relaxed);
        self.inner.cold_faults.store(0, Ordering::Relaxed);
        self.inner.warm_faults.store(0, Ordering::Relaxed);
        self.inner.injected_errors.store(0, Ordering::Relaxed);
        self.inner.retries.store(0, Ordering::Relaxed);
        self.inner.backoff_us.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_hits_and_faults() {
        let s = IoStats::new();
        s.record_hit();
        s.record_hit();
        s.record_fault();
        let snap = s.snapshot();
        assert_eq!(snap.logical, 3);
        assert_eq!(snap.faults, 1);
        assert!((snap.hit_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn attributes_cold_and_warm_faults() {
        let s = IoStats::new();
        s.record_fault_cold();
        s.record_fault_cold();
        s.record_fault_warm();
        s.record_hit();
        let snap = s.snapshot();
        assert_eq!(snap.logical, 4);
        assert_eq!(snap.faults, 3);
        assert_eq!(snap.cold_faults, 2);
        assert_eq!(snap.warm_faults, 1);
        let d = s.snapshot().since(&snap);
        assert_eq!(d, IoSnapshot::default());
        s.record_fault_warm();
        let d = s.snapshot().since(&snap);
        assert_eq!(d.faults, 1);
        assert_eq!(d.cold_faults, 0);
        assert_eq!(d.warm_faults, 1);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
    }

    #[test]
    fn clones_share_counters() {
        let a = IoStats::new();
        let b = a.clone();
        a.record_fault();
        b.record_hit();
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot().logical, 2);
    }

    #[test]
    fn since_computes_deltas() {
        let s = IoStats::new();
        s.record_fault();
        let early = s.snapshot();
        s.record_hit();
        s.record_fault();
        let late = s.snapshot();
        let d = late.since(&early);
        assert_eq!(d.logical, 2);
        assert_eq!(d.faults, 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::new();
        s.record_fault();
        s.record_injected_error(100);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
        assert_eq!(s.snapshot().hit_ratio(), 1.0);
    }

    #[test]
    fn injected_error_counters_accumulate_and_diff() {
        let s = IoStats::new();
        s.record_injected_error(100);
        s.record_injected_error(200);
        let early = s.snapshot();
        assert_eq!(early.injected_errors, 2);
        assert_eq!(early.retries, 2);
        assert_eq!(early.backoff_us, 300);
        s.record_injected_error(400);
        let d = s.snapshot().since(&early);
        assert_eq!(d.injected_errors, 1);
        assert_eq!(d.retries, 1);
        assert_eq!(d.backoff_us, 400);
        // Injection never perturbs the logical/fault counters.
        assert_eq!(s.snapshot().logical, 0);
        assert_eq!(s.snapshot().faults, 0);
        assert_eq!(s.faults(), 0);
        s.record_fault_cold();
        assert_eq!(s.faults(), 1);
    }
}

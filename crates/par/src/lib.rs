//! Minimal scoped-thread parallel primitives — zero external dependencies.
//!
//! The query engine parallelises three shapes of work (see DESIGN.md §9):
//! per-wavefront lockstep rounds (CE), per-dimension confirmation fan-out
//! (EDC/LBC), and inter-query batches. All three reduce to the primitives
//! here, built directly on [`std::thread::scope`] and [`std::sync::mpsc`]:
//!
//! * [`par_map_mut`] — statically sharded fan-out over mutable slice
//!   elements, results merged by index;
//! * [`par_map_indexed`] — dynamically claimed fan-out over an index
//!   range, results merged by index;
//! * [`worker_pool`] — persistent workers owning thread-local state,
//!   driven by a coordinator through channels.
//!
//! **Determinism contract**: every primitive returns results ordered by
//! item index, never by completion order. Scheduling decides only *when*
//! work runs, not *what* the merged output is; callers whose per-item work
//! is a pure function of the item therefore get byte-identical results at
//! every worker count. **No locks**: shared state is either immutable, an
//! atomic counter, or thread-local-and-merged — the xtask `hot-lock` lint
//! enforces the same rule on the query path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Clamps a requested worker count to at least one.
pub fn effective_workers(requested: usize) -> usize {
    requested.max(1)
}

/// Applies `f` to every element of `items` across `workers` scoped
/// threads, returning the results **in item order**.
///
/// Elements are sharded round-robin by index before any thread starts, so
/// the item→worker assignment is static and scheduling-independent. With
/// `workers <= 1` (or one item) everything runs inline on the caller's
/// thread in ascending index order.
pub fn par_map_mut<T, R, F>(items: &mut [T], workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut T) -> R + Sync,
{
    let w = effective_workers(workers).min(items.len().max(1));
    if w <= 1 {
        return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let len = items.len();
    let mut shards: Vec<Vec<(usize, &mut T)>> = (0..w).map(|_| Vec::new()).collect();
    for (i, t) in items.iter_mut().enumerate() {
        shards[i % w].push((i, t));
    }
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(len).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = shards
            .into_iter()
            .map(|shard| {
                let f = &f;
                s.spawn(move || {
                    shard
                        .into_iter()
                        .map(|(i, t)| (i, f(i, t)))
                        .collect::<Vec<(usize, R)>>()
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("par_map_mut worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}

/// Applies `f` to every index in `0..count` across `workers` scoped
/// threads, returning the results **in index order**.
///
/// Indices are claimed dynamically from a shared atomic counter (natural
/// load balancing for uneven work). The claim order affects only which
/// thread computes which index; the merged output is index-ordered either
/// way, so a pure `f` yields identical results at every worker count.
pub fn par_map_indexed<R, F>(count: usize, workers: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let w = effective_workers(workers).min(count.max(1));
    if w <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(count).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..w)
            .map(|_| {
                let f = &f;
                let next = &next;
                s.spawn(move || {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= count {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().expect("par_map_indexed worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}

/// Coordinator-side handle to a [`worker_pool`]: per-worker command
/// senders and a shared reply receiver.
pub struct PoolHandle<C, R> {
    cmd_txs: Vec<mpsc::Sender<C>>,
    reply_rx: mpsc::Receiver<R>,
}

impl<C, R> PoolHandle<C, R> {
    /// Number of workers in the pool.
    pub fn workers(&self) -> usize {
        self.cmd_txs.len()
    }

    /// Sends `cmd` to worker `worker`'s private queue.
    ///
    /// # Panics
    /// Panics when the worker has exited (it dropped its receiver).
    pub fn send(&self, worker: usize, cmd: C) {
        self.cmd_txs[worker]
            .send(cmd)
            .expect("pool worker exited before its commands were drained");
    }

    /// Receives the next reply from any worker (blocking).
    ///
    /// # Panics
    /// Panics when every worker has exited without replying.
    pub fn recv(&self) -> R {
        self.reply_rx
            .recv()
            .expect("pool workers exited with replies outstanding")
    }
}

/// Runs `body` with a pool of `workers` persistent scoped threads.
///
/// Each worker thread invokes `worker(index, commands, replies)` exactly
/// once and owns whatever state it builds for the duration — the pattern
/// for state that cannot (or should not) cross threads, like a private
/// buffer-pool session and the search engines borrowing it. Workers
/// normally loop on `commands.recv()` and exit when it errors: the command
/// senders live in the [`PoolHandle`], which drops when `body` returns.
///
/// The reply channel is shared (clones of one sender), so replies from
/// different workers interleave in completion order; deterministic callers
/// tag replies with their item index and re-order at the merge, exactly
/// like [`par_map_mut`] does internally.
pub fn worker_pool<C, R, W, B, Out>(workers: usize, worker: W, body: B) -> Out
where
    C: Send,
    R: Send,
    W: Fn(usize, mpsc::Receiver<C>, mpsc::Sender<R>) + Sync,
    B: FnOnce(PoolHandle<C, R>) -> Out,
{
    let w = effective_workers(workers);
    std::thread::scope(|s| {
        let (reply_tx, reply_rx) = mpsc::channel::<R>();
        let mut cmd_txs: Vec<mpsc::Sender<C>> = Vec::with_capacity(w);
        for wi in 0..w {
            let (tx, rx) = mpsc::channel::<C>();
            cmd_txs.push(tx);
            let rtx = reply_tx.clone();
            let worker = &worker;
            s.spawn(move || worker(wi, rx, rtx));
        }
        drop(reply_tx);
        body(PoolHandle { cmd_txs, reply_rx })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_mut_preserves_index_order() {
        for workers in [1, 2, 3, 8] {
            let mut items: Vec<u64> = (0..17).collect();
            let out = par_map_mut(&mut items, workers, |i, v| {
                *v += 1;
                (i as u64) * 10 + *v
            });
            let want: Vec<u64> = (0..17u64).map(|i| i * 10 + i + 1).collect();
            assert_eq!(out, want, "workers={workers}");
            let bumped: Vec<u64> = (1..18).collect();
            assert_eq!(items, bumped, "workers={workers}");
        }
    }

    #[test]
    fn par_map_mut_handles_empty_and_tiny() {
        let mut empty: Vec<u32> = Vec::new();
        assert!(par_map_mut(&mut empty, 4, |_, v| *v).is_empty());
        let mut one = vec![7u32];
        assert_eq!(par_map_mut(&mut one, 4, |_, v| *v * 2), vec![14]);
    }

    #[test]
    fn par_map_indexed_matches_sequential_at_every_width() {
        let seq: Vec<usize> = (0..33).map(|i| i * i).collect();
        for workers in [1, 2, 5, 16] {
            assert_eq!(
                par_map_indexed(33, workers, |i| i * i),
                seq,
                "workers={workers}"
            );
        }
        let none: Vec<usize> = par_map_indexed(0, 4, |i| i);
        assert!(none.is_empty());
    }

    #[test]
    fn worker_pool_routes_commands_and_replies() {
        for workers in [1, 2, 4] {
            let mut got = worker_pool(
                workers,
                |wi, rx: mpsc::Receiver<u32>, tx: mpsc::Sender<(usize, u32)>| {
                    // Each worker owns private (thread-local) state.
                    let mut processed = 0u32;
                    while let Ok(cmd) = rx.recv() {
                        processed += 1;
                        debug_assert!(processed >= 1);
                        if tx.send((wi, cmd * 2)).is_err() {
                            break;
                        }
                    }
                },
                |pool| {
                    assert_eq!(pool.workers(), workers);
                    for i in 0..10u32 {
                        pool.send((i as usize) % pool.workers(), i);
                    }
                    (0..10).map(|_| pool.recv().1).collect::<Vec<u32>>()
                },
            );
            got.sort_unstable();
            let want: Vec<u32> = (0..10).map(|i| i * 2).collect();
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn worker_pool_workers_exit_when_handle_drops() {
        // Returning from `body` drops the command senders; all workers must
        // unblock and the scope must join without hanging.
        let out = worker_pool(
            3,
            |_wi, rx: mpsc::Receiver<()>, _tx: mpsc::Sender<()>| while rx.recv().is_ok() {},
            |_pool| 42,
        );
        assert_eq!(out, 42);
    }
}

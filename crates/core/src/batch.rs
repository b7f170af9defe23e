//! Inter-query batch execution: many skyline queries over one shared
//! read-only network + R-tree (DESIGN.md §9).
//!
//! [`BatchEngine`] is the throughput-oriented face of
//! [`SkylineEngine`]: it executes a slice of independent query sets
//! concurrently, each against its own **cold private store session** of
//! the engine's buffer capacity. Because a session replays exactly the
//! page-access sequence a sequential [`SkylineEngine::run_cold`] would
//! produce, every per-query statistic — skyline set, vectors, page
//! faults — is bitwise identical to the sequential run at every worker
//! count; only the wall clock changes.

use crate::engine::{Algorithm, Exec, QueryPlan, SkylineEngine, SkylineResult};
use crate::stats::Stopwatch;
use rn_graph::NetPosition;
use rn_obs::{Event, Metric, QueryBudget, QueryTrace};
use rn_storage::{IoSnapshot, NetworkStore, PoolConfig};
use std::time::Duration;

/// Executes batches of independent queries concurrently over one shared
/// [`SkylineEngine`].
pub struct BatchEngine<'e> {
    engine: &'e SkylineEngine,
    workers: usize,
}

/// What a batch run produces: per-query results (in batch order) plus the
/// batch-level costs.
pub struct BatchOutcome {
    /// One [`SkylineResult`] per input query set, in input order.
    pub results: Vec<SkylineResult>,
    /// Index node reads (object R-tree + middle layer) across the whole
    /// batch. The index counters are shared atomics, so under concurrency
    /// they are meaningful only in aggregate; each per-query
    /// `index.node_reads` counter inside [`BatchOutcome::results`] is zero.
    pub index_reads: u64,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// The per-query traces merged **in batch-index order**, plus the
    /// batch-level index reads. Each per-query trace is a pure function of
    /// its query (private cold session), so this merged trace is bitwise
    /// identical at every worker count (DESIGN.md §10).
    pub trace: QueryTrace,
    /// Aggregate network I/O of the whole batch. For the private-session
    /// modes this is reassembled from the merged trace (so it inherits
    /// their determinism); for [`BatchEngine::run_shared`] it is the
    /// shared pool's own counter delta — exact in aggregate, but how the
    /// faults split across queries depends on scheduling.
    pub io: IoSnapshot,
}

impl<'e> BatchEngine<'e> {
    /// Wraps `engine` for batch execution across `workers` threads
    /// (clamped to at least one).
    pub fn new(engine: &'e SkylineEngine, workers: usize) -> Self {
        BatchEngine {
            engine,
            workers: rn_par::effective_workers(workers),
        }
    }

    /// The effective worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `algo` for every query set in `batch` concurrently and returns
    /// the per-query results in input order.
    ///
    /// Queries are claimed dynamically (whichever worker is free takes the
    /// next index), but each runs sequentially against a private cold
    /// session, so results and per-query fault counts match
    /// [`SkylineEngine::run_cold`] exactly — see
    /// `tests/parallel_equivalence.rs`.
    ///
    /// # Panics
    /// Panics when any query set in the batch is empty.
    pub fn run(&self, algo: Algorithm, batch: &[Vec<NetPosition>]) -> BatchOutcome {
        self.execute(algo, batch, &QueryBudget::unlimited(), None)
    }

    /// [`BatchEngine::run`] under a per-query [`QueryBudget`].
    ///
    /// The budget applies to **each query independently** — every query
    /// gets its own guard over its own private session, so which queries
    /// come back [`Completion::Partial`](crate::Completion::Partial) is a
    /// pure function of the budget and the query, never of the worker
    /// count or scheduling.
    ///
    /// # Panics
    /// Panics when any query set in the batch is empty.
    pub fn run_with_budget(
        &self,
        algo: Algorithm,
        batch: &[Vec<NetPosition>],
        budget: &QueryBudget,
    ) -> BatchOutcome {
        self.execute(algo, batch, budget, None)
    }

    /// Runs the batch with every worker reading through **one shared
    /// sharded pool** of shape `pool`, instead of a private cold session
    /// per query.
    ///
    /// This is the *measured* concurrency mode (DESIGN.md §16): queries
    /// reuse each other's cached pages, so aggregate faults drop well
    /// below the private-session mode, but how the I/O splits across
    /// queries depends on scheduling. Skyline sets, vectors, and
    /// distances are still bitwise identical to [`BatchEngine::run`] —
    /// pages are immutable, so *what* a query reads never depends on who
    /// faulted the page in. Use [`BatchOutcome::io`] (the shared pool's
    /// aggregate counter delta, exact at every worker count) rather than
    /// per-query I/O counters, which are interleaving-dependent here.
    ///
    /// # Panics
    /// Panics when any query set in the batch is empty.
    pub fn run_shared(
        &self,
        algo: Algorithm,
        batch: &[Vec<NetPosition>],
        pool: PoolConfig,
    ) -> BatchOutcome {
        let base = self.engine.store_ref().session_with_config(pool);
        self.execute(algo, batch, &QueryBudget::unlimited(), Some(&base))
    }

    /// The one batch body: every query runs as an [`Exec::Session`] plan
    /// over a fresh private session, or over a handle on `shared` when
    /// given.
    fn execute(
        &self,
        algo: Algorithm,
        batch: &[Vec<NetPosition>],
        budget: &QueryBudget,
        shared: Option<&NetworkStore>,
    ) -> BatchOutcome {
        self.engine.object_tree().reset_node_reads();
        self.engine.mid_ref().reset_node_reads();
        let started = Stopwatch::start();
        let results = rn_par::par_map_indexed(batch.len(), self.workers, |i| {
            let session = match shared {
                Some(base) => base.shared_session(),
                None => self.engine.store_ref().session(),
            };
            self.engine.run_plan(&QueryPlan {
                exec: Exec::Session(&session),
                budget: budget.clone(),
                ..QueryPlan::new(algo, &batch[i])
            })
        });
        let wall = started.elapsed();
        let index_reads =
            self.engine.object_tree().node_reads() + self.engine.mid_ref().node_reads();
        // Merge order is the batch index, never worker arrival order:
        // `par_map_indexed` returns results in input order, so the merged
        // trace is deterministic at any worker count.
        let mut trace = QueryTrace::new();
        for r in &results {
            trace.merge(&r.trace);
        }
        trace.add(Metric::IndexNodeReads, index_reads);
        trace.event(Event::IndexReads { count: index_reads });
        let io = match shared {
            Some(base) => base.stats().snapshot(),
            None => io_from_trace(&trace),
        };
        BatchOutcome {
            results,
            index_reads,
            wall,
            trace,
            io,
        }
    }
}

/// Reassembles an [`IoSnapshot`] from a merged batch trace. The private
/// per-query traces are deterministic, so this aggregate is too.
fn io_from_trace(trace: &QueryTrace) -> IoSnapshot {
    let cold = trace.get(Metric::StoragePageFaultsCold);
    let warm = trace.get(Metric::StoragePageFaultsWarm);
    IoSnapshot {
        logical: trace.get(Metric::StoragePageRequests),
        faults: cold + warm,
        cold_faults: cold,
        warm_faults: warm,
        injected_errors: trace.get(Metric::StorageIoInjectedErrors),
        retries: trace.get(Metric::StorageIoRetries),
        backoff_us: trace.get(Metric::StorageIoBackoffUs),
        prefetch_issued: trace.get(Metric::StoragePrefetchIssued),
        prefetch_hits: trace.get(Metric::StoragePrefetchHits),
        prefetch_wasted: trace.get(Metric::StoragePrefetchWasted),
    }
}

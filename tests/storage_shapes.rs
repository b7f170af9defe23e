//! Storage-shape invariance: the sharded pool's shape knobs — shard
//! count, worker count — are performance knobs, never semantic ones.
//!
//! Property-style, at the engine level (the unit suites in
//! `rn_storage::shard` pin the same contracts at the pool level):
//!
//! * [`msq_core::BatchEngine::run_shared`] returns **bitwise identical**
//!   skylines to the sequential engine's `run_cold` for every shard
//!   count × worker count, for CE, EDC and LBC;
//! * with the paper's 1 MB pool (no evictions on these workloads), the
//!   shared pool's aggregate demand misses are exact — invariant under
//!   both shard count and worker count;
//! * the private-session path's [`msq_core::BatchOutcome::io`] snapshot
//!   is reassembled from the merged trace, so it is bitwise identical
//!   at 1, 2 and 8 workers, and equal to the store's own counter delta
//!   over sequential `run_cold`s of the same batch.

mod common;

use common::{build, canon, params};
use msq_core::{Algorithm, BatchEngine};
use proptest::prelude::*;
use rn_graph::NetPosition;
use rn_storage::{FaultPlan, PoolConfig};
use rn_workload::generate_queries;

fn shared_config(shards: usize) -> PoolConfig {
    PoolConfig {
        shards,
        ..PoolConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Skylines through one shared pool are bitwise identical to the
    /// sequential engine for every pool shape and worker count.
    #[test]
    fn skylines_are_pool_shape_invariant(p in params()) {
        let Some(engine) = build(&p) else { return Ok(()) };
        let batch: Vec<Vec<NetPosition>> = (0..3)
            .map(|i| generate_queries(engine.network(), p.nq, 0.5, p.seed + 20 + i))
            .collect();
        for algo in Algorithm::PAPER_SET {
            let want: Vec<_> = batch.iter().map(|qs| canon(&engine.run_cold(algo, qs))).collect();
            for shards in [1usize, 2, 8] {
                for workers in [1usize, 2, 8] {
                    let out = BatchEngine::new(&engine, workers)
                        .run_shared(algo, &batch, shared_config(shards));
                    let got: Vec<_> = out.results.iter().map(canon).collect();
                    prop_assert_eq!(
                        &got,
                        &want,
                        "{} skyline diverged: shards={}, workers={}, {:?}",
                        algo.name(), shards, workers, p
                    );
                }
            }
        }
    }

    /// With no evictions (1 MB pool, small networks), every page faults
    /// exactly once no matter which worker touches it first: aggregate
    /// demand misses are shard- and worker-invariant.
    #[test]
    fn shared_demand_misses_are_shape_invariant(p in params()) {
        let Some(engine) = build(&p) else { return Ok(()) };
        let batch: Vec<Vec<NetPosition>> = (0..3)
            .map(|i| generate_queries(engine.network(), p.nq, 0.5, p.seed + 30 + i))
            .collect();
        let base = BatchEngine::new(&engine, 1)
            .run_shared(Algorithm::Lbc, &batch, shared_config(1))
            .io;
        prop_assert_eq!(base.faults, base.cold_faults, "no evictions expected: {:?}", p);
        for shards in [1usize, 2, 8] {
            for workers in [1usize, 2, 8] {
                let io = BatchEngine::new(&engine, workers)
                    .run_shared(Algorithm::Lbc, &batch, shared_config(shards))
                    .io;
                prop_assert_eq!(
                    io.faults,
                    base.faults,
                    "demand misses not shape-invariant: shards={}, workers={}, {:?}",
                    shards, workers, p
                );
                prop_assert_eq!(io.logical, base.logical, "shards={}, workers={}, {:?}", shards, workers, p);
            }
        }
    }

    /// The private-session batch path reassembles its `io` snapshot from
    /// the merged (deterministic) trace: bitwise identical at 1/2/8
    /// workers, and field for field the delta the engine's own store
    /// meters over sequential `run_cold`s of the same batch — with and
    /// without injected read errors.
    #[test]
    fn private_batch_io_is_worker_count_invariant(p in params()) {
        let Some(engine) = build(&p) else { return Ok(()) };
        let batch: Vec<Vec<NetPosition>> = (0..3)
            .map(|i| generate_queries(engine.network(), p.nq, 0.5, p.seed + 40 + i))
            .collect();
        for plan in [None, Some(FaultPlan::new(p.seed, 1 << 15))] {
            engine.set_fault_plan(plan);
            for algo in Algorithm::PAPER_SET {
                let base = BatchEngine::new(&engine, 1).run(algo, &batch).io;
                for workers in [2usize, 8] {
                    let io = BatchEngine::new(&engine, workers).run(algo, &batch).io;
                    prop_assert_eq!(
                        io,
                        base,
                        "{} io snapshot not worker-count-invariant: workers={}, plan={:?}, {:?}",
                        algo.name(), workers, plan, p
                    );
                }
                let stats = engine.store_ref().stats();
                let before = stats.snapshot();
                for qs in &batch {
                    engine.run_cold(algo, qs);
                }
                prop_assert_eq!(
                    base,
                    stats.snapshot().since(&before),
                    "{} batch io differs from the store meter: plan={:?}, {:?}",
                    algo.name(), plan, p
                );
            }
        }
        engine.set_fault_plan(None);
    }
}

//! Parallel/sequential equivalence (ISSUE 2, satellite c).
//!
//! The determinism contract of DESIGN.md §9, checked property-style:
//!
//! * [`msq_core::BatchEngine`] at 1, 2 and 8 workers returns **bitwise
//!   identical** skyline sets, vectors and per-query page-fault counts to
//!   the sequential engine's `run_cold`, for CE, EDC and LBC;
//! * intra-query [`msq_core::SkylineEngine::run_parallel`] returns
//!   bitwise identical results (including fault counts) at every worker
//!   count, and the same skyline set as the sequential engine.
//!
//! Run with `--features msq-core/invariant-checks` (the CI contracts job
//! does) to execute the same property with the runtime contract layer
//! live on every heap pop, bound confirmation and dominance test.

mod common;

use common::{build, canon, params, run_exec};
use msq_core::{Algorithm, BatchEngine, Exec, SkylineResult};
use proptest::prelude::*;
use rn_graph::NetPosition;
use rn_workload::generate_queries;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Inter-query: BatchEngine at every worker count == sequential
    /// run_cold, query by query, faults included.
    #[test]
    fn batch_engine_matches_sequential_run_cold(p in params()) {
        let Some(engine) = build(&p) else { return Ok(()) };
        let batch: Vec<Vec<NetPosition>> = (0..3)
            .map(|i| generate_queries(engine.network(), p.nq, 0.5, p.seed + 10 + i))
            .collect();
        for algo in Algorithm::PAPER_SET {
            let sequential: Vec<SkylineResult> = batch
                .iter()
                .map(|qs| engine.run_cold(algo, qs))
                .collect();
            let mut base_trace: Option<String> = None;
            for workers in [1usize, 2, 8] {
                let out = BatchEngine::new(&engine, workers).run(algo, &batch);
                prop_assert_eq!(out.results.len(), batch.len());
                // The merged batch trace is bitwise identical at every
                // worker count (DESIGN.md §10).
                let trace_json = out.trace.to_json();
                match &base_trace {
                    None => base_trace = Some(trace_json),
                    Some(base) => prop_assert_eq!(
                        &trace_json,
                        base,
                        "{} merged trace diverged: workers={}, {:?}",
                        algo.name(), workers, p
                    ),
                }
                for (q, (par, seq)) in out.results.iter().zip(&sequential).enumerate() {
                    prop_assert_eq!(
                        canon(par),
                        canon(seq),
                        "{} skyline diverged: workers={}, query={}, {:?}",
                        algo.name(), workers, q, p
                    );
                    prop_assert_eq!(
                        par.page_faults(),
                        seq.page_faults(),
                        "{} fault count diverged: workers={}, query={}, {:?}",
                        algo.name(), workers, q, p
                    );
                }
            }
        }
    }

    /// Intra-query: run_parallel is bitwise worker-count-invariant
    /// (skyline, vectors, faults) and agrees with the sequential skyline.
    #[test]
    fn intra_query_parallel_is_worker_count_invariant(p in params()) {
        let Some(engine) = build(&p) else { return Ok(()) };
        let queries = generate_queries(engine.network(), p.nq, 0.5, p.seed + 7);
        for algo in Algorithm::PAPER_SET {
            let sequential = engine.run_cold(algo, &queries);
            let base = run_exec(&engine, algo, &queries, Exec::Parallel(1));
            prop_assert_eq!(
                canon(&base),
                canon(&sequential),
                "{} parallel skyline != sequential on {:?}",
                algo.name(), p
            );
            for workers in [2usize, 8] {
                let r = run_exec(&engine, algo, &queries, Exec::Parallel(workers));
                prop_assert_eq!(
                    canon(&r),
                    canon(&base),
                    "{} skyline not worker-count-invariant: workers={}, {:?}",
                    algo.name(), workers, p
                );
                prop_assert_eq!(
                    r.page_faults(),
                    base.page_faults(),
                    "{} fault count not worker-count-invariant: workers={}, {:?}",
                    algo.name(), workers, p
                );
                // Coordinator-side recording: counters and events are
                // bitwise identical at every worker count.
                prop_assert_eq!(
                    r.trace.to_json(),
                    base.trace.to_json(),
                    "{} trace not worker-count-invariant: workers={}, {:?}",
                    algo.name(), workers, p
                );
            }
        }
    }
}

//! Parallel/sequential equivalence.
//!
//! The determinism contract of DESIGN.md §9, checked property-style:
//! [`msq_core::BatchEngine`] at 1, 2 and 8 workers returns **bitwise
//! identical** skyline sets, vectors and per-query page-fault counts to
//! the sequential engine's `run_cold`, for CE, EDC and LBC, and a merged
//! batch trace that does not depend on the worker count.
//!
//! Run with `--features msq-core/invariant-checks` (the CI contracts job
//! does) to execute the same property with the runtime contract layer
//! live on every heap pop, bound confirmation and dominance test.

mod common;

use common::{build, canon, params};
use msq_core::{Algorithm, BatchEngine, SkylineResult};
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
}

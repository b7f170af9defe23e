//! Batched-sweep equivalence (ISSUE 4, tentpole proof).
//!
//! Multi-target pack sweeps ([`rn_sp::AStar::distances_to_pack`], wired
//! through [`msq_core::SweepMode`]) are a pure cost optimisation: for
//! every algorithm that resolves distance batches — EDC in both forms,
//! LBC with and without plb — the batched and the single-target engines
//! must return **bitwise identical** skyline sets and distance vectors,
//! sequentially and at 1, 2 and 8 workers. Batched sweeps are the
//! [`msq_core::QueryPlan`] default, so plain `run_cold` runs them.
//!
//! Run with `--features msq-core/invariant-checks` (the CI contracts job
//! does) to execute the same property with the pack sweep's heap-pop
//! monotonicity and admissibility contracts live.

mod common;

use common::{build, canon, params, run_exec};
use msq_core::{Algorithm, Exec, Metric, QueryPlan, SweepMode};
use proptest::prelude::*;
use rn_workload::generate_queries;

/// The algorithms whose distance resolution goes through batches. CE and
/// brute force never touch the A* pack path.
const BATCHING_ALGOS: [Algorithm; 4] = [
    Algorithm::Edc,
    Algorithm::EdcBatch,
    Algorithm::Lbc,
    Algorithm::LbcNoPlb,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched == single-target, bitwise, for every batching algorithm:
    /// sequentially and at every worker count.
    #[test]
    fn batched_sweeps_match_single_target_bitwise(p in params()) {
        let Some(engine) = build(&p) else { return Ok(()) };
        let queries = generate_queries(engine.network(), p.nq, 0.5, p.seed + 7);
        for algo in BATCHING_ALGOS {
            let single = engine.run_plan(&QueryPlan {
                exec: Exec::Cold,
                sweep: SweepMode::SingleTarget,
                ..QueryPlan::new(algo, &queries)
            });
            // Single-target mode must never open a pack.
            prop_assert_eq!(
                single.trace.get(Metric::SpAstarPackSweeps), 0,
                "{} recorded pack sweeps in single-target mode: {:?}",
                algo.name(), p
            );
            let batched = engine.run_cold(algo, &queries);
            prop_assert_eq!(
                canon(&batched),
                canon(&single),
                "{} batched skyline != single-target: {:?}",
                algo.name(), p
            );
            for workers in [1usize, 2, 8] {
                let r = run_exec(&engine, algo, &queries, Exec::Parallel(workers));
                prop_assert_eq!(
                    canon(&r),
                    canon(&single),
                    "{} parallel batched skyline != single-target: workers={}, {:?}",
                    algo.name(), workers, p
                );
            }
        }
    }

    /// Pack counter contracts. EDC resolves *every* vector through packs,
    /// so two exact invariants hold there: a pack sweep never re-keys the
    /// frontier heap more often than the single-target loop it replaces
    /// (which pays one `set_target` re-key per destination), and the
    /// re-keys spent plus the re-keys avoided account for exactly one per
    /// destination. LBC mixes packs with bounded plb sessions whose
    /// re-key counts legitimately differ across modes, so there the
    /// contract is coverage: a non-empty skyline means the full-resolution
    /// path went through packs.
    #[test]
    fn pack_counters_satisfy_their_contracts(p in params()) {
        let Some(engine) = build(&p) else { return Ok(()) };
        let queries = generate_queries(engine.network(), p.nq, 0.5, p.seed + 13);
        for algo in [Algorithm::Edc, Algorithm::EdcBatch] {
            let single = engine.run_plan(&QueryPlan {
                exec: Exec::Cold,
                sweep: SweepMode::SingleTarget,
                ..QueryPlan::new(algo, &queries)
            });
            let batched = engine.run_cold(algo, &queries);
            prop_assert!(
                batched.trace.get(Metric::SpAstarRetargets)
                    <= single.trace.get(Metric::SpAstarRetargets),
                "{} batched re-keyed more ({} > {}): {:?}",
                algo.name(),
                batched.trace.get(Metric::SpAstarRetargets),
                single.trace.get(Metric::SpAstarRetargets),
                p
            );
            prop_assert_eq!(
                batched.trace.get(Metric::SpAstarPackTargets),
                batched.trace.get(Metric::SpAstarPackRekeysAvoided)
                    + batched.trace.get(Metric::SpAstarRetargets),
                "{} pack re-key accounting diverged: {:?}",
                algo.name(), p
            );
            // Both modes confirm the same number of exact distances.
            prop_assert_eq!(
                batched.trace.get(Metric::SpAstarConfirms),
                single.trace.get(Metric::SpAstarConfirms),
                "{} confirm counts diverged across sweep modes: {:?}",
                algo.name(), p
            );
        }
        for algo in [Algorithm::Lbc, Algorithm::LbcNoPlb] {
            let batched = engine.run_cold(algo, &queries);
            // Every sweep carries at least one destination (empty packs
            // are free no-ops and never counted).
            prop_assert!(
                batched.trace.get(Metric::SpAstarPackTargets)
                    >= batched.trace.get(Metric::SpAstarPackSweeps),
                "{} pack sweeps without destinations: {:?}",
                algo.name(), p
            );
        }
    }
}

/// On the golden-trace workload the batched paths demonstrably go through
/// packs — pinning coverage on a fixture where bounded sessions cannot
/// have pre-resolved every dimension (unlike adversarial proptest draws,
/// where an LBC skyline can legitimately confirm pack-free).
#[test]
fn fixture_runs_resolve_through_packs() {
    let (engine, queries) = common::workload(2, 8, 8, 90, 0.8, 3, 0.3, 1.4);
    for algo in BATCHING_ALGOS {
        let r = engine.run_cold(algo, &queries);
        assert!(
            r.trace.get(Metric::SpAstarPackSweeps) > 0,
            "{}: no pack sweeps on the fixture workload",
            algo.name()
        );
        assert!(
            r.trace.get(Metric::SpAstarPackTargets) >= r.trace.get(Metric::SpAstarPackSweeps),
            "{}: pack sweeps without destinations",
            algo.name()
        );
    }
}

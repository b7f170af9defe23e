//! Query budgets and partial results (ISSUE 5 tentpole, DESIGN.md §12).
//!
//! The robustness contract, checked property-style:
//!
//! * **Soundness** — a budget can only *truncate* the answer, never
//!   corrupt it: every point a capped run confirms is in the true skyline
//!   (per [`Algorithm::Brute`]) with a bitwise-identical vector, and
//!   every unresolved candidate's reported lower bounds really are lower
//!   bounds on its true distance vector.
//! * **Determinism** — cap-based trips (expansion / page-fault caps) land
//!   at a fixed heap pop of the query, and a batch budget applies to each
//!   query on its own session, so which batch queries come back partial,
//!   and their exact partial content, is identical at 1, 2 and 8
//!   workers. (Deadlines and cancellation are sound but timing-dependent,
//!   so the determinism properties here use caps exclusively.)
//! * **Transparency** — an unlimited budget is indistinguishable from no
//!   budget at all, bitwise.

mod common;

use common::{assert_sound_prefix, build, canon, params, run_capped, run_exec, workload};
use msq_core::{
    Algorithm, BatchEngine, CancelToken, Exec, IncompleteReason, Metric, QueryBudget, SkylineEngine,
};
use proptest::prelude::*;
use rn_graph::NetPosition;
use rn_workload::generate_queries;

/// Every budget-governed algorithm (the oracle is exempt by design).
const GOVERNED: [Algorithm; 5] = [
    Algorithm::Ce,
    Algorithm::Edc,
    Algorithm::EdcBatch,
    Algorithm::Lbc,
    Algorithm::LbcNoPlb,
];

/// The fixed medium workload used by the deterministic (non-proptest)
/// tests: large enough that a halved expansion cap trips every algorithm
/// mid-run.
fn fixture() -> (SkylineEngine, Vec<NetPosition>) {
    workload(42, 8, 8, 80, 0.9, 3, 0.3, 1.4)
}

#[test]
fn unlimited_budget_is_bitwise_transparent() {
    let (engine, queries) = fixture();
    for algo in GOVERNED {
        // Warm the shared buffer first so both runs see identical
        // cold/warm fault attribution.
        engine.run(algo, &queries);
        let plain = engine.run(algo, &queries);
        let unlimited = QueryBudget::unlimited();
        let budgeted = run_capped(&engine, algo, &queries, Exec::Warm, unlimited);
        assert!(budgeted.completion.is_complete());
        assert_eq!(canon(&plain), canon(&budgeted), "{}", algo.name());
        assert_eq!(
            plain.trace.to_json(),
            budgeted.trace.to_json(),
            "{} trace differs under unlimited budget",
            algo.name()
        );
        assert_eq!(plain.trace.get(Metric::QueryIncomplete), 0);
    }
}

#[test]
fn brute_oracle_is_exempt_from_budgets() {
    let (engine, queries) = fixture();
    let budget = QueryBudget::unlimited().with_max_expansions(1);
    let r = run_capped(&engine, Algorithm::Brute, &queries, Exec::Warm, budget);
    assert!(r.completion.is_complete());
    assert_eq!(canon(&r), canon(&engine.run(Algorithm::Brute, &queries)));
}

#[test]
fn tripped_runs_report_reason_and_trace_metrics() {
    let (engine, queries) = fixture();
    let brute = engine.run(Algorithm::Brute, &queries);
    for algo in GOVERNED {
        let budget = QueryBudget::unlimited().with_max_expansions(1);
        let r = run_capped(&engine, algo, &queries, Exec::Warm, budget);
        let info = r
            .completion
            .partial()
            .unwrap_or_else(|| panic!("{}: cap of 1 must trip", algo.name()));
        assert_eq!(
            info.reason,
            IncompleteReason::ExpansionCap,
            "{}",
            algo.name()
        );
        assert_eq!(r.trace.get(Metric::QueryIncomplete), 1, "{}", algo.name());
        assert_eq!(
            r.trace.get(Metric::QueryUnresolvedCandidates),
            info.unresolved.len() as u64,
            "{}",
            algo.name()
        );
        assert_sound_prefix(&r, &brute, algo.name());
    }
}

#[test]
fn pre_cancelled_token_yields_sound_partial() {
    let (engine, queries) = fixture();
    let brute = engine.run(Algorithm::Brute, &queries);
    let token = CancelToken::new();
    token.cancel();
    for algo in GOVERNED {
        let budget = QueryBudget::unlimited().with_cancel(token.clone());
        let r = run_capped(&engine, algo, &queries, Exec::Warm, budget);
        let info = r
            .completion
            .partial()
            .unwrap_or_else(|| panic!("{}: cancelled token must trip", algo.name()));
        assert_eq!(info.reason, IncompleteReason::Cancelled, "{}", algo.name());
        assert_sound_prefix(&r, &brute, algo.name());
    }
}

#[test]
fn expired_deadline_yields_sound_partial() {
    let (engine, queries) = fixture();
    let brute = engine.run(Algorithm::Brute, &queries);
    for algo in GOVERNED {
        let budget = QueryBudget::unlimited().with_deadline(std::time::Duration::ZERO);
        let r = run_capped(&engine, algo, &queries, Exec::Warm, budget);
        let info = r
            .completion
            .partial()
            .unwrap_or_else(|| panic!("{}: expired deadline must trip", algo.name()));
        assert_eq!(info.reason, IncompleteReason::Deadline, "{}", algo.name());
        assert_sound_prefix(&r, &brute, algo.name());
    }
}

/// `PartialInfo::unresolved` comes back strictly ascending by object id,
/// as its rustdoc promises, whatever order the run discovered the
/// objects in.
#[test]
fn unresolved_candidates_ascend_by_object_id() {
    let (engine, queries) = fixture();
    for algo in [Algorithm::Ce, Algorithm::Edc, Algorithm::Lbc] {
        for (label, exec) in [("Warm", Exec::Warm), ("Cold", Exec::Cold)] {
            let full = run_exec(&engine, algo, &queries, exec);
            let cap = (full.trace.get(Metric::SpHeapPops) / 4).max(1);
            let budget = QueryBudget::unlimited().with_max_expansions(cap);
            let r = run_capped(&engine, algo, &queries, exec, budget);
            let info = r
                .completion
                .partial()
                .unwrap_or_else(|| panic!("{} {label}: a ¼-pops cap must trip", algo.name()));
            assert!(
                info.unresolved.len() >= 2,
                "{} {label}: too few unresolved candidates to show an order",
                algo.name()
            );
            let ids: Vec<_> = info.unresolved.iter().map(|u| u.object).collect();
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "{} {label}: unresolved not strictly ascending by id: {ids:?}",
                algo.name()
            );
        }
    }
}

/// Batch budgets are per query: which queries come back partial — and
/// their exact partial content — is invariant under the batch worker
/// count.
#[test]
fn batch_budget_is_per_query_and_worker_count_invariant() {
    let (engine, _) = fixture();
    let batch: Vec<Vec<NetPosition>> = (0..4)
        .map(|i| generate_queries(engine.network(), 3, 0.5, 1000 + i))
        .collect();
    for algo in [Algorithm::Ce, Algorithm::Edc, Algorithm::Lbc] {
        let full = BatchEngine::new(&engine, 1).run(algo, &batch);
        // A cap below the largest query's cost: some queries trip, the
        // cheap ones may still complete — per query, not per batch.
        let max_cost = full
            .results
            .iter()
            .map(|r| r.trace.get(Metric::SpHeapPops))
            .max()
            .unwrap();
        let budget = QueryBudget::unlimited().with_max_expansions((max_cost / 2).max(1));
        let base = BatchEngine::new(&engine, 1).run_with_budget(algo, &batch, &budget);
        assert!(
            base.results.iter().any(|r| !r.completion.is_complete()),
            "{}: cap below max query cost must trip at least one query",
            algo.name()
        );
        for workers in [2usize, 8] {
            let out = BatchEngine::new(&engine, workers).run_with_budget(algo, &batch, &budget);
            for (q, (a, b)) in out.results.iter().zip(&base.results).enumerate() {
                assert_eq!(
                    canon(a),
                    canon(b),
                    "{} query {} skyline diverged at {} workers",
                    algo.name(),
                    q,
                    workers
                );
                assert_eq!(
                    a.completion,
                    b.completion,
                    "{} query {} completion diverged at {} workers",
                    algo.name(),
                    q,
                    workers
                );
            }
            assert_eq!(
                out.trace.to_json(),
                base.trace.to_json(),
                "{} merged batch trace diverged at {} workers",
                algo.name(),
                workers
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Soundness under arbitrary expansion caps: whatever the cap, every
    /// confirmed point is in the true skyline with the oracle's exact
    /// vector, unresolved bounds are true lower bounds, and an untripped run
    /// is the full answer.
    #[test]
    fn any_expansion_cap_yields_a_sound_prefix(p in params(), denom in 1u64..16) {
        let Some(engine) = build(&p) else { return Ok(()) };
        let queries = generate_queries(engine.network(), p.nq, 0.5, p.seed + 3);
        let brute = engine.run(Algorithm::Brute, &queries);
        for algo in GOVERNED {
            let full = engine.run(algo, &queries);
            let cap = (full.trace.get(Metric::SpHeapPops) / denom).max(1);
            let budget = QueryBudget::unlimited().with_max_expansions(cap);
            let r = run_capped(&engine, algo, &queries, Exec::Warm, budget);
            assert_sound_prefix(&r, &brute, algo.name());
        }
    }
}

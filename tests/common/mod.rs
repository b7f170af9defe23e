//! Shared fixture builders for the workspace integration tests.
//!
//! Each `[[test]]` target compiles its own copy of this module, and no
//! single target uses every helper — hence the file-level `dead_code`
//! allow.

#![allow(dead_code)]

use msq_core::{
    Algorithm, AttrTable, Completion, Exec, QueryBudget, QueryPlan, SkylineEngine, SkylineResult,
};
use proptest::prelude::*;
use rn_graph::NetPosition;
use rn_workload::{ca_like, generate_network, generate_objects, generate_queries, NetGenConfig};

/// A CA-like preset engine at object density `omega` (the end-to-end
/// pipeline fixture: fixed network seed, fixed object seed).
pub fn ca_engine(omega: f64) -> SkylineEngine {
    let net = ca_like(11);
    assert!(rn_graph::connectivity::is_connected(&net));
    let objects = generate_objects(&net, omega, 111);
    SkylineEngine::build(net, objects)
}

/// A seeded random grid workload: engine plus query set, fully
/// parameterised (the cross-validation fixture).
#[allow(clippy::too_many_arguments)]
pub fn workload(
    seed: u64,
    cols: usize,
    rows: usize,
    edges: usize,
    omega: f64,
    nq: usize,
    detour_prob: f64,
    detour_max: f64,
) -> (SkylineEngine, Vec<NetPosition>) {
    let net = generate_network(&NetGenConfig {
        cols,
        rows,
        edges,
        jitter: 0.3,
        detour_prob,
        detour_stretch: (1.05, detour_max.max(1.05)),
        seed,
    });
    let objects = generate_objects(&net, omega, seed + 1);
    let queries = generate_queries(&net, nq, 0.2, seed + 2);
    (SkylineEngine::build(net, objects), queries)
}

/// Every algorithm (CE, EDC, EDC-batch, LBC, LBC-noplb) must agree with
/// the brute oracle on skyline membership *and* vectors.
pub fn assert_all_agree(engine: &SkylineEngine, queries: &[NetPosition], label: &str) {
    let brute = engine.run(Algorithm::Brute, queries);
    for algo in [
        Algorithm::Ce,
        Algorithm::Edc,
        Algorithm::EdcBatch,
        Algorithm::Lbc,
        Algorithm::LbcNoPlb,
    ] {
        let r = engine.run(algo, queries);
        assert_eq!(
            r.ids(),
            brute.ids(),
            "{label}: {} disagrees with brute force",
            algo.name()
        );
        // Vectors must agree too, not just membership.
        for p in &r.skyline {
            let want = brute.vector_of(p.object).expect("object in brute skyline");
            for (a, b) in p.vector.iter().zip(want) {
                assert!(
                    rn_geom::approx_eq(*a, *b),
                    "{label}: {} vector mismatch for {:?}: {a} vs {b}",
                    algo.name(),
                    p.object
                );
            }
        }
    }
}

/// Proptest parameters for a random grid engine (the parallel-equivalence
/// and metamorphic fixture).
#[derive(Debug, Clone)]
pub struct Params {
    pub cols: usize,
    pub rows: usize,
    pub extra_edges: usize,
    pub detour_prob: f64,
    pub omega: f64,
    pub nq: usize,
    pub seed: u64,
}

/// The strategy generating [`Params`].
pub fn params() -> impl Strategy<Value = Params> {
    (
        4usize..10,
        4usize..10,
        0usize..60,
        0.0..0.8f64,
        0.2..1.2f64,
        1usize..6,
        0u64..10_000,
    )
        .prop_map(
            |(cols, rows, extra_edges, detour_prob, omega, nq, seed)| Params {
                cols,
                rows,
                extra_edges,
                detour_prob,
                omega,
                nq,
                seed,
            },
        )
}

/// Builds the engine for [`Params`]; `None` when the sampled density
/// leaves the network without objects.
pub fn build(p: &Params) -> Option<SkylineEngine> {
    let nodes = p.cols * p.rows;
    let net = generate_network(&NetGenConfig {
        cols: p.cols,
        rows: p.rows,
        edges: nodes - 1 + p.extra_edges,
        jitter: 0.3,
        detour_prob: p.detour_prob,
        detour_stretch: (1.05, 1.6),
        seed: p.seed,
    });
    let objects = generate_objects(&net, p.omega, p.seed + 1);
    if objects.is_empty() {
        return None;
    }
    Some(SkylineEngine::build(net, objects))
}

/// `algo` over `queries` under `exec`, every other plan field at its
/// default.
pub fn run_exec(
    engine: &SkylineEngine,
    algo: Algorithm,
    queries: &[NetPosition],
    exec: Exec<'_>,
) -> SkylineResult {
    engine.run_plan(&QueryPlan {
        exec,
        ..QueryPlan::new(algo, queries)
    })
}

/// `algo` over `queries` with the static dimensions of `attrs` appended
/// to every vector.
pub fn run_attrs(
    engine: &SkylineEngine,
    algo: Algorithm,
    queries: &[NetPosition],
    attrs: &AttrTable,
) -> SkylineResult {
    engine.run_plan(&QueryPlan {
        attrs: Some(attrs),
        ..QueryPlan::new(algo, queries)
    })
}

/// [`run_exec`] under `budget`.
pub fn run_capped(
    engine: &SkylineEngine,
    algo: Algorithm,
    queries: &[NetPosition],
    exec: Exec<'_>,
    budget: QueryBudget,
) -> SkylineResult {
    engine.run_plan(&QueryPlan {
        exec,
        budget,
        ..QueryPlan::new(algo, queries)
    })
}

/// [`msq_core::canonical`] of a result's skyline.
pub fn canon(r: &SkylineResult) -> Vec<(u32, Vec<u64>)> {
    msq_core::canonical(&r.skyline)
}

/// Asserts the partial-result soundness contract of `r` against the brute
/// oracle's answer.
pub fn assert_sound_prefix(r: &SkylineResult, brute: &SkylineResult, label: &str) {
    for p in &r.skyline {
        let want = brute.vector_of(p.object).unwrap_or_else(|| {
            panic!(
                "{label}: confirmed {:?} is not in the true skyline",
                p.object
            )
        });
        for (a, b) in p.vector.iter().zip(want) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{label}: confirmed vector for {:?} differs from oracle",
                p.object
            );
        }
    }
    if let Completion::Partial(info) = &r.completion {
        for u in &info.unresolved {
            // Confirmed and unresolved are disjoint.
            assert!(
                r.vector_of(u.object).is_none(),
                "{label}: {:?} is both confirmed and unresolved",
                u.object
            );
            // Where the oracle knows the true vector, the reported lower
            // bounds must really be lower bounds.
            if let Some(truth) = brute.vector_of(u.object) {
                for (lb, t) in u.lower_bounds.iter().zip(truth) {
                    assert!(
                        *lb <= *t + 1e-9,
                        "{label}: lower bound {lb} exceeds true distance {t} for {:?}",
                        u.object
                    );
                }
            }
        }
    } else {
        // A complete run must be the full answer.
        assert_eq!(canon(r), canon(brute), "{label}: complete run != oracle");
    }
}

//! Bound-kind equivalence (ISSUE 7, satellite c).
//!
//! Swapping the lower-bound oracle changes how much work the engines do,
//! never what they return: A\* keys its heap by the Euclidean distance
//! under every bound, and the EDC/LBC pruning rules only ever discard
//! candidates an admissible bound proves dominated. This suite pins that
//! contract bitwise:
//!
//! * every algorithm (CE, EDC, EDC-batch, LBC, LBC-noplb) returns a
//!   **bitwise identical** skyline under the Euclid and ALT bounds;
//! * the same holds for `run_parallel` at 1, 2 and 8 workers;
//! * on a detour-heavy workload ALT's pruning cuts the aggregate A\*
//!   expansion count of the EDC/LBC paths.

mod common;

use common::{build, canon, params, run_exec};
use msq_core::{Algorithm, BoundSpec, Exec, Metric, SkylineEngine};
use proptest::prelude::*;
use rn_graph::NetPosition;
use rn_workload::generate_queries;

const SPECS: [BoundSpec; 2] = [BoundSpec::Euclid, BoundSpec::Alt { landmarks: 6 }];

fn queries_for(engine: &SkylineEngine, nq: usize, seed: u64) -> Vec<NetPosition> {
    generate_queries(engine.network(), nq.max(1), 0.4, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sequential: all five algorithms, both bound kinds, one skyline.
    #[test]
    fn skylines_are_bitwise_identical_across_bound_kinds(p in params()) {
        let Some(mut engine) = build(&p) else { return Ok(()) };
        let queries = queries_for(&engine, p.nq, p.seed + 7);
        for algo in [
            Algorithm::Ce,
            Algorithm::Edc,
            Algorithm::EdcBatch,
            Algorithm::Lbc,
            Algorithm::LbcNoPlb,
        ] {
            let mut base: Option<Vec<(u32, Vec<u64>)>> = None;
            for spec in SPECS {
                engine.set_bound(spec);
                let got = canon(&engine.run(algo, &queries));
                match &base {
                    None => base = Some(got),
                    Some(b) => prop_assert_eq!(
                        b,
                        &got,
                        "{} diverged under {:?}",
                        algo.name(),
                        spec
                    ),
                }
            }
        }
        engine.set_bound(BoundSpec::Euclid);
    }

    /// Parallel: worker count and bound kind are both irrelevant to the
    /// answer — 2 bounds x 3 worker counts, one skyline per algorithm.
    #[test]
    fn parallel_skylines_match_at_every_worker_count(p in params()) {
        let Some(mut engine) = build(&p) else { return Ok(()) };
        let queries = queries_for(&engine, p.nq, p.seed + 13);
        for algo in [Algorithm::Ce, Algorithm::Edc, Algorithm::Lbc] {
            let mut base: Option<Vec<(u32, Vec<u64>)>> = None;
            for spec in SPECS {
                engine.set_bound(spec);
                for workers in [1usize, 2, 8] {
                    let got = canon(&run_exec(&engine, algo, &queries, Exec::Parallel(workers)));
                    match &base {
                        None => base = Some(got),
                        Some(b) => prop_assert_eq!(
                            b,
                            &got,
                            "{} diverged under {:?} at {} workers",
                            algo.name(),
                            spec,
                            workers
                        ),
                    }
                }
            }
        }
        engine.set_bound(BoundSpec::Euclid);
    }

}

/// The oracle exists to prune. Per-instance monotonicity is *not* a
/// theorem — tightened seeds reorder LBC's frontier, which can shift a
/// handful of expansions either way — but on a detour-heavy workload
/// (where the Euclidean bound is loosest) the aggregate EDC+LBC
/// expansion count must drop under ALT.
#[test]
fn oracles_prune_detour_heavy_workloads() {
    use rn_workload::{generate_network, generate_objects, NetGenConfig};
    let net = generate_network(&NetGenConfig {
        cols: 12,
        rows: 12,
        edges: 280,
        jitter: 0.3,
        detour_prob: 0.9,
        detour_stretch: (1.6, 2.4),
        seed: 41,
    });
    let objects = generate_objects(&net, 0.6, 42);
    let mut engine = SkylineEngine::build(net, objects);
    let query_sets: Vec<Vec<NetPosition>> = (0..4)
        .map(|i| generate_queries(engine.network(), 3, 0.4, 43 + i))
        .collect();

    let mut totals = Vec::new();
    for spec in SPECS {
        engine.set_bound(spec);
        let mut total = 0u64;
        for qs in &query_sets {
            for algo in [Algorithm::Edc, Algorithm::Lbc] {
                total += engine.run(algo, qs).trace.get(Metric::SpHeapPops);
            }
        }
        totals.push(total);
    }
    let (euclid, alt) = (totals[0], totals[1]);
    assert!(alt < euclid, "ALT did not prune: {alt} vs Euclid {euclid}");
}

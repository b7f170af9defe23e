//! LBC tie batches: objects that share one network position have the same
//! exact source distance, so LBC reaches them at the network NN frontier
//! together and adjudicates them as one batch (`crates/core/src/lbc.rs`).
//! Random object placement almost never makes such ties, so this fixture
//! stacks up to three objects on each generated position.
//!
//! * LBC and LBC-noplb equal [`Algorithm::Brute`], bitwise, under the
//!   warm, cold and parallel (1, 2, 8 workers) exec modes.
//! * Under a budget of a quarter of the full run's heap pops, the answer
//!   is a sound prefix, and it is identical at 1, 2 and 8 workers.
//!
//! Run with `--features msq-core/invariant-checks` (the CI contracts leg
//! does) to keep the plb admissibility contract live in every batch.

mod common;

use common::{assert_sound_prefix, canon, run_capped, run_exec};
use msq_core::{Algorithm, Exec, Metric, QueryBudget, SkylineEngine, SkylineResult};
use rn_graph::NetPosition;
use rn_workload::{generate_network, generate_objects, generate_queries, NetGenConfig};

const LBC_MODES: [Algorithm; 2] = [Algorithm::Lbc, Algorithm::LbcNoPlb];

/// A random grid whose `i`-th generated object position carries
/// `1 + i % 3` objects, plus a three-point query set.
fn stacked_workload(seed: u64) -> (SkylineEngine, Vec<NetPosition>) {
    let net = generate_network(&NetGenConfig {
        cols: 9,
        rows: 9,
        edges: 120,
        jitter: 0.3,
        detour_prob: 0.3,
        detour_stretch: (1.05, 1.5),
        seed,
    });
    let objects: Vec<NetPosition> = generate_objects(&net, 0.6, seed + 1)
        .into_iter()
        .enumerate()
        .flat_map(|(i, pos)| std::iter::repeat(pos).take(1 + i % 3))
        .collect();
    let queries = generate_queries(&net, 3, 0.3, seed + 2);
    (SkylineEngine::build(net, objects), queries)
}

/// Skyline members that share their vector, bitwise, with another member:
/// objects LBC can only confirm through a tie batch of two or more.
fn tied_members(brute: &SkylineResult) -> usize {
    let sky = canon(brute);
    sky.iter()
        .filter(|(id, v)| sky.iter().any(|(o, w)| o != id && w == v))
        .count()
}

#[test]
fn tie_batches_match_brute_under_every_exec_mode() {
    let mut tied = 0;
    for seed in 0..4 {
        let (engine, queries) = stacked_workload(seed);
        let brute = engine.run(Algorithm::Brute, &queries);
        tied += tied_members(&brute);
        let execs = [
            (Exec::Warm, "warm"),
            (Exec::Cold, "cold"),
            (Exec::Parallel(1), "parallel-1"),
            (Exec::Parallel(2), "parallel-2"),
            (Exec::Parallel(8), "parallel-8"),
        ];
        for algo in LBC_MODES {
            for (exec, label) in execs {
                let r = run_exec(&engine, algo, &queries, exec);
                assert_eq!(
                    canon(&r),
                    canon(&brute),
                    "seed {seed}: {} under {label} differs from brute force",
                    algo.name()
                );
            }
        }
    }
    assert!(tied >= 2, "no skyline member shares its position");
}

#[test]
fn capped_tie_batches_are_sound_and_worker_count_invariant() {
    let mut partial = 0;
    for seed in 0..4 {
        let (engine, queries) = stacked_workload(seed);
        let brute = engine.run(Algorithm::Brute, &queries);
        for algo in LBC_MODES {
            for exec in [Exec::Warm, Exec::Parallel(1)] {
                let full = run_exec(&engine, algo, &queries, exec);
                let cap = (full.trace.get(Metric::SpHeapPops) / 4).max(1);
                let budget = QueryBudget::unlimited().with_max_expansions(cap);
                let base = run_capped(&engine, algo, &queries, exec, budget.clone());
                let label = format!("seed {seed}, {}, cap {cap}", algo.name());
                assert_sound_prefix(&base, &brute, &label);
                partial += usize::from(base.completion.partial().is_some());
                if !matches!(exec, Exec::Parallel(_)) {
                    continue;
                }
                for workers in [2usize, 8] {
                    let r = run_capped(
                        &engine,
                        algo,
                        &queries,
                        Exec::Parallel(workers),
                        budget.clone(),
                    );
                    assert_eq!(
                        canon(&r),
                        canon(&base),
                        "{label}: skyline at {workers} workers"
                    );
                    assert_eq!(
                        r.completion, base.completion,
                        "{label}: completion at {workers} workers"
                    );
                    assert_eq!(
                        r.trace.to_json(),
                        base.trace.to_json(),
                        "{label}: trace at {workers} workers"
                    );
                }
            }
        }
    }
    assert!(partial > 0, "no quarter-pops cap tripped");
}

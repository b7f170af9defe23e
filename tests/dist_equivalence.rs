//! Sharded/single-machine equivalence (ISSUE 10, tentpole contract).
//!
//! The hard contract of DESIGN.md §17: the merged skyline of
//! [`msq_core::DistEngine`] is **bitwise identical** — same objects,
//! same distance vectors down to the f64 bits — to the single-machine
//! [`msq_core::SkylineEngine`] across every shard count k ∈ {1,2,4,8},
//! every worker count {1,2,8} and every paper algorithm (CE, EDC, LBC).
//! On top of equivalence, the communication counters (`dist.msgs.*`,
//! candidate flow, shard prunes) and the merged trace must be invariant
//! across worker counts: the backend decides *when* shard jobs run,
//! never what the protocol exchanges.
//!
//! Run with `--features msq-core/invariant-checks` (the CI
//! `dist-contract` step does) to execute the same properties with the
//! runtime contract layer live inside every shard engine.

mod common;

use common::{build, params};
use msq_core::{canonical, Algorithm, DistEngine, DistResult, Metric, SkylineEngine};
use proptest::prelude::*;
use rn_graph::NetPosition;
use rn_workload::generate_queries;

const ALGOS: [Algorithm; 3] = [Algorithm::Ce, Algorithm::Edc, Algorithm::Lbc];
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// The full contract for one (engine, queries) workload: every
/// (algorithm, k, workers) cell matches the single-machine answer
/// bitwise, and comm stats + trace are worker-count-invariant per
/// (algorithm, k).
fn assert_dist_contract(engine: &SkylineEngine, queries: &[NetPosition], label: &str) {
    for algo in ALGOS {
        let single = engine.run(algo, queries);
        let want = canonical(&single.skyline);
        for k in SHARD_COUNTS {
            let dist = DistEngine::new(engine, k);
            let mut base: Option<(DistResult, String)> = None;
            for workers in WORKER_COUNTS {
                let r = dist.run_local(algo, queries, workers);
                assert_eq!(
                    canonical(&r.skyline),
                    want,
                    "{label}: {} k={k} workers={workers} diverged from single-machine",
                    algo.name()
                );
                // dist.* counters are mirrored into the merged trace.
                assert_eq!(r.trace.get(Metric::DistMsgsSent), r.comm.msgs);
                assert_eq!(r.trace.get(Metric::DistMsgsBytes), r.comm.bytes);
                assert_eq!(r.trace.get(Metric::DistRounds), r.comm.rounds);
                assert_eq!(
                    r.trace.get(Metric::DistCandidatesLocal),
                    r.comm.candidates_local
                );
                assert_eq!(
                    r.trace.get(Metric::DistCandidatesSent),
                    r.comm.candidates_sent
                );
                assert_eq!(r.trace.get(Metric::DistShardsPruned), r.comm.shards_pruned);
                // Candidate flow can only shrink coordinator-ward, and
                // every merged point was shipped by some shard.
                assert!(r.comm.candidates_sent <= r.comm.candidates_local);
                assert!(r.skyline.len() as u64 <= r.comm.candidates_sent.max(1));
                let trace_json = r.trace.to_json();
                match &base {
                    None => base = Some((r, trace_json)),
                    Some((b, bjson)) => {
                        assert_eq!(
                            r.comm,
                            b.comm,
                            "{label}: {} k={k}: comm stats vary with workers",
                            algo.name()
                        );
                        assert_eq!(
                            &trace_json,
                            bjson,
                            "{label}: {} k={k}: merged trace varies with workers",
                            algo.name()
                        );
                        for (a, bb) in r.shards.iter().zip(&b.shards) {
                            assert_eq!(a.shard, bb.shard);
                            assert_eq!(a.local, bb.local);
                            assert_eq!(a.sent, bb.sent);
                            assert_eq!(a.pruned, bb.pruned);
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The k × workers × algorithm equivalence grid on random seeded
    /// grid workloads.
    #[test]
    fn sharded_matches_single_machine(p in params()) {
        let Some(engine) = build(&p) else { return Ok(()) };
        let queries = generate_queries(engine.network(), p.nq, 0.2, p.seed + 2);
        assert_dist_contract(&engine, &queries, &format!("{p:?}"));
    }
}

/// Deterministic k=4 smoke run — the named entry point the CI chaos
/// job executes (`cargo test --test dist_equivalence smoke_k4`). Small
/// fixed workload, full contract, plus sanity on the protocol totals.
#[test]
fn smoke_k4() {
    let (engine, queries) = common::workload(7, 8, 8, 100, 0.6, 3, 0.2, 1.4);
    let single = engine.run(Algorithm::Lbc, &queries);
    let dist = DistEngine::new(&engine, 4);
    let r = dist.run_local(Algorithm::Lbc, &queries, 2);
    assert_eq!(canonical(&r.skyline), canonical(&single.skyline));
    // Protocol shape: one broadcast round, one summary round, at most
    // one poll round per shard; every message was counted.
    assert!(r.comm.rounds >= 2);
    assert!(r.comm.rounds <= 2 + 4);
    assert!(r.comm.msgs >= 8, "k=4 pays at least broadcast + summaries");
    assert!(r.comm.bytes > 0);
    assert_eq!(r.shards.len(), 4);
    let owned: u64 = r.shards.iter().map(|s| s.objects).sum();
    assert_eq!(owned, engine.object_count() as u64);
    assert_dist_contract(&engine, &queries, "smoke_k4");
}

/// k=1 is the degenerate cluster: exactly one shard owns everything,
/// nothing is pruned, and the local skyline is already the answer.
#[test]
fn single_shard_is_single_machine() {
    let (engine, queries) = common::workload(21, 6, 6, 60, 0.8, 2, 0.3, 1.5);
    let single = engine.run(Algorithm::Ce, &queries);
    let dist = DistEngine::new(&engine, 1);
    let r = dist.run_local(Algorithm::Ce, &queries, 1);
    assert_eq!(canonical(&r.skyline), canonical(&single.skyline));
    assert_eq!(r.comm.shards_pruned, 0);
    assert_eq!(r.comm.candidates_local, single.skyline.len() as u64);
    assert_eq!(r.comm.candidates_sent, single.skyline.len() as u64);
    assert_eq!(r.comm.rounds, 3, "broadcast, summary, one poll");
}

/// Empty shards (k far above the object count) answer the summary
/// round and are then skipped without a poll.
#[test]
fn oversharding_stays_exact() {
    let (engine, queries) = common::workload(33, 4, 4, 18, 0.3, 2, 0.0, 1.1);
    let single = engine.run(Algorithm::Edc, &queries);
    let dist = DistEngine::new(&engine, 8);
    let r = dist.run_local(Algorithm::Edc, &queries, 8);
    assert_eq!(canonical(&r.skyline), canonical(&single.skyline));
    let empty = r.shards.iter().filter(|s| s.objects == 0).count();
    for s in r.shards.iter().filter(|s| s.objects == 0) {
        assert_eq!(s.local, 0);
        assert_eq!(s.sent, 0);
        assert!(!s.pruned, "empty shards are skipped, not pruned");
    }
    // Rounds: broadcast + summary + one poll per polled shard.
    assert!(r.comm.rounds <= 2 + (8 - empty as u64));
}

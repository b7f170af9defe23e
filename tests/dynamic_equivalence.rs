//! Dynamic/incremental equivalence (ISSUE 8, satellite a).
//!
//! The hard contract of DESIGN.md §15: after **any** sequence of update
//! batches — edge re-weightings, object inserts, object deletes — the
//! incrementally maintained skyline of a [`msq_core::DynamicEngine`] is
//! **bitwise identical** (object ids, vectors, completeness) to a
//! from-scratch [`msq_core::SkylineEngine`] built over the mutated
//! network and surviving slot layout:
//!
//! * against the brute-force oracle, and against CE, EDC and LBC;
//! * under both bounds (Euclid, ALT landmarks), including the staleness
//!   degradation a weight decrease triggers.
//!
//! The CI invariant-checks leg runs this suite with the runtime contract
//! layer live on every heap pop and dominance test.

mod common;

use common::canon;
use msq_core::{Algorithm, BoundSpec, DynamicEngine, OracleMaintenance, SkylinePoint};
use proptest::prelude::*;
use rn_workload::{generate_queries, ChurnConfig, UpdateStream};

/// Canonical bitwise form of a maintained skyline, comparable with
/// [`common::canon`] of a scratch result.
fn dyn_canon(points: &[SkylinePoint]) -> Vec<(u32, Vec<u64>)> {
    let mut v: Vec<(u32, Vec<u64>)> = points
        .iter()
        .map(|p| (p.object.0, p.vector.iter().map(|d| d.to_bits()).collect()))
        .collect();
    v.sort();
    v
}

/// The two bounds of DESIGN.md §14, small enough for test nets.
const SPECS: [BoundSpec; 2] = [BoundSpec::Euclid, BoundSpec::Alt { landmarks: 4 }];

/// An exact ALT bound can round the certificate's `through` sum an ulp
/// above the maintained distance of a path that crosses the changed
/// edge. On these seeds, certificates compared without the rounding
/// tolerance of DESIGN.md §15.2 kept such rows and the maintained skyline
/// diverged from scratch (seed 47 already in round 0: 14 vs 12 objects).
#[test]
fn alt_certificates_stay_sound_under_rounding() {
    for seed in [47u64, 6, 19] {
        let p = common::Params {
            cols: 9,
            rows: 8,
            extra_edges: (seed % 40) as usize,
            detour_prob: 0.25,
            omega: 0.8,
            nq: 3,
            seed,
        };
        let mut engine = common::build(&p).expect("omega 0.8 places objects");
        engine.set_bound(BoundSpec::Alt { landmarks: 4 });
        let mut d = DynamicEngine::new(engine);
        let queries = generate_queries(d.engine().network(), 3, 0.5, seed + 7);
        let q = d.register_query(&queries);
        let mut stream = UpdateStream::new(
            seed * 31 + 5,
            ChurnConfig {
                edge_frac: 0.02,
                increase_prob: 0.6,
                max_factor: 2.0,
                inserts: 1,
                deletes: 1,
            },
        );
        for round in 0..3 {
            let live = d.live_objects();
            let batch = stream.next_batch(d.engine().network(), &live);
            d.apply(&batch);
            let brute = d.scratch_engine().run(Algorithm::Brute, d.query_points(q));
            assert_eq!(
                dyn_canon(&d.skyline(q)),
                canon(&brute),
                "seed {seed} round {round}: maintained skyline != scratch brute"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Churn batches applied incrementally == scratch rebuild, bitwise,
    /// across bound oracles and algorithms.
    #[test]
    fn incremental_skyline_matches_scratch_under_churn(
        p in common::params(),
        churn_seed in 0u64..10_000,
    ) {
        for spec in SPECS {
            let Some(mut engine) = common::build(&p) else { return Ok(()) };
            engine.set_bound(spec);
            let mut d = DynamicEngine::new(engine);
            let queries = generate_queries(d.engine().network(), p.nq, 0.5, p.seed + 7);
            let q = d.register_query(&queries);
            let mut stream = UpdateStream::new(churn_seed, ChurnConfig {
                edge_frac: 0.02,
                increase_prob: 0.6,
                max_factor: 2.0,
                inserts: 1,
                deletes: 1,
            });
            for round in 0..2 {
                let live = d.live_objects();
                let batch = stream.next_batch(d.engine().network(), &live);
                d.apply(&batch);

                let maintained = dyn_canon(&d.skyline(q));
                let scratch = d.scratch_engine();
                let points = d.query_points(q).to_vec();
                let brute = scratch.run(Algorithm::Brute, &points);
                prop_assert!(brute.completion.is_complete());
                prop_assert_eq!(
                    &maintained,
                    &canon(&brute),
                    "{:?} round {}: maintained skyline != scratch brute on {:?}",
                    spec, round, p
                );
                for algo in Algorithm::PAPER_SET {
                    let r = scratch.run(algo, &points);
                    prop_assert!(
                        r.completion.is_complete(),
                        "{} unexpectedly partial", algo.name()
                    );
                    prop_assert_eq!(
                        &maintained,
                        &canon(&r),
                        "{:?} round {}: maintained != scratch {} on {:?}",
                        spec, round, algo.name(), p
                    );
                }
            }
        }
    }

    /// The rebuild policy keeps the same bitwise contract while restoring
    /// full oracle strength after decreases.
    #[test]
    fn rebuild_policy_matches_scratch(
        p in common::params(),
        churn_seed in 0u64..10_000,
    ) {
        let Some(mut engine) = common::build(&p) else { return Ok(()) };
        engine.set_bound(BoundSpec::Alt { landmarks: 4 });
        let mut d = DynamicEngine::with_config(engine, OracleMaintenance::Rebuild);
        let queries = generate_queries(d.engine().network(), p.nq, 0.5, p.seed + 7);
        let q = d.register_query(&queries);
        let mut stream = UpdateStream::new(churn_seed, ChurnConfig {
            edge_frac: 0.03,
            increase_prob: 0.3, // decrease-heavy: forces rebuilds
            max_factor: 1.8,
            inserts: 1,
            deletes: 1,
        });
        let live = d.live_objects();
        let batch = stream.next_batch(d.engine().network(), &live);
        // Whether any update survives the free-flow clamp as a real
        // decrease (the stream can ask for a decrease on an edge already
        // at its floor, which applies as a no-op rewrite).
        let really_decreases = {
            let net = d.engine().network();
            batch.updates().iter().any(|u| match u {
                rn_graph::Update::SetEdgeWeight { edge, weight } => {
                    let e = net.edge(*edge);
                    let floor = e.geometry.length();
                    let w_new = if *weight < floor { floor } else { *weight };
                    w_new < e.length
                }
                _ => false,
            })
        };
        let out = d.apply(&batch);
        prop_assert_eq!(out.oracle_rebuilds, u64::from(really_decreases));
        let scratch = d.scratch_engine();
        let points = d.query_points(q).to_vec();
        let brute = scratch.run(Algorithm::Brute, &points);
        prop_assert!(brute.completion.is_complete());
        prop_assert_eq!(dyn_canon(&d.skyline(q)), canon(&brute), "{:?}", p);
    }
}

//! Cross-validation under the `invariant-checks` contract layer.
//!
//! Compiled only with `--features msq-core/invariant-checks`, so every
//! algorithm run here also exercises the runtime contracts baked into the
//! substrates: Dijkstra/A* heap-pop monotonicity, LBC lower-bound
//! admissibility, dominance irreflexivity/antisymmetry, and CE refinement
//! completeness. A contract violation aborts the test with the specific
//! invariant named; a silent wrong answer is caught by the oracle
//! comparison below.

#![cfg(feature = "invariant-checks")]

mod common;

use common::run_attrs;
use msq_core::{Algorithm, AttrTable, SkylineEngine};
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use rn_workload::{generate_network, generate_objects, generate_queries, NetGenConfig};

#[derive(Debug, Clone)]
struct Params {
    cols: usize,
    rows: usize,
    extra_edges: usize,
    detour_prob: f64,
    detour_max: f64,
    omega: f64,
    nq: usize,
    region: f64,
    seed: u64,
}

fn params() -> impl Strategy<Value = Params> {
    (
        3usize..9,
        3usize..9,
        0usize..50,
        0.0..0.9f64,
        1.05..2.0f64,
        0.1..1.5f64,
        1usize..5,
        0.2..0.8f64,
        0u64..10_000,
    )
        .prop_map(
            |(cols, rows, extra_edges, detour_prob, detour_max, omega, nq, region, seed)| Params {
                cols,
                rows,
                extra_edges,
                detour_prob,
                detour_max,
                omega,
                nq,
                region,
                seed,
            },
        )
}

fn build(p: &Params) -> Option<(SkylineEngine, Vec<rn_graph::NetPosition>)> {
    let nodes = p.cols * p.rows;
    let net = generate_network(&NetGenConfig {
        cols: p.cols,
        rows: p.rows,
        edges: nodes - 1 + p.extra_edges,
        jitter: 0.3,
        detour_prob: p.detour_prob,
        detour_stretch: (1.02, p.detour_max),
        seed: p.seed,
    });
    let objects = generate_objects(&net, p.omega, p.seed + 1);
    if objects.is_empty() {
        return None;
    }
    let queries = generate_queries(&net, p.nq, p.region, p.seed + 2);
    Some((SkylineEngine::build(net, objects), queries))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every paper algorithm agrees with brute force while the contract
    /// assertions are live on each heap pop, bound confirmation and
    /// dominance test along the way.
    #[test]
    fn contracts_hold_and_results_match_brute(p in params()) {
        let Some((engine, queries)) = build(&p) else { return Ok(()) };
        let brute = engine.run(Algorithm::Brute, &queries);
        for algo in [Algorithm::Ce, Algorithm::Edc, Algorithm::Lbc, Algorithm::LbcNoPlb] {
            let r = engine.run(algo, &queries);
            prop_assert_eq!(
                r.ids(),
                brute.ids(),
                "{} diverged under invariant-checks on {:?}",
                algo.name(),
                p
            );
        }
    }

    /// Same property with non-spatial attribute dimensions appended, which
    /// drives the dominance contracts through higher-dimensional vectors.
    #[test]
    fn contracts_hold_with_attrs(p in params(), k in 1usize..3) {
        let Some((engine, queries)) = build(&p) else { return Ok(()) };
        let mut rng = StdRng::seed_from_u64(p.seed + 7);
        let rows: Vec<Vec<f64>> = (0..engine.object_count())
            .map(|_| (0..k).map(|_| rng.random_range(1.0..100.0)).collect())
            .collect();
        let attrs = AttrTable::new(rows);
        let brute = run_attrs(&engine, Algorithm::Brute, &queries, &attrs);
        for algo in Algorithm::PAPER_SET {
            let r = run_attrs(&engine, algo, &queries, &attrs);
            prop_assert_eq!(
                r.ids(),
                brute.ids(),
                "{} diverged under invariant-checks with {} attrs on {:?}",
                algo.name(),
                k,
                p
            );
        }
    }
}

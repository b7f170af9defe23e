//! Property-based cross-validation: proptest drives the workload
//! parameters (grid shape, connectivity, detour severity, object density,
//! query arity and placement), the deterministic generator builds the
//! instance, and all algorithms must agree with the brute-force oracle.
//!
//! This complements `cross_validation.rs` (fixed seeds, targeted regimes)
//! with randomized exploration of the parameter space, including
//! shrinking when a counterexample is ever found.

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
        4usize..12,
        4usize..12,
        0usize..80,
        0.0..0.9f64,
        1.05..2.0f64,
        0.1..1.5f64,
        1usize..6,
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_algorithms_match_brute(p in params()) {
        let Some((engine, queries)) = build(&p) else { return Ok(()) };
        let brute = engine.run(Algorithm::Brute, &queries);
        for algo in [Algorithm::Ce, Algorithm::Edc, Algorithm::Lbc, Algorithm::LbcNoPlb] {
            let r = engine.run(algo, &queries);
            prop_assert_eq!(
                r.ids(),
                brute.ids(),
                "{} diverged on {:?}",
                algo.name(),
                p
            );
        }
    }

    #[test]
    fn all_algorithms_match_brute_with_attrs(p in params(), k in 1usize..3) {
        let Some((engine, queries)) = build(&p) else { return Ok(()) };
        let mut rng = StdRng::seed_from_u64(p.seed + 99);
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
                "{} diverged with {} attrs on {:?}",
                algo.name(),
                k,
                p
            );
        }
    }

    #[test]
    fn knn_prefix_of_sorted_distances(p in params(), k in 1usize..8) {
        let Some((engine, queries)) = build(&p) else { return Ok(()) };
        let got = engine.network_knn(queries[0], k);
        // Ascending, unique objects.
        for w in got.windows(2) {
            prop_assert!(w[0].1 <= w[1].1 + 1e-9);
            prop_assert!(w[0].0 != w[1].0);
        }
        prop_assert!(got.len() <= k);
    }
}

//! The §4.3 non-spatial attribute extension: every algorithm adjudicates
//! dominance over network distances *plus* static attribute dimensions
//! (e.g. hotel price), and all of them agree with the brute-force oracle
//! on the extended vectors.

mod common;

use common::run_attrs;
use msq_core::{Algorithm, AttrTable, SkylineEngine};
use rand::prelude::*;
use rand::rngs::StdRng;
use rn_graph::NetPosition;
use rn_workload::{generate_network, generate_objects, generate_queries, NetGenConfig};

fn workload(seed: u64, k_attrs: usize) -> (SkylineEngine, Vec<NetPosition>, AttrTable) {
    let net = generate_network(&NetGenConfig {
        cols: 12,
        rows: 12,
        edges: 210,
        jitter: 0.3,
        detour_prob: 0.35,
        detour_stretch: (1.1, 1.5),
        seed,
    });
    let objects = generate_objects(&net, 0.5, seed + 1);
    let queries = generate_queries(&net, 3, 0.3, seed + 2);
    let mut rng = StdRng::seed_from_u64(seed + 3);
    let rows: Vec<Vec<f64>> = (0..objects.len())
        .map(|_| {
            (0..k_attrs)
                .map(|_| rng.random_range(50.0..500.0))
                .collect()
        })
        .collect();
    (
        SkylineEngine::build(net, objects),
        queries,
        AttrTable::new(rows),
    )
}

#[test]
fn all_algorithms_agree_with_one_attribute() {
    for seed in 0..5 {
        let (engine, queries, attrs) = workload(seed, 1);
        let brute = run_attrs(&engine, Algorithm::Brute, &queries, &attrs);
        for algo in [
            Algorithm::Ce,
            Algorithm::Edc,
            Algorithm::Lbc,
            Algorithm::LbcNoPlb,
        ] {
            let r = run_attrs(&engine, algo, &queries, &attrs);
            assert_eq!(r.ids(), brute.ids(), "seed {seed}: {}", algo.name());
        }
    }
}

#[test]
fn all_algorithms_agree_with_two_attributes() {
    for seed in 100..103 {
        let (engine, queries, attrs) = workload(seed, 2);
        let brute = run_attrs(&engine, Algorithm::Brute, &queries, &attrs);
        for algo in Algorithm::PAPER_SET {
            let r = run_attrs(&engine, algo, &queries, &attrs);
            assert_eq!(r.ids(), brute.ids(), "seed {seed}: {}", algo.name());
        }
    }
}

#[test]
fn vectors_carry_the_attribute_dimensions() {
    let (engine, queries, attrs) = workload(7, 2);
    let r = run_attrs(&engine, Algorithm::Lbc, &queries, &attrs);
    for p in &r.skyline {
        assert_eq!(p.vector.len(), queries.len() + 2);
        // The trailing dimensions are the object's attribute row verbatim.
        let row = attrs.row(p.object);
        assert_eq!(&p.vector[queries.len()..], row);
    }
}

#[test]
fn attributes_change_the_skyline() {
    // A cheap faraway hotel must appear once price joins the vector: with
    // constant price nothing changes, with inverted prices the skyline can
    // only grow relative to the purely spatial one.
    let (engine, queries, _) = workload(11, 1);
    let spatial = engine.run_cold(Algorithm::Lbc, &queries);

    // Constant price: skyline identical to the spatial skyline (equal
    // static dimensions never dominate).
    let flat = AttrTable::new(vec![vec![100.0]; engine.object_count()]);
    let with_flat = run_attrs(&engine, Algorithm::Lbc, &queries, &flat);
    assert_eq!(spatial.ids(), with_flat.ids());

    // A price that decreases in object id: the spatial skyline members
    // remain non-dominated or are joined by cheaper objects, never fewer
    // members than the spatial skyline.
    let prices = AttrTable::new(
        (0..engine.object_count())
            .map(|i| vec![1000.0 - i as f64])
            .collect(),
    );
    let with_prices = run_attrs(&engine, Algorithm::Lbc, &queries, &prices);
    assert!(with_prices.skyline.len() >= spatial.skyline.len());
    // And it still matches brute force.
    let brute = run_attrs(&engine, Algorithm::Brute, &queries, &prices);
    assert_eq!(with_prices.ids(), brute.ids());
}

#[test]
#[should_panic(expected = "cover every object")]
fn mismatched_attr_table_panics() {
    let (engine, queries, _) = workload(13, 1);
    let short = AttrTable::new(vec![vec![1.0]]);
    run_attrs(&engine, Algorithm::Lbc, &queries, &short);
}

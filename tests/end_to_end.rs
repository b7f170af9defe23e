//! End-to-end pipeline tests on preset-scale workloads: generator →
//! engine → queries → statistics, exercised the way the benchmark harness
//! (and a downstream user) drives the library.

mod common;

use common::ca_engine;
use msq_core::{Algorithm, Metric, SkylineEngine};
use rn_workload::{ca_like, generate_objects, generate_queries};

#[test]
fn full_pipeline_on_ca_preset() {
    let engine = ca_engine(0.2);
    let queries = generate_queries(engine.network(), 4, 0.316, 1111);
    let mut reference = None;
    for algo in Algorithm::PAPER_SET {
        let r = engine.run_cold(algo, &queries);
        assert!(!r.skyline.is_empty(), "{}", algo.name());
        assert!(r.page_faults() > 0);
        assert!(r.trace.get(Metric::QueryCandidates) > 0);
        assert!(r.stats.initial_time.is_some());
        match &reference {
            None => reference = Some(r.ids()),
            Some(ids) => assert_eq!(&r.ids(), ids, "{} disagrees", algo.name()),
        }
    }
}

#[test]
fn warm_buffer_reduces_faults() {
    let engine = ca_engine(0.2);
    let queries = generate_queries(engine.network(), 3, 0.316, 2222);
    let cold = engine.run_cold(Algorithm::Lbc, &queries);
    let warm = engine.run(Algorithm::Lbc, &queries);
    assert!(warm.page_faults() <= cold.page_faults());
    // Logical request counts are identical — the work is deterministic.
    assert_eq!(
        warm.trace.get(Metric::StoragePageRequests),
        cold.trace.get(Metric::StoragePageRequests)
    );
    assert_eq!(warm.ids(), cold.ids());
}

#[test]
fn repeat_runs_are_deterministic() {
    let engine = ca_engine(0.3);
    let queries = generate_queries(engine.network(), 5, 0.316, 3333);
    let a = engine.run_cold(Algorithm::Edc, &queries);
    let b = engine.run_cold(Algorithm::Edc, &queries);
    assert_eq!(a.ids(), b.ids());
    // Every work counter (pages, candidates, expansions, ...) repeats.
    assert_eq!(a.trace.counters_json(), b.trace.counters_json());
}

#[test]
fn lbc_reports_in_ascending_source_distance() {
    let engine = ca_engine(0.3);
    let queries = generate_queries(engine.network(), 4, 0.316, 4444);
    let r = engine.run_cold(Algorithm::Lbc, &queries);
    // Dimension 0 is the source query point; LBC confirms skyline points
    // in ascending network distance from it (§4.3).
    let src: Vec<f64> = r.skyline.iter().map(|p| p.vector[0]).collect();
    for w in src.windows(2) {
        assert!(w[0] <= w[1] + 1e-9, "source distances must ascend: {src:?}");
    }
}

#[test]
fn object_density_sweep_is_stable() {
    // The ω sweep of §6.5: the skyline is similar across densities and
    // everything keeps agreeing.
    for (i, omega) in [0.05, 0.5, 1.5].into_iter().enumerate() {
        let engine = ca_engine(omega);
        let queries = generate_queries(engine.network(), 4, 0.316, 5000 + i as u64);
        let lbc = engine.run_cold(Algorithm::Lbc, &queries);
        let ce = engine.run_cold(Algorithm::Ce, &queries);
        assert_eq!(lbc.ids(), ce.ids(), "omega {omega}");
    }
}

#[test]
fn text_roundtrip_preserves_query_results() {
    // Save the network in the interchange format, reload it, rebuild the
    // engine, and verify the same skyline comes back.
    let net = ca_like(13);
    let objects = generate_objects(&net, 0.1, 131);
    let queries = generate_queries(&net, 3, 0.316, 1313);

    let mut buf = Vec::new();
    rn_graph::io::write_network(&net, &mut buf).unwrap();
    let reloaded = rn_graph::io::read_network(buf.as_slice()).unwrap();

    let e1 = SkylineEngine::build(net, objects.clone());
    let e2 = SkylineEngine::build(reloaded, objects);
    let r1 = e1.run_cold(Algorithm::Lbc, &queries);
    let r2 = e2.run_cold(Algorithm::Lbc, &queries);
    assert_eq!(r1.ids(), r2.ids());
    for (a, b) in r1.skyline.iter().zip(&r2.skyline) {
        for (x, y) in a.vector.iter().zip(&b.vector) {
            assert!(rn_geom::approx_eq(*x, *y));
        }
    }
}

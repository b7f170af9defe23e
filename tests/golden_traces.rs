//! Golden-trace regression tests (ISSUE 3, satellite b).
//!
//! CE, EDC and LBC run cold on one small fixed network; the exported
//! phase-counter trace (`QueryTrace::counters_json`, a feature-stable
//! format: the registered counters in export order) must match the
//! snapshots committed under `tests/golden/`. A real behaviour change
//! shows up as a counter diff; refresh the snapshots deliberately with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_traces
//! ```
//!
//! The counters are also cross-checked against the `brute` oracle and
//! the engine store's own I/O meter, so a snapshot can never drift away
//! from what the engine actually did.

mod common;

use msq_core::{Algorithm, DynamicEngine, Metric, SkylineEngine};
use rn_graph::NetPosition;
use rn_workload::{ChurnConfig, UpdateStream};
use std::path::PathBuf;

/// The fixed workload: a seeded 8×8 grid with detours, three query
/// points. Changing it invalidates every snapshot — bump deliberately.
fn fixture() -> (SkylineEngine, Vec<NetPosition>) {
    common::workload(2, 8, 8, 90, 0.8, 3, 0.3, 1.4)
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(format!("{name}.json"))
}

fn assert_matches_golden(name: &str, exported: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create tests/golden");
        std::fs::write(&path, exported).expect("write golden snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_traces",
            path.display()
        )
    });
    assert_eq!(
        exported,
        want.as_str(),
        "{name}: exported trace diverged from tests/golden/{name}.json; if the \
         counter change is intended, refresh with UPDATE_GOLDEN=1"
    );
}

fn check_algo(name: &str, algo: Algorithm) {
    let (engine, queries) = fixture();
    let before = engine.store_ref().stats().snapshot();
    let r = engine.run_cold(algo, &queries);
    let io = engine.store_ref().stats().snapshot().since(&before);

    // -- Snapshot: the feature-stable counter export ----------------------
    assert_matches_golden(name, &r.trace.counters_json());

    // -- Cross-checks: counters vs the oracle and the store's own meter ---
    let brute = engine.run_cold(Algorithm::Brute, &queries);
    assert_eq!(r.ids(), brute.ids(), "{name}: skyline diverged from oracle");
    assert_eq!(
        r.trace.get(Metric::QuerySkylineSize),
        brute.skyline.len() as u64,
        "{name}: query.skyline.size counter != oracle skyline cardinality"
    );
    assert!(
        r.trace.get(Metric::QueryCandidates) >= r.trace.get(Metric::QuerySkylineSize),
        "{name}: fewer candidates than skyline members"
    );
    // A cold run faults every page it touches exactly once per first
    // touch; cold + warm attribution must cover the store's fault count
    // exactly.
    assert_eq!(
        r.page_faults(),
        io.faults,
        "{name}: cold/warm attribution does not cover the fault count"
    );
    assert!(
        r.trace.get(Metric::StoragePageFaultsCold) > 0,
        "{name}: a cold run must take compulsory faults"
    );
}

#[test]
fn ce_matches_golden_trace() {
    check_algo("ce", Algorithm::Ce);
}

#[test]
fn edc_matches_golden_trace() {
    check_algo("edc", Algorithm::Edc);
}

#[test]
fn lbc_matches_golden_trace() {
    check_algo("lbc", Algorithm::Lbc);
}

/// Dynamic-maintenance snapshot: two seeded churn batches over the
/// fixed fixture, maintained incrementally. The exported counters pin
/// down the whole maintenance path — updates applied, rows re-resolved,
/// queries that re-resolved some vs every row, and the A* expansions of
/// registration and repair — so any drift in the maintenance rule or
/// the resolver shows up as a snapshot diff.
#[test]
fn dynamic_maintenance_matches_golden_trace() {
    let (engine, queries) = fixture();
    let mut d = DynamicEngine::new(engine);
    let q = d.register_query(&queries);

    let mut stream = UpdateStream::new(11, ChurnConfig::default());
    let mut applied = 0u64;
    for _ in 0..2 {
        let live = d.live_objects();
        let batch = stream.next_batch(d.engine().network(), &live);
        applied += batch.len() as u64;
        d.apply(&batch);
    }

    // -- Snapshot: the feature-stable counter export ----------------------
    assert_matches_golden("dyn", &d.trace().counters_json());

    // -- Cross-checks: counters vs the scratch oracle ---------------------
    assert_eq!(
        d.trace().get(Metric::DynUpdatesApplied),
        applied,
        "dyn: updates.applied counter != updates fed in"
    );
    assert!(
        d.trace().get(Metric::DynRecomputeIncremental) + d.trace().get(Metric::DynRecomputeFull)
            > 0,
        "dyn: churn batches must trigger at least one recompute"
    );
    let scratch = d.scratch_engine();
    let points = d.query_points(q).to_vec();
    let brute = scratch.run(Algorithm::Brute, &points);
    let mut maintained: Vec<u32> = d.skyline(q).iter().map(|p| p.object.0).collect();
    maintained.sort_unstable();
    let oracle: Vec<u32> = brute.ids().iter().map(|o| o.0).collect();
    assert_eq!(
        maintained, oracle,
        "dyn: maintained skyline diverged from scratch oracle"
    );
}

#[test]
fn phase_counters_are_algorithm_specific() {
    // Beyond the snapshots: each algorithm populates its own phase
    // counters and leaves the other algorithms' phases at zero.
    let (engine, queries) = fixture();

    let ce = engine.run_cold(Algorithm::Ce, &queries);
    assert!(ce.trace.get(Metric::CeFilterDistanceComputations) > 0);
    assert_eq!(ce.trace.get(Metric::EdcWindowFetches), 0);
    assert_eq!(ce.trace.get(Metric::LbcSessions), 0);
    // Every INE emission is attributed to exactly one CE phase.
    assert_eq!(
        ce.trace.get(Metric::CeFilterDistanceComputations)
            + ce.trace.get(Metric::CeRefinementDistanceComputations),
        ce.trace.get(Metric::SpIneEmissions),
    );

    let edc = engine.run_cold(Algorithm::Edc, &queries);
    assert!(edc.trace.get(Metric::EdcWindowFetches) > 0);
    assert!(edc.trace.get(Metric::SpAstarConfirms) > 0);
    assert_eq!(edc.trace.get(Metric::CeFilterDistanceComputations), 0);
    assert_eq!(edc.trace.get(Metric::LbcSessions), 0);

    let lbc = engine.run_cold(Algorithm::Lbc, &queries);
    assert!(lbc.trace.get(Metric::LbcSessions) > 0);
    assert_eq!(lbc.trace.get(Metric::CeFilterDistanceComputations), 0);
    assert_eq!(lbc.trace.get(Metric::EdcWindowFetches), 0);
    // Discards + postponements never exceed the session count.
    assert!(
        lbc.trace.get(Metric::LbcPlbDiscards) + lbc.trace.get(Metric::LbcPlbPostponed)
            <= lbc.trace.get(Metric::LbcSessions)
    );
}

#[test]
fn counter_export_is_stable_across_identical_runs() {
    let (engine, queries) = fixture();
    for algo in Algorithm::PAPER_SET {
        let a = engine.run_cold(algo, &queries);
        let b = engine.run_cold(algo, &queries);
        assert_eq!(
            a.trace.counters_json(),
            b.trace.counters_json(),
            "{}: repeat cold runs must export identical counters",
            algo.name()
        );
    }
}

#[test]
fn exported_counters_resolve_through_the_registry() {
    // The snapshot format is exactly the registered metric names; every
    // exported key must round-trip through the name registry.
    let (engine, queries) = fixture();
    let r = engine.run_cold(Algorithm::Lbc, &queries);
    let json = r.trace.counters_json();
    for &m in &Metric::ALL {
        assert!(
            json.contains(&format!("\"{}\":", m.name())),
            "counters_json misses registered metric {}",
            m.name()
        );
        assert_eq!(
            r.trace.get_name(m.name()),
            Some(r.trace.get(m)),
            "get_name disagrees with get for {}",
            m.name()
        );
    }
}

//! Deterministic storage fault injection (ISSUE 5 tentpole, DESIGN.md §12).
//!
//! [`FaultPlan`] makes every injected page-read error a pure function of
//! `(page, attempt, seed)`, and the buffer pool's retry loop masks them
//! with capped exponential (simulated) backoff. The contract:
//!
//! * a fault plan changes **costs** (`storage.io.injected_errors`,
//!   `storage.io.retries`, `storage.io.backoff_us`), never **answers** —
//!   the skyline, its vectors and the page-fault count are bitwise
//!   identical to the fault-free run;
//! * the same seed reproduces the same schedule: two runs agree on every
//!   counter, and parallel runs agree at 1, 2 and 8 workers because each
//!   private session replays the same page/attempt sequence;
//! * a page-fault cap composes with injection: the run degrades to a
//!   sound partial result instead of failing.
//!
//! With `FAULT_REPORT=<path>` the suite also writes a fault-schedule
//! report (per-algorithm injection/retry/backoff counters) — the CI chaos
//! job uploads it as a build artifact.

mod common;

use common::{canon, run_capped, run_exec, workload};
use msq_core::{
    Algorithm, Exec, FaultPlan, IncompleteReason, Metric, QueryBudget, SkylineEngine, SkylineResult,
};
use rn_graph::NetPosition;

const ALL: [Algorithm; 5] = [
    Algorithm::Ce,
    Algorithm::Edc,
    Algorithm::EdcBatch,
    Algorithm::Lbc,
    Algorithm::LbcNoPlb,
];

/// ~25% injection probability per `(page, attempt)`: high enough that
/// every workload sees faults, far below the 3-consecutive-failure clamp.
const FAIL_PER_64K: u32 = 16384;

/// Large enough that the network spans several disk pages: every cold
/// run takes enough page misses that the 25% schedule reliably injects
/// (deterministically — the seed is fixed).
fn fixture() -> (SkylineEngine, Vec<NetPosition>) {
    workload(42, 16, 16, 360, 0.6, 3, 0.3, 1.4)
}

fn injected(r: &SkylineResult) -> u64 {
    r.trace.get(Metric::StorageIoInjectedErrors)
}

#[test]
fn faults_change_costs_never_answers() {
    let (engine, queries) = fixture();
    for algo in ALL {
        engine.set_fault_plan(None);
        let clean = engine.run_cold(algo, &queries);
        assert_eq!(injected(&clean), 0);

        engine.set_fault_plan(Some(FaultPlan::new(0xC0FFEE, FAIL_PER_64K)));
        let faulted = engine.run_cold(algo, &queries);
        engine.set_fault_plan(None);

        assert_eq!(
            canon(&clean),
            canon(&faulted),
            "{}: fault injection changed the skyline",
            algo.name()
        );
        assert_eq!(
            clean.page_faults(),
            faulted.page_faults(),
            "{}: fault injection changed the page-fault count",
            algo.name()
        );
        let inj = injected(&faulted);
        assert!(inj > 0, "{}: expected injected errors at 25%", algo.name());
        assert_eq!(
            faulted.trace.get(Metric::StorageIoRetries),
            inj,
            "{}: every injected error is masked by exactly one retry",
            algo.name()
        );
        assert!(
            faulted.trace.get(Metric::StorageIoBackoffUs) >= inj * FaultPlan::BACKOFF_BASE_US,
            "{}: backoff must be metered for every retry",
            algo.name()
        );
    }
}

#[test]
fn same_seed_reproduces_the_same_schedule() {
    let (engine, queries) = fixture();
    engine.set_fault_plan(Some(FaultPlan::new(7, FAIL_PER_64K)));
    for algo in ALL {
        let a = engine.run_cold(algo, &queries);
        let b = engine.run_cold(algo, &queries);
        assert!(injected(&a) > 0, "{}", algo.name());
        assert_eq!(canon(&a), canon(&b), "{}", algo.name());
        assert_eq!(
            a.trace.to_json(),
            b.trace.to_json(),
            "{}: same seed must reproduce every counter, backoff included",
            algo.name()
        );
    }
    engine.set_fault_plan(None);
}

/// The headline chaos property: under a fixed fault plan the whole result
/// — skyline, vectors, fault counts, injection/retry/backoff counters —
/// is bitwise identical at 1, 2 and 8 workers.
#[test]
fn faulted_parallel_runs_are_worker_count_invariant() {
    let (engine, queries) = fixture();
    engine.set_fault_plan(Some(FaultPlan::new(0xBAD5EED, FAIL_PER_64K)));
    for algo in ALL {
        let base = run_exec(&engine, algo, &queries, Exec::Parallel(1));
        assert!(injected(&base) > 0, "{}", algo.name());
        for workers in [2usize, 8] {
            let r = run_exec(&engine, algo, &queries, Exec::Parallel(workers));
            assert_eq!(
                canon(&r),
                canon(&base),
                "{}: faulted skyline diverged at {} workers",
                algo.name(),
                workers
            );
            assert_eq!(
                r.trace.to_json(),
                base.trace.to_json(),
                "{}: faulted trace diverged at {} workers",
                algo.name(),
                workers
            );
        }
    }
    engine.set_fault_plan(None);
}

/// Budget + faults compose: a page-fault cap under an active fault plan
/// degrades to a sound partial answer, deterministically across worker
/// counts.
#[test]
fn page_fault_cap_composes_with_injection() {
    let (engine, queries) = fixture();
    engine.set_fault_plan(None);
    let brute = engine.run(Algorithm::Brute, &queries);
    engine.set_fault_plan(Some(FaultPlan::new(11, FAIL_PER_64K)));
    for algo in [Algorithm::Ce, Algorithm::Edc, Algorithm::Lbc] {
        let full = run_exec(&engine, algo, &queries, Exec::Parallel(2));
        let cap = (full.page_faults() / 2).max(1);
        let budget = QueryBudget::unlimited().with_max_page_faults(cap);
        let base = run_capped(&engine, algo, &queries, Exec::Parallel(1), budget.clone());
        let info = base
            .completion
            .partial()
            .unwrap_or_else(|| panic!("{}: halved fault cap must trip", algo.name()));
        assert_eq!(
            info.reason,
            IncompleteReason::PageFaultCap,
            "{}",
            algo.name()
        );
        for p in &base.skyline {
            let want = brute
                .vector_of(p.object)
                .unwrap_or_else(|| panic!("{}: {:?} not in true skyline", algo.name(), p.object));
            for (a, b) in p.vector.iter().zip(want) {
                assert_eq!(a.to_bits(), b.to_bits(), "{}", algo.name());
            }
        }
        for workers in [2usize, 8] {
            let exec = Exec::Parallel(workers);
            let r = run_capped(&engine, algo, &queries, exec, budget.clone());
            assert_eq!(
                canon(&r),
                canon(&base),
                "{} at {} workers",
                algo.name(),
                workers
            );
            assert_eq!(
                r.completion,
                base.completion,
                "{} completion diverged at {} workers",
                algo.name(),
                workers
            );
        }
    }
    engine.set_fault_plan(None);
}

/// Writes the chaos-job artifact when `FAULT_REPORT` names a path: one
/// JSON object per algorithm with its injection/retry/backoff counters
/// under the canonical seed. A no-op locally.
#[test]
fn fault_schedule_report() {
    let Some(path) = std::env::var_os("FAULT_REPORT") else {
        return;
    };
    let (engine, queries) = fixture();
    engine.set_fault_plan(Some(FaultPlan::new(0xC0FFEE, FAIL_PER_64K)));
    let mut out = String::from(
        "{\n  \"seed\": \"0xC0FFEE\",\n  \"fail_per_64k\": 16384,\n  \"algorithms\": {\n",
    );
    for (i, algo) in ALL.iter().enumerate() {
        let r = engine.run_cold(*algo, &queries);
        out.push_str(&format!(
            "    \"{}\": {{\"injected_errors\": {}, \"retries\": {}, \"backoff_us\": {}, \"network_pages\": {}, \"skyline\": {}}}{}\n",
            algo.name(),
            injected(&r),
            r.trace.get(Metric::StorageIoRetries),
            r.trace.get(Metric::StorageIoBackoffUs),
            r.page_faults(),
            r.skyline.len(),
            if i + 1 < ALL.len() { "," } else { "" },
        ));
    }
    out.push_str("  }\n}\n");
    engine.set_fault_plan(None);
    if let Some(dir) = std::path::Path::new(&path).parent() {
        std::fs::create_dir_all(dir).expect("create report directory");
    }
    std::fs::write(&path, out).expect("write fault report");
}

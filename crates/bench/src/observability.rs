//! Observability benchmark (ISSUE 3): per-phase counter breakdowns of
//! CE, EDC and LBC on the standard workload, emitting `BENCH_3.json`.
//!
//! Every query carries a [`msq_core::QueryTrace`] — a fixed bank of all
//! [`Metric::COUNT`] registered counters (see `crates/obs`). This bench
//! runs the paper's three algorithms cold over the standard CA-like
//! setting, merges the per-seed traces in seed order, and reports the
//! phase structure the paper's figures discuss:
//!
//! * **CE** — filter-phase vs refinement-phase distance computations
//!   (the §4.1 two-phase split behind Fig. 4's candidate ratio).
//! * **EDC** — window-query fetches and the candidates they admit
//!   (the §4.2 hypercube constraint behind Fig. 5's page counts).
//! * **LBC** — adjudication sessions and the fraction the plb machinery
//!   discards (the §4.3 lower-bound pruning behind Fig. 6).
//!
//! Counters are deterministic (each query records its own trace,
//! DESIGN.md §10), so BENCH_3.json is bit-reproducible for a given
//! `MSQ_SEEDS`.

use crate::harness::{build_engine, seed_count, Setting};
use msq_core::{Algorithm, Metric, QueryTrace};
use rn_workload::{generate_queries, Preset};

/// The merged trace of one algorithm over every query seed.
pub struct AlgoTrace {
    /// Which algorithm.
    pub algo: Algorithm,
    /// Per-seed traces merged in seed order.
    pub trace: QueryTrace,
}

/// Runs the three paper algorithms cold over `seeds` query seeds and
/// returns the merged trace per algorithm, in [`Algorithm::PAPER_SET`]
/// order.
pub fn collect(setting: &Setting, seeds: u64) -> Vec<AlgoTrace> {
    let engine = build_engine(setting);
    Algorithm::PAPER_SET
        .iter()
        .map(|&algo| {
            let mut trace = QueryTrace::new();
            for seed in 0..seeds {
                let queries = generate_queries(engine.network(), setting.nq, 0.316, 1000 + seed);
                let r = engine.run_cold(algo, &queries);
                trace.merge(&r.trace);
            }
            AlgoTrace { algo, trace }
        })
        .collect()
}

/// `numerator / denominator`, or 0 when the denominator is zero.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs the observability benchmark on the standard workload (CA-like
/// preset, ω = 0.5, |Q| = 4), prints the counter table, and writes
/// `BENCH_3.json` into the working directory.
pub fn observability() {
    let setting = Setting {
        preset: Preset::Ca,
        omega: 0.5,
        nq: 4,
    };
    let seeds = seed_count();
    let traces = collect(&setting, seeds);

    let cols: Vec<&str> = traces.iter().map(|t| t.algo.name()).collect();
    crate::harness::print_header(
        &format!("T3  phase-structured counters (CA, omega=0.5, |Q|=4, {seeds} seeds, summed)"),
        &cols,
    );
    for &m in &Metric::ALL {
        let vals: Vec<f64> = traces.iter().map(|t| t.trace.get(m) as f64).collect();
        println!("{}", format_metric_row(m.name(), &vals));
    }

    let json = render_json(&traces, seeds);
    let path = "BENCH_3.json";
    crate::report::write_report(path, &json);
}

/// One table row: the metric name is wider than the harness's default
/// 12-column label, so the label field is widened to fit the registry.
fn format_metric_row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:>36} |");
    for v in values {
        s.push_str(&format!(" {v:>12.0}"));
    }
    s
}

/// Hand-rolled JSON (the in-tree serde shim is a no-op facade).
pub fn render_json(traces: &[AlgoTrace], seeds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"observability\",\n");
    out.push_str("  \"preset\": \"CA\",\n");
    out.push_str("  \"omega\": 0.5,\n");
    out.push_str("  \"nq\": 4,\n");
    out.push_str(&format!("  \"seeds\": {seeds},\n"));
    out.push_str(
        "  \"note\": \"counters summed over per-seed cold runs, merged in seed order; \
         deterministic at any worker count (DESIGN.md sec. 10)\",\n",
    );
    out.push_str("  \"algos\": [\n");
    for (ti, t) in traces.iter().enumerate() {
        let g = |m: Metric| t.trace.get(m);
        out.push_str("    {\n");
        out.push_str(&format!("      \"algo\": \"{}\",\n", t.algo.name()));
        out.push_str("      \"counters\": {\n");
        for (mi, &m) in Metric::ALL.iter().enumerate() {
            out.push_str(&format!(
                "        \"{}\": {}{}\n",
                m.name(),
                g(m),
                if mi + 1 < Metric::ALL.len() { "," } else { "" }
            ));
        }
        out.push_str("      },\n");
        out.push_str("      \"derived\": {\n");
        out.push_str(&format!(
            "        \"ce_filter_fraction\": {:.4},\n",
            ratio(
                g(Metric::CeFilterDistanceComputations),
                g(Metric::CeFilterDistanceComputations)
                    + g(Metric::CeRefinementDistanceComputations)
            )
        ));
        out.push_str(&format!(
            "        \"edc_candidates_per_window_fetch\": {:.4},\n",
            ratio(g(Metric::EdcWindowCandidates), g(Metric::EdcWindowFetches))
        ));
        out.push_str(&format!(
            "        \"lbc_plb_hit_rate\": {:.4},\n",
            ratio(g(Metric::LbcPlbDiscards), g(Metric::LbcSessions))
        ));
        out.push_str(&format!(
            "        \"cold_fault_fraction\": {:.4}\n",
            ratio(
                g(Metric::StoragePageFaultsCold),
                g(Metric::StoragePageFaultsCold) + g(Metric::StoragePageFaultsWarm)
            )
        ));
        out.push_str("      }\n");
        out.push_str(&format!(
            "    }}{}\n",
            if ti + 1 < traces.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collected_traces_carry_phase_counters() {
        let setting = Setting {
            preset: Preset::Ca,
            omega: 0.3,
            nq: 3,
        };
        let traces = collect(&setting, 1);
        assert_eq!(traces.len(), 3);
        let by_name = |n: &str| {
            traces
                .iter()
                .find(|t| t.algo.name() == n)
                .expect("paper algorithm present")
        };
        let ce = by_name("CE");
        assert!(ce.trace.get(Metric::CeFilterDistanceComputations) > 0);
        assert!(ce.trace.get(Metric::SpIneEmissions) > 0);
        let edc = by_name("EDC");
        assert!(edc.trace.get(Metric::EdcWindowFetches) > 0);
        assert!(edc.trace.get(Metric::SpAstarConfirms) > 0);
        let lbc = by_name("LBC");
        assert!(lbc.trace.get(Metric::LbcSessions) > 0);
        // Every algorithm reports the query-level counters.
        for t in &traces {
            assert!(t.trace.get(Metric::QuerySkylineSize) > 0);
            assert!(t.trace.get(Metric::StoragePageFaultsCold) > 0);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let traces = vec![AlgoTrace {
            algo: Algorithm::Ce,
            trace: QueryTrace::new(),
        }];
        let j = render_json(&traces, 3);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"algo\": \"CE\""));
        assert!(j.contains("\"ce.filter.distance_computations\": 0"));
        assert!(j.contains("\"lbc_plb_hit_rate\": 0.0000"));
    }
}

//! Distance-resolution cost benchmark, emitting `BENCH_4.json`.
//!
//! Every algorithm that resolves distance batches — EDC in both forms,
//! LBC with and without plb — runs cold over the same engine and the same
//! query seeds. Each resolves a network distance with one `set_target` on
//! a per-query-point A\* engine whose settled map is reused across
//! destinations (§6.1). The four skylines are verified **bitwise
//! identical** per seed, and the costs are reported per algorithm:
//!
//! * **expansions** — nodes settled across all wavefronts;
//! * **retargets** — `set_target` calls. An endpoint-exact one keys
//!   nothing; any other re-keys the live frontier lazily (DESIGN.md
//!   §11.6);
//! * **page faults** (cold/warm) and **wall / response time**.
//!
//! Counters are deterministic (DESIGN.md §10), so the counter columns of
//! BENCH_4.json are bit-reproducible for a given `MSQ_SEEDS`.

use crate::harness::{build_engine, io_ms, print_header, seed_count, Setting};
use msq_core::{canonical, Algorithm, Metric, SkylineResult};
use rn_workload::{generate_queries, Preset};

/// The algorithms whose distance resolution goes through batches. CE
/// expands wavefronts instead, so it has no A\* resolution cost.
pub const SWEEP_ALGOS: [Algorithm; 4] = [
    Algorithm::Edc,
    Algorithm::EdcBatch,
    Algorithm::Lbc,
    Algorithm::LbcNoPlb,
];

/// Cost totals of one algorithm, summed over seeds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Totals {
    /// Network nodes expanded across all wavefronts.
    pub expansions: u64,
    /// `set_target` calls (`sp.astar.retargets`).
    pub retargets: u64,
    /// Buffer-pool faults on a cold page.
    pub faults_cold: u64,
    /// Buffer-pool faults evicting a warm page.
    pub faults_warm: u64,
    /// Skyline cardinality (must match across algorithms).
    pub skyline: u64,
    /// Pure CPU wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Response time under the disk model: wall + faults * io_ms.
    pub response_ms: f64,
}

impl Totals {
    fn add(&mut self, r: &SkylineResult, io: f64) {
        self.expansions += r.trace.get(Metric::SpHeapPops);
        self.retargets += r.trace.get(Metric::SpAstarRetargets);
        self.faults_cold += r.trace.get(Metric::StoragePageFaultsCold);
        self.faults_warm += r.trace.get(Metric::StoragePageFaultsWarm);
        self.skyline += r.skyline.len() as u64;
        let wall = r.stats.total_time.as_secs_f64() * 1e3;
        self.wall_ms += wall;
        self.response_ms += wall + r.page_faults() as f64 * io;
    }
}

/// The cost series of one algorithm.
#[derive(Clone, Debug)]
pub struct SweepSeries {
    /// Which algorithm.
    pub algo: Algorithm,
    /// Its totals over every seed.
    pub totals: Totals,
}

/// Runs every batching algorithm cold over `seeds` query seeds and
/// returns the totals, verifying the skylines bitwise identical across
/// algorithms along the way.
///
/// # Panics
/// Panics when two algorithms' skylines diverge — that would be an
/// engine bug, not a benchmark result.
pub fn collect(setting: &Setting, seeds: u64) -> Vec<SweepSeries> {
    let engine = build_engine(setting);
    let io = io_ms();
    let mut series: Vec<SweepSeries> = SWEEP_ALGOS
        .iter()
        .map(|&algo| SweepSeries {
            algo,
            totals: Totals::default(),
        })
        .collect();
    for seed in 0..seeds {
        let queries = generate_queries(engine.network(), setting.nq, 0.316, 1000 + seed);
        let mut reference = None;
        for s in &mut series {
            let r = engine.run_cold(s.algo, &queries);
            let sky = canonical(&r.skyline);
            let want = reference.get_or_insert_with(|| sky.clone());
            assert_eq!(
                &sky,
                want,
                "{} seed {seed}: skyline diverged from {}",
                s.algo.name(),
                SWEEP_ALGOS[0].name()
            );
            s.totals.add(&r, io);
        }
    }
    series
}

/// Runs the benchmark on the standard workload (CA-like preset,
/// ω = 0.5, |Q| = 4), prints the cost table, and writes `BENCH_4.json`
/// into the working directory.
pub fn sweep_report() {
    let setting = Setting {
        preset: Preset::Ca,
        omega: 0.5,
        nq: 4,
    };
    let seeds = seed_count();
    let series = collect(&setting, seeds);

    let cols: Vec<&str> = series.iter().map(|s| s.algo.name()).collect();
    print_header(
        &format!(
            "T4  distance-resolution cost (CA, omega=0.5, |Q|=4, {seeds} seeds, summed; skylines verified bitwise-equal)"
        ),
        &cols,
    );
    let row = |label: &str, f: &dyn Fn(&Totals) -> f64, precision: usize| {
        let vals: Vec<f64> = series.iter().map(|s| f(&s.totals)).collect();
        println!("{}", crate::harness::format_row(label, &vals, precision));
    };
    row("expansions", &|t| t.expansions as f64, 0);
    row("retargets", &|t| t.retargets as f64, 0);
    row("cold faults", &|t| t.faults_cold as f64, 0);
    row("warm faults", &|t| t.faults_warm as f64, 0);
    row("wall ms", &|t| t.wall_ms, 2);

    let json = render_json(&series, seeds);
    crate::report::write_report("BENCH_4.json", &json);
}

/// Hand-rolled JSON (the in-tree serde shim is a no-op facade).
pub fn render_json(series: &[SweepSeries], seeds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"sweep\",\n");
    out.push_str("  \"preset\": \"CA\",\n");
    out.push_str("  \"omega\": 0.5,\n");
    out.push_str("  \"nq\": 4,\n");
    out.push_str(&format!("  \"seeds\": {seeds},\n"));
    out.push_str(&format!("  \"io_ms\": {},\n", io_ms()));
    out.push_str(
        "  \"note\": \"one series per batching algorithm: same engine, same query seeds, cold \
         buffer per run; skylines verified bitwise identical across algorithms; counters \
         deterministic (DESIGN.md sec. 10), wall/response vary per host\",\n",
    );
    out.push_str("  \"series\": [\n");
    for (si, s) in series.iter().enumerate() {
        let t = &s.totals;
        out.push_str("    {\n");
        out.push_str(&format!("      \"algo\": \"{}\",\n", s.algo.name()));
        out.push_str(&format!("      \"expansions\": {},\n", t.expansions));
        out.push_str(&format!("      \"retargets\": {},\n", t.retargets));
        out.push_str(&format!("      \"faults_cold\": {},\n", t.faults_cold));
        out.push_str(&format!("      \"faults_warm\": {},\n", t.faults_warm));
        out.push_str(&format!("      \"skyline\": {},\n", t.skyline));
        out.push_str(&format!("      \"wall_ms\": {:.3},\n", t.wall_ms));
        out.push_str(&format!("      \"response_ms\": {:.3}\n", t.response_ms));
        out.push_str(&format!(
            "    }}{}\n",
            if si + 1 < series.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_batching_algorithm_reports_a_series() {
        // collect() itself asserts the four skylines bitwise equal per
        // seed; on top of that, every algorithm resolves some distance.
        let setting = Setting {
            preset: Preset::Ca,
            omega: 0.3,
            nq: 3,
        };
        let series = collect(&setting, 1);
        let algos: Vec<Algorithm> = series.iter().map(|s| s.algo).collect();
        assert_eq!(algos, SWEEP_ALGOS);
        for s in &series {
            assert!(s.totals.retargets > 0, "{}: no retarget", s.algo.name());
            assert!(s.totals.expansions > 0, "{}: no expansion", s.algo.name());
            assert_eq!(s.totals.skyline, series[0].totals.skyline);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let series = vec![SweepSeries {
            algo: Algorithm::Edc,
            totals: Totals {
                expansions: 100,
                retargets: 80,
                ..Totals::default()
            },
        }];
        let j = render_json(&series, 3);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"algo\": \"EDC\""));
        assert!(j.contains("\"expansions\": 100"));
        assert!(j.contains("\"retargets\": 80"));
        assert!(!j.contains("single_target"), "no mode axis");
    }
}

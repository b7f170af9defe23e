//! Multi-target sweep benchmark (ISSUE 4): single-target vs batched
//! distance resolution at matched workloads, emitting `BENCH_4.json`.
//!
//! Every algorithm that resolves distance batches — EDC in both forms,
//! LBC with and without plb — runs cold over the same engine and the
//! same query seeds twice: once with [`msq_core::SweepMode::SingleTarget`]
//! (the legacy per-destination `set_target` loop) and once with
//! [`msq_core::SweepMode::Batched`] (multi-target pack sweeps,
//! `rn_sp::AStar::distances_to_pack`). The two runs are verified to
//! return **bitwise identical** skylines — packs are a pure cost
//! optimisation — and the cost deltas are reported per algorithm:
//!
//! * **expansions** — nodes settled across all wavefronts. Bounded by
//!   `single + retargets` (a deferred epoch change wastes at most one
//!   steered-dead pop), so this column moves little in either direction.
//! * **retargets** — `set_target` calls, pack re-keys and pack epoch
//!   changes. A re-key is one compaction pass over the frontier keys
//!   touched since the last re-key plus an O(|live frontier|) keying
//!   pass; an endpoint-exact `set_target` does neither, and an epoch
//!   change re-keys only the entries that reach the front. This is where
//!   packs win: k single-target resolutions pay k retargets, a pack pays
//!   one re-key plus one epoch change per steered-dead pop.
//! * **page faults** (cold/warm) and **wall / response time**.
//!
//! Counters are deterministic (DESIGN.md §10), so the counter columns of
//! BENCH_4.json are bit-reproducible for a given `MSQ_SEEDS`.

use crate::harness::{build_engine, io_ms, print_header, seed_count, Setting};
use msq_core::{canonical, Algorithm, Exec, Metric, QueryPlan, SkylineResult, SweepMode};
use rn_workload::{generate_queries, Preset};

/// The algorithms whose distance resolution goes through batches. CE
/// never touches the A* pack path, so it has no single-vs-batched axis.
pub const SWEEP_ALGOS: [Algorithm; 4] = [
    Algorithm::Edc,
    Algorithm::EdcBatch,
    Algorithm::Lbc,
    Algorithm::LbcNoPlb,
];

/// Cost totals of one `(algorithm, sweep mode)` pair, summed over seeds.
#[derive(Clone, Copy, Debug, Default)]
pub struct ModeTotals {
    /// Network nodes expanded across all wavefronts.
    pub expansions: u64,
    /// `set_target` calls plus pack re-keys (`sp.astar.retargets`).
    pub retargets: u64,
    /// Pack sweeps opened (zero in single-target mode).
    pub pack_sweeps: u64,
    /// Destinations resolved through packs.
    pub pack_targets: u64,
    /// Re-keys saved versus per-destination `set_target`.
    pub rekeys_avoided: u64,
    /// Buffer-pool faults on a cold page.
    pub faults_cold: u64,
    /// Buffer-pool faults evicting a warm page.
    pub faults_warm: u64,
    /// Skyline cardinality (must match across modes).
    pub skyline: u64,
    /// Pure CPU wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Response time under the disk model: wall + faults * io_ms.
    pub response_ms: f64,
}

impl ModeTotals {
    fn add(&mut self, r: &SkylineResult, io: f64) {
        self.expansions += r.trace.get(Metric::SpHeapPops);
        self.retargets += r.trace.get(Metric::SpAstarRetargets);
        self.pack_sweeps += r.trace.get(Metric::SpAstarPackSweeps);
        self.pack_targets += r.trace.get(Metric::SpAstarPackTargets);
        self.rekeys_avoided += r.trace.get(Metric::SpAstarPackRekeysAvoided);
        self.faults_cold += r.trace.get(Metric::StoragePageFaultsCold);
        self.faults_warm += r.trace.get(Metric::StoragePageFaultsWarm);
        self.skyline += r.skyline.len() as u64;
        let wall = r.stats.total_time.as_secs_f64() * 1e3;
        self.wall_ms += wall;
        self.response_ms += wall + r.page_faults() as f64 * io;
    }
}

/// The single-vs-batched comparison for one algorithm.
#[derive(Clone, Debug)]
pub struct SweepSeries {
    /// Which algorithm.
    pub algo: Algorithm,
    /// Totals with per-destination `set_target` resolution.
    pub single: ModeTotals,
    /// Totals with multi-target pack sweeps.
    pub batched: ModeTotals,
}

/// `100 * (1 - batched/single)`: positive when batching reduces the
/// quantity, negative when it costs more, 0 for an empty baseline.
pub fn reduction_pct(single: u64, batched: u64) -> f64 {
    if single == 0 {
        0.0
    } else {
        100.0 * (1.0 - batched as f64 / single as f64)
    }
}

/// Runs every batching algorithm cold over `seeds` query seeds in both
/// sweep modes and returns the totals, verifying the skylines bitwise
/// identical across modes along the way.
///
/// # Panics
/// Panics when a batched run's skyline diverges from the single-target
/// run — that would be an engine bug, not a benchmark result.
pub fn collect(setting: &Setting, seeds: u64) -> Vec<SweepSeries> {
    let engine = build_engine(setting);
    let io = io_ms();
    SWEEP_ALGOS
        .iter()
        .map(|&algo| {
            let mut single = ModeTotals::default();
            let mut batched = ModeTotals::default();
            for seed in 0..seeds {
                let queries = generate_queries(engine.network(), setting.nq, 0.316, 1000 + seed);
                let s = engine.run_plan(&QueryPlan {
                    exec: Exec::Cold,
                    sweep: SweepMode::SingleTarget,
                    ..QueryPlan::new(algo, &queries)
                });
                let b = engine.run_cold(algo, &queries); // batched: the default
                assert_eq!(
                    canonical(&s.skyline),
                    canonical(&b.skyline),
                    "{} seed {seed}: batched skyline diverged from single-target",
                    algo.name()
                );
                single.add(&s, io);
                batched.add(&b, io);
            }
            SweepSeries {
                algo,
                single,
                batched,
            }
        })
        .collect()
}

/// Runs the sweep benchmark on the standard workload (CA-like preset,
/// ω = 0.5, |Q| = 4), prints the comparison table, and writes
/// `BENCH_4.json` into the working directory.
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
            "T4  single-target vs batched sweeps (CA, omega=0.5, |Q|=4, {seeds} seeds, summed; skylines verified bitwise-equal)"
        ),
        &cols,
    );
    let row = |label: &str, f: &dyn Fn(&SweepSeries) -> f64, precision: usize| {
        let vals: Vec<f64> = series.iter().map(f).collect();
        println!("{}", crate::harness::format_row(label, &vals, precision));
    };
    row("exp single", &|s| s.single.expansions as f64, 0);
    row("exp batched", &|s| s.batched.expansions as f64, 0);
    row(
        "exp red %",
        &|s| reduction_pct(s.single.expansions, s.batched.expansions),
        1,
    );
    row("rekey single", &|s| s.single.retargets as f64, 0);
    row("rekey batch", &|s| s.batched.retargets as f64, 0);
    row(
        "rekey red %",
        &|s| reduction_pct(s.single.retargets, s.batched.retargets),
        1,
    );
    row("warm single", &|s| s.single.faults_warm as f64, 0);
    row("warm batched", &|s| s.batched.faults_warm as f64, 0);
    row("pack sweeps", &|s| s.batched.pack_sweeps as f64, 0);
    row("pack targets", &|s| s.batched.pack_targets as f64, 0);
    row("saved rekeys", &|s| s.batched.rekeys_avoided as f64, 0);
    row("wall single", &|s| s.single.wall_ms, 2);
    row("wall batched", &|s| s.batched.wall_ms, 2);

    let json = render_json(&series, seeds);
    let path = "BENCH_4.json";
    crate::report::write_report(path, &json);
}

/// Hand-rolled JSON (the in-tree serde shim is a no-op facade).
pub fn render_json(series: &[SweepSeries], seeds: u64) -> String {
    let mode = |out: &mut String, label: &str, t: &ModeTotals, trailing_comma: bool| {
        out.push_str(&format!("      \"{label}\": {{\n"));
        out.push_str(&format!("        \"expansions\": {},\n", t.expansions));
        out.push_str(&format!("        \"retargets\": {},\n", t.retargets));
        out.push_str(&format!("        \"pack_sweeps\": {},\n", t.pack_sweeps));
        out.push_str(&format!("        \"pack_targets\": {},\n", t.pack_targets));
        out.push_str(&format!(
            "        \"pack_rekeys_avoided\": {},\n",
            t.rekeys_avoided
        ));
        out.push_str(&format!("        \"faults_cold\": {},\n", t.faults_cold));
        out.push_str(&format!("        \"faults_warm\": {},\n", t.faults_warm));
        out.push_str(&format!("        \"skyline\": {},\n", t.skyline));
        out.push_str(&format!("        \"wall_ms\": {:.3},\n", t.wall_ms));
        out.push_str(&format!("        \"response_ms\": {:.3}\n", t.response_ms));
        out.push_str(&format!(
            "      }}{}\n",
            if trailing_comma { "," } else { "" }
        ));
    };
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"sweep\",\n");
    out.push_str("  \"preset\": \"CA\",\n");
    out.push_str("  \"omega\": 0.5,\n");
    out.push_str("  \"nq\": 4,\n");
    out.push_str(&format!("  \"seeds\": {seeds},\n"));
    out.push_str(&format!("  \"io_ms\": {},\n", io_ms()));
    out.push_str(
        "  \"note\": \"matched workloads: same engine, same query seeds, cold buffer per run; \
         skylines verified bitwise identical across sweep modes; counters deterministic \
         (DESIGN.md sec. 10), wall/response vary per host\",\n",
    );
    out.push_str("  \"series\": [\n");
    for (si, s) in series.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"algo\": \"{}\",\n", s.algo.name()));
        mode(&mut out, "single_target", &s.single, true);
        mode(&mut out, "batched", &s.batched, true);
        out.push_str("      \"reduction_pct\": {\n");
        out.push_str(&format!(
            "        \"expansions\": {:.2},\n",
            reduction_pct(s.single.expansions, s.batched.expansions)
        ));
        out.push_str(&format!(
            "        \"retargets\": {:.2},\n",
            reduction_pct(s.single.retargets, s.batched.retargets)
        ));
        out.push_str(&format!(
            "        \"faults_warm\": {:.2}\n",
            reduction_pct(s.single.faults_warm, s.batched.faults_warm)
        ));
        out.push_str("      }\n");
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
    fn batched_never_rekeys_more_and_skylines_agree() {
        // collect() itself asserts bitwise skyline equality per seed; on
        // top of that, every algorithm's batched run must spend at most
        // as many re-keys as the per-destination loop it replaces would
        // on its pack-resolved share — for EDC, which resolves *every*
        // vector through packs, that is a strict global inequality.
        let setting = Setting {
            preset: Preset::Ca,
            omega: 0.3,
            nq: 3,
        };
        let series = collect(&setting, 1);
        assert_eq!(series.len(), SWEEP_ALGOS.len());
        for s in &series {
            assert_eq!(
                s.single.pack_sweeps,
                0,
                "{}: single-target mode opened a pack",
                s.algo.name()
            );
            assert!(
                s.batched.pack_sweeps > 0,
                "{}: batched mode never went through a pack",
                s.algo.name()
            );
            assert_eq!(
                s.single.skyline,
                s.batched.skyline,
                "{}: skyline cardinality diverged",
                s.algo.name()
            );
        }
        let edc = series
            .iter()
            .find(|s| s.algo == Algorithm::Edc)
            .expect("EDC series");
        assert!(
            edc.batched.retargets <= edc.single.retargets,
            "EDC batched re-keyed more: {} > {}",
            edc.batched.retargets,
            edc.single.retargets
        );
        assert_eq!(
            edc.batched.pack_targets,
            edc.batched.rekeys_avoided + edc.batched.retargets,
            "EDC pack re-key accounting diverged"
        );
    }

    #[test]
    fn reduction_percentages() {
        assert_eq!(reduction_pct(0, 5), 0.0);
        assert_eq!(reduction_pct(10, 5), 50.0);
        assert_eq!(reduction_pct(10, 10), 0.0);
        assert!((reduction_pct(10, 12) + 20.0).abs() < 1e-12);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let series = vec![SweepSeries {
            algo: Algorithm::Edc,
            single: ModeTotals {
                expansions: 100,
                retargets: 80,
                ..ModeTotals::default()
            },
            batched: ModeTotals {
                expansions: 90,
                retargets: 20,
                pack_sweeps: 10,
                pack_targets: 80,
                rekeys_avoided: 60,
                ..ModeTotals::default()
            },
        }];
        let j = render_json(&series, 3);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"algo\": \"EDC\""));
        assert!(j.contains("\"single_target\""));
        assert!(j.contains("\"retargets\": 80"));
        assert!(
            j.contains("\"retargets\": 75.00"),
            "reduction block present"
        );
    }
}

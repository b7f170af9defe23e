//! Lower-bound oracle benchmark: the Euclidean bound vs ALT landmarks at
//! matched workloads, emitting `BENCH_7.json`.
//!
//! Every bound kind runs EDC and LBC cold over the same engine and the
//! same query seeds; the skylines are verified **bitwise identical**
//! across bound kinds (oracles are a pure cost optimisation — A\* keys
//! its heap by the Euclidean distance under every bound, and the
//! EDC/LBC pruning rules only discard provably dominated candidates).
//! The cost deltas are reported per `(preset, algorithm, bound)` series:
//!
//! * **expansions** — network nodes settled. An oracle shrinks them only
//!   through pruning: tighter windows and seeds leave fewer candidates
//!   whose distances A\* must resolve.
//! * **window candidates / plb discards** — where the pruning lands in
//!   each algorithm (EDC's hypercube windows, LBC's candidate seeds).
//! * **oracle hits / Euclid fallbacks** — how often a pair bound beat
//!   the Euclidean bound it wraps.
//! * **build ms / bytes** — the preprocessing cost, reported honestly:
//!   the oracles only pay off across enough queries to amortise it.
//!
//! Counters are deterministic (DESIGN.md §10); build wall-clock is not
//! and is excluded from the regression baseline.

use crate::harness::{build_engine, io_ms, print_header, seed_count, Setting};
use msq_core::{canonical, Algorithm, BoundSpec, Metric, SkylineEngine, SkylineResult};
use rn_workload::{generate_queries, Preset};

/// The algorithms whose pruning the oracles tighten. CE never consults
/// pair bounds and its refinement already touches every filter survivor.
pub const ORACLE_ALGOS: [Algorithm; 2] = [Algorithm::Edc, Algorithm::Lbc];

/// Cost totals of one `(preset, algorithm, bound)` series, summed over
/// query seeds.
#[derive(Clone, Copy, Debug, Default)]
pub struct OracleTotals {
    /// Network nodes expanded across all wavefronts.
    pub expansions: u64,
    /// `set_target` calls (`sp.astar.retargets`).
    pub retargets: u64,
    /// EDC hypercube-window candidates actually computed.
    pub window_candidates: u64,
    /// LBC candidates discarded on lower bounds (`lbc.plb.discards`).
    pub plb_discards: u64,
    /// LBC discards the oracle seed was decisive for, before any
    /// network expansion (`lbc.plb.oracle_discards`).
    pub plb_oracle_discards: u64,
    /// Bound evaluations where the oracle beat the Euclidean floor.
    pub oracle_hits: u64,
    /// Bound evaluations that fell back to the Euclidean floor.
    pub euclid_fallbacks: u64,
    /// Buffer-pool faults on a cold page.
    pub faults_cold: u64,
    /// Skyline cardinality (must match across bound kinds).
    pub skyline: u64,
    /// Pure CPU wall-clock, milliseconds.
    pub wall_ms: f64,
    /// Response time under the disk model: wall + faults * io_ms.
    pub response_ms: f64,
}

impl OracleTotals {
    fn add(&mut self, r: &SkylineResult, io: f64) {
        self.expansions += r.trace.get(Metric::SpHeapPops);
        self.retargets += r.trace.get(Metric::SpAstarRetargets);
        self.window_candidates += r.trace.get(Metric::EdcWindowCandidates);
        self.plb_discards += r.trace.get(Metric::LbcPlbDiscards);
        self.plb_oracle_discards += r.trace.get(Metric::LbcPlbOracleDiscards);
        self.oracle_hits += r.trace.get(Metric::SpLbOracleHits);
        self.euclid_fallbacks += r.trace.get(Metric::SpLbEuclidFallbacks);
        self.faults_cold += r.trace.get(Metric::StoragePageFaultsCold);
        self.skyline += r.skyline.len() as u64;
        let wall = r.stats.total_time.as_secs_f64() * 1e3;
        self.wall_ms += wall;
        self.response_ms += wall + r.page_faults() as f64 * io;
    }
}

/// One `(preset, algorithm, bound)` series of BENCH_7.json. The flat
/// `id` (`CA-EDC-alt`) keys the regression-gate selectors — dots are
/// path separators there, so the id uses dashes.
#[derive(Clone, Debug)]
pub struct OracleSeries {
    /// Flat selector id, e.g. `CA-EDC-alt`.
    pub id: String,
    /// Preset name ("CA"/"AU").
    pub preset: &'static str,
    /// Which algorithm.
    pub algo: Algorithm,
    /// Bound label ("euclid"/"alt").
    pub bound: &'static str,
    /// Summed costs.
    pub totals: OracleTotals,
}

/// Preprocessing cost of one oracle build.
#[derive(Clone, Debug)]
pub struct OracleBuildRow {
    /// Preset name.
    pub preset: &'static str,
    /// Bound label.
    pub bound: &'static str,
    /// Build wall-clock, milliseconds (host-dependent).
    pub build_ms: f64,
    /// Index footprint, bytes (deterministic).
    pub bytes: u64,
}

/// The per-preset bound ladder: Euclid baseline plus ALT at the
/// preset's landmark count.
fn specs_for(preset: Preset) -> [(&'static str, BoundSpec); 2] {
    let landmarks = preset.oracle_knobs().landmarks;
    [
        ("euclid", BoundSpec::Euclid),
        ("alt", BoundSpec::Alt { landmarks }),
    ]
}

/// Runs EDC and LBC cold over `seeds` query seeds under every bound
/// kind of `setting.preset`, verifying the skylines bitwise identical
/// to the Euclidean baseline along the way.
///
/// # Panics
/// Panics when an oracle run's skyline diverges from the Euclidean
/// run — that would be an engine bug, not a benchmark result.
pub fn collect(setting: &Setting, seeds: u64) -> (Vec<OracleSeries>, Vec<OracleBuildRow>) {
    let mut engine: SkylineEngine = build_engine(setting);
    let io = io_ms();
    let preset = setting.preset.name();
    let mut series = Vec::new();
    let mut builds = Vec::new();
    // Euclidean-baseline canonical skylines, per (algo index, seed).
    let mut baseline: Vec<Vec<_>> = Vec::new();

    for (bi, (label, spec)) in specs_for(setting.preset).into_iter().enumerate() {
        let stats = engine.set_bound(spec);
        builds.push(OracleBuildRow {
            preset,
            bound: label,
            build_ms: stats.build_ms,
            bytes: stats.bytes,
        });
        for (ai, &algo) in ORACLE_ALGOS.iter().enumerate() {
            let mut totals = OracleTotals::default();
            for seed in 0..seeds {
                let queries = generate_queries(engine.network(), setting.nq, 0.316, 1000 + seed);
                let r = engine.run_cold(algo, &queries);
                let c = canonical(&r.skyline);
                if bi == 0 {
                    if baseline.len() <= ai {
                        baseline.push(Vec::new());
                    }
                    baseline[ai].push(c);
                } else {
                    assert_eq!(
                        baseline[ai][seed as usize],
                        c,
                        "{preset} {} seed {seed}: {label} skyline diverged from Euclid",
                        algo.name()
                    );
                }
                totals.add(&r, io);
            }
            series.push(OracleSeries {
                id: format!("{preset}-{}-{label}", algo.name()),
                preset,
                algo,
                bound: label,
                totals,
            });
        }
    }
    // Reset so a shared engine does not leak oracle state to callers.
    engine.set_bound(BoundSpec::Euclid);
    (series, builds)
}

/// `100 * (1 - with_oracle/baseline)`: positive when the oracle reduces
/// the quantity, 0 for an empty baseline.
fn reduction_pct(baseline: u64, with_oracle: u64) -> f64 {
    if baseline == 0 {
        0.0
    } else {
        100.0 * (1.0 - with_oracle as f64 / baseline as f64)
    }
}

/// Runs the oracle benchmark on the CA- and AU-like presets (ω = 0.5,
/// |Q| = 4), prints the per-preset comparison tables, and writes
/// `BENCH_7.json` into the working directory. NA is excluded to keep
/// the default run in coffee-break territory; the knobs for it are
/// pinned in [`Preset::oracle_knobs`] all the same.
pub fn oracle_report() {
    let seeds = seed_count();
    let mut all_series = Vec::new();
    let mut all_builds = Vec::new();
    for preset in [Preset::Ca, Preset::Au] {
        let setting = Setting {
            preset,
            omega: 0.5,
            nq: 4,
        };
        let (series, builds) = collect(&setting, seeds);
        print_preset_table(preset.name(), &series, &builds, seeds);
        all_series.extend(series);
        all_builds.extend(builds);
    }

    let json = render_json(&all_series, &all_builds, seeds);
    let path = "BENCH_7.json";
    crate::report::write_report(path, &json);
}

fn print_preset_table(
    preset: &str,
    series: &[OracleSeries],
    builds: &[OracleBuildRow],
    seeds: u64,
) {
    let cols: Vec<String> = series
        .iter()
        .map(|s| format!("{}/{}", s.algo.name(), s.bound))
        .collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    print_header(
        &format!(
            "T7  lower-bound oracles ({preset}, omega=0.5, |Q|=4, {seeds} seeds, summed; \
             skylines verified bitwise-equal across bounds)"
        ),
        &col_refs,
    );
    let row = |label: &str, f: &dyn Fn(&OracleSeries) -> f64, precision: usize| {
        let vals: Vec<f64> = series.iter().map(f).collect();
        println!("{}", crate::harness::format_row(label, &vals, precision));
    };
    row("expansions", &|s| s.totals.expansions as f64, 0);
    row("retargets", &|s| s.totals.retargets as f64, 0);
    row("window cand", &|s| s.totals.window_candidates as f64, 0);
    row("plb discards", &|s| s.totals.plb_discards as f64, 0);
    row("oracle disc", &|s| s.totals.plb_oracle_discards as f64, 0);
    row("oracle hits", &|s| s.totals.oracle_hits as f64, 0);
    row("eu fallback", &|s| s.totals.euclid_fallbacks as f64, 0);
    row("skyline", &|s| s.totals.skyline as f64, 0);
    row("wall ms", &|s| s.totals.wall_ms, 2);
    for b in builds {
        println!(
            "{:>12} | build {:.1} ms, {} bytes",
            format!("{}/{}", b.preset, b.bound),
            b.build_ms,
            b.bytes
        );
    }
}

/// Hand-rolled JSON (the in-tree serde shim is a no-op facade). Series
/// ids are dash-joined so the gate's dotted-path selectors can key them.
pub fn render_json(series: &[OracleSeries], builds: &[OracleBuildRow], seeds: u64) -> String {
    let euclid_of = |s: &OracleSeries| -> Option<&OracleSeries> {
        series
            .iter()
            .find(|e| e.preset == s.preset && e.algo == s.algo && e.bound == "euclid")
    };
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"oracle\",\n");
    out.push_str("  \"omega\": 0.5,\n");
    out.push_str("  \"nq\": 4,\n");
    out.push_str(&format!("  \"seeds\": {seeds},\n"));
    out.push_str(&format!("  \"io_ms\": {},\n", io_ms()));
    out.push_str(
        "  \"note\": \"matched workloads: same engine, same query seeds, cold buffer per run; \
         skylines verified bitwise identical across bound kinds; counters and bytes \
         deterministic (DESIGN.md sec. 10), build_ms/wall_ms vary per host\",\n",
    );
    out.push_str("  \"builds\": [\n");
    for (i, b) in builds.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}-{}\", \"preset\": \"{}\", \"bound\": \"{}\", \
             \"build_ms\": {:.3}, \"bytes\": {}}}{}\n",
            b.preset,
            b.bound,
            b.preset,
            b.bound,
            b.build_ms,
            b.bytes,
            if i + 1 < builds.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"series\": [\n");
    for (si, s) in series.iter().enumerate() {
        let t = &s.totals;
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": \"{}\",\n", s.id));
        out.push_str(&format!("      \"preset\": \"{}\",\n", s.preset));
        out.push_str(&format!("      \"algo\": \"{}\",\n", s.algo.name()));
        out.push_str(&format!("      \"bound\": \"{}\",\n", s.bound));
        out.push_str(&format!("      \"expansions\": {},\n", t.expansions));
        out.push_str(&format!("      \"retargets\": {},\n", t.retargets));
        out.push_str(&format!(
            "      \"window_candidates\": {},\n",
            t.window_candidates
        ));
        out.push_str(&format!("      \"plb_discards\": {},\n", t.plb_discards));
        out.push_str(&format!(
            "      \"plb_oracle_discards\": {},\n",
            t.plb_oracle_discards
        ));
        out.push_str(&format!("      \"oracle_hits\": {},\n", t.oracle_hits));
        out.push_str(&format!(
            "      \"euclid_fallbacks\": {},\n",
            t.euclid_fallbacks
        ));
        out.push_str(&format!("      \"faults_cold\": {},\n", t.faults_cold));
        out.push_str(&format!("      \"skyline\": {},\n", t.skyline));
        if let Some(e) = euclid_of(s).filter(|_| s.bound != "euclid") {
            out.push_str(&format!(
                "      \"expansions_reduction_pct\": {:.2},\n",
                reduction_pct(e.totals.expansions, t.expansions)
            ));
        }
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
    fn oracles_prune_and_skylines_agree_on_ca() {
        // collect() itself asserts bitwise skyline equality per seed; on
        // top of that the CA preset — sparse, detour-heavy, the loosest
        // Euclidean bounds of the three — must show ALT's pruning
        // actually reducing EDC+LBC network expansions.
        let setting = Setting {
            preset: Preset::Ca,
            omega: 0.3,
            nq: 3,
        };
        let (series, builds) = collect(&setting, 1);
        assert_eq!(series.len(), 4);
        assert_eq!(builds.len(), 2);
        let total = |bound: &str| -> u64 {
            series
                .iter()
                .filter(|s| s.bound == bound)
                .map(|s| s.totals.expansions)
                .sum()
        };
        let (euclid, alt) = (total("euclid"), total("alt"));
        assert!(alt < euclid, "ALT did not prune: {alt} vs {euclid}");
        // Oracle runs actually consulted the oracle.
        for s in series.iter().filter(|s| s.bound != "euclid") {
            assert!(
                s.totals.oracle_hits + s.totals.euclid_fallbacks > 0,
                "{}: no bound evaluations recorded",
                s.id
            );
        }
        // Euclid rows carry no oracle counters.
        for s in series.iter().filter(|s| s.bound == "euclid") {
            assert_eq!(s.totals.oracle_hits, 0, "{}: phantom hits", s.id);
            assert_eq!(
                s.totals.plb_oracle_discards, 0,
                "{}: phantom discards",
                s.id
            );
        }
        // The oracle reports a real index footprint.
        for b in builds.iter().filter(|b| b.bound != "euclid") {
            assert!(b.bytes > 0, "{}/{}: zero-byte index", b.preset, b.bound);
        }
    }

    #[test]
    fn json_is_well_formed_enough() {
        let series = vec![
            OracleSeries {
                id: "CA-EDC-euclid".into(),
                preset: "CA",
                algo: Algorithm::Edc,
                bound: "euclid",
                totals: OracleTotals {
                    expansions: 100,
                    ..OracleTotals::default()
                },
            },
            OracleSeries {
                id: "CA-EDC-alt".into(),
                preset: "CA",
                algo: Algorithm::Edc,
                bound: "alt",
                totals: OracleTotals {
                    expansions: 60,
                    oracle_hits: 40,
                    ..OracleTotals::default()
                },
            },
        ];
        let builds = vec![OracleBuildRow {
            preset: "CA",
            bound: "alt",
            build_ms: 1.5,
            bytes: 4096,
        }];
        let j = render_json(&series, &builds, 1);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"id\": \"CA-EDC-alt\""));
        assert!(j.contains("\"expansions_reduction_pct\": 40.00"));
        assert!(j.contains("\"bytes\": 4096"));
        // Baseline rows carry no reduction field.
        let euclid_block = j.split("CA-EDC-euclid").nth(1).unwrap();
        let end = euclid_block.find('}').unwrap();
        assert!(!euclid_block[..end].contains("reduction"));
    }
}

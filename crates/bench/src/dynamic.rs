//! Dynamic-maintenance benchmark: incremental skyline upkeep vs a fresh
//! registration under churn, emitting `BENCH_8.json`.
//!
//! A [`msq_core::DynamicEngine`] holds a registered query over the CA
//! preset while seeded [`rn_workload::UpdateStream`] batches mutate the
//! network (edge re-weightings, object inserts/deletes). After every
//! batch the maintained skyline is verified **bitwise identical** to a
//! fresh registration over the mutated substrate — the benchmark
//! measures cost only, never correctness drift. Per churn rate the
//! report compares:
//!
//! * **repair expansions** — network nodes the maintained path settles;
//! * **scratch expansions** — what a fresh registration after each batch
//!   costs instead;
//! * **invalidated / incremental / full** — rows re-resolved, and the
//!   queries that re-resolved some or all of their live rows.
//!
//! A batch that changes some edge's weight re-resolves every live row
//! through the same A\* a fresh registration runs (DESIGN.md §15.2).
//! Every batch of a series at 1‰ or more changes a weight, so repair and
//! scratch re-resolve the same rows and settle the same nodes; the report
//! pins that they agree, and its wall-clock columns price `apply`
//! (substrate mutation, staleness protocol and resolution) against a
//! registration. The 0‰ series changes no weight: each of its batches
//! only inserts and deletes objects (two of each by default), so `apply`
//! resolves just the inserted rows and deletes cost nothing — the one
//! kind of batch that resolves fewer rows than a registration.
//!
//! The engine runs under the preset's **ALT oracle with the rebuild
//! policy**. Maintenance never reads the bound, so the counters would be
//! the same under Euclid; ALT + rebuild keeps the oracle staleness
//! protocol (DESIGN.md §15.3) in the measured path: `wall_ms` includes
//! every rebuild a weight decrease forces, and the rebuild count is
//! reported alongside. Counters are deterministic (DESIGN.md §10);
//! wall-clock columns vary per host and are excluded from the regression
//! baseline.

use crate::harness::{build_engine, print_header, seed_count, Setting};
use msq_core::{canonical, BoundSpec, DynamicEngine, Metric, OracleMaintenance};
use rn_workload::{generate_queries, ChurnConfig, Preset, UpdateStream};
use std::time::Instant;

/// Churn rates per batch, in edges-per-mille (‰ of |E| re-weighted):
/// inserts and deletes only (0‰), the "low churn" regime (1‰, 2‰) and
/// heavy churn (10‰, 50‰).
pub const CHURN_PER_MILLE: [u32; 5] = [0, 1, 2, 10, 50];

/// Update batches applied per query seed.
pub const ROUNDS: u64 = 3;

/// Summed costs of one `(preset, churn)` series.
#[derive(Clone, Copy, Debug, Default)]
pub struct DynTotals {
    /// Updates fed to the engine (weight changes + inserts + deletes).
    pub updates: u64,
    /// Rows the maintained path re-resolved.
    pub invalidated: u64,
    /// Rows a fresh registration after each batch resolves instead
    /// (every live row).
    pub scratch_rows: u64,
    /// Queries that re-resolved some, but not all, of their live rows.
    pub incremental: u64,
    /// Queries that re-resolved every live row.
    pub full: u64,
    /// ALT rebuilds triggered by weight decreases (rebuild policy).
    pub oracle_rebuilds: u64,
    /// Network nodes A\* settled re-resolving rows.
    pub repair_expansions: u64,
    /// Nodes a fresh registration after each batch costs instead.
    pub scratch_expansions: u64,
    /// Final skyline cardinality, summed over seeds.
    pub skyline: u64,
    /// Incremental maintenance wall-clock, milliseconds (host-bound).
    pub wall_ms: f64,
    /// From-scratch rebuild wall-clock, milliseconds (host-bound).
    pub scratch_wall_ms: f64,
}

/// One `(preset, churn)` series of BENCH_8.json. The flat dash-joined
/// `id` (`CA-churn-10`, in edges-per-mille) keys the regression-gate
/// selectors — dots are path separators there.
#[derive(Clone, Debug)]
pub struct DynSeries {
    /// Flat selector id, e.g. `CA-churn-10`.
    pub id: String,
    /// Preset name.
    pub preset: &'static str,
    /// Churn rate in edges-per-mille.
    pub churn_pm: u32,
    /// Summed costs.
    pub totals: DynTotals,
}

/// Runs `ROUNDS` churn batches per query seed at `churn_pm` edges per
/// mille, maintaining incrementally and pricing the from-scratch
/// alternative after every batch.
///
/// # Panics
/// Panics when the maintained skyline diverges bitwise from the
/// from-scratch engine — that would be an engine bug, not a benchmark
/// result.
pub fn collect(setting: &Setting, churn_pm: u32, seeds: u64) -> DynSeries {
    let preset = setting.preset.name();
    let spec = BoundSpec::Alt {
        landmarks: setting.preset.oracle_knobs().landmarks,
    };
    let mut totals = DynTotals::default();
    for seed in 0..seeds {
        let mut engine = build_engine(setting);
        engine.set_bound(spec);
        let mut d = DynamicEngine::with_config(engine, OracleMaintenance::Rebuild);
        let queries = generate_queries(d.engine().network(), setting.nq, 0.316, 1000 + seed);
        let q = d.register_query(&queries);
        let mut stream = UpdateStream::new(
            9000 + seed,
            ChurnConfig {
                edge_frac: f64::from(churn_pm) / 1000.0,
                ..ChurnConfig::default()
            },
        );
        for round in 0..ROUNDS {
            let live = d.live_objects();
            let batch = stream.next_batch(d.engine().network(), &live);

            let t0 = Instant::now();
            let out = d.apply(&batch);
            totals.wall_ms += t0.elapsed().as_secs_f64() * 1e3;
            totals.updates += out.updates;
            totals.invalidated += out.invalidated;
            totals.incremental += out.incremental;
            totals.full += out.full;
            totals.oracle_rebuilds += out.oracle_rebuilds;
            totals.repair_expansions += out.expansions;

            // The alternative: register the query afresh over the mutated
            // substrate, and check it agrees bitwise with the maintained
            // state.
            let points = d.query_points(q).to_vec();
            let scratch = d.scratch_engine();
            let t1 = Instant::now();
            let mut sd = DynamicEngine::new(scratch);
            let sq = sd.register_query(&points);
            totals.scratch_wall_ms += t1.elapsed().as_secs_f64() * 1e3;
            totals.scratch_expansions += sd.trace().get(Metric::SpHeapPops);
            totals.scratch_rows += sd.live_objects().len() as u64;
            assert_eq!(
                canonical(&d.skyline(q)),
                canonical(&sd.skyline(sq)),
                "{preset} churn {churn_pm}pm seed {seed} round {round}: \
                 maintained skyline diverged from scratch"
            );
        }
        totals.skyline += d.skyline(q).len() as u64;
    }
    DynSeries {
        id: format!("{preset}-churn-{churn_pm}"),
        preset,
        churn_pm,
        totals,
    }
}

/// `100 * (1 - repair/scratch)`: positive when incremental maintenance
/// beats the from-scratch rebuild, 0 for an empty baseline.
fn reduction_pct(scratch: u64, repair: u64) -> f64 {
    if scratch == 0 {
        0.0
    } else {
        100.0 * (1.0 - repair as f64 / scratch as f64)
    }
}

/// Runs the dynamic benchmark on the CA preset (ω = 0.5, |Q| = 4)
/// across [`CHURN_PER_MILLE`], prints the comparison table, and writes
/// `BENCH_8.json` into the working directory.
pub fn dynamic_report() {
    let seeds = seed_count();
    let setting = Setting {
        preset: Preset::Ca,
        omega: 0.5,
        nq: 4,
    };
    let series: Vec<DynSeries> = CHURN_PER_MILLE
        .iter()
        .map(|&pm| collect(&setting, pm, seeds))
        .collect();
    print_table(&series, seeds);

    let json = render_json(&series, seeds);
    let path = "BENCH_8.json";
    crate::report::write_report(path, &json);
}

fn print_table(series: &[DynSeries], seeds: u64) {
    let cols: Vec<String> = series.iter().map(|s| format!("{}pm", s.churn_pm)).collect();
    let col_refs: Vec<&str> = cols.iter().map(String::as_str).collect();
    print_header(
        &format!(
            "T8  dynamic maintenance (CA, omega=0.5, |Q|=4, {ROUNDS} batches x {seeds} seeds, \
             summed; skylines verified bitwise-equal to scratch after every batch)"
        ),
        &col_refs,
    );
    let row = |label: &str, f: &dyn Fn(&DynSeries) -> f64, precision: usize| {
        let vals: Vec<f64> = series.iter().map(f).collect();
        println!("{}", crate::harness::format_row(label, &vals, precision));
    };
    row("updates", &|s| s.totals.updates as f64, 0);
    row("invalidated", &|s| s.totals.invalidated as f64, 0);
    row("scratch rows", &|s| s.totals.scratch_rows as f64, 0);
    row("incremental", &|s| s.totals.incremental as f64, 0);
    row("full recomp", &|s| s.totals.full as f64, 0);
    row("alt rebuilds", &|s| s.totals.oracle_rebuilds as f64, 0);
    row("repair exp", &|s| s.totals.repair_expansions as f64, 0);
    row("scratch exp", &|s| s.totals.scratch_expansions as f64, 0);
    row(
        "saved %",
        &|s| reduction_pct(s.totals.scratch_expansions, s.totals.repair_expansions),
        1,
    );
    row("skyline", &|s| s.totals.skyline as f64, 0);
    row("wall ms", &|s| s.totals.wall_ms, 2);
    row("scratch ms", &|s| s.totals.scratch_wall_ms, 2);
}

/// Hand-rolled JSON (the in-tree serde shim is a no-op facade). Series
/// ids are dash-joined so the gate's dotted-path selectors can key them.
pub fn render_json(series: &[DynSeries], seeds: u64) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"dynamic\",\n");
    out.push_str("  \"preset\": \"CA\",\n");
    out.push_str("  \"omega\": 0.5,\n");
    out.push_str("  \"nq\": 4,\n");
    out.push_str(&format!("  \"rounds\": {ROUNDS},\n"));
    out.push_str(&format!("  \"seeds\": {seeds},\n"));
    out.push_str(
        "  \"note\": \"per churn rate (edges-per-mille per batch): incremental maintenance \
         vs from-scratch rebuild after every batch, skylines verified bitwise identical; \
         counters deterministic (DESIGN.md sec. 10), wall_ms/scratch_wall_ms vary per \
         host\",\n",
    );
    out.push_str("  \"series\": [\n");
    for (si, s) in series.iter().enumerate() {
        let t = &s.totals;
        out.push_str("    {\n");
        out.push_str(&format!("      \"id\": \"{}\",\n", s.id));
        out.push_str(&format!("      \"preset\": \"{}\",\n", s.preset));
        out.push_str(&format!("      \"churn_per_mille\": {},\n", s.churn_pm));
        out.push_str(&format!("      \"updates\": {},\n", t.updates));
        out.push_str(&format!("      \"invalidated\": {},\n", t.invalidated));
        out.push_str(&format!("      \"incremental\": {},\n", t.incremental));
        out.push_str(&format!("      \"full\": {},\n", t.full));
        out.push_str(&format!(
            "      \"oracle_rebuilds\": {},\n",
            t.oracle_rebuilds
        ));
        out.push_str(&format!(
            "      \"repair_expansions\": {},\n",
            t.repair_expansions
        ));
        out.push_str(&format!(
            "      \"scratch_expansions\": {},\n",
            t.scratch_expansions
        ));
        out.push_str(&format!(
            "      \"expansions_saved_pct\": {:.2},\n",
            reduction_pct(t.scratch_expansions, t.repair_expansions)
        ));
        out.push_str(&format!("      \"skyline\": {},\n", t.skyline));
        out.push_str(&format!("      \"wall_ms\": {:.3},\n", t.wall_ms));
        out.push_str(&format!(
            "      \"scratch_wall_ms\": {:.3}\n",
            t.scratch_wall_ms
        ));
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
    use msq_core::Algorithm;

    #[test]
    fn churn_repair_re_resolves_every_row_on_ca() {
        // collect() itself asserts bitwise equality with scratch after
        // every batch; on top of that, every batch re-weights some edge,
        // so repair re-resolves every live row, as a fresh registration
        // does, and its A* settles no more nodes (DESIGN.md sec. 15.2).
        let setting = Setting {
            preset: Preset::Ca,
            omega: 0.3,
            nq: 3,
        };
        let s = collect(&setting, 2, 1);
        assert!(s.totals.updates > 0, "{}: no updates applied", s.id);
        assert_eq!(
            s.totals.invalidated, s.totals.scratch_rows,
            "{}: repair re-resolved {} rows, scratch resolves {}",
            s.id, s.totals.invalidated, s.totals.scratch_rows
        );
        assert!(
            s.totals.repair_expansions <= s.totals.scratch_expansions,
            "{}: incremental repair ({}) settled more than scratch ({})",
            s.id,
            s.totals.repair_expansions,
            s.totals.scratch_expansions
        );
    }

    #[test]
    fn verified_brute_agrees_with_maintained_state() {
        // Belt and braces beyond collect()'s fresh-registration check: the
        // maintained skyline also matches a brute-force run over the
        // mutated substrate.
        let setting = Setting {
            preset: Preset::Ca,
            omega: 0.3,
            nq: 3,
        };
        let mut d = DynamicEngine::new(build_engine(&setting));
        let queries = generate_queries(d.engine().network(), setting.nq, 0.316, 1000);
        let q = d.register_query(&queries);
        let mut stream = UpdateStream::new(9000, ChurnConfig::default());
        let live = d.live_objects();
        let batch = stream.next_batch(d.engine().network(), &live);
        d.apply(&batch);
        let scratch = d.scratch_engine();
        let r = scratch.run(Algorithm::Brute, d.query_points(q));
        assert!(r.completion.is_complete());
        assert_eq!(canonical(&d.skyline(q)), canonical(&r.skyline));
    }

    #[test]
    fn json_is_well_formed_enough() {
        let series = vec![DynSeries {
            id: "CA-churn-10".into(),
            preset: "CA",
            churn_pm: 10,
            totals: DynTotals {
                updates: 30,
                repair_expansions: 400,
                scratch_expansions: 1000,
                ..DynTotals::default()
            },
        }];
        let j = render_json(&series, 1);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"id\": \"CA-churn-10\""));
        assert!(j.contains("\"expansions_saved_pct\": 60.00"));
        assert!(j.contains("\"churn_per_mille\": 10"));
    }
}

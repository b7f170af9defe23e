//! Mobile-workforce / logistics scenario (§1 mentions "mobile workforce
//! management, and military and utility deployment"): a courier company
//! with several dispatch hubs wants candidate depot sites that are not
//! dominated in driving distance to *all* hubs simultaneously.
//!
//! Demonstrates:
//! * a denser (AU-like) network,
//! * many query points (|Q| = 8 hubs),
//! * reading the trade-off structure out of the skyline vectors.
//!
//! ```text
//! cargo run --release --example logistics_depot
//! ```

use msq_core::{Algorithm, Metric, SkylineEngine};
use rn_workload::{au_like, generate_objects, generate_queries};

fn main() {
    println!("generating an AU-like road network (23k junctions) ...");
    let network = au_like(21);
    let depots = generate_objects(&network, 0.05, 2121); // ~1.5k candidate sites
    println!(
        "{} junctions, {} segments, {} candidate depot sites",
        network.node_count(),
        network.edge_count(),
        depots.len()
    );
    let engine = SkylineEngine::build(network, depots);

    let hubs = generate_queries(engine.network(), 8, 0.1, 212121);
    println!(
        "querying the skyline for {} dispatch hubs ...\n",
        hubs.len()
    );

    let result = engine.run_cold(Algorithm::Lbc, &hubs);
    println!(
        "{} skyline depot sites out of {} candidates considered ({} network pages, {:.1} ms):\n",
        result.skyline.len(),
        result.trace.get(Metric::QueryCandidates),
        result.page_faults(),
        result.stats.total_time.as_secs_f64() * 1e3,
    );

    // Characterise each skyline member by its best and worst hub distance:
    // the skyline spans the spectrum from "excellent for one hub" to
    // "balanced for all hubs".
    let mut rows: Vec<(rn_graph::ObjectId, f64, f64, f64)> = result
        .skyline
        .iter()
        .map(|p| {
            let min = p.vector.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = p.vector.iter().cloned().fold(0.0_f64, f64::max);
            let sum: f64 = p.vector.iter().sum();
            (p.object, min, max, sum / p.vector.len() as f64)
        })
        .collect();
    rows.sort_by(|a, b| rn_geom::cmp_f64(a.3, b.3));

    println!(
        "{:>10} {:>14} {:>14} {:>14}",
        "site", "closest hub", "farthest hub", "mean distance"
    );
    for (obj, min, max, mean) in rows.iter().take(15) {
        println!("{obj:>10?} {min:>12.1} m {max:>12.1} m {mean:>12.1} m");
    }
    if rows.len() > 15 {
        println!("... and {} more skyline sites", rows.len() - 15);
    }

    // The balanced recommendation: the skyline member minimising the mean.
    let best = rows.first().expect("non-empty skyline");
    println!(
        "\nmost balanced site: {:?} (mean driving distance {:.1} m)",
        best.0, best.3
    );
}

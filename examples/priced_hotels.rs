//! The paper's *full* motivating query: "find hotels which are **cheap**
//! and close to the University, the Botanic Garden and the China Town" —
//! three network-distance dimensions plus a static price dimension
//! (§4.3's non-spatial attribute extension).
//!
//! ```text
//! cargo run --release --example priced_hotels
//! ```

use msq_core::{Algorithm, AttrTable, QueryPlan, SkylineEngine};
use rand::prelude::*;
use rand::rngs::StdRng;
use rn_workload::{ca_like, generate_objects, generate_queries};

fn main() {
    let network = ca_like(17);
    let hotels = generate_objects(&network, 0.15, 1700);
    let n_hotels = hotels.len();
    println!(
        "{} hotels on a {}-junction network",
        n_hotels,
        network.node_count()
    );
    let engine = SkylineEngine::build(network, hotels);
    let landmarks = generate_queries(engine.network(), 3, 0.3, 17000);

    // Nightly prices, correlated with nothing (seeded for repeatability).
    let mut rng = StdRng::seed_from_u64(171717);
    let prices: Vec<Vec<f64>> = (0..n_hotels)
        .map(|_| vec![(rng.random_range(60.0..420.0_f64)).round()])
        .collect();
    let attrs = AttrTable::new(prices.clone());

    // Spatial-only skyline first.
    let spatial = engine.run_cold(Algorithm::Lbc, &landmarks);
    println!(
        "\nskyline on distances alone: {} hotels",
        spatial.skyline.len()
    );

    // Now with price as a fourth dimension.
    let priced = engine.run_plan(&QueryPlan {
        attrs: Some(&attrs),
        ..QueryPlan::new(Algorithm::Lbc, &landmarks)
    });
    println!(
        "skyline on distances + price: {} hotels\n",
        priced.skyline.len()
    );

    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>9}",
        "hotel", "University", "Garden", "China Town", "price"
    );
    let mut rows = priced.skyline.clone();
    rows.sort_by(|a, b| rn_geom::cmp_f64(a.vector[3], b.vector[3]));
    for p in rows.iter().take(20) {
        println!(
            "{:>8?} {:>10.1} m {:>10.1} m {:>10.1} m {:>8.0}$",
            p.object, p.vector[0], p.vector[1], p.vector[2], p.vector[3]
        );
    }
    if priced.skyline.len() > 20 {
        println!("   ... and {} more", priced.skyline.len() - 20);
    }

    // The minimum price always appears on the skyline: a hotel at that
    // price can only be dominated by an equally-cheap hotel, which then
    // carries the minimum price itself.
    let min_price = prices.iter().map(|r| r[0]).fold(f64::INFINITY, f64::min);
    let cheapest_on_skyline = priced
        .skyline
        .iter()
        .find(|p| p.vector[3] == min_price)
        .expect("some minimum-price hotel survives");
    println!(
        "\ncheapest price ${min_price:.0} is on the skyline (hotel {:?}), as it must be.",
        cheapest_on_skyline.object
    );
}

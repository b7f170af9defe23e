//! The paper's motivating scenario: "find hotels which are ... close to
//! the University, the Botanic Garden and the China Town" — a three-source
//! skyline query on a city-scale road network.
//!
//! Uses the CA-like synthetic network (3 080 junctions in a 1 km square)
//! with hotels sampled along its streets, and compares all three
//! algorithms on the same query.
//!
//! ```text
//! cargo run --release --example hotel_finder
//! ```

use msq_core::{Algorithm, Metric, SkylineEngine};
use rn_workload::{ca_like, generate_objects, generate_queries};

fn main() {
    println!("generating a CA-like road network (3080 junctions) ...");
    let network = ca_like(7);
    // ~20 % of edges host a hotel.
    let hotels = generate_objects(&network, 0.2, 77);
    println!(
        "{} junctions, {} road segments, {} hotels",
        network.node_count(),
        network.edge_count(),
        hotels.len()
    );
    let engine = SkylineEngine::build(network, hotels);

    // Three landmarks clustered in one quarter of the city: the
    // university, the botanic garden and China Town of the paper's intro.
    let landmarks = generate_queries(engine.network(), 3, 0.25, 777);
    let names = ["University", "Botanic Garden", "China Town"];

    println!("\nskyline hotels (not dominated in distance to all three landmarks):\n");
    let mut reference: Option<Vec<rn_graph::ObjectId>> = None;
    for algo in [Algorithm::Ce, Algorithm::Edc, Algorithm::Lbc] {
        let result = engine.run_cold(algo, &landmarks);
        if let Some(ref ids) = reference {
            assert_eq!(&result.ids(), ids, "algorithms must agree");
        } else {
            println!(
                "{:>10}  {:>14}  {:>16}  {:>12}",
                "hotel", names[0], names[1], names[2]
            );
            for p in &result.skyline {
                println!(
                    "{:>10?}  {:>12.1} m  {:>14.1} m  {:>10.1} m",
                    p.object, p.vector[0], p.vector[1], p.vector[2]
                );
            }
            reference = Some(result.ids());
        }
        println!(
            "\n{:<4} {:>4} skyline hotels | {:>5} candidates | {:>6} network pages | {:>8.2} ms total | {:>8.2} ms to first",
            algo.name(),
            result.skyline.len(),
            result.trace.get(Metric::QueryCandidates),
            result.page_faults(),
            result.stats.total_time.as_secs_f64() * 1e3,
            result
                .stats
                .initial_time
                .map(|d| d.as_secs_f64() * 1e3)
                .unwrap_or(0.0),
        );
    }
    println!("\nall three algorithms returned the identical skyline.");
}

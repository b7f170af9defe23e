//! Quickstart: build a toy road network by hand, drop a few cafés on it,
//! and ask for the multi-source skyline relative to two meeting points.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use msq_core::{Algorithm, Metric, SkylineEngine};
use rn_geom::Point;
use rn_graph::{NetPosition, NetworkBuilder};

fn main() {
    // A 2x3 city block grid (distances in metres):
    //
    //   n3 --- n4 --- n5
    //   |      |      |
    //   n0 --- n1 --- n2
    let mut b = NetworkBuilder::new();
    let n0 = b.add_node(Point::new(0.0, 0.0));
    let n1 = b.add_node(Point::new(100.0, 0.0));
    let n2 = b.add_node(Point::new(200.0, 0.0));
    let n3 = b.add_node(Point::new(0.0, 100.0));
    let n4 = b.add_node(Point::new(100.0, 100.0));
    let n5 = b.add_node(Point::new(200.0, 100.0));
    let e01 = b.add_straight_edge(n0, n1).unwrap();
    let _e12 = b.add_straight_edge(n1, n2).unwrap();
    let e34 = b.add_straight_edge(n3, n4).unwrap();
    let e45 = b.add_straight_edge(n4, n5).unwrap();
    let _e03 = b.add_straight_edge(n0, n3).unwrap();
    let e14 = b.add_straight_edge(n1, n4).unwrap();
    let e25 = b.add_straight_edge(n2, n5).unwrap();
    let network = b.build().unwrap();

    // Cafés live on edges: (edge, metres from the edge's first endpoint).
    let cafes = vec![
        NetPosition::new(e01, 50.0), // café 0: south side
        NetPosition::new(e34, 50.0), // café 1: north side
        NetPosition::new(e14, 50.0), // café 2: central connector
        NetPosition::new(e25, 10.0), // café 3: east, near the south corner
    ];
    let engine = SkylineEngine::build(network, cafes);

    // Two friends: one near the south-west corner, one near the north-east.
    let friends = vec![NetPosition::new(e01, 10.0), NetPosition::new(e45, 90.0)];

    println!("multi-source skyline: cafés not dominated in (distance to A, distance to B)\n");
    for algo in [Algorithm::Ce, Algorithm::Edc, Algorithm::Lbc] {
        let result = engine.run_cold(algo, &friends);
        println!(
            "{} found {} skyline cafés:",
            algo.name(),
            result.skyline.len()
        );
        for p in &result.skyline {
            println!(
                "  café {:?}  d_N(A) = {:6.1} m   d_N(B) = {:6.1} m",
                p.object, p.vector[0], p.vector[1]
            );
        }
        println!(
            "  [{} candidates, {} network pages, {} nodes expanded]\n",
            result.trace.get(Metric::QueryCandidates),
            result.page_faults(),
            result.trace.get(Metric::SpHeapPops)
        );
    }
}

//! Command-line skyline queries over a road-network file.
//!
//! ```text
//! # query a network file with planar query coordinates (map-matched):
//! cargo run --release --example cli_query -- \
//!     --network net.txt --omega 0.5 --algo lbc \
//!     --query 120,340 --query 800,150 --query 420,910
//!
//! # no file? generate a preset instead:
//! cargo run --release --example cli_query -- \
//!     --preset ca --omega 0.2 --query 100,100 --query 900,600
//! ```
//!
//! Exercises the public surface a downstream tool would touch: the text
//! loader, the preset generator, map-matching (`locate`), all three
//! algorithms, statistics, and path reconstruction to the best hotel.

use msq_core::{Algorithm, Metric, SkylineEngine};
use rn_geom::Point;
use rn_graph::RoadNetwork;
use rn_workload::{generate_objects, Preset};
use std::process::ExitCode;

struct Args {
    network: Option<String>,
    preset: Option<Preset>,
    omega: f64,
    algo: Algorithm,
    queries: Vec<Point>,
    seed: u64,
    objects_file: Option<String>,
    save_objects: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        network: None,
        preset: None,
        omega: 0.2,
        algo: Algorithm::Lbc,
        queries: Vec::new(),
        seed: 42,
        objects_file: None,
        save_objects: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("missing value for {flag}"));
        match flag.as_str() {
            "--network" => args.network = Some(value()?),
            "--preset" => {
                args.preset = Some(match value()?.to_lowercase().as_str() {
                    "ca" => Preset::Ca,
                    "au" => Preset::Au,
                    "na" => Preset::Na,
                    other => return Err(format!("unknown preset {other:?} (ca/au/na)")),
                })
            }
            "--omega" => args.omega = value()?.parse().map_err(|e| format!("bad --omega: {e}"))?,
            "--objects-file" => args.objects_file = Some(value()?),
            "--save-objects" => args.save_objects = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--algo" => {
                args.algo = match value()?.to_lowercase().as_str() {
                    "ce" => Algorithm::Ce,
                    "edc" => Algorithm::Edc,
                    "lbc" => Algorithm::Lbc,
                    "brute" => Algorithm::Brute,
                    other => return Err(format!("unknown algorithm {other:?}")),
                }
            }
            "--query" => {
                let v = value()?;
                let (x, y) = v
                    .split_once(',')
                    .ok_or_else(|| format!("--query wants x,y got {v:?}"))?;
                args.queries.push(Point::new(
                    x.trim().parse().map_err(|e| format!("bad x: {e}"))?,
                    y.trim().parse().map_err(|e| format!("bad y: {e}"))?,
                ));
            }
            "--help" | "-h" => {
                return Err("usage: cli_query [--network FILE | --preset ca|au|na] \
                            [--omega F | --objects-file FILE] [--save-objects FILE] \
                            [--seed N] [--algo ce|edc|lbc|brute] \
                            --query x,y [--query x,y ...]"
                    .into())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    if args.queries.is_empty() {
        return Err("at least one --query x,y is required (try --help)".into());
    }
    Ok(args)
}

fn load_network(args: &Args) -> Result<RoadNetwork, String> {
    match (&args.network, args.preset) {
        (Some(path), _) => rn_graph::io::load_network(std::path::Path::new(path))
            .map_err(|e| format!("cannot load {path}: {e}")),
        (None, Some(preset)) => {
            eprintln!("generating {} preset network ...", preset.name());
            Ok(preset.generate(args.seed))
        }
        (None, None) => Err("provide --network FILE or --preset ca|au|na".into()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let network = match load_network(&args) {
        Ok(n) => n,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "network: {} junctions, {} segments",
        network.node_count(),
        network.edge_count()
    );
    let objects = match &args.objects_file {
        Some(path) => {
            let file = match std::fs::File::open(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("cannot open {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match rn_workload::read_positions(&network, file) {
                Ok(objs) => {
                    eprintln!("objects: {} loaded from {path}", objs.len());
                    objs
                }
                Err(e) => {
                    eprintln!("bad objects file {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => {
            let objs = generate_objects(&network, args.omega, args.seed + 1);
            eprintln!("objects: {} (omega = {})", objs.len(), args.omega);
            objs
        }
    };
    if let Some(path) = &args.save_objects {
        match std::fs::File::create(path) {
            Ok(f) => {
                if let Err(e) = rn_workload::write_positions(&objects, f) {
                    eprintln!("cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("objects saved to {path}");
            }
            Err(e) => {
                eprintln!("cannot create {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let engine = SkylineEngine::build(network, objects);

    // Map-match the planar query coordinates onto the network.
    let mut query_positions = Vec::new();
    for (i, p) in args.queries.iter().enumerate() {
        match engine.locate(*p) {
            Some((pos, d)) => {
                eprintln!(
                    "query {i}: ({}, {}) snapped {d:.1} m onto the network",
                    p.x, p.y
                );
                query_positions.push(pos);
            }
            None => {
                eprintln!("query {i}: nothing to snap to");
                return ExitCode::FAILURE;
            }
        }
    }

    let result = engine.run_cold(args.algo, &query_positions);
    println!(
        "\n{}: {} skyline objects ({} candidates, {} network pages, {:.2} ms)",
        args.algo.name(),
        result.skyline.len(),
        result.trace.get(Metric::QueryCandidates),
        result.page_faults(),
        result.stats.total_time.as_secs_f64() * 1e3
    );
    for p in &result.skyline {
        let dists: Vec<String> = p.vector.iter().map(|d| format!("{d:9.1}")).collect();
        println!("  {:>6?}  [{}]", p.object, dists.join(" "));
    }

    // Bonus: the route from the first query point to the best-sum object.
    if let Some(best) = result.skyline.iter().min_by(|a, b| {
        let sa: f64 = a.vector.iter().sum();
        let sb: f64 = b.vector.iter().sum();
        rn_geom::cmp_f64(sa, sb)
    }) {
        if let Some(path) =
            engine.shortest_path(query_positions[0], engine.object_position(best.object))
        {
            println!(
                "\nroute from query 0 to {:?}: {:.1} m over {} segments",
                best.object,
                path.length,
                path.edges.len()
            );
        }
    }
    ExitCode::SUCCESS
}

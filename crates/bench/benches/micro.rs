//! Criterion micro-benchmarks for the hot substrates: R-tree nearest
//! neighbour, B⁺-tree probes, Dijkstra/A\*/INE expansion, dominance tests
//! and the Euclidean multi-source skyline.
//!
//! Run with `cargo bench -p rn-bench --features bench --bench micro`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rn_geom::{Mbr, Point};
use rn_graph::{EdgeId, NetPosition};
use rn_index::{BPlusTree, MiddleLayer, RTree};
use rn_skyline::{brute_force_skyline, multi_source_euclidean_skyline};
use rn_sp::{AStar, Dijkstra, IncrementalExpansion, NetCtx};
use rn_storage::NetworkStore;
use rn_workload::{ca_like, generate_objects, generate_queries};
use std::hint::black_box;

fn bench_rtree(c: &mut Criterion) {
    let pts: Vec<Point> = (0..50_000)
        .map(|i| {
            let x = (i * 2654435761u64 as usize % 100_000) as f64 / 100.0;
            let y = (i * 40503 % 100_000) as f64 / 100.0;
            Point::new(x, y)
        })
        .collect();
    let tree = RTree::bulk_load(
        pts.iter()
            .enumerate()
            .map(|(i, p)| (Mbr::from_point(*p), i))
            .collect(),
    );
    c.bench_function("rtree/nn_50k", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            let q = Point::new((k % 1000) as f64, (k % 997) as f64);
            black_box(tree.nearest(q))
        })
    });
    c.bench_function("rtree/window_50k", |b| {
        b.iter(|| {
            let w = Mbr::new(Point::new(100.0, 100.0), Point::new(200.0, 180.0));
            black_box(tree.window(&w).len())
        })
    });
}

fn bench_bptree(c: &mut Criterion) {
    let mut t: BPlusTree<u32, u64> = BPlusTree::new();
    for i in 0..100_000u32 {
        t.insert(i.wrapping_mul(2654435761), i as u64);
    }
    c.bench_function("bptree/get_100k", |b| {
        let mut k = 0u32;
        b.iter(|| {
            k = k.wrapping_add(7919);
            black_box(t.get(&k.wrapping_mul(2654435761)))
        })
    });
    c.bench_function("bptree/insert_remove", |b| {
        b.iter_batched(
            || 1_000_001u32,
            |k| {
                t.insert(k, 1);
                t.remove(&k);
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_shortest_paths(c: &mut Criterion) {
    let net = ca_like(9);
    let store = NetworkStore::build(&net);
    let objects = generate_objects(&net, 0.2, 99);
    let mid = MiddleLayer::build(&net, &objects);
    let ctx = NetCtx::new(&net, &store, &mid);
    let queries = generate_queries(&net, 16, 0.8, 999);

    c.bench_function("sp/dijkstra_full_ca", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            let mut d = Dijkstra::new(&ctx, queries[i]);
            let mut settled = 0u32;
            while d.settle_next().is_some() {
                settled += 1;
            }
            black_box(settled)
        })
    });

    // A full INE drain: the settles of `sp/dijkstra_full_ca` plus one
    // middle-layer probe per incident edge and the per-object
    // bookkeeping, so the pair prices what object discovery adds.
    c.bench_function("sp/ine_drain_ca", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 1) % queries.len();
            black_box(IncrementalExpansion::new(&ctx, queries[i]).drain().len())
        })
    });

    c.bench_function("sp/astar_point_to_point_ca", |b| {
        let mut i = 0;
        b.iter(|| {
            i = (i + 2) % queries.len();
            let j = (i + 7) % queries.len();
            let mut a = AStar::new(&ctx, queries[i]);
            black_box(a.distance_to(queries[j]))
        })
    });
}

fn bench_skyline(c: &mut Criterion) {
    let rows: Vec<Vec<f64>> = (0..2000)
        .map(|i| {
            let a = (i * 7919 % 10_000) as f64;
            let b = (i * 104729 % 10_000) as f64;
            let d = (i * 1299709 % 10_000) as f64;
            vec![a, b, d]
        })
        .collect();
    c.bench_function("skyline/bnl_2k_3d", |b| {
        b.iter(|| black_box(rn_skyline::bnl::bnl_skyline(&rows).len()))
    });
    c.bench_function("skyline/brute_2k_3d", |b| {
        b.iter(|| black_box(brute_force_skyline(&rows).len()))
    });

    let pts: Vec<Point> = (0..20_000)
        .map(|i| {
            Point::new(
                (i * 48271 % 100_000) as f64 / 100.0,
                (i * 69621 % 100_000) as f64 / 100.0,
            )
        })
        .collect();
    let tree = RTree::bulk_load(
        pts.iter()
            .enumerate()
            .map(|(i, p)| (Mbr::from_point(*p), i))
            .collect(),
    );
    let qs = [
        Point::new(200.0, 300.0),
        Point::new(700.0, 200.0),
        Point::new(500.0, 800.0),
    ];
    c.bench_function("skyline/euclidean_bbs_20k_3q", |b| {
        b.iter(|| black_box(multi_source_euclidean_skyline(&tree, &qs).len()))
    });
}

fn bench_storage(c: &mut Criterion) {
    let net = ca_like(5);
    let store = NetworkStore::build(&net);
    c.bench_function("storage/adjacency_read", |b| {
        let mut rec = rn_storage::AdjRecord::default();
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 911) % net.node_count() as u32;
            store.read_adjacency_into(rn_graph::NodeId(i), &mut rec);
            black_box(rec.entries.len())
        })
    });
    // A middle-layer probe per wavefront-crossed edge.
    let objects = generate_objects(&net, 0.5, 1);
    let mid = MiddleLayer::build(&net, &objects);
    c.bench_function("storage/midlayer_probe", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 389) % net.edge_count() as u32;
            black_box(mid.objects_on_edge(EdgeId(i)).len())
        })
    });
    let _ = NetPosition::new(EdgeId(0), 0.0);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_rtree, bench_bptree, bench_shortest_paths, bench_skyline, bench_storage
}
criterion_main!(benches);

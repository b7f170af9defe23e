//! Continental-scale storage benchmark (ISSUE 9), emitting `BENCH_9.json`.
//!
//! Three measurements back the sharded-pool / readahead / stream-build
//! claims of DESIGN.md §16:
//!
//! 1. **CA sweep** — one deterministic single-worker batch per
//!    `(pool size, shard count, readahead depth)` cell, all through one
//!    shared pool of that shape. With readahead off the demand-fault
//!    counts are deterministic and pinned by the bench gate; with it on,
//!    the prefetch counters show how many demand faults the Hilbert-run
//!    staging absorbed. Skylines are digest-checked identical across
//!    every cell.
//! 2. **Multi-session** — the same batch at 1/2/8 workers, private cold
//!    sessions (the deterministic paper mode) vs one shared sharded pool
//!    (the measured concurrent mode). Shared demand faults are *measured*,
//!    not modeled: exact in aggregate, scheduling-dependent per query.
//!    Wall-clock cells with more workers than host cores are flagged
//!    oversubscribed, as everywhere else in this harness.
//! 3. **Continental** — stream-builds the 1,048,576-node preset under its
//!    staging budget (`rn_workload::stream_build`) and runs a
//!    multi-source Dijkstra sweep over it per pool shape, digest-checking
//!    that storage shape never changes the distances.
//!
//! The continental build is opt-in (`experiments -- scale`, or
//! `experiments -- scale-smoke` for the 262,144-node CI variant) and not
//! part of the no-args everything run.

use crate::harness::{build_engine, io_ms, print_header, seed_count, Setting};
use msq_core::{Algorithm, BatchEngine, SkylineEngine, SkylineResult};
use rn_graph::{NetPosition, NodeId};
use rn_storage::{AdjRecord, IoSnapshot, NetworkStore, PoolConfig};
use rn_workload::{generate_queries, stream_build, Preset, StreamBuildReport, StreamNetConfig};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Buffer-pool sizes swept on CA, in KB (16 and 256 frames).
pub const POOL_KB: [usize; 2] = [64, 1024];
/// Shard counts swept.
pub const SHARD_COUNTS: [usize; 2] = [1, 4];
/// Readahead depths swept.
pub const READAHEAD_DEPTHS: [usize; 2] = [0, 4];
/// Worker counts for the multi-session comparison.
pub const SESSION_WORKERS: [usize; 3] = [1, 2, 8];

/// One CA-sweep cell: a single-worker batch through one pool shape.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Stable selector id, e.g. `p64-s4-r0`.
    pub id: String,
    /// Pool size in KB.
    pub pool_kb: usize,
    /// Shard count.
    pub shards: usize,
    /// Readahead depth.
    pub readahead: usize,
    /// Aggregate I/O of the batch through this pool.
    pub io: IoSnapshot,
    /// Wall-clock, milliseconds (host-dependent, never gated).
    pub wall_ms: f64,
}

/// One multi-session cell: private cold sessions vs a shared pool.
#[derive(Clone, Debug)]
pub struct SessionCell {
    /// Stable selector id, e.g. `shared-r4-w2`.
    pub id: String,
    /// `"private"` or `"shared"`.
    pub mode: &'static str,
    /// Worker count.
    pub workers: usize,
    /// Shard count (1 for private mode — each session is its own pool).
    pub shards: usize,
    /// Readahead depth.
    pub readahead: usize,
    /// More workers than host cores: the wall cell is not a scaling
    /// signal on this host.
    pub oversubscribed: bool,
    /// Aggregate I/O of the batch.
    pub io: IoSnapshot,
    /// Wall-clock, milliseconds.
    pub wall_ms: f64,
}

/// One continental query cell: a Dijkstra sweep through one pool shape.
#[derive(Clone, Debug)]
pub struct ScaleQueryCell {
    /// Stable selector id, e.g. `s4-r8`.
    pub id: String,
    /// Shard count.
    pub shards: usize,
    /// Readahead depth.
    pub readahead: usize,
    /// Pool size in KB.
    pub pool_kb: usize,
    /// Nodes settled by the sweep.
    pub settled: usize,
    /// Order-sensitive digest over `(node, distance-bits)` of every
    /// settled node — bitwise identical across pool shapes or the bench
    /// aborts.
    pub digest: u64,
    /// I/O of the sweep.
    pub io: IoSnapshot,
    /// Wall-clock, milliseconds.
    pub wall_ms: f64,
}

/// splitmix64 finaliser, used for result digests.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An order-sensitive digest of every skyline point and distance vector
/// in a batch — two batches digest equal iff they are bitwise identical.
pub fn skyline_digest(results: &[SkylineResult]) -> u64 {
    let mut h = 0u64;
    for r in results {
        for p in &r.skyline {
            h = mix64(h ^ u64::from(p.object.0));
            for &d in &p.vector {
                h = mix64(h ^ d.to_bits());
            }
        }
    }
    h
}

/// Runs the single-worker CA sweep over every pool shape. Returns the
/// cells plus the (asserted-common) skyline digest.
///
/// # Panics
/// Panics if any pool shape changes any skyline bit.
pub fn ca_sweep(engine: &SkylineEngine, batch: &[Vec<NetPosition>]) -> (Vec<SweepCell>, u64) {
    let be = BatchEngine::new(engine, 1);
    let mut cells = Vec::new();
    let mut digest: Option<u64> = None;
    for &pool_kb in &POOL_KB {
        for &shards in &SHARD_COUNTS {
            for &readahead in &READAHEAD_DEPTHS {
                let config = PoolConfig {
                    buffer_bytes: pool_kb * 1024,
                    shards,
                    readahead,
                };
                let out = be.run_shared(Algorithm::Lbc, batch, config);
                let d = skyline_digest(&out.results);
                match digest {
                    None => digest = Some(d),
                    Some(want) => assert_eq!(
                        d, want,
                        "pool shape p{pool_kb}-s{shards}-r{readahead} changed a skyline bit"
                    ),
                }
                cells.push(SweepCell {
                    id: format!("p{pool_kb}-s{shards}-r{readahead}"),
                    pool_kb,
                    shards,
                    readahead,
                    io: out.io,
                    wall_ms: out.wall.as_secs_f64() * 1e3,
                });
            }
        }
    }
    (cells, digest.expect("sweep is non-empty"))
}

/// Runs the private-vs-shared multi-session comparison at
/// [`SESSION_WORKERS`] worker counts.
///
/// # Panics
/// Panics if any mode or worker count changes any skyline bit.
pub fn multi_session(
    engine: &SkylineEngine,
    batch: &[Vec<NetPosition>],
    want_digest: u64,
    host_cores: usize,
) -> Vec<SessionCell> {
    let shared = |readahead: usize| PoolConfig {
        buffer_bytes: 1 << 20,
        shards: 4,
        readahead,
    };
    let mut cells = Vec::new();
    for &w in &SESSION_WORKERS {
        let be = BatchEngine::new(engine, w);
        let private = be.run(Algorithm::Lbc, batch);
        assert_eq!(
            skyline_digest(&private.results),
            want_digest,
            "private sessions at {w} workers changed a skyline bit"
        );
        cells.push(SessionCell {
            id: format!("private-w{w}"),
            mode: "private",
            workers: w,
            shards: 1,
            readahead: 0,
            oversubscribed: w > host_cores,
            io: private.io,
            wall_ms: private.wall.as_secs_f64() * 1e3,
        });
        for readahead in [0usize, 4] {
            let out = be.run_shared(Algorithm::Lbc, batch, shared(readahead));
            assert_eq!(
                skyline_digest(&out.results),
                want_digest,
                "shared pool (r{readahead}) at {w} workers changed a skyline bit"
            );
            cells.push(SessionCell {
                id: format!("shared-r{readahead}-w{w}"),
                mode: "shared",
                workers: w,
                shards: 4,
                readahead,
                oversubscribed: w > host_cores,
                io: out.io,
                wall_ms: out.wall.as_secs_f64() * 1e3,
            });
        }
    }
    cells
}

/// Multi-source Dijkstra over a store session: settles up to `cap` nodes
/// from `sources` and returns `(settled, digest)` where the digest folds
/// every settled `(node, distance-bits)` pair in settle order. The heap
/// is keyed by `f64::to_bits` — order-isomorphic to the distances
/// themselves for the non-negative finite lengths a network produces —
/// with the node id as a deterministic tie-break.
pub fn multi_source_sweep(store: &NetworkStore, sources: &[NodeId], cap: usize) -> (usize, u64) {
    let n = store.node_count();
    let mut dist = vec![f64::INFINITY; n];
    let mut done = vec![false; n];
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::new();
    for &s in sources {
        dist[s.idx()] = 0.0;
        heap.push(Reverse((0, s.0)));
    }
    let mut rec = AdjRecord::default();
    let mut settled = 0usize;
    let mut digest = 0u64;
    while let Some(Reverse((dbits, u))) = heap.pop() {
        let ui = u as usize;
        if done[ui] {
            continue;
        }
        done[ui] = true;
        let d = f64::from_bits(dbits);
        settled += 1;
        digest = mix64(digest ^ u64::from(u) ^ dbits);
        if settled >= cap {
            break;
        }
        store.read_adjacency_into(NodeId(u), &mut rec);
        for e in &rec.entries {
            let nd = d + e.length;
            if nd < dist[e.node.idx()] {
                dist[e.node.idx()] = nd;
                heap.push(Reverse((nd.to_bits(), e.node.0)));
            }
        }
    }
    (settled, digest)
}

/// Stream-builds `config` and runs the Dijkstra sweep through each pool
/// shape. Returns the build report, build wall-clock (ms) and the query
/// cells.
///
/// # Panics
/// Panics when the build exceeds its staging budget or a pool shape
/// changes a distance bit.
pub fn continental_run(
    config: &StreamNetConfig,
    pool_kb: usize,
    cap: usize,
) -> (StreamBuildReport, f64, Vec<ScaleQueryCell>) {
    let t0 = Instant::now();
    let (store, report) = stream_build(config, PoolConfig::default())
        .expect("stream build within its staging budget");
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let n = store.node_count() as u32;
    let sources = [NodeId(0), NodeId(n / 3), NodeId(2 * n / 3), NodeId(n - 1)];
    let mut cells = Vec::new();
    let mut digest: Option<(usize, u64)> = None;
    for (shards, readahead) in [(1usize, 0usize), (4, 0), (4, 8)] {
        let session = store.session_with_config(PoolConfig {
            buffer_bytes: pool_kb * 1024,
            shards,
            readahead,
        });
        let t = Instant::now();
        let (settled, d) = multi_source_sweep(&session, &sources, cap);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        match digest {
            None => digest = Some((settled, d)),
            Some(want) => assert_eq!(
                (settled, d),
                want,
                "pool shape s{shards}-r{readahead} changed a distance bit"
            ),
        }
        cells.push(ScaleQueryCell {
            id: format!("s{shards}-r{readahead}"),
            shards,
            readahead,
            pool_kb,
            settled,
            digest: d,
            io: session.stats().snapshot(),
            wall_ms,
        });
    }
    (report, build_ms, cells)
}

/// Runs the full scale benchmark, prints the tables, and writes
/// `BENCH_9.json` into the working directory.
pub fn scale_report() {
    let setting = Setting {
        preset: Preset::Ca,
        omega: 0.5,
        nq: 4,
    };
    let engine = build_engine(&setting);
    let nsets = (8 * seed_count() as usize).max(8);
    let batch: Vec<Vec<NetPosition>> = (0..nsets)
        .map(|i| generate_queries(engine.network(), setting.nq, 0.316, 1000 + i as u64))
        .collect();
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let (sweep_cells, digest) = ca_sweep(&engine, &batch);
    let session_cells = multi_session(&engine, &batch, digest, host_cores);
    let cont = StreamNetConfig::continental();
    let (report, build_ms, query_cells) = continental_run(&cont, 4096, 200_000);

    print_header(
        &format!(
            "S1  CA demand faults by pool shape (LBC, {nsets} query sets, 1 worker, shared pool)"
        ),
        &[
            "pool_kb",
            "shards",
            "readahead",
            "faults",
            "pf_hits",
            "pf_waste",
        ],
    );
    for c in &sweep_cells {
        println!(
            "{:>12} | {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
            c.id,
            c.pool_kb,
            c.shards,
            c.readahead,
            c.io.faults,
            c.io.prefetch_hits,
            c.io.prefetch_wasted
        );
    }
    print_header(
        "S2  multi-session demand faults, private cold sessions vs shared sharded pool",
        &["workers", "faults", "pf_hits", "wall_ms"],
    );
    for c in &session_cells {
        let wall = if c.oversubscribed {
            "-".to_string()
        } else {
            format!("{:.2}", c.wall_ms)
        };
        println!(
            "{:>12} | {:>12} {:>12} {:>12} {:>12}",
            c.id, c.workers, c.io.faults, c.io.prefetch_hits, wall
        );
    }
    print_header(
        &format!(
            "S3  continental sweep ({} nodes, {} pages, build {:.0} ms, staging peak {} / budget {} bytes)",
            report.nodes,
            report.pages,
            build_ms,
            report.peak_staging_bytes,
            budget_label(report.budget_bytes)
        ),
        &["settled", "faults", "pf_hits", "wall_ms"],
    );
    for c in &query_cells {
        println!(
            "{:>12} | {:>12} {:>12} {:>12} {:>12.2}",
            c.id, c.settled, c.io.faults, c.io.prefetch_hits, c.wall_ms
        );
    }

    let json = render_json(
        &sweep_cells,
        &session_cells,
        &report,
        build_ms,
        &query_cells,
        nsets,
        host_cores,
    );
    let path = "BENCH_9.json";
    crate::report::write_report(path, &json);
}

/// The staging budget as a printable number (`"none"` when unbounded).
fn budget_label(budget: Option<usize>) -> String {
    budget.map_or_else(|| "none".to_string(), |b| b.to_string())
}

/// The CI smoke variant: stream-builds the 262,144-node preset under its
/// 8 MB staging budget and digest-checks a 50k-node sweep across pool
/// shapes. Prints a summary; writes nothing.
pub fn scale_smoke() {
    let cfg = StreamNetConfig::scale_smoke();
    let (report, build_ms, cells) = continental_run(&cfg, 1024, 50_000);
    println!(
        "scale-smoke: {} nodes / {} edges / {} pages stream-built in {:.0} ms, \
         staging peak {} of {} budget bytes, {} runs",
        report.nodes,
        report.edges,
        report.pages,
        build_ms,
        report.peak_staging_bytes,
        budget_label(report.budget_bytes),
        report.runs
    );
    for c in &cells {
        println!(
            "scale-smoke: {} settled={} faults={} prefetch_hits={} digest={:#018x}",
            c.id, c.settled, c.io.faults, c.io.prefetch_hits, c.digest
        );
    }
    println!("scale-smoke: ok");
}

/// Hand-rolled JSON (the in-tree serde shim is a no-op facade).
#[allow(clippy::too_many_arguments)]
fn render_json(
    sweep: &[SweepCell],
    sessions: &[SessionCell],
    report: &StreamBuildReport,
    build_ms: f64,
    queries: &[ScaleQueryCell],
    nsets: usize,
    host_cores: usize,
) -> String {
    let io = |s: &IoSnapshot| {
        format!(
            "\"logical\": {}, \"demand_faults\": {}, \"cold_faults\": {}, \"warm_faults\": {}, \
             \"prefetch_issued\": {}, \"prefetch_hits\": {}, \"prefetch_wasted\": {}",
            s.logical,
            s.faults,
            s.cold_faults,
            s.warm_faults,
            s.prefetch_issued,
            s.prefetch_hits,
            s.prefetch_wasted
        )
    };
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"scale\",\n");
    out.push_str("  \"preset\": \"CA + continental stream\",\n");
    out.push_str(&format!("  \"query_sets\": {nsets},\n"));
    out.push_str(&format!("  \"io_ms\": {},\n", io_ms()));
    out.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    out.push_str(
        "  \"note\": \"ca_sweep cells are single-worker batches through one shared pool per shape: with readahead off their demand_faults are deterministic (gated, tolerance 0); multi_session shared cells are measured aggregates whose per-query split depends on scheduling; wall_ms is host wall-clock and never gated; every cell's skylines / distances are digest-checked bitwise identical before this file is written\",\n",
    );
    out.push_str("  \"ca_sweep\": [\n");
    for (i, c) in sweep.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"pool_kb\": {}, \"shards\": {}, \"readahead\": {}, \"workers\": 1, {}, \"wall_ms\": {:.3}}}{}\n",
            c.id,
            c.pool_kb,
            c.shards,
            c.readahead,
            io(&c.io),
            c.wall_ms,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"multi_session\": [\n");
    for (i, c) in sessions.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"mode\": \"{}\", \"workers\": {}, \"shards\": {}, \"readahead\": {}, \"oversubscribed\": {}, {}, \"wall_ms\": {:.3}}}{}\n",
            c.id,
            c.mode,
            c.workers,
            c.shards,
            c.readahead,
            c.oversubscribed,
            io(&c.io),
            c.wall_ms,
            if i + 1 < sessions.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"continental\": {\n");
    out.push_str(&format!("    \"nodes\": {},\n", report.nodes));
    out.push_str(&format!("    \"edges\": {},\n", report.edges));
    out.push_str(&format!("    \"pages\": {},\n", report.pages));
    out.push_str(&format!("    \"runs\": {},\n", report.runs));
    out.push_str(&format!(
        "    \"scratch_pages\": {},\n",
        report.scratch_pages
    ));
    out.push_str(&format!(
        "    \"peak_staging_bytes\": {},\n",
        report.peak_staging_bytes
    ));
    out.push_str(&format!(
        "    \"budget_bytes\": {},\n",
        report
            .budget_bytes
            .map_or("null".to_string(), |b| b.to_string())
    ));
    out.push_str(&format!("    \"build_ms\": {build_ms:.3},\n"));
    out.push_str("    \"queries\": [\n");
    for (i, c) in queries.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"id\": \"{}\", \"shards\": {}, \"readahead\": {}, \"pool_kb\": {}, \"settled\": {}, \"digest\": \"{:#018x}\", {}, \"wall_ms\": {:.3}}}{}\n",
            c.id,
            c.shards,
            c.readahead,
            c.pool_kb,
            c.settled,
            c.digest,
            io(&c.io),
            c.wall_ms,
            if i + 1 < queries.len() { "," } else { "" }
        ));
    }
    out.push_str("    ]\n");
    out.push_str("  }\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_digest_is_storage_shape_invariant() {
        // A small streamed grid: the Dijkstra digest must not depend on
        // pool size, shard count or readahead depth.
        let cfg = StreamNetConfig {
            chunk_nodes: 200,
            budget_bytes: None,
            ..StreamNetConfig::continental().with_grid(24, 18)
        };
        let (store, _) = stream_build(&cfg, PoolConfig::default()).expect("unbudgeted build");
        let sources = [NodeId(0), NodeId(431)];
        let mut want: Option<(usize, u64)> = None;
        for (bytes, shards, ra) in [(1 << 14, 1, 0), (1 << 20, 4, 0), (1 << 14, 4, 8)] {
            let session = store.session_with_config(PoolConfig {
                buffer_bytes: bytes,
                shards,
                readahead: ra,
            });
            let got = multi_source_sweep(&session, &sources, usize::MAX);
            assert_eq!(got.0, store.node_count(), "grid is connected");
            match want {
                None => want = Some(got),
                Some(w) => assert_eq!(got, w),
            }
        }
    }

    #[test]
    fn shared_batches_match_private_skylines_with_fewer_faults() {
        let setting = Setting {
            preset: Preset::Ca,
            omega: 0.3,
            nq: 4,
        };
        let engine = build_engine(&setting);
        let batch: Vec<Vec<NetPosition>> = (0..4)
            .map(|i| generate_queries(engine.network(), setting.nq, 0.316, 3000 + i as u64))
            .collect();
        let be = BatchEngine::new(&engine, 1);
        let private = be.run(Algorithm::Lbc, &batch);
        let shared = be.run_shared(
            Algorithm::Lbc,
            &batch,
            PoolConfig {
                buffer_bytes: 1 << 20,
                shards: 4,
                readahead: 0,
            },
        );
        assert_eq!(
            skyline_digest(&private.results),
            skyline_digest(&shared.results)
        );
        // Shared sessions reuse each other's pages: the batch can never
        // fault more than cold private sessions do in total.
        assert!(shared.io.faults <= private.io.faults);
        assert!(shared.io.faults > 0);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let io = IoSnapshot {
            logical: 10,
            faults: 4,
            cold_faults: 3,
            warm_faults: 1,
            ..IoSnapshot::default()
        };
        let sweep = vec![SweepCell {
            id: "p64-s1-r0".into(),
            pool_kb: 64,
            shards: 1,
            readahead: 0,
            io,
            wall_ms: 1.0,
        }];
        let sessions = vec![SessionCell {
            id: "private-w1".into(),
            mode: "private",
            workers: 1,
            shards: 1,
            readahead: 0,
            oversubscribed: false,
            io,
            wall_ms: 1.0,
        }];
        let report = StreamBuildReport {
            nodes: 4,
            edges: 5,
            pages: 1,
            runs: 1,
            scratch_pages: 1,
            peak_staging_bytes: 4096,
            budget_bytes: Some(8192),
        };
        let queries = vec![ScaleQueryCell {
            id: "s1-r0".into(),
            shards: 1,
            readahead: 0,
            pool_kb: 1024,
            settled: 4,
            digest: 7,
            io,
            wall_ms: 1.0,
        }];
        let j = render_json(&sweep, &sessions, &report, 12.0, &queries, 8, 1);
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"id\": \"p64-s1-r0\""));
        assert!(j.contains("\"demand_faults\": 4"));
        assert!(j.contains("\"budget_bytes\": 8192"));
    }
}

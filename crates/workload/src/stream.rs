//! Stream-building continental-scale networks straight onto pages
//! (DESIGN.md §16).
//!
//! [`generate_network`](crate::generate_network) materialises the whole
//! graph — jittered points, a shuffled candidate list, a union-find, the
//! full edge vector — before [`rn_storage::NetworkStore`] serialises it.
//! That is fine at CA/AU/NA scale and hopeless at a million nodes. This
//! module builds the page image **directly**, with bounded staging
//! memory, from a network that exists only as a pure function:
//!
//! * junctions sit on a `cols x rows` grid over the paper's evaluation
//!   square, jittered by a [splitmix-style](https://doi.org/10.1145/2714064.2660195)
//!   hash of `(seed, node)`, so any node's coordinates can be recomputed
//!   anywhere without a table;
//! * every node owns up to three edges — right, up, and (by a hash coin)
//!   the up-right diagonal — so the grid is connected by construction and
//!   edge ids (`node * 3 + direction`) never collide;
//! * edge lengths stretch the chord by a deterministic per-edge factor,
//!   the δ = d_N/d_E knob of [`NetGenConfig`](crate::NetGenConfig).
//!
//! The build is a textbook external sort: chunks of `(hilbert key, node)`
//! pairs are sorted in RAM and spilled as 12-byte records onto 4 KB
//! scratch pages, then k-way merged; each node that leaves the merge has
//! its adjacency recomputed from the pure functions and appended through
//! [`StoreBuilder`]. Staging memory is therefore one chunk buffer plus
//! one 4 KB page per run plus the node directory — never the full
//! adjacency — and the peak is metered and (optionally) enforced against
//! a budget. Pages come out in Hilbert order, the same clustering
//! [`NetworkStore::build`] gives an in-memory network.

use rn_geom::{Mbr, Point};
use rn_graph::hilbert::hilbert_value;
use rn_graph::normalize::REGION_SIDE;
use rn_graph::{EdgeId, NodeId};
use rn_storage::page::Disk;
use rn_storage::{AdjEntry, NetworkStore, PageId, PoolConfig, StoreBuilder, PAGE_SIZE};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bytes of one spilled sort record: `(hilbert key: u64, node: u32)` —
/// 341 records per 4 KB scratch page.
const SPILL_REC: usize = 12;

/// A streamed grid network, defined entirely by this config — nodes and
/// edges are pure functions of `(config, node id)`.
#[derive(Clone, Debug)]
pub struct StreamNetConfig {
    /// Grid columns.
    pub cols: usize,
    /// Grid rows.
    pub rows: usize,
    /// Seed for every per-node / per-edge hash.
    pub seed: u64,
    /// Junction jitter as a fraction of the cell size (`0.0..1.0`).
    pub jitter: f64,
    /// Probability that a cell gains its up-right diagonal edge.
    pub diagonal_prob: f64,
    /// Probability that an edge is a detour (longer than its chord).
    pub detour_prob: f64,
    /// Maximum stretch factor for detoured edges (`>= 1.0`).
    pub max_stretch: f64,
    /// Nodes sorted per in-memory chunk before spilling a run.
    pub chunk_nodes: usize,
    /// Optional cap on peak staging bytes; the build returns
    /// [`BudgetExceeded`] if the external sort would exceed it. `None`
    /// means metered but unchecked.
    pub budget_bytes: Option<usize>,
}

impl StreamNetConfig {
    /// Number of junctions this configuration produces.
    pub fn node_count(&self) -> usize {
        self.cols * self.rows
    }

    /// The continental preset: a 1024 x 1024 grid — 1,048,576 junctions,
    /// ~2.6 M edges — built under a 32 MB staging budget (the 8 MB node
    /// directory is the irreducible floor; the budget's headroom covers
    /// the chunk buffer and merge cursors).
    pub fn continental() -> Self {
        StreamNetConfig {
            cols: 1024,
            rows: 1024,
            seed: 0x9e0c_2007,
            jitter: 0.35,
            diagonal_prob: 0.25,
            detour_prob: 0.3,
            max_stretch: 1.5,
            chunk_nodes: 1 << 16,
            budget_bytes: Some(32 << 20),
        }
    }

    /// The CI smoke preset: 512 x 512 (262,144 junctions) under an 8 MB
    /// staging budget — small enough for a smoke step, large enough that
    /// a regression back to materialise-everything would blow the cap.
    pub fn scale_smoke() -> Self {
        StreamNetConfig {
            chunk_nodes: 1 << 15,
            budget_bytes: Some(8 << 20),
            ..Self::continental().with_grid(512, 512)
        }
    }

    /// Returns the config with a different grid shape.
    pub fn with_grid(mut self, cols: usize, rows: usize) -> Self {
        self.cols = cols;
        self.rows = rows;
        self
    }
}

/// What [`stream_build`] did: exact sizes plus the metered staging peak,
/// so benches and CI can report the bounded-memory claim as a measurement
/// instead of an assertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamBuildReport {
    /// Junctions emitted.
    pub nodes: usize,
    /// Distinct edges (each counted once, at its owning node).
    pub edges: usize,
    /// 4 KB pages of the finished network store.
    pub pages: usize,
    /// Sorted runs spilled by the external sort.
    pub runs: usize,
    /// 4 KB scratch pages the runs occupied.
    pub scratch_pages: usize,
    /// Peak staging bytes across both phases: chunk buffer + spill page
    /// while sorting, run cursors + node directory + in-flight page while
    /// merging. The simulated disk images (scratch and final) are the
    /// modelled disk, not staging, and are excluded — same accounting as
    /// everywhere else in this repo.
    pub peak_staging_bytes: usize,
    /// The enforced budget, if any.
    pub budget_bytes: Option<usize>,
}

/// A [`stream_build`] phase would stage more bytes than
/// [`StreamNetConfig::budget_bytes`] allows; the build stops before it
/// allocates them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The phase that would overrun: `"external-sort chunk"` or
    /// `"run merge"`.
    pub phase: &'static str,
    /// Staging bytes the phase needs.
    pub staged: usize,
    /// The configured budget.
    pub budget: usize,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} needs {} staging bytes, over the {}-byte budget; \
             lower chunk_nodes or raise the budget",
            self.phase, self.staged, self.budget
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Builds the network described by `config` straight into a
/// [`NetworkStore`] with pool shape `pool`, via the bounded-memory
/// external sort described in the module docs.
///
/// # Errors
/// [`BudgetExceeded`] when `config.budget_bytes` is set and a phase's
/// staging would exceed it.
///
/// # Panics
/// Panics when the grid is degenerate (fewer than 2x2 junctions) or when
/// `chunk_nodes` is zero.
pub fn stream_build(
    config: &StreamNetConfig,
    pool: PoolConfig,
) -> Result<(NetworkStore, StreamBuildReport), BudgetExceeded> {
    assert!(
        config.cols >= 2 && config.rows >= 2,
        "grid must be at least 2x2"
    );
    assert!(config.chunk_nodes > 0, "chunk_nodes must be positive");
    let n = config.node_count();
    let bounds = Mbr::new(Point::new(0.0, 0.0), Point::new(REGION_SIDE, REGION_SIDE));

    // Phase 1 — sort chunks of (hilbert key, node) and spill runs onto
    // 4 KB scratch pages. Staging: one chunk buffer + one page buffer.
    let chunk = config.chunk_nodes.min(n);
    let mut peak = chunk * SPILL_REC + PAGE_SIZE;
    enforce_budget(config, peak, "external-sort chunk")?;
    let mut scratch = Disk::new();
    let mut runs: Vec<RunCursor> = Vec::new();
    let mut keys: Vec<(u64, u32)> = Vec::with_capacity(chunk);
    let mut spill = BytesMut::with_capacity(PAGE_SIZE);
    let mut start = 0usize;
    while start < n {
        let end = (start + chunk).min(n);
        keys.clear();
        for id in start..end {
            let key = hilbert_value(node_point(config, id as u32), &bounds);
            keys.push((key, id as u32));
        }
        keys.sort_unstable();
        let first_page = scratch.page_count() as u32;
        for &(key, id) in &keys {
            spill.put_u64_le(key);
            spill.put_u32_le(id);
            if spill.len() + SPILL_REC > PAGE_SIZE {
                scratch.append(spill.split().freeze());
            }
        }
        if !spill.is_empty() {
            scratch.append(spill.split().freeze());
        }
        runs.push(RunCursor::new(first_page, keys.len()));
        start = end;
    }
    drop(keys);
    drop(spill);

    // Phase 2 — k-way merge the runs; each node leaving the merge has its
    // adjacency recomputed from the pure functions and appended through
    // the store builder. Staging: one 4 KB cursor page per run, the merge
    // heap, the node directory and the builder's in-flight page.
    let mut builder = StoreBuilder::new(n, pool);
    let merge_staging = runs.len() * (PAGE_SIZE + std::mem::size_of::<RunCursor>())
        + runs.len() * std::mem::size_of::<Reverse<(u64, u32, usize)>>()
        + builder.staged_bytes();
    peak = peak.max(merge_staging);
    enforce_budget(config, merge_staging, "run merge")?;

    let mut heap: BinaryHeap<Reverse<(u64, u32, usize)>> = BinaryHeap::with_capacity(runs.len());
    for (ri, run) in runs.iter_mut().enumerate() {
        if let Some((key, id)) = run.next(&scratch) {
            heap.push(Reverse((key, id, ri)));
        }
    }
    let mut entries: Vec<AdjEntry> = Vec::with_capacity(6);
    let mut edges = 0usize;
    let mut emitted = 0usize;
    let mut prev_key = 0u64;
    while let Some(Reverse((key, id, ri))) = heap.pop() {
        debug_assert!(key >= prev_key, "merge must emit keys in order");
        prev_key = key;
        edges += owned_edge_count(config, id);
        adjacency(config, id, &mut entries);
        builder.push_record(NodeId(id), node_point(config, id), &entries);
        emitted += 1;
        if let Some((key, id)) = runs[ri].next(&scratch) {
            heap.push(Reverse((key, id, ri)));
        }
    }
    debug_assert_eq!(emitted, n, "every node leaves the merge exactly once");

    let report = StreamBuildReport {
        nodes: n,
        edges,
        pages: builder.page_count(),
        runs: runs.len(),
        scratch_pages: scratch.page_count(),
        peak_staging_bytes: peak,
        budget_bytes: config.budget_bytes,
    };
    Ok((builder.finish(), report))
}

fn enforce_budget(
    config: &StreamNetConfig,
    staged: usize,
    phase: &'static str,
) -> Result<(), BudgetExceeded> {
    match config.budget_bytes {
        Some(budget) if staged > budget => Err(BudgetExceeded {
            phase,
            staged,
            budget,
        }),
        _ => Ok(()),
    }
}

/// One spilled run being consumed page-at-a-time: only a single 4 KB page
/// of each run is ever resident during the merge.
struct RunCursor {
    next_page: u32,
    remaining: usize,
    buf: Bytes,
    pos: usize,
}

impl RunCursor {
    fn new(first_page: u32, records: usize) -> Self {
        RunCursor {
            next_page: first_page,
            remaining: records,
            buf: Bytes::new(),
            pos: 0,
        }
    }

    fn next(&mut self, scratch: &Disk) -> Option<(u64, u32)> {
        if self.remaining == 0 {
            return None;
        }
        if self.pos + SPILL_REC > self.buf.len() {
            self.buf = scratch.read(PageId(self.next_page));
            self.next_page += 1;
            self.pos = 0;
        }
        let mut cur = &self.buf[self.pos..];
        let key = cur.get_u64_le();
        let id = cur.get_u32_le();
        self.pos += SPILL_REC;
        self.remaining -= 1;
        Some((key, id))
    }
}

// ---- the network as a pure function of (config, node id) ----

/// splitmix64 finaliser — the same mixer the sharded pool uses.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A uniform draw in `[0, 1)` from `(seed, node-or-edge, salt)`.
fn unit(config: &StreamNetConfig, id: u32, salt: u64) -> f64 {
    let h = mix(config.seed ^ (u64::from(id) << 3) ^ salt);
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Edge directions a node can own, also the low factor of its edge ids.
const DIR_RIGHT: u32 = 0;
const DIR_UP: u32 = 1;
const DIR_DIAG: u32 = 2;

/// The (deterministic, table-free) coordinates of node `id`.
pub fn node_point(config: &StreamNetConfig, id: u32) -> Point {
    let (r, c) = (id as usize / config.cols, id as usize % config.cols);
    let sx = REGION_SIDE / config.cols as f64;
    let sy = REGION_SIDE / config.rows as f64;
    let j = config.jitter.clamp(0.0, 0.98);
    let dx = (unit(config, id, 0xa11c_e0ff) - 0.5) * j;
    let dy = (unit(config, id, 0xb0b5_1ed5) - 0.5) * j;
    Point::new((c as f64 + 0.5 + dx) * sx, (r as f64 + 0.5 + dy) * sy)
}

/// Whether node `id` owns an edge in direction `dir`.
fn owns(config: &StreamNetConfig, id: u32, dir: u32) -> bool {
    let (r, c) = (id as usize / config.cols, id as usize % config.cols);
    match dir {
        DIR_RIGHT => c + 1 < config.cols,
        DIR_UP => r + 1 < config.rows,
        DIR_DIAG => {
            c + 1 < config.cols
                && r + 1 < config.rows
                && unit(config, id, 0xd1a6_0000) < config.diagonal_prob
        }
        _ => false,
    }
}

/// The opposite endpoint of the `dir` edge owned by `id`.
fn neighbour(config: &StreamNetConfig, id: u32, dir: u32) -> u32 {
    match dir {
        DIR_RIGHT => id + 1,
        DIR_UP => id + config.cols as u32,
        _ => id + config.cols as u32 + 1,
    }
}

/// Network length of the `dir` edge owned by `id`: the chord between the
/// jittered endpoints, stretched by the deterministic detour factor.
fn edge_length(config: &StreamNetConfig, id: u32, dir: u32) -> f64 {
    let chord = node_point(config, id).distance(&node_point(config, neighbour(config, id, dir)));
    let eid = id * 3 + dir;
    if unit(config, eid, 0xde70_0000) < config.detour_prob {
        let s = 1.0 + unit(config, eid, 0x57e7_0000) * (config.max_stretch.max(1.0) - 1.0);
        chord * s
    } else {
        chord
    }
}

/// How many edges node `id` owns — each network edge is counted exactly
/// once, at its lower-endpoint owner.
fn owned_edge_count(config: &StreamNetConfig, id: u32) -> usize {
    (0..3).filter(|&d| owns(config, id, d)).count()
}

/// Recomputes the full adjacency record of `id` into `entries`: the edges
/// it owns, then the edges owned by its left / down / down-left
/// neighbours that point at it. Pure, allocation-free after warmup.
pub fn adjacency(config: &StreamNetConfig, id: u32, entries: &mut Vec<AdjEntry>) {
    entries.clear();
    let mut push = |owner: u32, dir: u32| {
        let other = if owner == id {
            neighbour(config, owner, dir)
        } else {
            owner
        };
        entries.push(AdjEntry {
            edge: EdgeId(owner * 3 + dir),
            node: NodeId(other),
            length: edge_length(config, owner, dir),
            point: node_point(config, other),
        });
    };
    for dir in [DIR_RIGHT, DIR_UP, DIR_DIAG] {
        if owns(config, id, dir) {
            push(id, dir);
        }
    }
    let (r, c) = (id as usize / config.cols, id as usize % config.cols);
    if c > 0 && owns(config, id - 1, DIR_RIGHT) {
        push(id - 1, DIR_RIGHT);
    }
    if r > 0 {
        let below = id - config.cols as u32;
        if owns(config, below, DIR_UP) {
            push(below, DIR_UP);
        }
        if c > 0 && owns(config, below - 1, DIR_DIAG) {
            push(below - 1, DIR_DIAG);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_storage::AdjRecord;
    use std::collections::{HashMap, VecDeque};

    fn small() -> StreamNetConfig {
        StreamNetConfig {
            chunk_nodes: 100,
            budget_bytes: None,
            ..StreamNetConfig::continental().with_grid(32, 24)
        }
    }

    /// Per node: `(node id, [(edge, neighbour, length bits)])`.
    #[allow(clippy::type_complexity)]
    fn scan(store: &NetworkStore) -> Vec<(u32, Vec<(u32, u32, u64)>)> {
        let mut rec = AdjRecord::default();
        (0..store.node_count() as u32)
            .map(|i| {
                store.read_adjacency_into(NodeId(i), &mut rec);
                let entries = rec
                    .entries
                    .iter()
                    .map(|e| (e.edge.0, e.node.0, e.length.to_bits()))
                    .collect();
                (rec.node.0, entries)
            })
            .collect()
    }

    #[test]
    fn counts_are_exact_and_adjacency_is_symmetric() {
        let cfg = small();
        let (store, report) = stream_build(&cfg, PoolConfig::default()).expect("within budget");
        assert_eq!(report.nodes, 768);
        assert_eq!(store.node_count(), 768);
        // Every (edge, endpoint) pair must appear exactly twice — once in
        // each endpoint's record — with the same length.
        let mut sides: HashMap<u32, Vec<(u32, u64)>> = HashMap::new();
        let mut entry_total = 0usize;
        for (node, entries) in scan(&store) {
            for (edge, other, len) in entries {
                assert_ne!(node, other, "no self loops");
                sides.entry(edge).or_default().push((node, len));
                entry_total += 1;
            }
        }
        assert_eq!(sides.len(), report.edges);
        assert_eq!(entry_total, 2 * report.edges);
        for (edge, ends) in sides {
            assert_eq!(ends.len(), 2, "edge {edge} must have two sides");
            assert_eq!(ends[0].1, ends[1].1, "edge {edge} lengths must agree");
        }
        // Rights + ups alone connect the grid; diagonals only add edges.
        let floor = 24 * 31 + 23 * 32;
        assert!(report.edges >= floor);
    }

    #[test]
    fn the_grid_is_connected_by_construction() {
        let cfg = small();
        let (store, _) = stream_build(&cfg, PoolConfig::default()).expect("within budget");
        let n = store.node_count();
        let mut seen = vec![false; n];
        let mut queue = VecDeque::from([NodeId(0)]);
        seen[0] = true;
        let mut rec = AdjRecord::default();
        let mut visited = 1usize;
        while let Some(u) = queue.pop_front() {
            store.read_adjacency_into(u, &mut rec);
            for e in &rec.entries {
                if !seen[e.node.idx()] {
                    seen[e.node.idx()] = true;
                    visited += 1;
                    queue.push_back(e.node);
                }
            }
        }
        assert_eq!(visited, n);
    }

    #[test]
    fn chunk_size_never_changes_the_page_image() {
        let coarse = small(); // 100-node chunks -> 8 runs
        let one_run = StreamNetConfig {
            chunk_nodes: 1 << 20,
            ..small()
        };
        let (a, ra) = stream_build(&coarse, PoolConfig::default()).expect("within budget");
        let (b, rb) = stream_build(&one_run, PoolConfig::default()).expect("within budget");
        assert!(ra.runs > 1 && rb.runs == 1);
        assert_eq!(ra.pages, rb.pages);
        assert_eq!(scan(&a), scan(&b));
    }

    #[test]
    fn builds_are_deterministic_and_seeds_differ() {
        let cfg = small();
        let (a, ra) = stream_build(&cfg, PoolConfig::default()).expect("within budget");
        let (b, rb) = stream_build(&cfg, PoolConfig::default()).expect("within budget");
        assert_eq!(ra, rb);
        assert_eq!(scan(&a), scan(&b));
        let other = StreamNetConfig {
            seed: cfg.seed + 1,
            ..cfg
        };
        let (c, _) = stream_build(&other, PoolConfig::default()).expect("within budget");
        assert_ne!(scan(&a), scan(&c));
    }

    #[test]
    fn staging_peak_is_metered_and_within_budget() {
        let cfg = StreamNetConfig {
            budget_bytes: Some(1 << 20),
            ..small()
        };
        let (_, report) = stream_build(&cfg, PoolConfig::default()).expect("within budget");
        assert!(report.peak_staging_bytes > 0);
        assert!(report.peak_staging_bytes <= (1 << 20));
        assert_eq!(report.budget_bytes, Some(1 << 20));
        assert_eq!(report.runs, 8);
        assert!(report.scratch_pages >= report.runs);
    }

    #[test]
    fn an_impossible_budget_is_an_error_instead_of_swapping() {
        let cfg = StreamNetConfig {
            budget_bytes: Some(1024),
            ..small()
        };
        let err = stream_build(&cfg, PoolConfig::default()).err();
        assert!(
            matches!(
                err,
                Some(BudgetExceeded {
                    phase: "external-sort chunk",
                    staged,
                    budget: 1024,
                }) if staged > 1024
            ),
            "{err:?}"
        );
        let msg = err.map(|e| e.to_string()).unwrap_or_default();
        assert!(msg.contains("over the 1024-byte budget"), "{msg}");
    }

    #[test]
    fn presets_have_the_advertised_scale() {
        assert_eq!(StreamNetConfig::continental().node_count(), 1 << 20);
        assert_eq!(StreamNetConfig::scale_smoke().node_count(), 1 << 18);
        assert!(StreamNetConfig::continental().budget_bytes.is_some());
        assert!(StreamNetConfig::scale_smoke().budget_bytes.is_some());
    }
}

//! The clustered network store: adjacency lists on 4 KB pages.
//!
//! Following §6.1 (and Papadias et al., VLDB 2003), adjacency lists are
//! clustered on disk by spatial proximity — here via Hilbert order of the
//! node coordinates — so that a shortest-path wavefront, which visits
//! spatially contiguous nodes, faults in few pages.
//!
//! Each node record stores everything one expansion step needs:
//!
//! * the node's own coordinates (for the A* heuristic), and
//! * per incident edge: the edge id, the opposite node id, *its*
//!   coordinates and the edge length.
//!
//! Embedding the neighbour coordinates costs a few bytes per entry but
//! means an expansion never performs a second page access just to price the
//! heuristic of a frontier node — the same trade the paper's storage scheme
//! makes by keeping the network and object data linked.

use crate::fault::FaultPlan;
use crate::page::{Disk, PageId, PAGE_SIZE};
use crate::shard::{PoolConfig, ShardedPool};
use crate::stats::IoStats;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use parking_lot::Mutex;
use rn_geom::Point;
use rn_graph::{hilbert, EdgeId, NodeId, RoadNetwork};
use std::sync::Arc;

/// One adjacency entry: an incident edge and the node on its far side.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdjEntry {
    /// The incident edge.
    pub edge: EdgeId,
    /// The opposite endpoint of `edge`.
    pub node: NodeId,
    /// Network length of `edge`.
    pub length: f64,
    /// Coordinates of `node` (pre-joined to avoid a second page access).
    pub point: Point,
}

/// A decoded node record.
#[derive(Clone, Debug)]
pub struct AdjRecord {
    /// The node this record describes.
    pub node: NodeId,
    /// Its coordinates.
    pub point: Point,
    /// Incident edges. Reused across reads when the caller holds onto the
    /// record and calls [`NetworkStore::read_adjacency_into`].
    pub entries: Vec<AdjEntry>,
}

impl Default for AdjRecord {
    fn default() -> Self {
        AdjRecord {
            node: NodeId(0),
            point: Point::ORIGIN,
            entries: Vec::new(),
        }
    }
}

/// Fixed bytes per record header: node id (4) + x (8) + y (8) + degree (2).
const HEADER_BYTES: usize = 22;
/// Bytes per adjacency entry: edge (4) + node (4) + length (8) + x (8) + y (8).
const ENTRY_BYTES: usize = 32;

/// Disk-resident road network with a (sharded) LRU buffer in front.
///
/// The store is immutable after construction; the interior per-shard
/// locks guard only buffer recency state, so `&NetworkStore` can be
/// shared freely by the query algorithms — including across threads. For
/// parallel execution with *deterministic* fault counts, derive
/// per-worker [`NetworkStore::session`]s instead of sharing one pool: a
/// session shares the immutable disk image and node directory (cheap
/// `Arc` clones) but owns a private, cold buffer pool and a private
/// [`IoStats`], so its hit/fault sequence depends only on its own access
/// pattern, never on scheduling. [`NetworkStore::shared_session`] is the
/// measured-throughput alternative that deliberately shares one pool.
pub struct NetworkStore {
    disk: Arc<Disk>,
    /// Shared-by-`Arc` so [`NetworkStore::shared_session`] views can
    /// read through one common pool; private sessions get a fresh `Arc`.
    pool: Arc<ShardedPool>,
    /// Per node: page id and byte offset of its record.
    node_loc: Arc<Vec<(PageId, u16)>>,
    stats: IoStats,
    /// Pool shape this store (and its sessions) was configured with.
    config: PoolConfig,
    /// Deterministic fault schedule inherited by every derived session.
    /// Guarded separately from the pool so installing a plan never
    /// perturbs buffer recency state.
    fault_plan: Mutex<Option<FaultPlan>>,
}

/// Streaming writer that serialises node records onto pages and turns
/// them into a [`NetworkStore`] — the seam the bounded-memory external
/// build in `rn_workload` drives. Records must be appended in Hilbert
/// order (the caller owns the ordering; [`NetworkStore::with_config`]
/// sorts in RAM, the external build merge-sorts spilled runs) and each
/// node exactly once.
///
/// Only one partially-filled page plus the node directory are ever held
/// in memory; finished pages go straight to the simulated disk.
pub struct StoreBuilder {
    disk: Disk,
    node_loc: Vec<(PageId, u16)>,
    page: BytesMut,
    config: PoolConfig,
}

impl StoreBuilder {
    /// A builder for a network of `node_count` nodes with pool `config`.
    pub fn new(node_count: usize, config: PoolConfig) -> Self {
        StoreBuilder {
            disk: Disk::new(),
            node_loc: vec![(PageId(0), 0u16); node_count],
            page: BytesMut::with_capacity(PAGE_SIZE),
            config,
        }
    }

    /// Appends the record of `node` (coordinates + adjacency entries),
    /// starting a new page when the current one cannot hold it.
    ///
    /// # Panics
    /// Panics when the record exceeds one page or `node` is out of range.
    pub fn push_record(&mut self, node: NodeId, point: Point, entries: &[AdjEntry]) {
        let rec_len = HEADER_BYTES + entries.len() * ENTRY_BYTES;
        assert!(
            rec_len <= PAGE_SIZE,
            "node degree {} too large for one page",
            entries.len()
        );
        if self.page.len() + rec_len > PAGE_SIZE {
            self.disk.append(self.page.split().freeze());
        }
        self.node_loc[node.idx()] = (
            PageId(self.disk.page_count() as u32),
            self.page.len() as u16,
        );
        self.page.put_u32_le(node.0);
        self.page.put_f64_le(point.x);
        self.page.put_f64_le(point.y);
        self.page.put_u16_le(entries.len() as u16);
        for ent in entries {
            self.page.put_u32_le(ent.edge.0);
            self.page.put_u32_le(ent.node.0);
            self.page.put_f64_le(ent.length);
            self.page.put_f64_le(ent.point.x);
            self.page.put_f64_le(ent.point.y);
        }
    }

    /// Bytes of build state currently held in RAM: the node directory
    /// plus the one in-flight page. (The emitted pages live on the
    /// simulated disk and are not RAM in the model's terms.)
    pub fn staged_bytes(&self) -> usize {
        self.node_loc.capacity() * std::mem::size_of::<(PageId, u16)>() + PAGE_SIZE
    }

    /// Pages written so far (including the in-flight one if non-empty).
    pub fn page_count(&self) -> usize {
        self.disk.page_count() + usize::from(!self.page.is_empty())
    }

    /// Flushes the last page and wraps everything into a store.
    // lint: allow(lock-reach) — construction, not acquisition: the
    // `Mutex::new` here initialises the store's fault-plan slot once per
    // build; no guard is ever taken. (The name-based call graph would
    // otherwise route every hot `*.finish()` call through this fn.)
    pub fn finish(mut self) -> NetworkStore {
        if !self.page.is_empty() {
            self.disk.append(self.page.freeze());
        }
        let stats = IoStats::new();
        NetworkStore {
            disk: Arc::new(self.disk),
            pool: Arc::new(ShardedPool::new(self.config, stats.clone())),
            node_loc: Arc::new(self.node_loc),
            stats,
            config: self.config,
            fault_plan: Mutex::new(None),
        }
    }
}

impl NetworkStore {
    /// Builds a store with the paper's default 1 MB single-shard buffer.
    pub fn build(g: &RoadNetwork) -> Self {
        NetworkStore::with_config(g, PoolConfig::default())
    }

    /// Builds a store with an explicit pool shape.
    pub fn with_config(g: &RoadNetwork, config: PoolConfig) -> Self {
        let points: Vec<Point> = g.nodes().iter().map(|n| n.point).collect();
        let order = hilbert::hilbert_order(&points);

        let mut builder = StoreBuilder::new(g.node_count(), config);
        let mut entries: Vec<AdjEntry> = Vec::new();
        for &ni in &order {
            let n = NodeId(ni);
            entries.clear();
            entries.extend(g.adjacent(n).iter().map(|&(e, nb)| AdjEntry {
                edge: e,
                node: nb,
                length: g.edge(e).length,
                point: g.point(nb),
            }));
            builder.push_record(n, g.point(n), &entries);
        }
        builder.finish()
    }

    /// A private view of the same network: shared (immutable) disk image and
    /// node directory, but a fresh cold buffer pool of the same capacity and
    /// fresh I/O counters.
    ///
    /// Sessions are the unit of deterministic parallel accounting: each
    /// worker reads through its own session, so page hits and faults are a
    /// pure function of that worker's access sequence and are merged
    /// explicitly at join time.
    pub fn session(&self) -> NetworkStore {
        self.session_with_stats(IoStats::new())
    }

    /// Like [`NetworkStore::session`], but reporting into caller-supplied
    /// counters (e.g. a per-query [`IoStats`] shared with a reporter).
    // lint: allow(lock-reach) — runs once per worker at spawn, not per
    // node, and each session owns a private pool so the lock is never
    // contended (DESIGN.md §9).
    pub fn session_with_stats(&self, stats: IoStats) -> NetworkStore {
        self.derive_session(self.config, stats)
    }

    /// A private session with a *different* pool shape over the same disk
    /// image — how the scale benchmark sweeps pool size × shard count ×
    /// readahead depth without rebuilding the network for every cell.
    pub fn session_with_config(&self, config: PoolConfig) -> NetworkStore {
        self.derive_session(config, IoStats::new())
    }

    // lint: allow(lock-reach) — session derivation, once per worker.
    fn derive_session(&self, config: PoolConfig, stats: IoStats) -> NetworkStore {
        let plan = *self.fault_plan.lock();
        let pool = ShardedPool::new(config, stats.clone());
        pool.set_fault_plan(plan);
        NetworkStore {
            disk: Arc::clone(&self.disk),
            pool: Arc::new(pool),
            node_loc: Arc::clone(&self.node_loc),
            stats,
            config,
            fault_plan: Mutex::new(plan),
        }
    }

    /// A view of the same network **sharing this store's buffer pool and
    /// counters** — the measured-throughput counterpart of
    /// [`NetworkStore::session`].
    ///
    /// Shared sessions trade the determinism contract for a real
    /// concurrency measurement: with several threads reading through one
    /// pool, which thread pays a fault depends on scheduling, so
    /// *per-thread* fault splits (and the cold/warm attribution of the
    /// shared history) are not reproducible — only the aggregate is
    /// exact (every request accounted once). Query *results* are
    /// unaffected: pages are immutable. Use private sessions everywhere
    /// determinism matters; use this to measure what sharding buys.
    // lint: allow(lock-reach) — session derivation, once per worker.
    pub fn shared_session(&self) -> NetworkStore {
        NetworkStore {
            disk: Arc::clone(&self.disk),
            pool: Arc::clone(&self.pool),
            node_loc: Arc::clone(&self.node_loc),
            stats: self.stats.clone(),
            config: self.config,
            fault_plan: Mutex::new(*self.fault_plan.lock()),
        }
    }

    /// Installs (or removes) a deterministic page-read fault schedule.
    /// Applies to this store's own pool and is inherited by every
    /// session derived afterwards; existing sessions are unaffected.
    /// The schedule only ever injects *transient* errors ([`FaultPlan`]
    /// clamps consecutive failures below the retry budget), so query
    /// results are bitwise identical with or without a plan — only the
    /// injected-error/retry/backoff counters change.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.fault_plan.lock() = plan;
        self.pool.set_fault_plan(plan);
    }

    /// The fault schedule currently installed, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        *self.fault_plan.lock()
    }

    /// Number of nodes with records in the store.
    pub fn node_count(&self) -> usize {
        self.node_loc.len()
    }

    /// Number of pages the network occupies.
    pub fn page_count(&self) -> usize {
        self.disk.page_count()
    }

    /// The I/O counters this store reports into.
    pub fn stats(&self) -> &IoStats {
        &self.stats
    }

    /// The pool shape this store was configured with.
    pub fn pool_config(&self) -> PoolConfig {
        self.config
    }

    /// Empties the buffer pool — used between experiment runs so each run
    /// starts cold, as the paper's per-query page counts imply.
    pub fn clear_buffer(&self) {
        self.pool.clear();
    }

    /// Rewrites the stored length of the edges in `edges` from the current
    /// weights in `g` — the storage half of a dynamic weight update
    /// (DESIGN.md §15). Each edge appears in exactly two node records (one
    /// per endpoint), located via the node directory; only the 8-byte
    /// length field of each matching adjacency entry is patched, so node
    /// coordinates and record layout are untouched.
    ///
    /// The disk image is copy-on-write (`Arc::make_mut`): live sessions
    /// keep reading their pre-update snapshot, while this store and every
    /// session derived *afterwards* see the new weights. The store's own
    /// buffer pool is cleared so no stale page image survives; derived
    /// sessions always start cold and need no invalidation.
    pub fn apply_edge_weights(&mut self, g: &RoadNetwork, edges: &[EdgeId]) {
        if edges.is_empty() {
            return;
        }
        let disk = Arc::make_mut(&mut self.disk);
        for &e in edges {
            let edge = g.edge(e);
            for n in [edge.u, edge.v] {
                let (page_id, off) = self.node_loc[n.idx()];
                let page = disk.read(page_id);
                let rec = &page[off as usize..];
                let id = u32::from_le_bytes(rec[..4].try_into().expect("4-byte id"));
                debug_assert_eq!(id, n.0, "directory points at the wrong record");
                let deg =
                    u16::from_le_bytes(rec[20..22].try_into().expect("2-byte degree")) as usize;
                let base = off as usize + HEADER_BYTES;
                let slot = (0..deg)
                    .find(|i| {
                        let at = HEADER_BYTES + i * ENTRY_BYTES;
                        u32::from_le_bytes(rec[at..at + 4].try_into().expect("4-byte edge id"))
                            == e.0
                    })
                    .expect("edge missing from its endpoint's adjacency record");
                disk.patch(
                    page_id,
                    base + slot * ENTRY_BYTES + 8,
                    &edge.length.to_le_bytes(),
                );
            }
        }
        self.pool.clear();
    }

    /// Reads the record of node `n` (allocating a fresh record).
    pub fn read_adjacency(&self, n: NodeId) -> AdjRecord {
        let mut rec = AdjRecord::default();
        self.read_adjacency_into(n, &mut rec);
        rec
    }

    /// Reads the record of node `n` into `out`, reusing its buffers.
    ///
    /// This is the *only* data path from the algorithms to the network:
    /// every call performs one counted page request. The per-shard lock
    /// lives inside [`ShardedPool::get`], which blesses the seam.
    pub fn read_adjacency_into(&self, n: NodeId, out: &mut AdjRecord) {
        let (page_id, off) = self.node_loc[n.idx()];
        let page: Bytes = self.pool.get(&self.disk, page_id);
        let mut cur = &page[off as usize..];
        let id = cur.get_u32_le();
        debug_assert_eq!(id, n.0, "directory points at the wrong record");
        out.node = NodeId(id);
        out.point = Point::new(cur.get_f64_le(), cur.get_f64_le());
        let deg = cur.get_u16_le() as usize;
        out.entries.clear();
        out.entries.reserve(deg);
        for _ in 0..deg {
            let edge = EdgeId(cur.get_u32_le());
            let node = NodeId(cur.get_u32_le());
            let length = cur.get_f64_le();
            let point = Point::new(cur.get_f64_le(), cur.get_f64_le());
            out.entries.push(AdjEntry {
                edge,
                node,
                length,
                point,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DEFAULT_BUFFER_BYTES;
    use rn_graph::NetworkBuilder;

    fn grid(n: usize) -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let ids: Vec<Vec<NodeId>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|j| b.add_node(Point::new(j as f64, i as f64)))
                    .collect()
            })
            .collect();
        for i in 0..n {
            for j in 0..n {
                if j + 1 < n {
                    b.add_straight_edge(ids[i][j], ids[i][j + 1]).unwrap();
                }
                if i + 1 < n {
                    b.add_straight_edge(ids[i][j], ids[i + 1][j]).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn round_trips_every_record() {
        let g = grid(10);
        let store = NetworkStore::build(&g);
        for n in g.node_ids() {
            let rec = store.read_adjacency(n);
            assert_eq!(rec.node, n);
            assert_eq!(rec.point, g.point(n));
            assert_eq!(rec.entries.len(), g.degree(n));
            for ent in &rec.entries {
                let e = g.edge(ent.edge);
                assert!(e.touches(n));
                assert_eq!(e.other(n), ent.node);
                assert_eq!(ent.point, g.point(ent.node));
                assert!(rn_geom::approx_eq(ent.length, e.length));
            }
        }
    }

    #[test]
    fn counts_page_accesses() {
        let g = grid(10);
        let store = NetworkStore::build(&g);
        store.read_adjacency(NodeId(0));
        store.read_adjacency(NodeId(0));
        let s = store.stats().snapshot();
        assert_eq!(s.logical, 2);
        assert_eq!(s.faults, 1, "second read must hit the buffer");
    }

    #[test]
    fn clustering_packs_pages_densely() {
        let g = grid(30); // 900 nodes, degree <= 4
        let store = NetworkStore::build(&g);
        // ~146 bytes per max-degree record -> at least 25 records per page.
        assert!(
            store.page_count() <= g.node_count() / 25 + 1,
            "{} pages for {} nodes",
            store.page_count(),
            g.node_count()
        );
    }

    #[test]
    fn spatial_scan_has_high_hit_ratio() {
        // Walking nodes in spatial order should fault roughly once per page,
        // thanks to Hilbert clustering.
        let g = grid(30);
        let store = NetworkStore::build(&g);
        for n in g.node_ids() {
            store.read_adjacency(n);
        }
        let s = store.stats().snapshot();
        assert!(s.faults as usize <= store.page_count() + 2);
        assert!(s.hit_ratio() > 0.9);
    }

    #[test]
    fn tiny_buffer_thrashes() {
        let g = grid(30);
        let store = NetworkStore::with_config(&g, PoolConfig::with_bytes(PAGE_SIZE)); // one frame

        // Ping-pong between two spatially distant nodes.
        let far = NodeId((g.node_count() - 1) as u32);
        for _ in 0..10 {
            store.read_adjacency(NodeId(0));
            store.read_adjacency(far);
        }
        let s = store.stats().snapshot();
        assert_eq!(s.faults, 20, "every access must fault with one frame");
    }

    #[test]
    fn clear_buffer_forces_refault() {
        let g = grid(5);
        let store = NetworkStore::build(&g);
        store.read_adjacency(NodeId(3));
        store.clear_buffer();
        store.read_adjacency(NodeId(3));
        assert_eq!(store.stats().snapshot().faults, 2);
    }

    #[test]
    fn sessions_have_private_pools_and_stats() {
        let g = grid(5);
        let store = NetworkStore::build(&g);
        store.read_adjacency(NodeId(0));
        let sess = store.session();
        // The session starts cold with zeroed counters…
        assert_eq!(sess.stats().snapshot().logical, 0);
        let rec = sess.read_adjacency(NodeId(0));
        assert_eq!(rec.node, NodeId(0));
        assert_eq!(sess.stats().snapshot().faults, 1, "session pool is cold");
        // …and its traffic is invisible to the parent store.
        assert_eq!(store.stats().snapshot().logical, 1);
        assert_eq!(sess.node_count(), store.node_count());
        assert_eq!(sess.page_count(), store.page_count());
    }

    #[test]
    fn session_fault_counts_match_a_fresh_store() {
        // A session must behave exactly like an independently built store:
        // same capacity, same cold-start fault sequence.
        let g = grid(10);
        let store = NetworkStore::build(&g);
        let sess = store.session();
        let fresh = NetworkStore::build(&g);
        for n in g.node_ids() {
            sess.read_adjacency(n);
            fresh.read_adjacency(n);
        }
        assert_eq!(
            sess.stats().snapshot().faults,
            fresh.stats().snapshot().faults
        );
    }

    #[test]
    fn sessions_inherit_the_fault_plan() {
        let g = grid(10);
        let store = NetworkStore::build(&g);
        let before = store.session(); // derived before the plan
        store.set_fault_plan(Some(FaultPlan::new(3, 1 << 16)));
        let after = store.session();
        assert_eq!(after.fault_plan(), store.fault_plan());
        for n in g.node_ids() {
            before.read_adjacency(n);
            after.read_adjacency(n);
        }
        assert_eq!(before.stats().snapshot().injected_errors, 0);
        let s = after.stats().snapshot();
        assert!(s.injected_errors > 0, "inherited plan should inject");
        assert_eq!(s.retries, s.injected_errors);
        // The store's own pool injects too.
        store.read_adjacency(NodeId(0));
        assert!(store.stats().snapshot().injected_errors > 0);
        // Removing the plan stops injection for new sessions.
        store.set_fault_plan(None);
        assert_eq!(store.fault_plan(), None);
        let clean = store.session();
        clean.read_adjacency(NodeId(0));
        assert_eq!(clean.stats().snapshot().injected_errors, 0);
    }

    #[test]
    fn apply_edge_weights_patches_both_endpoint_records() {
        let mut g = grid(10);
        let mut store = NetworkStore::build(&g);
        // Derive a session *before* the update: it must keep the old view.
        let old_sess = store.session();
        let e = EdgeId(7);
        let (u, v) = (g.edge(e).u, g.edge(e).v);
        let old_len = g.edge(e).length;
        g.set_edge_weight(e, old_len * 2.5);
        store.apply_edge_weights(&g, &[e]);
        for n in [u, v] {
            let rec = store.read_adjacency(n);
            let ent = rec.entries.iter().find(|a| a.edge == e).unwrap();
            assert_eq!(ent.length.to_bits(), g.edge(e).length.to_bits());
            // Other entries of the same record are untouched.
            for other in rec.entries.iter().filter(|a| a.edge != e) {
                assert_eq!(other.length.to_bits(), g.edge(other.edge).length.to_bits());
            }
        }
        // The pre-update session still reads the old snapshot…
        let ent = old_sess
            .read_adjacency(u)
            .entries
            .iter()
            .find(|a| a.edge == e)
            .copied()
            .unwrap();
        assert_eq!(ent.length.to_bits(), old_len.to_bits());
        // …while a session derived afterwards sees the new weight.
        let new_sess = store.session();
        let ent = new_sess
            .read_adjacency(v)
            .entries
            .iter()
            .find(|a| a.edge == e)
            .copied()
            .unwrap();
        assert_eq!(ent.length.to_bits(), g.edge(e).length.to_bits());
    }

    #[test]
    fn store_is_shareable_across_threads() {
        let g = grid(10);
        let store = NetworkStore::build(&g);
        std::thread::scope(|s| {
            for t in 0..2 {
                let sess = store.session();
                let g = &g;
                s.spawn(move || {
                    for n in g.node_ids() {
                        let rec = sess.read_adjacency(n);
                        assert_eq!(rec.node, n, "thread {t}");
                    }
                });
            }
        });
        assert_eq!(store.stats().snapshot().logical, 0);
    }

    #[test]
    fn session_with_config_sweeps_pool_shapes_over_one_disk() {
        let g = grid(20);
        let store = NetworkStore::build(&g);
        let tiny = store.session_with_config(crate::PoolConfig::with_bytes(PAGE_SIZE));
        let big = store.session_with_config(crate::PoolConfig {
            buffer_bytes: DEFAULT_BUFFER_BYTES,
            shards: 4,
            readahead: 2,
        });
        assert_eq!(tiny.page_count(), store.page_count());
        for n in g.node_ids() {
            assert_eq!(tiny.read_adjacency(n).node, n);
            assert_eq!(big.read_adjacency(n).node, n);
        }
        assert!(tiny.stats().snapshot().faults > big.stats().snapshot().faults);
        assert!(big.stats().snapshot().prefetch_issued > 0);
        assert_eq!(store.stats().snapshot().logical, 0, "parent untouched");
    }

    #[test]
    fn shard_and_readahead_leave_records_and_demand_faults_exact() {
        // Same access sequence, every pool shape: identical bytes, and
        // identical *demand* faults whenever readahead is off.
        let g = grid(25);
        let store = NetworkStore::build(&g);
        let base = store.session_with_config(crate::PoolConfig::with_bytes(8 * PAGE_SIZE));
        for n in g.node_ids() {
            base.read_adjacency(n);
        }
        let mut want_faults = None;
        for shards in [1usize, 2, 8] {
            for readahead in [0usize, 4] {
                let sess = store.session_with_config(crate::PoolConfig {
                    buffer_bytes: 8 * PAGE_SIZE,
                    shards,
                    readahead,
                });
                for n in g.node_ids() {
                    let a = store.read_adjacency(n);
                    let b = sess.read_adjacency(n);
                    assert_eq!(a.node, b.node);
                    assert_eq!(a.entries, b.entries, "shards={shards} ra={readahead}");
                }
                if readahead == 0 {
                    // Demand-miss *determinism*: re-running the same
                    // shape replays the exact fault count.
                    let again = store.session_with_config(sess.pool_config());
                    for n in g.node_ids() {
                        again.read_adjacency(n);
                    }
                    assert_eq!(
                        again.stats().snapshot().faults,
                        sess.stats().snapshot().faults,
                        "shards={shards}"
                    );
                }
                if readahead == 0 && shards == 1 {
                    // …and the single-shard shape matches the legacy pool.
                    want_faults = Some(sess.stats().snapshot().faults);
                }
            }
        }
        assert_eq!(
            want_faults,
            Some(base.stats().snapshot().faults),
            "shards=1 readahead=0 must replay the paper-shape fault count"
        );
    }

    #[test]
    fn shared_sessions_read_through_one_pool() {
        let g = grid(10);
        let store = NetworkStore::build(&g);
        let a = store.shared_session();
        let b = store.shared_session();
        a.read_adjacency(NodeId(0));
        b.read_adjacency(NodeId(0));
        // Second read hits the frame the first one faulted in — the pool
        // (and its counters) are genuinely shared.
        let s = store.stats().snapshot();
        assert_eq!(s.logical, 2);
        assert_eq!(s.faults, 1);
    }

    #[test]
    fn store_builder_round_trips_hand_built_records() {
        let mut b = StoreBuilder::new(2, crate::PoolConfig::default());
        let e = [AdjEntry {
            edge: EdgeId(0),
            node: NodeId(1),
            length: 5.0,
            point: Point::new(3.0, 4.0),
        }];
        b.push_record(NodeId(0), Point::new(0.0, 0.0), &e);
        let e = [AdjEntry {
            edge: EdgeId(0),
            node: NodeId(0),
            length: 5.0,
            point: Point::new(0.0, 0.0),
        }];
        b.push_record(NodeId(1), Point::new(3.0, 4.0), &e);
        assert!(b.staged_bytes() > 0);
        assert_eq!(b.page_count(), 1);
        let store = b.finish();
        assert_eq!(store.node_count(), 2);
        let rec = store.read_adjacency(NodeId(1));
        assert_eq!(rec.point, Point::new(3.0, 4.0));
        assert_eq!(rec.entries[0].node, NodeId(0));
        assert_eq!(rec.entries[0].length.to_bits(), 5.0f64.to_bits());
    }

    #[test]
    fn into_variant_reuses_allocation() {
        let g = grid(5);
        let store = NetworkStore::build(&g);
        let mut rec = AdjRecord::default();
        store.read_adjacency_into(NodeId(0), &mut rec);
        let cap = rec.entries.capacity();
        store.read_adjacency_into(NodeId(1), &mut rec);
        assert!(rec.entries.capacity() >= cap);
        assert_eq!(rec.node, NodeId(1));
    }
}

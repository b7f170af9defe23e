//! Resumable, retarget-able A\* with path-distance lower bounds.
//!
//! This is the paper's work-horse for EDC and LBC:
//!
//! * **Consistent heuristic.** Edge lengths are at least the Euclidean
//!   distance between their endpoints (a [`rn_graph::NetworkBuilder`]
//!   invariant), so `h(v) = d_E(v, target)` is consistent. Consequently a
//!   popped node's `g` is its exact network distance — which makes the
//!   settled hash table *target-independent* and reusable when the same
//!   source is pointed at a new destination (§6.1: "each query point keeps
//!   a hash table to store the intermediate nodes visited, together with
//!   their network distances to the query point").
//! * **Path-distance lower bound (`plb`, §4.3).** At any moment,
//!   `min(best known path to the target, min over the frontier of g + h)`
//!   lower-bounds the network distance to the current target, and it only
//!   grows as the wavefront expands. LBC leans on exactly this: it advances
//!   the query point whose `plb` to a candidate is smallest and abandons
//!   the candidate as soon as every `plb` proves it dominated.
//!
//! Retargeting keeps the settled map and the frontier's `g` values. A
//! target whose edge endpoints are both settled is exact at once and keys
//! nothing; any other retarget re-keys the live frontier under the new
//! heuristic *lazily*: it sets the few smallest keys aside and heapifies
//! the rest only once those are used up (DESIGN.md §11.6). The frontier is
//! stored densely, one row per open node in parallel vectors, so a re-key
//! is one pass over contiguous arrays (DESIGN.md §11.8).
//!
//! Every heap key is the planar Euclidean distance, computed inline: A\*
//! never reads the context's [`LowerBound`](crate::LowerBound) seam
//! ([`NetCtx::lb`]). A precomputed oracle only prunes, through
//! `pair_bound` in EDC and LBC, so an engine given the same targets
//! settles the same nodes in the same order under every bound
//! (DESIGN.md §14.4).

use crate::ctx::NetCtx;
use crate::nodemap::NodeMap;
use crate::oracle::LbTarget;
use rn_geom::{OrdF64, Point};
use rn_graph::{NetPosition, NodeId};
use rn_storage::AdjRecord;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A frontier entry `(g + h, g, node)`; entries pop in this total order,
/// however they are stored.
type Entry = (OrdF64, OrdF64, NodeId);

/// How many of a re-key's smallest entries are set aside sorted, so that a
/// visit popping at most that many nodes never heapifies the rest.
const LAZY_TOP: usize = 4;

/// Filler for the unused places of [`Frontier::aside`]; never read.
const NO_ENTRY: Entry = (OrdF64::INFINITY, OrdF64::INFINITY, NodeId(u32::MAX));

/// The live frontier, stored densely, and the order it pops in.
///
/// Row `i` of the parallel vectors `g`, `point` and `node` is one open
/// node: its tentative distance, its coordinates and its id. `slot` maps
/// each open node to its row. A falling distance is written in place and a
/// settled node is swap-removed, so the rows are exactly the live frontier
/// and a keyed retarget keys them in one pass over contiguous arrays.
///
/// `heap` holds entries keyed for the current target; an entry is stale
/// once its node settles or its `g` falls. A re-key does not heapify: it
/// sets its `LAZY_TOP` smallest entries aside and leaves every other row
/// out of `heap` until the aside runs out (DESIGN.md §11.6, §11.8).
struct Frontier {
    g: Vec<f64>,
    point: Vec<Point>,
    node: Vec<NodeId>,
    /// Each open node's row.
    slot: NodeMap<u32>,
    /// Min-heap of entries; while a re-key is `pending` it holds only what
    /// [`Frontier::relax`] pushed since.
    heap: BinaryHeap<Reverse<Entry>>,
    /// The last re-key's smallest entries, ascending; `aside[at..end]`
    /// have not popped yet, and each is smaller than every row the re-key
    /// left out.
    aside: [Entry; LAZY_TOP],
    at: usize,
    end: usize,
    /// Reused buffer of a re-key's keys, one per row.
    keys: Vec<f64>,
    /// The planar target of a re-key whose other rows are not in `heap`
    /// yet. Stored here because `set_target` peeks before it stores the
    /// new target.
    pending: Option<Point>,
}

impl Frontier {
    fn new(node_count: usize) -> Self {
        Frontier {
            g: Vec::new(),
            point: Vec::new(),
            node: Vec::new(),
            slot: NodeMap::new(node_count),
            heap: BinaryHeap::new(),
            aside: [NO_ENTRY; LAZY_TOP],
            at: 0,
            end: 0,
            keys: Vec::new(),
            pending: None,
        }
    }

    /// Empties the frontier, keeping its allocations.
    fn clear(&mut self) {
        self.g.clear();
        self.point.clear();
        self.node.clear();
        self.slot.clear();
        self.heap.clear();
        (self.at, self.end) = (0, 0);
        self.pending = None;
    }

    /// Appends a row for node `n`, which has none.
    fn push_row(&mut self, n: NodeId, g: f64, p: Point) {
        self.slot.insert(n, self.node.len() as u32);
        self.g.push(g);
        self.point.push(p);
        self.node.push(n);
    }

    /// Offers the tentative distance `g` to node `n` at `p`. A new node
    /// gets a row and a shorter distance overwrites its row's `g`; either
    /// way the entry keyed for the planar target `to` is pushed.
    fn relax(&mut self, n: NodeId, g: f64, p: Point, to: &Point) {
        match self.slot.get_copied(n) {
            Some(i) => {
                let cur = &mut self.g[i as usize];
                if g >= *cur {
                    return;
                }
                *cur = g;
            }
            None => self.push_row(n, g, p),
        }
        let key = g + p.distance(to);
        self.heap
            .push(Reverse((OrdF64::new(key), OrdF64::new(g), n)));
    }

    /// `true` while `e` still describes its node: the node has a row with
    /// `e`'s `g`. A stale entry never becomes live again, because `g` only
    /// falls and settled nodes never reopen.
    fn is_live(&self, (_, g, n): Entry) -> bool {
        matches!(self.slot.get_copied(n), Some(i) if self.g[i as usize] == g.get())
    }

    /// The first unpopped aside entry.
    fn front(&self) -> Option<Entry> {
        (self.at < self.end).then(|| self.aside[self.at])
    }

    /// Re-keys every row for the planar target `to` without heapifying.
    /// One pass writes each row's key into `keys`; a second keeps the
    /// `LAZY_TOP` smallest entries in `aside`, testing each key against
    /// the current largest aside key first and comparing whole entries
    /// only at or under it. Pops follow the total order on
    /// `(key, g, node)`, so results do not depend on the row order.
    fn rekey(&mut self, to: Point) {
        self.keys.clear();
        let rows = self.g.iter().zip(&self.point);
        self.keys.extend(rows.map(|(&g, p)| g + p.distance(&to)));
        let (mut top, mut len, mut cut) = ([NO_ENTRY; LAZY_TOP], 0, f64::INFINITY);
        for (i, &key) in self.keys.iter().enumerate() {
            if key > cut {
                continue;
            }
            let e = (OrdF64::new(key), OrdF64::new(self.g[i]), self.node[i]);
            if len == LAZY_TOP && e > top[LAZY_TOP - 1] {
                continue;
            }
            // Insertion into the ascending `top`, dropping its largest
            // entry when full.
            let mut at = len.min(LAZY_TOP - 1);
            while at > 0 && top[at - 1] > e {
                top[at] = top[at - 1];
                at -= 1;
            }
            top[at] = e;
            len = (len + 1).min(LAZY_TOP);
            if len == LAZY_TOP {
                cut = top[LAZY_TOP - 1].0.get();
            }
        }
        self.heap.clear();
        (self.aside, self.at, self.end) = (top, 0, len);
        self.pending = (self.node.len() > len).then_some(to);
        // Contracts: `slot` and the rows agree, and no row left out of the
        // aside comes before the aside's largest entry.
        #[cfg(feature = "invariant-checks")]
        {
            assert_eq!(self.slot.len(), self.node.len(), "A* frontier rows");
            for (i, &n) in self.node.iter().enumerate() {
                assert_eq!(self.slot.get_copied(n), Some(i as u32), "A* frontier slot");
                let e = (OrdF64::new(self.keys[i]), OrdF64::new(self.g[i]), n);
                assert!(
                    len < LAZY_TOP || top.contains(&e) || e > top[LAZY_TOP - 1],
                    "A* re-key left {e:?} behind the aside"
                );
            }
        }
    }

    /// The smallest live entry, dropping the stale entries it passes.
    /// While a re-key is pending, every row left out of the aside is
    /// larger than every aside entry, so the smaller of the first live
    /// aside entry and the heap's live head is the minimum; once no aside
    /// entry is live, the heap is rebuilt from the rows under the pending
    /// target.
    fn peek(&mut self) -> Option<Entry> {
        while self.front().is_some_and(|e| !self.is_live(e)) {
            self.at += 1;
        }
        if self.at == self.end {
            if let Some(to) = self.pending.take() {
                // O(n) heapify of every row, reusing the heap's
                // allocation; the rows supersede whatever it held.
                let mut v = std::mem::take(&mut self.heap).into_vec();
                v.clear();
                let rows = self.g.iter().zip(&self.point).zip(&self.node);
                v.extend(rows.map(|((&g, p), &n)| {
                    Reverse((OrdF64::new(g + p.distance(&to)), OrdF64::new(g), n))
                }));
                self.heap = BinaryHeap::from(v);
            }
        }
        while let Some(&Reverse(e)) = self.heap.peek() {
            if self.is_live(e) {
                break;
            }
            self.heap.pop();
        }
        match (self.front(), self.heap.peek().map(|r| r.0)) {
            (Some(a), Some(h)) => Some(a.min(h)),
            (a, h) => a.or(h),
        }
    }

    /// Removes and returns the smallest live entry (`peek`'s), and
    /// swap-removes its node's row.
    fn pop(&mut self) -> Option<Entry> {
        let e = self.peek()?;
        if self.front() == Some(e) {
            self.at += 1;
        } else {
            self.heap.pop();
        }
        let i = self.slot.remove(e.2).expect("a live entry has a row") as usize;
        self.g.swap_remove(i);
        self.point.swap_remove(i);
        self.node.swap_remove(i);
        if let Some(&moved) = self.node.get(i) {
            self.slot.insert(moved, i as u32);
        }
        Some(e)
    }
}

/// Per-target state.
struct Target {
    pos: NetPosition,
    /// The anchored target: edge endpoints, along-edge offsets and the
    /// planar point every heap key measures to.
    lbt: LbTarget,
    /// Best *known* (upper-bound) path to the target: same-edge direct
    /// path or via a settled endpoint of the target edge.
    known: f64,
    /// Monotone lower bound on the network distance to the target.
    plb: f64,
    /// Both target-edge endpoints were settled when the target was set, so
    /// `known` is the distance and the frontier was not keyed for it.
    exact: bool,
}

/// A snapshot of one engine's cumulative counters, harvested by the query
/// drivers into the observability trace. Plain cumulative values:
/// subtract two snapshots for a delta, sum across engines for a query
/// total.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AStarStats {
    /// Nodes settled ([`AStar::expansions`]).
    pub expansions: u64,
    /// Exact distances read ([`AStar::confirms`]).
    pub confirms: u64,
    /// [`AStar::set_target`] calls ([`AStar::retargets`]).
    pub retargets: u64,
    /// Destinations handed to [`AStar::distances_to_pack`]
    /// ([`AStar::pack_targets`]).
    pub pack_targets: u64,
}

impl AStarStats {
    /// Accumulates another snapshot into this one (field-wise sum) — how
    /// a query driver totals the counters of all its engines.
    pub fn merge(&mut self, other: &AStarStats) {
        self.expansions += other.expansions;
        self.confirms += other.confirms;
        self.retargets += other.retargets;
        self.pack_targets += other.pack_targets;
    }
}

/// A single-source A\* engine whose settled state survives retargeting.
pub struct AStar<'a> {
    ctx: &'a NetCtx<'a>,
    source: NetPosition,
    source_point: Point,
    /// Settled nodes: exact network distance from the source.
    dist: NodeMap<f64>,
    /// Unsettled nodes with a tentative distance, keyed by `g + h(current
    /// target)`.
    open: Frontier,
    target: Option<Target>,
    rec: AdjRecord,
    expansions: u64,
    /// Exact distances read via [`AStar::result`].
    confirms: u64,
    /// [`AStar::set_target`] calls since the last rebase (an
    /// endpoint-exact one keys nothing).
    retargets: u64,
    /// Destinations handed to [`AStar::distances_to_pack`].
    pack_targets: u64,
}

impl<'a> AStar<'a> {
    /// Starts an A\* engine at `source`.
    pub fn new(ctx: &'a NetCtx<'a>, source: NetPosition) -> Self {
        let mut a = AStar {
            ctx,
            source,
            source_point: ctx.net.position_point(&source),
            dist: NodeMap::new(ctx.net.node_count()),
            open: Frontier::new(ctx.net.node_count()),
            target: None,
            rec: AdjRecord::default(),
            expansions: 0,
            confirms: 0,
            retargets: 0,
            pack_targets: 0,
        };
        let edge = ctx.net.edge(source.edge);
        let (du, dv) = ctx.net.position_endpoint_dists(&source);
        a.open.push_row(edge.u, du, ctx.net.point(edge.u));
        a.open.push_row(edge.v, dv, ctx.net.point(edge.v));
        // The heap stays empty until a target defines the heuristic.
        a
    }

    /// Restarts this engine at a new `source` with no target, reusing the
    /// existing allocations (node maps, frontier, scratch adjacency
    /// record).
    ///
    /// Equivalent to `*self = AStar::new(ctx, source)` but O(frontier): the
    /// generation-stamped [`NodeMap`]s reset in O(1).
    pub fn rebase(&mut self, source: NetPosition) {
        self.source = source;
        self.source_point = self.ctx.net.position_point(&source);
        self.dist.clear();
        self.open.clear();
        self.target = None;
        self.expansions = 0;
        self.confirms = 0;
        self.retargets = 0;
        self.pack_targets = 0;
        let edge = self.ctx.net.edge(source.edge);
        let (du, dv) = self.ctx.net.position_endpoint_dists(&source);
        self.open.push_row(edge.u, du, self.ctx.net.point(edge.u));
        self.open.push_row(edge.v, dv, self.ctx.net.point(edge.v));
    }

    /// The source position.
    pub fn source(&self) -> NetPosition {
        self.source
    }

    /// The source's planar coordinates.
    pub fn source_point(&self) -> Point {
        self.source_point
    }

    /// Nodes expanded (adjacency reads) so far, across all targets.
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Exact distances read via [`AStar::result`] so far.
    pub fn confirms(&self) -> u64 {
        self.confirms
    }

    /// [`AStar::set_target`] calls so far. An endpoint-exact one counts
    /// here but walks no frontier.
    pub fn retargets(&self) -> u64 {
        self.retargets
    }

    /// Destinations handed to [`AStar::distances_to_pack`] so far.
    pub fn pack_targets(&self) -> u64 {
        self.pack_targets
    }

    /// All engine counters in one bundle — what the query drivers
    /// harvest into the observability trace at end of run.
    pub fn stats(&self) -> AStarStats {
        AStarStats {
            expansions: self.expansions,
            confirms: self.confirms,
            retargets: self.retargets,
            pack_targets: self.pack_targets,
        }
    }

    /// Points the engine at a new target, seeding the best-known path from
    /// state already settled. Any previous target is abandoned. When both
    /// endpoints of the target edge are settled, that path is the distance
    /// and the target is resolved at once; otherwise the frontier is
    /// re-keyed under the new heuristic.
    pub fn set_target(&mut self, pos: NetPosition) {
        self.retargets += 1;
        let lbt = LbTarget::of(self.ctx.net, &pos);
        let (known, exact) = self.settled_known(&pos, &lbt);
        let mut plb = known;
        if !exact {
            self.open.rekey(lbt.point);
            plb = plb.min(self.frontier_key().unwrap_or(f64::INFINITY));
        }
        // An exact target leaves the frontier keyed for an older one; the
        // next re-key rebuilds from the rows, so nothing pops those keys.
        self.target = Some(Target {
            pos,
            lbt,
            known,
            plb,
            exact,
        });
    }

    /// The best path to `pos` known from settled state, and whether it is
    /// final. Endpoint exactness: every route to a position on edge
    /// (u, v) goes through u, through v, or along the source's own edge,
    /// so two settled endpoints make it the network distance.
    fn settled_known(&self, pos: &NetPosition, lbt: &LbTarget) -> (f64, bool) {
        let mut known = f64::INFINITY;
        if pos.edge == self.source.edge {
            known = (pos.offset - self.source.offset).abs();
        }
        let du = self.dist.get_copied(lbt.eu);
        let dv = self.dist.get_copied(lbt.ev);
        if let Some(d) = du {
            known = known.min(d + lbt.tu);
        }
        if let Some(d) = dv {
            known = known.min(d + lbt.tv);
        }
        (known, du.is_some() && dv.is_some())
    }

    /// The current target position, if any.
    pub fn target(&self) -> Option<NetPosition> {
        self.target.as_ref().map(|t| t.pos)
    }

    /// The cheapest `g + h` of any unsettled node.
    fn frontier_key(&mut self) -> Option<f64> {
        self.open.peek().map(|(key, ..)| key.get())
    }

    /// The path-distance lower bound to the current target. Monotone
    /// non-decreasing across [`AStar::advance`] calls; equals the network
    /// distance once the target is resolved.
    ///
    /// # Panics
    /// Panics when no target is set.
    pub fn plb(&mut self) -> f64 {
        let t = self.target.as_ref().expect("plb requires a target");
        let frontier = if t.exact { None } else { self.frontier_key() };
        let t = self.target.as_mut().expect("plb requires a target");
        let now = t.known.min(frontier.unwrap_or(f64::INFINITY));
        t.plb = t.plb.max(now);
        t.plb
    }

    /// `true` when the current target's distance is final: no frontier
    /// continuation can beat the best known path.
    pub fn is_resolved(&mut self) -> bool {
        let t = self.target.as_ref().expect("is_resolved requires a target");
        if t.exact {
            return true;
        }
        let known = t.known;
        match self.frontier_key() {
            None => true,
            Some(f) => known <= f,
        }
    }

    /// The network distance to the current target; only meaningful once
    /// [`AStar::is_resolved`] returns `true` (infinite if unreachable).
    /// Counted as a confirmation ([`AStar::confirms`]).
    pub fn result(&mut self) -> f64 {
        self.confirms += 1;
        self.target
            .as_ref()
            .expect("result requires a target")
            .known
    }

    /// Performs one expansion step towards the current target. Returns
    /// `false` when the target is already resolved (no step performed).
    pub fn advance(&mut self) -> bool {
        if self.is_resolved() {
            return false;
        }
        // Budget check at heap-pop granularity. On a trip the target is
        // NOT resolved: `known` is an upper bound, not the distance —
        // callers must consult the guard before trusting [`AStar::result`].
        if let Some(guard) = self.ctx.guard {
            if !guard.tick_expansion(self.ctx.store.stats().faults()) {
                return false;
            }
        }
        let Some((_key, g, n)) = self.open.pop() else {
            return false;
        };
        let g = g.get();
        // Contract: with a consistent heuristic, popped `f = g + h` values
        // are non-decreasing, which is what makes a popped node's `g` exact
        // and the settled map reusable across retargets (§6.1).
        #[cfg(feature = "invariant-checks")]
        {
            let t = self.target.as_ref().expect("advance requires a target");
            assert!(
                _key.get() + rn_geom::EPSILON >= t.plb,
                "A* heap-pop monotonicity violated: popped key {} < plb {}",
                _key.get(),
                t.plb
            );
        }
        // If we settle an endpoint of the target edge, a concrete path to
        // the target is now known.
        let t = self.target.as_mut().expect("advance requires a target");
        if n == t.lbt.eu {
            t.known = t.known.min(g + t.lbt.tu);
        }
        if n == t.lbt.ev {
            t.known = t.known.min(g + t.lbt.tv);
        }
        let lbt = t.lbt;
        self.expand(n, g, &lbt);
        true
    }

    /// Settles node `n`, just popped, at its exact distance `g` and relaxes
    /// its out-edges (one counted page access), keying each improved
    /// frontier entry `g' + h` with `h` the planar distance to `lbt`.
    fn expand(&mut self, n: NodeId, g: f64, lbt: &LbTarget) {
        self.dist.insert(n, g);
        self.expansions += 1;
        self.ctx.store.read_adjacency_into(n, &mut self.rec);
        for ent in &self.rec.entries {
            if !self.dist.contains(ent.node) {
                self.open
                    .relax(ent.node, g + ent.length, ent.point, &lbt.point);
            }
        }
    }

    /// Resolves the current target completely and returns its distance.
    pub fn run(&mut self) -> f64 {
        while self.advance() {}
        self.result()
    }

    /// Convenience: set a target, resolve it, return the distance.
    pub fn distance_to(&mut self, pos: NetPosition) -> f64 {
        self.set_target(pos);
        self.run()
    }

    /// The exact network distances to `positions`, in input order: the
    /// list form of [`AStar::distance_to`], one retarget per destination
    /// on the same settled map. Counts every destination in
    /// [`AStar::pack_targets`].
    pub fn distances_to_pack(&mut self, positions: &[NetPosition]) -> Vec<f64> {
        self.pack_targets += positions.len() as u64;
        positions.iter().map(|&pos| self.distance_to(pos)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::Dijkstra;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use rn_geom::approx_eq;
    use rn_graph::{EdgeId, NetworkBuilder, RoadNetwork};
    use rn_index::MiddleLayer;
    use rn_storage::NetworkStore;

    /// Random connected planar-ish network for oracle comparisons.
    fn random_net(n: usize, seed: u64) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetworkBuilder::new();
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
            .collect();
        for p in &pts {
            b.add_node(*p);
        }
        // Spanning chain keeps it connected; extra random edges add cycles.
        for i in 1..n {
            let j = rng.random_range(0..i);
            let len = pts[i].distance(&pts[j]) * rng.random_range(1.0..1.5);
            b.add_weighted_edge(NodeId(i as u32), NodeId(j as u32), len)
                .unwrap();
        }
        for _ in 0..n {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..n);
            if i != j {
                let len = pts[i].distance(&pts[j]) * rng.random_range(1.0..1.3);
                let _ = b.add_weighted_edge(NodeId(i as u32), NodeId(j as u32), len);
            }
        }
        b.build().unwrap()
    }

    fn rand_pos(g: &RoadNetwork, rng: &mut StdRng) -> NetPosition {
        let e = EdgeId(rng.random_range(0..g.edge_count() as u32));
        let off = rng.random_range(0.0..g.edge(e).length);
        NetPosition::new(e, off)
    }

    #[test]
    fn matches_dijkstra_on_random_networks() {
        for seed in 0..5u64 {
            let g = random_net(60, seed);
            let store = NetworkStore::build(&g);
            let mid = MiddleLayer::build(&g, &[]);
            let ctx = NetCtx::new(&g, &store, &mid);
            let mut rng = StdRng::seed_from_u64(seed + 1000);
            let src = rand_pos(&g, &mut rng);
            let mut astar = AStar::new(&ctx, src);
            for _ in 0..10 {
                let dst = rand_pos(&g, &mut rng);
                let da = astar.distance_to(dst);
                let mut dij = Dijkstra::new(&ctx, src);
                let dd = dij.distance_to_position(&dst);
                assert!(
                    approx_eq(da, dd),
                    "seed {seed}: A*={da} Dijkstra={dd} src={src:?} dst={dst:?}"
                );
            }
        }
    }

    #[test]
    fn expansion_cap_halts_single_target_and_pack_sweeps() {
        let g = random_net(60, 21);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let mut rng = StdRng::seed_from_u64(4242);
        let src = rand_pos(&g, &mut rng);
        let dst = rand_pos(&g, &mut rng);
        let pack: Vec<NetPosition> = (0..6).map(|_| rand_pos(&g, &mut rng)).collect();

        // Single-target: run() must terminate with the guard tripped and
        // the expansion count bounded by the cap.
        let budget = rn_obs::QueryBudget::unlimited().with_max_expansions(4);
        let guard = rn_obs::ExecGuard::new(&budget, store.stats().faults());
        let ctx = NetCtx::with_guard(&g, &store, &mid, Some(&guard));
        let mut astar = AStar::new(&ctx, src);
        astar.set_target(dst);
        let bound = astar.run();
        assert!(guard.tripped());
        assert!(astar.expansions() <= 4);
        // `known` is an upper bound on the true distance (or infinite).
        let free = NetCtx::new(&g, &store, &mid);
        let mut dij = Dijkstra::new(&free, src);
        let exact = dij.distance_to_position(&dst);
        assert!(
            bound + 1e-9 >= exact,
            "tripped known {bound} < exact {exact}"
        );

        // The list form: every value the tripped engine returns is still a
        // sound upper bound.
        let guard2 = rn_obs::ExecGuard::new(&budget, store.stats().faults());
        let ctx2 = NetCtx::with_guard(&g, &store, &mid, Some(&guard2));
        let mut sweep = AStar::new(&ctx2, src);
        let got = sweep.distances_to_pack(&pack);
        assert!(guard2.tripped());
        assert_eq!(got.len(), pack.len());
        for (i, ub) in got.iter().enumerate() {
            let exact = dij.distance_to_position(&pack[i]);
            assert!(
                *ub + 1e-9 >= exact,
                "pack {i}: tripped bound {ub} < {exact}"
            );
        }
    }

    #[test]
    fn retargeting_reuses_settled_state() {
        let g = random_net(80, 7);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let mut rng = StdRng::seed_from_u64(99);
        let src = rand_pos(&g, &mut rng);
        let dst1 = rand_pos(&g, &mut rng);
        let dst2 = rand_pos(&g, &mut rng);

        let mut reused = AStar::new(&ctx, src);
        reused.distance_to(dst1);
        let before = reused.expansions();
        let d2_reused = reused.distance_to(dst2);
        let extra = reused.expansions() - before;

        let mut fresh = AStar::new(&ctx, src);
        let d2_fresh = fresh.distance_to(dst2);
        assert!(approx_eq(d2_reused, d2_fresh));
        assert!(
            extra <= fresh.expansions(),
            "retarget must never expand more than a fresh search"
        );
    }

    #[test]
    fn plb_is_monotone_and_converges() {
        let g = random_net(70, 11);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let mut rng = StdRng::seed_from_u64(5);
        let src = rand_pos(&g, &mut rng);
        let dst = rand_pos(&g, &mut rng);

        let mut astar = AStar::new(&ctx, src);
        astar.set_target(dst);
        let src_pt = ctx.net.position_point(&src);
        let dst_pt = ctx.net.position_point(&dst);
        let mut prev = astar.plb();
        assert!(
            prev + 1e-9 >= src_pt.distance(&dst_pt) || prev == 0.0,
            "initial plb {prev} below Euclidean {}",
            src_pt.distance(&dst_pt)
        );
        while astar.advance() {
            let now = astar.plb();
            assert!(now + 1e-9 >= prev, "plb regressed: {prev} -> {now}");
            prev = now;
        }
        let d = astar.result();
        assert!(approx_eq(astar.plb(), d), "final plb equals the distance");
        // And it is never above the true distance on the way up.
        assert!(prev <= d + 1e-9);
    }

    #[test]
    fn expansions_bounded_by_dijkstra_region() {
        // §5's argument: any node A* visits satisfies
        // d(q,v) + dE(v,p) <= dN(q,p), hence d(q,v) <= dN(q,p) — i.e. it
        // lies inside the Dijkstra region. Check expansion counts agree.
        let g = random_net(120, 3);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let src = rand_pos(&g, &mut rng);
            let dst = rand_pos(&g, &mut rng);
            let mut astar = AStar::new(&ctx, src);
            let d = astar.distance_to(dst);
            let mut dij = Dijkstra::new(&ctx, src);
            let dd = dij.distance_to_position(&dst);
            assert!(approx_eq(d, dd));
            // CE's Dijkstra keeps expanding until the wavefront radius
            // reaches the object (that is how INE "visits" it); every node
            // A* expands satisfies g + h < d_N, hence g < d_N, and lies in
            // that region.
            let mut region = Dijkstra::new(&ctx, src);
            let mut settled_in_region = 0u64;
            while let Some((_, dr)) = region.settle_next() {
                if dr >= dd {
                    break;
                }
                settled_in_region += 1;
            }
            assert!(
                astar.expansions() <= settled_in_region + 1,
                "A* expanded {} nodes, Dijkstra region holds {}",
                astar.expansions(),
                settled_in_region
            );
        }
    }

    #[test]
    fn same_edge_target() {
        let g = random_net(30, 21);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let e = EdgeId(0);
        let len = g.edge(e).length;
        let mut astar = AStar::new(&ctx, NetPosition::new(e, 0.1 * len));
        let d = astar.distance_to(NetPosition::new(e, 0.9 * len));
        // Direct along-edge path is 0.8*len; a shortcut around could in
        // principle be shorter, so compare against Dijkstra.
        let mut dij = Dijkstra::new(&ctx, NetPosition::new(e, 0.1 * len));
        let dd = dij.distance_to_position(&NetPosition::new(e, 0.9 * len));
        assert!(approx_eq(d, dd));
        assert!(d <= 0.8 * len + 1e-9);
    }

    #[test]
    fn unreachable_target_is_infinite() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let n2 = b.add_node(Point::new(5.0, 0.0));
        let n3 = b.add_node(Point::new(6.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        b.add_straight_edge(n2, n3).unwrap();
        let g = b.build().unwrap();
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let mut astar = AStar::new(&ctx, NetPosition::new(EdgeId(0), 0.5));
        let d = astar.distance_to(NetPosition::new(EdgeId(1), 0.5));
        assert!(d.is_infinite());
    }

    #[test]
    fn pack_matches_single_target_bitwise() {
        // The list form is `distance_to` per destination, in order: the
        // same f64 bits, expansions and retargets as k single-target
        // resolutions.
        for seed in 0..6u64 {
            let g = random_net(70, seed + 300);
            let store = NetworkStore::build(&g);
            let mid = MiddleLayer::build(&g, &[]);
            let ctx = NetCtx::new(&g, &store, &mid);
            let mut rng = StdRng::seed_from_u64(seed + 40);
            let src = rand_pos(&g, &mut rng);
            let targets: Vec<NetPosition> = (0..8).map(|_| rand_pos(&g, &mut rng)).collect();

            let mut packed = AStar::new(&ctx, src);
            let got = packed.distances_to_pack(&targets);

            let mut single = AStar::new(&ctx, src);
            for (i, t) in targets.iter().enumerate() {
                let want = single.distance_to(*t);
                assert_eq!(
                    got[i].to_bits(),
                    want.to_bits(),
                    "seed {seed}: pack[{i}]={} single={} src={src:?} t={t:?}",
                    got[i],
                    want
                );
            }
            assert_eq!(packed.expansions(), single.expansions(), "seed {seed}");
            assert_eq!(packed.retargets(), single.retargets(), "seed {seed}");
        }
    }

    #[test]
    fn pack_matches_dijkstra_oracle() {
        let g = random_net(80, 17);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let mut rng = StdRng::seed_from_u64(23);
        let src = rand_pos(&g, &mut rng);
        let targets: Vec<NetPosition> = (0..12).map(|_| rand_pos(&g, &mut rng)).collect();
        let mut astar = AStar::new(&ctx, src);
        let got = astar.distances_to_pack(&targets);
        let mut dij = Dijkstra::new(&ctx, src);
        for (i, t) in targets.iter().enumerate() {
            let want = dij.distance_to_position(t);
            assert!(
                approx_eq(got[i], want),
                "pack[{i}]={} dijkstra={want} src={src:?} t={t:?}",
                got[i]
            );
        }
    }

    #[test]
    fn pack_on_settled_state_confirms_without_expansion() {
        // After the whole component is settled, a second pack answers
        // every destination from the endpoint-exactness shortcut: zero
        // expansions, and every retarget keys nothing.
        let g = random_net(50, 9);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let mut rng = StdRng::seed_from_u64(61);
        let src = rand_pos(&g, &mut rng);
        let targets: Vec<NetPosition> = (0..6).map(|_| rand_pos(&g, &mut rng)).collect();

        let mut astar = AStar::new(&ctx, src);
        let first = astar.distances_to_pack(&targets);
        // Drain the remaining frontier so every node is settled, keyed
        // under one consistent heuristic throughout.
        let lbt = LbTarget::of(&g, &src);
        astar.open.rekey(lbt.point);
        while let Some((_, gk, n)) = astar.open.pop() {
            astar.expand(n, gk.get(), &lbt);
        }
        assert_live_frontier(&astar);
        assert!(astar.open.node.is_empty(), "the drain left open nodes");
        let exp_before = astar.expansions();
        let state = frontier_state(&astar);
        assert!(!astar.open.keys.is_empty(), "the drain's re-key keyed");
        let again = astar.distances_to_pack(&targets);
        assert_eq!(
            astar.expansions(),
            exp_before,
            "no expansions on settled state"
        );
        assert_eq!(frontier_state(&astar), state, "no re-key on settled state");
        assert_eq!(astar.pack_targets(), 2 * targets.len() as u64);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "repeat pack must be bitwise stable"
            );
        }
    }

    #[test]
    fn pack_counters_and_edge_cases() {
        let g = random_net(40, 13);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let mut rng = StdRng::seed_from_u64(7);
        let src = rand_pos(&g, &mut rng);

        let mut astar = AStar::new(&ctx, src);
        assert!(astar.distances_to_pack(&[]).is_empty());
        assert_eq!(astar.retargets(), 0, "an empty pack sets no target");

        let targets: Vec<NetPosition> = (0..5).map(|_| rand_pos(&g, &mut rng)).collect();
        let d = astar.distances_to_pack(&targets);
        assert_eq!(d.len(), 5);
        assert_eq!(astar.pack_targets(), 5);
        assert_eq!(astar.retargets(), 5, "one retarget per destination");
        assert_eq!(astar.confirms(), 5);
        // Self-distance inside a pack is zero.
        let selfd = astar.distances_to_pack(&[src]);
        assert!(approx_eq(selfd[0], 0.0));
        // Rebase resets the pack counter with everything else.
        astar.rebase(src);
        assert_eq!(astar.pack_targets(), 0);
        assert_eq!(astar.retargets(), 0);
    }

    #[test]
    fn pack_unreachable_targets_are_infinite() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1.0, 0.0));
        let n2 = b.add_node(Point::new(5.0, 0.0));
        let n3 = b.add_node(Point::new(6.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        b.add_straight_edge(n2, n3).unwrap();
        let g = b.build().unwrap();
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let mut astar = AStar::new(&ctx, NetPosition::new(EdgeId(0), 0.5));
        let d = astar.distances_to_pack(&[
            NetPosition::new(EdgeId(1), 0.5),
            NetPosition::new(EdgeId(0), 0.25),
            NetPosition::new(EdgeId(1), 0.1),
        ]);
        assert!(d[0].is_infinite());
        assert!(d[1].is_finite());
        assert!(d[2].is_infinite());
    }

    #[test]
    fn many_rebase_cycles_match_fresh_engines() {
        // Regression for the generation-stamped O(1) NodeMap reset:
        // hundreds of rebase cycles on one engine must behave exactly
        // like a fresh engine per source — packs and single-target runs
        // alike riding the reused maps.
        let g = random_net(40, 29);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let mut rng = StdRng::seed_from_u64(31);
        let mut reused = AStar::new(&ctx, rand_pos(&g, &mut rng));
        for round in 0..200 {
            let src = rand_pos(&g, &mut rng);
            let targets: Vec<NetPosition> = (0..3).map(|_| rand_pos(&g, &mut rng)).collect();
            reused.rebase(src);
            let mut fresh = AStar::new(&ctx, src);
            let (got, want): (Vec<f64>, Vec<f64>) = if round % 2 == 0 {
                (
                    reused.distances_to_pack(&targets),
                    fresh.distances_to_pack(&targets),
                )
            } else {
                (
                    targets.iter().map(|&t| reused.distance_to(t)).collect(),
                    targets.iter().map(|&t| fresh.distance_to(t)).collect(),
                )
            };
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "round {round}, target {i}: reused engine diverged from fresh"
                );
            }
            assert_eq!(reused.expansions(), fresh.expansions(), "round {round}");
            assert_eq!(reused.retargets(), fresh.retargets(), "round {round}");
        }
    }

    #[test]
    fn oracle_bounds_preserve_distances_bitwise() {
        // A* keys its heap by the Euclidean distance whatever bound the
        // context carries: an ALT context settles the same nodes in the
        // same order, so distances, expansions and retargets all match.
        use crate::oracle::AltOracle;
        for seed in 0..3u64 {
            let g = random_net(70, seed + 500);
            let store = NetworkStore::build(&g);
            let mid = MiddleLayer::build(&g, &[]);
            let alt = AltOracle::build(&g, &store, &mid, 8);
            let mut rng = StdRng::seed_from_u64(seed + 41);
            let src = rand_pos(&g, &mut rng);
            let singles: Vec<NetPosition> = (0..6).map(|_| rand_pos(&g, &mut rng)).collect();
            let pack: Vec<NetPosition> = (0..6).map(|_| rand_pos(&g, &mut rng)).collect();

            let ctx_e = NetCtx::new(&g, &store, &mid);
            let mut euclid = AStar::new(&ctx_e, src);
            let want_single: Vec<f64> = singles.iter().map(|&t| euclid.distance_to(t)).collect();
            let want_pack = euclid.distances_to_pack(&pack);

            let ctx_o = NetCtx::new(&g, &store, &mid).with_bound(&alt);
            let mut with_oracle = AStar::new(&ctx_o, src);
            for (i, &t) in singles.iter().enumerate() {
                let got = with_oracle.distance_to(t);
                assert_eq!(
                    got.to_bits(),
                    want_single[i].to_bits(),
                    "seed {seed} single[{i}]: {got} vs {}",
                    want_single[i]
                );
            }
            let got_pack = with_oracle.distances_to_pack(&pack);
            for (i, (a, b)) in got_pack.iter().zip(&want_pack).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "seed {seed} pack[{i}]");
            }
            assert_eq!(
                with_oracle.expansions(),
                euclid.expansions(),
                "seed {seed}: oracle expanded {} vs Euclid {}",
                with_oracle.expansions(),
                euclid.expansions()
            );
            assert_eq!(with_oracle.retargets(), euclid.retargets(), "seed {seed}");
        }
    }

    /// Each row of the frontier as its entry keyed for the planar target
    /// `to`.
    fn rows_keyed(a: &AStar, to: &Point) -> Vec<Entry> {
        let f = &a.open;
        let rows = f.g.iter().zip(&f.point).zip(&f.node);
        rows.map(|((&g, p), &n)| (OrdF64::new(g + p.distance(to)), OrdF64::new(g), n))
            .collect()
    }

    /// Everything a re-key writes: the rows, the re-key's key buffer, the
    /// unpopped aside entries, the heap and the pending target.
    #[allow(clippy::type_complexity)]
    fn frontier_state(
        a: &AStar,
    ) -> (
        Vec<f64>,
        Vec<Point>,
        Vec<NodeId>,
        Vec<f64>,
        Vec<Entry>,
        Vec<Entry>,
        Option<Point>,
    ) {
        let f = &a.open;
        (
            f.g.clone(),
            f.point.clone(),
            f.node.clone(),
            f.keys.clone(),
            f.aside[f.at..f.end].to_vec(),
            f.heap.iter().map(|r| r.0).collect(),
            f.pending,
        )
    }

    /// The rows hold exactly the live frontier: `slot` and the rows agree,
    /// with one row per open node; no settled node has a row; and the open
    /// nodes and their `g` are what the settled map implies: every
    /// unsettled source-edge endpoint or neighbour of a settled node, at
    /// its smallest offered distance.
    fn assert_live_frontier(a: &AStar) {
        let (f, net) = (&a.open, a.ctx.net);
        assert_eq!(f.g.len(), f.node.len(), "ragged rows");
        assert_eq!(f.point.len(), f.node.len(), "ragged rows");
        assert_eq!(f.slot.len(), f.node.len(), "one row per open node");
        for (i, &n) in f.node.iter().enumerate() {
            assert_eq!(f.slot.get_copied(n), Some(i as u32), "slot of {n:?}");
            assert!(!a.dist.contains(n), "settled {n:?} has a row");
            assert_eq!(f.point[i], net.point(n), "point of {n:?}");
        }
        let edge = net.edge(a.source.edge);
        let (du, dv) = net.position_endpoint_dists(&a.source);
        for v in (0..net.node_count() as u32).map(NodeId) {
            if a.dist.contains(v) {
                continue;
            }
            let seed = [(edge.u, du), (edge.v, dv)].into_iter();
            let seed = seed.filter(|&(s, _)| s == v).map(|(_, d)| d);
            let offered = net
                .adjacent(v)
                .iter()
                .filter_map(|&(e, u)| a.dist.get_copied(u).map(|d| d + net.edge(e).length));
            let want = seed.chain(offered).min_by(f64::total_cmp);
            let got = f.slot.get_copied(v).map(|i| f.g[i as usize]);
            assert_eq!(got, want, "frontier entry of {v:?}");
        }
    }

    /// Retargets `a` to `t` and checks the visit at its first pop (before
    /// it runs). A keyed target passes [`assert_live_frontier`] and sets
    /// aside exactly the `LAZY_TOP` smallest row entries of a brute scan,
    /// leaving the rest out of the heap; an endpoint-exact one keyed
    /// nothing at all. Returns whether `t` was endpoint-exact, and whether
    /// the re-key's `LAZY_TOP`-th and next entries tied on key.
    fn retarget_and_check(a: &mut AStar, t: NetPosition) -> (bool, bool) {
        let before = frontier_state(a);
        a.set_target(t);
        // The peek `advance` makes before its first pop.
        a.is_resolved();
        let (lbt, exact) = a.target.as_ref().map(|t| (t.lbt, t.exact)).unwrap();
        if exact {
            assert_eq!(frontier_state(a), before, "exact retarget keyed");
            return (true, false);
        }
        assert_live_frontier(a);
        let mut want = rows_keyed(a, &lbt.point);
        want.sort_unstable();
        let f = &a.open;
        let top = want.len().min(LAZY_TOP);
        assert_eq!(&f.aside[f.at..f.end], &want[..top], "aside is not the top");
        assert!(f.heap.is_empty(), "a re-key heapified");
        assert_eq!(f.pending.is_some(), want.len() > LAZY_TOP);
        let tie = want.len() > LAZY_TOP && want[LAZY_TOP - 1].0 == want[LAZY_TOP].0;
        (false, tie)
    }

    #[test]
    fn rekeys_walk_only_the_live_frontier() {
        let (mut saw_pops, mut saw_exact, mut saw_keyed) = (false, false, false);
        for seed in 0..4u64 {
            let g = random_net(90, seed + 700);
            let store = NetworkStore::build(&g);
            let mid = MiddleLayer::build(&g, &[]);
            let ctx = NetCtx::new(&g, &store, &mid);
            let mut rng = StdRng::seed_from_u64(seed + 71);
            let src = rand_pos(&g, &mut rng);
            let targets: Vec<NetPosition> = (0..3).map(|_| rand_pos(&g, &mut rng)).collect();
            let mut dij = Dijkstra::new(&ctx, src);
            let mut astar = AStar::new(&ctx, src);
            for round in 0..4 {
                // Alternate the targets a few steps at a time, so rows are
                // swap-removed and lowered in place between re-keys.
                for &t in &targets {
                    let (exact, _) = retarget_and_check(&mut astar, t);
                    saw_exact |= exact;
                    saw_keyed |= !exact;
                    for _ in 0..3 {
                        saw_pops |= astar.advance();
                    }
                    assert_live_frontier(&astar);
                }
                let i = round % targets.len();
                saw_exact |= retarget_and_check(&mut astar, targets[i]).0;
                let want = dij.distance_to_position(&targets[i]);
                let got = astar.run();
                assert!(approx_eq(got, want), "seed {seed}: {got} vs {want}");
                assert_live_frontier(&astar);
            }
        }
        assert!(saw_pops, "the walk never settled a row between re-keys");
        assert!(saw_exact && saw_keyed, "the walk missed a kind of retarget");
    }

    /// The smallest `(key, g, node)` over the rows for the current target,
    /// by brute scan, and its row.
    fn brute_min(a: &AStar, lbt: &LbTarget) -> Option<(Entry, usize)> {
        let rows = rows_keyed(a, &lbt.point).into_iter();
        rows.enumerate().map(|(i, e)| (e, i)).min()
    }

    #[test]
    fn pops_follow_a_brute_frontier_scan() {
        // Random interleavings of retargets over a small target pool
        // (revisits make endpoint-exact retargets), a few pops per visit,
        // plb/is_resolved probes, packs and rebases: every pop must
        // settle the minimum live `(key, g, node)` of a brute scan keyed
        // by the Euclidean distance, under an ALT context as well.
        use crate::oracle::AltOracle;
        let (mut exact_visits, mut heapified_visits, mut moved_rows) = (0u32, 0u32, 0u32);
        for seed in 0..4u64 {
            let g = random_net(70, seed + 900);
            let store = NetworkStore::build(&g);
            let mid = MiddleLayer::build(&g, &[]);
            let alt = AltOracle::build(&g, &store, &mid, 6);
            let euclid_ctx = NetCtx::new(&g, &store, &mid);
            let alt_ctx = NetCtx::new(&g, &store, &mid).with_bound(&alt);
            for ctx in [&euclid_ctx, &alt_ctx] {
                let mut rng = StdRng::seed_from_u64(seed + 17);
                let pool: Vec<NetPosition> = (0..5).map(|_| rand_pos(&g, &mut rng)).collect();
                let mut src = rand_pos(&g, &mut rng);
                let mut dij = Dijkstra::new(ctx, src);
                let mut astar = AStar::new(ctx, src);
                for _ in 0..1200 {
                    match rng.random_range(0..16) {
                        0 => {
                            let pack: Vec<NetPosition> = (0..3)
                                .map(|_| pool[rng.random_range(0..pool.len())])
                                .collect();
                            for (t, got) in pack.iter().zip(astar.distances_to_pack(&pack)) {
                                assert!(approx_eq(got, dij.distance_to_position(t)));
                            }
                        }
                        1 => {
                            src = rand_pos(&g, &mut rng);
                            astar.rebase(src);
                            dij = Dijkstra::new(ctx, src);
                        }
                        _ => {}
                    }
                    let t = pool[rng.random_range(0..pool.len())];
                    let want = dij.distance_to_position(&t);
                    astar.set_target(t);
                    let (lbt, exact) = astar.target.as_ref().map(|t| (t.lbt, t.exact)).unwrap();
                    exact_visits += u32::from(exact);
                    let lazy = astar.open.pending.is_some();
                    let mut plb = astar.plb();
                    assert!(plb <= want + 1e-9, "plb {plb} above distance {want}");
                    for _ in 0..rng.random_range(0..=6) {
                        let (brute, row) = brute_min(&astar, &lbt).unzip();
                        if !exact {
                            assert_eq!(astar.open.peek(), brute, "seed {seed}: frontier min");
                            // Rows left out of the heap always have a live
                            // aside entry standing in front of them.
                            let f = &astar.open;
                            let front = f.front().is_some_and(|e| f.is_live(e));
                            assert!(front || f.pending.is_none(), "unguarded rows");
                        }
                        let will_pop = !astar.is_resolved();
                        assert!(!(exact && will_pop), "an exact target must not pop");
                        let expect = if will_pop { brute } else { None };
                        let before = astar.expansions();
                        assert_eq!(astar.advance(), will_pop);
                        match expect {
                            Some((_, gk, n)) => {
                                // Settling a row other than the last moves
                                // the last row into its place.
                                let last = astar.open.node.len();
                                moved_rows += u32::from(row.is_some_and(|i| i < last));
                                assert_eq!(astar.expansions(), before + 1);
                                assert_eq!(
                                    astar.dist.get_copied(n).map(f64::to_bits),
                                    Some(gk.get().to_bits()),
                                    "seed {seed}: popped off the brute-scan minimum"
                                );
                            }
                            None => assert_eq!(astar.expansions(), before),
                        }
                        if rng.random_bool(0.5) {
                            let now = astar.plb();
                            assert!(now >= plb, "plb regressed within a visit");
                            assert!(now <= want + 1e-9, "plb {now} above distance {want}");
                            plb = now;
                        }
                    }
                    heapified_visits += u32::from(lazy && astar.open.pending.is_none());
                    if astar.is_resolved() {
                        let got = astar.result();
                        assert!(approx_eq(got, want), "seed {seed}: {got} vs {want}");
                    }
                }
            }
        }
        assert!(exact_visits > 0, "no endpoint-exact retarget exercised");
        assert!(heapified_visits > 0, "no on-demand heapify exercised");
        assert!(moved_rows > 0, "no swap-removal moved a row");
    }

    /// A `(2k + 1)²` lattice of unit edges centred on the origin, so its
    /// keys tie exactly: mirror images across the horizontal axis share
    /// `g` and key for any target on it, and the axis nodes between a
    /// source and a target on the axis share a key at different `g`. Node
    /// ids are shuffled, so the rows of tied nodes come in either order.
    fn lattice(k: i32, seed: u64) -> RoadNetwork {
        let side = 2 * k + 1;
        let mut id: Vec<u32> = (0..(side * side) as u32).collect();
        id.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut at = vec![Point::ORIGIN; id.len()];
        for y in -k..=k {
            for x in -k..=k {
                at[id[((y + k) * side + x + k) as usize] as usize] =
                    Point::new(f64::from(x), f64::from(y));
            }
        }
        let mut b = NetworkBuilder::new();
        for p in at {
            b.add_node(p);
        }
        let node = |x: i32, y: i32| NodeId(id[((y + k) * side + x + k) as usize]);
        for y in -k..=k {
            for x in -k..=k {
                if x < k {
                    b.add_straight_edge(node(x, y), node(x + 1, y)).unwrap();
                }
                if y < k {
                    b.add_straight_edge(node(x, y), node(x, y + 1)).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    /// The mid-point of the lattice's axis edge from `(x, 0)` to `(x + 1, 0)`.
    fn axis_pos(g: &RoadNetwork, x: f64) -> NetPosition {
        let e = (0..g.edge_count() as u32)
            .map(EdgeId)
            .find(|&e| {
                let (p, q) = (g.point(g.edge(e).u), g.point(g.edge(e).v));
                p.y == 0.0 && q.y == 0.0 && p.x.min(q.x) == x
            })
            .expect("an axis edge");
        NetPosition::new(e, 0.5 * g.edge(e).length)
    }

    #[test]
    fn key_ties_at_the_aside_boundary_pop_in_entry_order() {
        // Targets on the axis of a symmetric lattice, visited in turn a
        // few pops at a time: every keyed re-key must set aside exactly the
        // brute scan's smallest entries even when the next entry ties the
        // largest of them on key, and every pop must follow the brute scan.
        let k = 6;
        let (mut ties, mut tie_pops) = (0u32, 0u32);
        for seed in 0..4u64 {
            let g = lattice(k, seed);
            let store = NetworkStore::build(&g);
            let mid = MiddleLayer::build(&g, &[]);
            let ctx = NetCtx::new(&g, &store, &mid);
            let src = axis_pos(&g, 0.0);
            let targets = [f64::from(k - 1), f64::from(-k), 2.0].map(|x| axis_pos(&g, x));
            let mut dij = Dijkstra::new(&ctx, src);
            let mut astar = AStar::new(&ctx, src);
            for round in 0..30 {
                for &t in &targets {
                    let (exact, tie) = retarget_and_check(&mut astar, t);
                    ties += u32::from(tie);
                    let lbt = astar.target.as_ref().map(|t| t.lbt).unwrap();
                    for _ in 0..LAZY_TOP + 1 {
                        let brute = brute_min(&astar, &lbt).map(|(e, _)| e);
                        if exact || astar.is_resolved() {
                            break;
                        }
                        assert_eq!(astar.open.peek(), brute, "round {round}: frontier min");
                        assert!(astar.advance());
                        let (_, gk, n) = brute.expect("a frontier entry");
                        assert_eq!(astar.dist.get_copied(n), Some(gk.get()), "round {round}");
                        tie_pops += u32::from(tie);
                    }
                    if astar.is_resolved() {
                        let want = dij.distance_to_position(&t);
                        assert_eq!(astar.result().to_bits(), want.to_bits(), "round {round}");
                    }
                }
            }
        }
        assert!(ties > 0 && tie_pops > 0, "no key tie at the aside boundary");
    }

    #[test]
    fn endpoint_exact_retarget_skips_the_rekey() {
        let g = random_net(80, 41);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let mut rng = StdRng::seed_from_u64(43);
        let src = rand_pos(&g, &mut rng);
        let mut astar = AStar::new(&ctx, src);
        astar.distance_to(rand_pos(&g, &mut rng));
        astar.distance_to(rand_pos(&g, &mut rng));
        let settled = |a: &AStar, e: EdgeId| {
            let edge = g.edge(e);
            (a.dist.contains(edge.u), a.dist.contains(edge.v))
        };
        let edges = || (0..g.edge_count() as u32).map(EdgeId);
        let e = edges()
            .find(|&e| e != src.edge && settled(&astar, e) == (true, true))
            .expect("an edge with both endpoints settled");
        let pos = NetPosition::new(e, 0.3 * g.edge(e).length);

        let (exp, rt, state) = (
            astar.expansions(),
            astar.retargets(),
            frontier_state(&astar),
        );
        assert!(
            !astar.open.node.is_empty(),
            "an open frontier to leave alone"
        );
        astar.set_target(pos);
        assert_eq!(astar.expansions(), exp);
        assert_eq!(frontier_state(&astar), state, "an exact retarget keyed");
        assert!(astar.is_resolved());
        assert!(!astar.advance(), "an exact target pops nothing");
        let (plb, d) = (astar.plb(), astar.result());
        assert_eq!(plb.to_bits(), d.to_bits());
        assert_eq!(
            AStar::new(&ctx, src).distance_to(pos).to_bits(),
            d.to_bits()
        );
        assert_eq!(astar.retargets(), rt + 1);
        assert_eq!(astar.expansions(), exp);

        // The frontier still holds keys for an older target; a far,
        // non-exact retarget must re-key rather than pop them.
        let f = &astar.open;
        assert!(
            f.front().is_some() || !f.heap.is_empty(),
            "no older keys left"
        );
        let far = edges()
            .find(|&e| settled(&astar, e) == (false, false))
            .expect("an edge with no endpoint settled");
        let far = NetPosition::new(far, 0.5 * g.edge(far).length);
        astar.set_target(far);
        let got = astar.run();
        let want = Dijkstra::new(&ctx, src).distance_to_position(&far);
        assert!(approx_eq(got, want), "{got} vs {want}");
    }

    #[test]
    fn zero_distance_to_self() {
        let g = random_net(20, 2);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let pos = NetPosition::new(EdgeId(3), 0.4 * g.edge(EdgeId(3)).length);
        let mut astar = AStar::new(&ctx, pos);
        assert!(approx_eq(astar.distance_to(pos), 0.0));
    }
}

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
//! the rest only once those are used up (DESIGN.md §11.6).
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
    /// Frontier: best tentative distance and coordinates.
    open: NodeMap<(f64, Point)>,
    /// Min-heap keyed by `g + h(current target)`; entries carry `g` so
    /// stale ones can be skipped after relaxations or retargets. While a
    /// lazy re-key is pending it holds only what `expand` pushed since.
    heap: BinaryHeap<Reverse<Entry>>,
    /// Lazy re-key: keyed frontier entries not yet heapified, each larger
    /// than every entry of `aside`.
    keyed: Vec<Reverse<Entry>>,
    /// Lazy re-key: the re-key's `LAZY_TOP` smallest entries, sorted
    /// descending so the smallest is last.
    aside: Vec<Entry>,
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
            open: NodeMap::new(ctx.net.node_count()),
            heap: BinaryHeap::new(),
            keyed: Vec::new(),
            aside: Vec::new(),
            target: None,
            rec: AdjRecord::default(),
            expansions: 0,
            confirms: 0,
            retargets: 0,
            pack_targets: 0,
        };
        let edge = ctx.net.edge(source.edge);
        let (du, dv) = ctx.net.position_endpoint_dists(&source);
        a.open.insert(edge.u, (du, ctx.net.point(edge.u)));
        a.open.insert(edge.v, (dv, ctx.net.point(edge.v)));
        // The heap stays empty until a target defines the heuristic.
        a
    }

    /// Restarts this engine at a new `source` with no target, reusing the
    /// existing allocations (node maps, heap, scratch adjacency record).
    ///
    /// Equivalent to `*self = AStar::new(ctx, source)` but O(frontier): the
    /// generation-stamped [`NodeMap`]s reset in O(1).
    pub fn rebase(&mut self, source: NetPosition) {
        self.source = source;
        self.source_point = self.ctx.net.position_point(&source);
        self.dist.clear();
        self.open.clear();
        self.heap.clear();
        self.keyed.clear();
        self.aside.clear();
        self.target = None;
        self.expansions = 0;
        self.confirms = 0;
        self.retargets = 0;
        self.pack_targets = 0;
        let edge = self.ctx.net.edge(source.edge);
        let (du, dv) = self.ctx.net.position_endpoint_dists(&source);
        self.open.insert(edge.u, (du, self.ctx.net.point(edge.u)));
        self.open.insert(edge.v, (dv, self.ctx.net.point(edge.v)));
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
            self.rekey(&lbt);
            plb = plb.min(self.frontier_key().unwrap_or(f64::INFINITY));
        }
        // An exact target leaves the frontier keyed for an older one; the
        // next re-key rebuilds from `open`, so nothing pops those keys.
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
        self.peek_live().map(|(key, ..)| key.get())
    }

    /// `true` while `e` still describes its node: the node is on the
    /// frontier with `e`'s `g`. A stale entry never becomes live again,
    /// because `g` only falls and settled nodes never reopen.
    fn is_live(&self, (_, g, n): Entry) -> bool {
        matches!(self.open.get(n), Some(&(cur, _)) if cur == g.get())
    }
    /// The smallest live frontier entry, dropping the stale entries it
    /// passes. While a lazy re-key is pending, every `keyed` entry is
    /// larger than every `aside` entry, so the smaller of the first live
    /// aside entry and the heap's live head is the minimum; once no aside
    /// entry is live, `keyed` is heapified together with `heap`.
    fn peek_live(&mut self) -> Option<Entry> {
        while let Some(&e) = self.aside.last() {
            if self.is_live(e) {
                break;
            }
            self.aside.pop();
        }
        if self.aside.is_empty() && !self.keyed.is_empty() {
            // O(n) heapify, swapping the two allocations for reuse.
            self.keyed.extend(self.heap.drain());
            let keyed = std::mem::take(&mut self.keyed);
            self.keyed = std::mem::replace(&mut self.heap, BinaryHeap::from(keyed)).into_vec();
        }
        while let Some(&Reverse(e)) = self.heap.peek() {
            if self.is_live(e) {
                break;
            }
            self.heap.pop();
        }
        match (self.aside.last().copied(), self.heap.peek().map(|r| r.0)) {
            (Some(a), Some(h)) => Some(a.min(h)),
            (a, h) => a.or(h),
        }
    }

    /// Removes and returns the smallest live frontier entry
    /// (`peek_live`'s).
    fn pop_live(&mut self) -> Option<Entry> {
        let e = self.peek_live()?;
        if self.aside.last() == Some(&e) {
            self.aside.pop();
        } else {
            self.heap.pop();
        }
        Some(e)
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
        let Some((_key, g, n)) = self.pop_live() else {
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

    /// Settles frontier node `n` at its exact distance `g` and relaxes its
    /// out-edges (one counted page access), keying each improved frontier
    /// entry `g' + h` with `h` the planar distance to `lbt`.
    fn expand(&mut self, n: NodeId, g: f64, lbt: &LbTarget) {
        self.open.remove(n);
        self.dist.insert(n, g);
        self.expansions += 1;
        self.ctx.store.read_adjacency_into(n, &mut self.rec);
        for i in 0..self.rec.entries.len() {
            let ent = self.rec.entries[i];
            if self.dist.contains(ent.node) {
                continue;
            }
            let ng = g + ent.length;
            let better = match self.open.get(ent.node) {
                Some(&(cur, _)) => ng < cur,
                None => true,
            };
            if better {
                self.open.insert(ent.node, (ng, ent.point));
                let h = ent.point.distance(&lbt.point);
                self.heap
                    .push(Reverse((OrdF64::new(ng + h), OrdF64::new(ng), ent.node)));
            }
        }
    }

    /// Re-keys the frontier for `lbt` (as in `expand`) without
    /// heapifying it: one pass over the keys touched since the last
    /// re-key (compaction), then one pass keying each live frontier node,
    /// which sets the `LAZY_TOP` smallest entries aside, sorted, and leaves
    /// the rest in `keyed` for `peek_live` to heapify on demand. Pops
    /// follow the total order on `(key, g, node)`, so results do not
    /// depend on how the frontier is stored.
    fn rekey(&mut self, lbt: &LbTarget) {
        self.open.compact();
        self.heap.clear();
        self.keyed.clear();
        self.aside.clear();
        for (n, &(g, p)) in self.open.iter() {
            let e = (OrdF64::new(g + p.distance(&lbt.point)), OrdF64::new(g), n);
            if self.aside.len() == LAZY_TOP {
                if e > self.aside[0] {
                    self.keyed.push(Reverse(e));
                    continue;
                }
                self.keyed.push(Reverse(self.aside.remove(0)));
            }
            let at = self.aside.partition_point(|a| *a > e);
            self.aside.insert(at, e);
        }
        // Contract: one entry per live frontier node; a stale or
        // duplicated key shows here.
        #[cfg(feature = "invariant-checks")]
        assert_eq!(
            self.keyed.len() + self.aside.len(),
            self.open.len(),
            "A* re-key does not match the live frontier"
        );
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
        astar.rekey(&lbt);
        while let Some((_, gk, n)) = astar.pop_live() {
            astar.expand(n, gk.get(), &lbt);
        }
        let exp_before = astar.expansions();
        let keys = astar.open.key_list_len();
        assert!(keys > astar.open.len(), "removed keys await a compaction");
        let again = astar.distances_to_pack(&targets);
        assert_eq!(
            astar.expansions(),
            exp_before,
            "no expansions on settled state"
        );
        assert_eq!(
            astar.open.key_list_len(),
            keys,
            "no re-key on settled state"
        );
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

    /// Every frontier entry the engine holds: the aside entries and the
    /// keyed buffer of a lazy re-key, then the heap.
    fn frontier_entries(a: &AStar) -> Vec<Entry> {
        let keyed = a.keyed.iter().map(|r| r.0);
        let heap = a.heap.iter().map(|r| r.0);
        a.aside.iter().copied().chain(keyed).chain(heap).collect()
    }

    /// After a re-key, before its first pop: the `open` key list holds only
    /// live nodes, and the aside entries, the keyed buffer and the heap
    /// together hold one entry per live frontier node, each carrying the
    /// node's current `g`.
    fn assert_live_rekey(a: &AStar) {
        assert_eq!(
            a.open.key_list_len(),
            a.open.len(),
            "removed keys survived the re-key"
        );
        let entries = frontier_entries(a);
        assert_eq!(entries.len(), a.open.len(), "one entry per frontier node");
        let mut nodes: Vec<NodeId> = Vec::new();
        for (_, g, n) in &entries {
            assert_eq!(
                a.open.get(*n).map(|&(d, _)| d),
                Some(g.get()),
                "frontier entry for {n:?} is off the live frontier"
            );
            nodes.push(*n);
        }
        nodes.sort_unstable_by_key(|n| n.0);
        nodes.dedup();
        assert_eq!(nodes.len(), entries.len(), "duplicate frontier entries");
    }

    /// Retargets `a` to `t` and checks the visit at its first pop (before
    /// it runs): a keyed target passes [`assert_live_rekey`], and an
    /// endpoint-exact one keyed nothing at all. Returns whether `t` was
    /// endpoint-exact.
    fn retarget_and_check(a: &mut AStar, t: NetPosition) -> bool {
        let (entries, keys) = (frontier_entries(a), a.open.key_list_len());
        a.set_target(t);
        // The peek `advance` makes before its first pop.
        a.is_resolved();
        let exact = a.target.as_ref().is_some_and(|t| t.exact);
        if exact {
            assert_eq!(a.open.key_list_len(), keys, "exact retarget compacted");
            assert_eq!(frontier_entries(a), entries, "exact retarget keyed");
        } else {
            assert_live_rekey(a);
        }
        exact
    }

    #[test]
    fn rekeys_walk_only_the_live_frontier() {
        let (mut saw_removed_keys, mut saw_exact, mut saw_keyed) = (false, false, false);
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
                // Alternate the targets a few steps at a time, so settled
                // nodes pile up in `open`'s key list between re-keys.
                for &t in &targets {
                    saw_removed_keys |= astar.open.key_list_len() > astar.open.len();
                    let exact = retarget_and_check(&mut astar, t);
                    saw_exact |= exact;
                    saw_keyed |= !exact;
                    for _ in 0..3 {
                        astar.advance();
                    }
                }
                let i = round % targets.len();
                saw_exact |= retarget_and_check(&mut astar, targets[i]);
                let want = dij.distance_to_position(&targets[i]);
                let got = astar.run();
                assert!(approx_eq(got, want), "seed {seed}: {got} vs {want}");
            }
        }
        assert!(saw_removed_keys, "the walk never had removed keys to drop");
        assert!(saw_exact && saw_keyed, "the walk missed a kind of retarget");
    }

    /// The smallest `(key, g, node)` over `open` for the current target,
    /// by brute scan.
    fn brute_min(a: &AStar, lbt: &LbTarget) -> Option<Entry> {
        a.open
            .iter()
            .map(|(n, &(g, p))| {
                let key = g + p.distance(&lbt.point);
                (OrdF64::new(key), OrdF64::new(g), n)
            })
            .min()
    }

    #[test]
    fn pops_follow_a_brute_frontier_scan() {
        // Random interleavings of retargets over a small target pool
        // (revisits make endpoint-exact retargets), a few pops per visit,
        // plb/is_resolved probes, packs and rebases: every pop must
        // settle the minimum live `(key, g, node)` of a brute scan keyed
        // by the Euclidean distance, under an ALT context as well.
        use crate::oracle::AltOracle;
        let (mut exact_visits, mut heapified_visits) = (0u32, 0u32);
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
                    let lazy = !astar.keyed.is_empty();
                    let mut plb = astar.plb();
                    assert!(plb <= want + 1e-9, "plb {plb} above distance {want}");
                    for _ in 0..rng.random_range(0..=6) {
                        let brute = brute_min(&astar, &lbt);
                        if !exact {
                            assert_eq!(astar.peek_live(), brute, "seed {seed}: frontier min");
                            // A lazy buffer always has a live aside entry
                            // standing in front of it.
                            let front = astar.aside.last().is_some_and(|&e| astar.is_live(e));
                            assert!(front || astar.keyed.is_empty(), "unguarded buffer");
                        }
                        let will_pop = !astar.is_resolved();
                        assert!(!(exact && will_pop), "an exact target must not pop");
                        let expect = if will_pop { brute } else { None };
                        let before = astar.expansions();
                        assert_eq!(astar.advance(), will_pop);
                        match expect {
                            Some((_, gk, n)) => {
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
                    heapified_visits += u32::from(lazy && astar.keyed.is_empty());
                    if astar.is_resolved() {
                        let got = astar.result();
                        assert!(approx_eq(got, want), "seed {seed}: {got} vs {want}");
                    }
                }
            }
        }
        assert!(exact_visits > 0, "no endpoint-exact retarget exercised");
        assert!(heapified_visits > 0, "no on-demand heapify exercised");
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

        let (exp, rt, keys) = (
            astar.expansions(),
            astar.retargets(),
            astar.open.key_list_len(),
        );
        assert!(keys > astar.open.len(), "removed keys await a compaction");
        astar.set_target(pos);
        assert_eq!(astar.expansions(), exp);
        assert_eq!(astar.open.key_list_len(), keys, "`open` was compacted");
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
        assert!(!frontier_entries(&astar).is_empty(), "no older keys left");
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

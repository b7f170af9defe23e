//! Incremental network expansion (INE): data objects in ascending network
//! distance.
//!
//! CE's primitive operation (§4.1) is "find the next nearest neighbor based
//! on the network distance ... to each query point using Dijkstra's
//! shortest path algorithm". [`IncrementalExpansion`] wraps a resumable
//! [`Dijkstra`] wavefront and the middle layer:
//!
//! * whenever a node is settled, every incident edge is probed in the
//!   middle layer for objects; an object `p` on edge `(u, v)` reached via
//!   settled endpoint `u` gets the tentative distance `d(u) + d(u, p)`
//!   (pre-computed offset);
//! * a tentative distance is *final* once it does not exceed the wavefront
//!   radius — any path through the unsettled remainder of the network is at
//!   least `radius` long;
//! * objects on the source's own edge are seeded with the direct
//!   along-edge distance before any expansion.
//!
//! Objects therefore emerge in exactly ascending `d_N` order — the "visited
//! by `q`" order of the paper.

use crate::ctx::NetCtx;
use crate::dijkstra::Dijkstra;
use rn_geom::OrdF64;
use rn_graph::{NetPosition, ObjectId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

/// Iterator-like producer of `(object, network distance)` pairs in
/// ascending distance order from one query point.
pub struct IncrementalExpansion<'a> {
    ctx: &'a NetCtx<'a>,
    dij: Dijkstra<'a>,
    /// Best tentative object distances (lazy heap companion map). Ordered
    /// map: the query path must stay deterministic across runs.
    best: BTreeMap<ObjectId, f64>,
    /// Pending objects keyed by tentative distance.
    pending: BinaryHeap<Reverse<(OrdF64, ObjectId)>>,
    /// Objects already reported.
    emitted: BTreeSet<ObjectId>,
    /// Objects emitted so far (`next_nearest` returning `Some`).
    emissions: u64,
}

impl<'a> IncrementalExpansion<'a> {
    /// Starts incremental discovery from `source`.
    pub fn new(ctx: &'a NetCtx<'a>, source: NetPosition) -> Self {
        let mut ine = IncrementalExpansion {
            ctx,
            dij: Dijkstra::new(ctx, source),
            best: BTreeMap::new(),
            pending: BinaryHeap::new(),
            emitted: BTreeSet::new(),
            emissions: 0,
        };
        // Objects sharing the source edge are reachable directly along it.
        for rec in ctx.mid.objects_on_edge(source.edge) {
            let d = (rec.d_u - source.offset).abs();
            ine.relax_object(rec.object, d);
        }
        ine
    }

    /// The underlying wavefront (for radius/settled-count introspection).
    pub fn wavefront(&self) -> &Dijkstra<'a> {
        &self.dij
    }

    /// `true` when the budget guard stopped the underlying wavefront.
    /// Objects already certified (tentative distance within the frozen
    /// radius) can still be emitted; everything else stays pending with
    /// [`Self::emission_bound`] as its certified lower bound.
    pub fn interrupted(&self) -> bool {
        self.dij.interrupted()
    }

    /// Objects emitted so far in ascending network-distance order.
    pub fn emissions(&self) -> u64 {
        self.emissions
    }

    /// A certified lower bound on the network distance of every object
    /// **not yet emitted** by this expansion.
    ///
    /// Two facts combine: (a) any undiscovered object lies beyond the
    /// wavefront, at distance at least `radius`; (b) any discovered but
    /// unemitted object sits in the pending queue, whose minimum key
    /// lower-bounds all of them (tentative distances can only improve
    /// through unsettled territory, i.e. by at least `radius` again).
    /// Hence `min(radius, pending-top)` — or just the pending top once the
    /// wavefront is exhausted, or infinity when nothing remains at all.
    ///
    /// Emission is *lazy* (one object per [`Self::next_nearest`] call), so
    /// this bound — not the raw radius — is what callers must use to
    /// certify "every object within distance `d` has been emitted"
    /// (strictly: `emission_bound() > d`).
    pub fn emission_bound(&self) -> f64 {
        let pend = self
            .pending
            .peek()
            .map(|Reverse((d, _))| d.get())
            .unwrap_or(f64::INFINITY);
        if self.dij.is_exhausted() {
            pend
        } else {
            pend.min(self.dij.radius())
        }
    }

    fn relax_object(&mut self, obj: ObjectId, d: f64) {
        let better = match self.best.get(&obj) {
            Some(&cur) => d < cur,
            None => true,
        };
        if better && !self.emitted.contains(&obj) {
            self.best.insert(obj, d);
            self.pending.push(Reverse((OrdF64::new(d), obj)));
        }
    }

    /// The next nearest not-yet-reported object, with its exact network
    /// distance; `None` when every reachable object has been reported.
    pub fn next_nearest(&mut self) -> Option<(ObjectId, f64)> {
        loop {
            // Emit when the best pending object can no longer be beaten by
            // paths through unsettled territory.
            if let Some(&Reverse((d, obj))) = self.pending.peek() {
                let d = d.get();
                let fresh = self.best.get(&obj) == Some(&d) && !self.emitted.contains(&obj);
                if !fresh {
                    self.pending.pop();
                    continue;
                }
                if d <= self.dij.radius() || self.dij.is_exhausted() {
                    self.pending.pop();
                    self.emitted.insert(obj);
                    self.emissions += 1;
                    return Some((obj, d));
                }
            } else if self.dij.is_exhausted() {
                return None;
            }

            // Otherwise grow the wavefront by one node and probe the edges
            // around it for objects.
            let Some((node, dist)) = self.dij.settle_next() else {
                if self.dij.interrupted() {
                    // Budget tripped: the wavefront is frozen, not
                    // exhausted. Any pending object within the radius
                    // was already emitted by the peek above; the rest
                    // cannot be certified, so stop rather than spin.
                    return None;
                }
                continue; // exhausted; loop re-checks pending
            };
            // The adjacency record was just read (and paid for); probe the
            // middle layer for each incident edge.
            for i in 0..self.dij.last_adjacency().entries.len() {
                let ent = self.dij.last_adjacency().entries[i];
                let recs = self.ctx.mid.objects_on_edge(ent.edge);
                if recs.is_empty() {
                    continue;
                }
                // Orientation: is `node` the u or the v endpoint?
                let at_u = self.ctx.net.edge(ent.edge).u == node;
                for k in 0..recs.len() {
                    let rec = self.ctx.mid.objects_on_edge(ent.edge)[k];
                    let off = if at_u { rec.d_u } else { rec.d_v };
                    self.relax_object(rec.object, dist + off);
                }
            }
        }
    }

    /// Runs discovery to completion and returns all reachable objects in
    /// ascending distance order.
    pub fn drain(&mut self) -> Vec<(ObjectId, f64)> {
        let mut out = Vec::new();
        while let Some(x) = self.next_nearest() {
            out.push(x);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp_oracle::position_distance_oracle;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use rn_geom::{approx_eq, Point};
    use rn_graph::{EdgeId, NetworkBuilder, RoadNetwork};
    use rn_index::MiddleLayer;
    use rn_storage::NetworkStore;
    use std::collections::HashSet;

    fn random_net(n: usize, seed: u64) -> RoadNetwork {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = NetworkBuilder::new();
        let pts: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.random_range(0.0..100.0), rng.random_range(0.0..100.0)))
            .collect();
        for p in &pts {
            b.add_node(*p);
        }
        for i in 1..n {
            let j = rng.random_range(0..i);
            let len = pts[i].distance(&pts[j]) * rng.random_range(1.0..1.4);
            b.add_weighted_edge(rn_graph::NodeId(i as u32), rn_graph::NodeId(j as u32), len)
                .unwrap();
        }
        for _ in 0..n / 2 {
            let i = rng.random_range(0..n);
            let j = rng.random_range(0..n);
            if i != j {
                let len = pts[i].distance(&pts[j]) * rng.random_range(1.0..1.3);
                let _ = b.add_weighted_edge(
                    rn_graph::NodeId(i as u32),
                    rn_graph::NodeId(j as u32),
                    len,
                );
            }
        }
        b.build().unwrap()
    }

    fn rand_positions(g: &RoadNetwork, k: usize, seed: u64) -> Vec<NetPosition> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..k)
            .map(|_| {
                let e = EdgeId(rng.random_range(0..g.edge_count() as u32));
                NetPosition::new(e, rng.random_range(0.0..g.edge(e).length))
            })
            .collect()
    }

    #[test]
    fn emits_in_ascending_order_with_exact_distances() {
        for seed in 0..4u64 {
            let g = random_net(40, seed);
            let objs = rand_positions(&g, 25, seed + 100);
            let store = NetworkStore::build(&g);
            let mid = MiddleLayer::build(&g, &objs);
            let ctx = NetCtx::new(&g, &store, &mid);
            let src = rand_positions(&g, 1, seed + 200)[0];

            let mut ine = IncrementalExpansion::new(&ctx, src);
            let got = ine.drain();
            assert_eq!(got.len(), objs.len(), "all objects reachable");

            // Ascending order.
            for w in got.windows(2) {
                assert!(w[0].1 <= w[1].1 + 1e-9);
            }
            // Exact distances per the oracle.
            let oracle = position_distance_oracle(&g);
            for (obj, d) in &got {
                let want = oracle(&src, &objs[obj.idx()]);
                assert!(
                    approx_eq(*d, want),
                    "seed {seed} obj {obj:?}: INE={d} oracle={want}"
                );
            }
        }
    }

    #[test]
    fn source_edge_objects_found_without_expansion() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(10.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        let g = b.build().unwrap();
        let objs = vec![NetPosition::new(EdgeId(0), 7.0)];
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &objs);
        let ctx = NetCtx::new(&g, &store, &mid);
        let mut ine = IncrementalExpansion::new(&ctx, NetPosition::new(EdgeId(0), 2.0));
        let (obj, d) = ine.next_nearest().unwrap();
        assert_eq!(obj, ObjectId(0));
        assert!(approx_eq(d, 5.0));
        assert!(ine.next_nearest().is_none());
    }

    #[test]
    fn each_object_emitted_once() {
        let g = random_net(30, 9);
        // Pile several objects on the same few edges.
        let mut objs = rand_positions(&g, 10, 55);
        let dup_src = objs[0];
        objs.push(NetPosition::new(dup_src.edge, dup_src.offset * 0.5));
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &objs);
        let ctx = NetCtx::new(&g, &store, &mid);
        let src = rand_positions(&g, 1, 77)[0];
        let mut ine = IncrementalExpansion::new(&ctx, src);
        let got = ine.drain();
        let ids: HashSet<ObjectId> = got.iter().map(|&(o, _)| o).collect();
        assert_eq!(ids.len(), got.len(), "no duplicates");
        assert_eq!(ids.len(), objs.len());
    }

    #[test]
    fn interrupted_expansion_stops_instead_of_spinning() {
        let g = random_net(40, 3);
        let objs = rand_positions(&g, 25, 103);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &objs);
        let budget = rn_obs::QueryBudget::unlimited().with_max_expansions(5);
        let guard = rn_obs::ExecGuard::new(&budget, store.stats().faults());
        let ctx = NetCtx::with_guard(&g, &store, &mid, Some(&guard));
        let src = rand_positions(&g, 1, 203)[0];
        let mut ine = IncrementalExpansion::new(&ctx, src);
        // Must terminate (the pre-fix failure mode was an infinite loop
        // re-checking a frozen pending queue) and must not pretend the
        // wavefront is exhausted.
        let got = ine.drain();
        assert!(ine.interrupted());
        assert!(!ine.wavefront().is_exhausted());
        assert!(
            got.len() < objs.len(),
            "budget of 5 settles cannot certify all"
        );
        // Everything emitted was certified against the frozen radius.
        let bound = ine.emission_bound();
        assert!(bound.is_finite());
        for (_, d) in &got {
            assert!(*d <= bound + 1e-9);
        }
        // The certified prefix matches what an unbudgeted run emits first.
        let free = NetCtx::new(&g, &store, &mid);
        let mut full = IncrementalExpansion::new(&free, src);
        for (obj, d) in &got {
            let (o2, d2) = full.next_nearest().unwrap();
            assert_eq!(*obj, o2);
            assert!(approx_eq(*d, d2));
        }
    }

    #[test]
    fn no_objects_terminates_immediately() {
        let g = random_net(15, 1);
        let store = NetworkStore::build(&g);
        let mid = MiddleLayer::build(&g, &[]);
        let ctx = NetCtx::new(&g, &store, &mid);
        let src = rand_positions(&g, 1, 2)[0];
        let mut ine = IncrementalExpansion::new(&ctx, src);
        assert!(ine.next_nearest().is_none());
        assert!(ine.wavefront().is_exhausted());
    }
}

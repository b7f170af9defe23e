//! Incremental skyline maintenance under edge-weight and object churn
//! (DESIGN.md §15).
//!
//! A [`DynamicEngine`] wraps a [`SkylineEngine`] and keeps, for every
//! *registered* query, the exact network-distance vector of every live
//! object. Every row is resolved one way: one A\* engine per query point,
//! its settled map shared across the rows it resolves. Registration
//! resolves every live row, and applying an [`UpdateBatch`] follows one
//! rule:
//!
//! * a batch that changes some edge's weight re-resolves every live row
//!   of every registered query, after re-deriving every query point from
//!   its stored fractions;
//! * any other batch resolves only the slots it inserted;
//! * deletions cost zero expansions — the retired row simply stops
//!   participating in dominance adjudication.
//!
//! A weight rewrite that the free-flow clamp of
//! [`RoadNetwork::set_edge_weight`](rn_graph::RoadNetwork::set_edge_weight)
//! leaves where it was changes nothing. Re-resolving every row after a
//! weight change is deliberate: A\* toward a subset of rows spread over
//! the map settles nearly the region A\* toward every row settles, so
//! picking rows saves almost nothing (DESIGN.md §15.2 measures the
//! blast-radius certificates that did).
//!
//! # Bitwise contract
//!
//! After any update sequence, [`DynamicEngine::skyline`] is bitwise
//! identical — object ids, vectors, and completeness — to a from-scratch
//! [`SkylineEngine`] built over the mutated network and the surviving
//! slot layout ([`DynamicEngine::scratch_engine`]). Three facts carry the
//! contract: object and query positions are stored as *weight
//! fractions* and re-derived as `frac * weight` (never rescaled
//! incrementally), so applying a batch and its
//! [`UpdateBatch::inverse`] restores every coordinate bit-for-bit; a row
//! is kept only when its batch changed no weight, so no distance it holds
//! can have moved; and every other row goes through the same A\* a fresh
//! registration runs, whose row is the same float sum an INE drain
//! reports (DESIGN.md §15.2).

use crate::engine::SkylineEngine;
use crate::stats::SkylinePoint;
use rn_geom::Mbr;
use rn_graph::{EdgeId, NetPosition, ObjectId, Update, UpdateBatch};
use rn_obs::{Metric, QueryTrace};
use rn_skyline::brute_force_skyline;
use rn_sp::{AStar, NetCtx};

/// What happens to a precomputed lower-bound oracle when a batch lowers
/// an edge weight (increases never invalidate it — see
/// [`LowerBound::note_weight_change`](rn_sp::LowerBound::note_weight_change)).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OracleMaintenance {
    /// Mark the oracle stale: every bound degrades to its Euclidean floor
    /// until the caller rebuilds. Cheap, always sound, weaker pruning.
    #[default]
    Degrade,
    /// Re-run the oracle build against the mutated network immediately
    /// (counted in `dyn.oracle.rebuilds`). Expensive, restores full
    /// pruning strength for the queries run on [`DynamicEngine::engine`];
    /// maintenance itself never reads the bound.
    Rebuild,
}

/// Handle to a registered query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueryId(usize);

/// What one [`DynamicEngine::apply`] did, for the bench harness.
#[derive(Clone, Debug, Default)]
pub struct MaintenanceOutcome {
    /// Updates applied (`dyn.updates.applied`).
    pub updates: u64,
    /// Live `(query, object)` rows re-resolved
    /// (`dyn.candidates.invalidated`).
    pub invalidated: u64,
    /// Registered queries that re-resolved some, but not all, of their
    /// live rows (`dyn.recompute.incremental`).
    pub incremental: u64,
    /// Registered queries that re-resolved every live row — every query,
    /// when the batch changed some edge's weight (`dyn.recompute.full`).
    pub full: u64,
    /// Oracle rebuilds triggered (`dyn.oracle.rebuilds`).
    pub oracle_rebuilds: u64,
    /// A\* node expansions the re-resolved rows cost.
    pub expansions: u64,
}

/// One registered query: canonical point fractions plus the maintained
/// exact distance table (slot-indexed; retired rows are inert).
struct RegisteredQuery {
    /// The edge each query point lives on.
    edges: Vec<EdgeId>,
    /// Weight fraction of each query point along its edge.
    fracs: Vec<f64>,
    /// Current canonical positions (`offset = frac * weight`).
    points: Vec<NetPosition>,
    /// `table[slot][k]` = exact `d_N(q_k, slot)`; rows of retired slots
    /// keep `∞` and never reach adjudication.
    table: Vec<Vec<f64>>,
}

/// Incremental maintenance engine: a [`SkylineEngine`] plus the versioned
/// update protocol. See the module docs for the maintenance rule and the
/// bitwise contract.
pub struct DynamicEngine {
    engine: SkylineEngine,
    oracle: OracleMaintenance,
    /// Per object slot: weight fraction along its edge (inert for
    /// retired slots).
    fracs: Vec<f64>,
    queries: Vec<RegisteredQuery>,
    /// Cumulative maintenance counters over the `dyn.*` registry.
    trace: QueryTrace,
}

impl DynamicEngine {
    /// Wraps `engine` under the default [`OracleMaintenance::Degrade`]
    /// policy.
    ///
    /// Canonicalises every live object position to `frac * weight` form
    /// (a one-time bitwise nudge of at most one ulp per offset), so that
    /// every later re-derivation — including the one a batch-plus-inverse
    /// round trip performs — reproduces offsets exactly.
    pub fn new(engine: SkylineEngine) -> Self {
        Self::with_config(engine, OracleMaintenance::default())
    }

    /// Wraps `engine` under an explicit oracle staleness policy.
    pub fn with_config(mut engine: SkylineEngine, oracle: OracleMaintenance) -> Self {
        let slots = engine.mid_ref().object_count();
        let mut fracs = vec![0.0; slots];
        let mut moved = false;
        {
            let (net, _, mid, _) = engine.substrates_mut();
            for (i, frac_slot) in fracs.iter_mut().enumerate() {
                let object = ObjectId(i as u32);
                if !mid.is_live(object) {
                    continue;
                }
                let pos = mid.position(object);
                let w = net.edge(pos.edge).length;
                let frac = pos.offset / w;
                *frac_slot = frac;
                let canonical = frac * w;
                if canonical.to_bits() != pos.offset.to_bits() {
                    mid.set_object_position(net, object, NetPosition::new(pos.edge, canonical));
                    moved = true;
                }
            }
        }
        if moved {
            let tree = SkylineEngine::tree_of(engine.mid_ref());
            *engine.substrates_mut().3 = tree;
        }
        DynamicEngine {
            engine,
            oracle,
            fracs,
            queries: Vec::new(),
            trace: QueryTrace::new(),
        }
    }

    /// The wrapped engine (for ad-hoc queries against the current state).
    pub fn engine(&self) -> &SkylineEngine {
        &self.engine
    }

    /// Cumulative maintenance counters (`dyn.*` plus `sp.heap.pops` for
    /// the repair expansions), merged over every [`DynamicEngine::apply`].
    pub fn trace(&self) -> &QueryTrace {
        &self.trace
    }

    /// Object ids currently alive, ascending — the population an
    /// `rn_workload::UpdateStream`-style generator samples deletes from
    /// (that crate is a dev-dependency, hence no link).
    pub fn live_objects(&self) -> Vec<ObjectId> {
        let mid = self.engine.mid_ref();
        (0..mid.object_count() as u32)
            .map(ObjectId)
            .filter(|&o| mid.is_live(o))
            .collect()
    }

    /// Registers a query for incremental maintenance and pays the initial
    /// exact fill: every live row, resolved through A\* like any
    /// re-resolved row.
    ///
    /// # Panics
    /// Panics when `points` is empty.
    pub fn register_query(&mut self, points: &[NetPosition]) -> QueryId {
        assert!(!points.is_empty(), "need at least one query point");
        let net = self.engine.network();
        let mut q = RegisteredQuery {
            edges: points.iter().map(|p| p.edge).collect(),
            fracs: Vec::with_capacity(points.len()),
            points: Vec::with_capacity(points.len()),
            table: vec![vec![f64::INFINITY; points.len()]; self.fracs.len()],
        };
        for p in points {
            let w = net.edge(p.edge).length;
            let frac = p.offset / w;
            q.fracs.push(frac);
            q.points.push(NetPosition::new(p.edge, frac * w));
        }
        self.queries.push(q);
        let qi = self.queries.len() - 1;
        let rows = self.live_objects();
        let expansions = self.resolve_rows(qi, &rows);
        self.trace.add(Metric::SpHeapPops, expansions);
        QueryId(qi)
    }

    /// The maintained skyline of a registered query: live objects whose
    /// exact vectors are non-dominated, ascending by object id — the same
    /// form [`Algorithm::Brute`](crate::Algorithm::Brute) reports.
    pub fn skyline(&self, query: QueryId) -> Vec<SkylinePoint> {
        let q = &self.queries[query.0];
        let mid = self.engine.mid_ref();
        let live: Vec<usize> = (0..q.table.len())
            .filter(|&i| mid.is_live(ObjectId(i as u32)))
            .collect();
        let rows: Vec<Vec<f64>> = live.iter().map(|&i| q.table[i].clone()).collect();
        brute_force_skyline(&rows)
            .into_iter()
            .map(|k| SkylinePoint {
                object: ObjectId(live[k] as u32),
                vector: q.table[live[k]].clone(),
            })
            .collect()
    }

    /// A from-scratch [`SkylineEngine`] over the *current* (mutated)
    /// network and slot layout, under the same bound spec — the oracle
    /// the equivalence suite holds [`DynamicEngine::skyline`] against.
    /// Retired slots stay retired, so both engines adjudicate the same
    /// dense id space.
    pub fn scratch_engine(&self) -> SkylineEngine {
        let mut e = SkylineEngine::build_slots(
            self.engine.network().clone(),
            &self.engine.mid_ref().slots(),
        );
        e.set_bound(self.engine.bound_spec());
        e
    }

    /// Current canonical positions of a registered query's points (their
    /// offsets move with the weights of the edges they sit on).
    pub fn query_points(&self, query: QueryId) -> &[NetPosition] {
        &self.queries[query.0].points
    }

    /// Applies one update batch: mutates every substrate (network
    /// weights, disk image, middle layer, object R-tree), runs the
    /// oracle staleness protocol, and re-resolves the rows the batch can
    /// have moved: every live row when some edge's weight changed, else
    /// the inserted ones. Returns what it did; the same counters
    /// accumulate in [`DynamicEngine::trace`].
    ///
    /// # Panics
    /// Panics, before any substrate changes, when an update names an
    /// unknown edge, a weight is not finite and positive, an insert
    /// offset is not finite, or a delete names an unknown or dead object
    /// or one the batch already deletes.
    pub fn apply(&mut self, batch: &UpdateBatch) -> MaintenanceOutcome {
        self.check(batch);
        let mut out = MaintenanceOutcome {
            updates: batch.len() as u64,
            ..MaintenanceOutcome::default()
        };
        let slots = self.fracs.len();
        let (reweighted, fell) = self.mutate(batch);

        // Oracle staleness protocol (DESIGN.md §15.3).
        if fell {
            match self.oracle {
                OracleMaintenance::Degrade => {
                    self.engine.bound_ref().note_weight_change(true);
                }
                OracleMaintenance::Rebuild => {
                    let spec = self.engine.bound_spec();
                    self.engine.set_bound(spec);
                    out.oracle_rebuilds += 1;
                }
            }
        } else if reweighted {
            self.engine.bound_ref().note_weight_change(false);
        }

        if reweighted {
            let net = self.engine.network();
            for q in &mut self.queries {
                for (k, e) in q.edges.iter().enumerate() {
                    q.points[k] = NetPosition::new(*e, q.fracs[k] * net.edge(*e).length);
                }
            }
        }

        // The rows this batch can have moved: every live row after a
        // weight change, else the inserted slots (the tail of `live`).
        let live = self.live_objects();
        let rows = if reweighted {
            &live[..]
        } else {
            &live[live.partition_point(|o| o.idx() < slots)..]
        };
        if !rows.is_empty() {
            let queries = self.queries.len() as u64;
            if rows.len() == live.len() {
                out.full = queries;
            } else {
                out.incremental = queries;
            }
            out.invalidated = queries * rows.len() as u64;
            for qi in 0..self.queries.len() {
                out.expansions += self.resolve_rows(qi, rows);
            }
        }

        self.trace.add(Metric::DynUpdatesApplied, out.updates);
        self.trace
            .add(Metric::DynCandidatesInvalidated, out.invalidated);
        self.trace
            .add(Metric::DynRecomputeIncremental, out.incremental);
        self.trace.add(Metric::DynRecomputeFull, out.full);
        self.trace
            .add(Metric::DynOracleRebuilds, out.oracle_rebuilds);
        self.trace.add(Metric::SpHeapPops, out.expansions);
        out
    }

    /// Checks every update of `batch` against the current state, so that
    /// a malformed batch panics before [`Self::mutate`] changes anything.
    /// A delete may name a slot an earlier insert of the same batch
    /// creates.
    fn check(&self, batch: &UpdateBatch) {
        let edges = self.engine.network().edge_count();
        let mid = self.engine.mid_ref();
        let before = self.fracs.len();
        let mut slots = before;
        let mut deleted = Vec::new();
        for u in batch.updates() {
            match *u {
                Update::SetEdgeWeight { edge, weight } => {
                    assert!(edge.idx() < edges, "weight update on unknown edge {edge:?}");
                    assert!(
                        weight.is_finite() && weight > 0.0,
                        "edge weight must be finite and positive, got {weight}"
                    );
                }
                Update::InsertObject { pos } => {
                    assert!(
                        pos.edge.idx() < edges,
                        "insert on unknown edge {:?}",
                        pos.edge
                    );
                    assert!(
                        pos.offset.is_finite(),
                        "insert offset must be finite, got {}",
                        pos.offset
                    );
                    slots += 1;
                }
                Update::DeleteObject { object } => {
                    assert!(object.idx() < slots, "deleting unknown object {object:?}");
                    assert!(
                        object.idx() >= before || mid.is_live(object),
                        "deleting a dead object {object:?}"
                    );
                    deleted.push(object);
                }
            }
        }
        deleted.sort_unstable();
        assert!(
            deleted.windows(2).all(|w| w[0] != w[1]),
            "batch deletes an object twice"
        );
    }

    /// Applies the batch to every substrate: weights (network + disk
    /// image), objects riding re-weighted edges, inserts and deletes
    /// (middle layer, R-tree and every query's table). Returns whether
    /// some edge's weight changed and whether some weight fell, as
    /// [`RoadNetwork::set_edge_weight`](rn_graph::RoadNetwork::set_edge_weight)
    /// reports and writes them.
    fn mutate(&mut self, batch: &UpdateBatch) -> (bool, bool) {
        let (net, store, mid, tree) = self.engine.substrates_mut();
        let mut changed = Vec::new();
        let mut fell = false;
        for u in batch.updates() {
            if let Update::SetEdgeWeight { edge, weight } = *u {
                let old = net.set_edge_weight(edge, weight);
                let new = net.edge(edge).length;
                if new != old {
                    changed.push(edge);
                    fell |= new < old;
                }
            }
        }
        changed.sort_unstable();
        store.apply_edge_weights(net, &changed);
        // Reposition live objects riding re-weighted edges: their stored
        // offset is `frac * weight` of the *new* weight.
        for (i, frac) in self.fracs.iter().enumerate() {
            let object = ObjectId(i as u32);
            if !mid.is_live(object) {
                continue;
            }
            let pos = mid.position(object);
            if changed.binary_search(&pos.edge).is_err() {
                continue;
            }
            let w = net.edge(pos.edge).length;
            let old_point = mid.point(object);
            mid.set_object_position(net, object, NetPosition::new(pos.edge, frac * w));
            let new_point = mid.point(object);
            if old_point != new_point {
                tree.remove(&Mbr::from_point(old_point), &object);
                tree.insert(Mbr::from_point(new_point), object);
            }
        }
        for u in batch.updates() {
            match u {
                Update::SetEdgeWeight { .. } => {}
                Update::InsertObject { pos } => {
                    let w = net.edge(pos.edge).length;
                    let frac = (pos.offset / w).clamp(0.0, 1.0);
                    let canonical = NetPosition::new(pos.edge, frac * w);
                    let id = mid.insert_object(net, canonical);
                    debug_assert_eq!(id.idx(), self.fracs.len());
                    self.fracs.push(frac);
                    tree.insert(Mbr::from_point(mid.point(id)), id);
                    for q in &mut self.queries {
                        q.table.push(vec![f64::INFINITY; q.points.len()]);
                    }
                }
                Update::DeleteObject { object } => {
                    let point = mid.point(*object);
                    tree.remove(&Mbr::from_point(point), object);
                    mid.remove_object(*object);
                    for q in &mut self.queries {
                        q.table[object.idx()].fill(f64::INFINITY);
                    }
                }
            }
        }
        (!changed.is_empty(), fell)
    }

    /// The exact distances from each of query `qi`'s points to `rows`,
    /// as `cols[k][j] = d_N(q_k, rows[j])`, plus the expansions spent:
    /// one A\* engine per query point, its settled map shared across the
    /// rows. The one way this engine resolves a row.
    fn resolve(&self, qi: usize, rows: &[ObjectId]) -> (Vec<Vec<f64>>, u64) {
        let mid = self.engine.mid_ref();
        let positions: Vec<NetPosition> = rows.iter().map(|&o| mid.position(o)).collect();
        let ctx = NetCtx::new(self.engine.network(), self.engine.store_ref(), mid);
        let mut expansions = 0u64;
        let cols = self.queries[qi]
            .points
            .iter()
            .map(|p| {
                let mut astar = AStar::new(&ctx, *p);
                let col = positions
                    .iter()
                    .map(|&pos| astar.distance_to(pos))
                    .collect();
                expansions += astar.expansions();
                col
            })
            .collect();
        (cols, expansions)
    }

    /// Resolves `rows` of query `qi` into its table. Returns the
    /// expansions spent.
    fn resolve_rows(&mut self, qi: usize, rows: &[ObjectId]) -> u64 {
        let (cols, expansions) = self.resolve(qi, rows);
        let table = &mut self.queries[qi].table;
        for (k, col) in cols.iter().enumerate() {
            for (&o, &d) in rows.iter().zip(col) {
                table[o.idx()][k] = d;
            }
        }
        expansions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Algorithm;
    use crate::stats::canonical;
    use rn_geom::Point;
    use rn_graph::NetworkBuilder;

    fn grid_engine() -> SkylineEngine {
        let net = rn_workload::generate_network(&rn_workload::NetGenConfig {
            cols: 8,
            rows: 8,
            edges: 90,
            jitter: 0.3,
            detour_prob: 0.3,
            detour_stretch: (1.05, 1.4),
            seed: 17,
        });
        let objects = rn_workload::generate_objects(&net, 0.6, 18);
        SkylineEngine::build(net, objects)
    }

    #[test]
    fn registered_query_matches_brute_before_any_update() {
        let dynamic = {
            let mut d = DynamicEngine::new(grid_engine());
            d.register_query(&rn_workload::generate_queries(
                d.engine().network(),
                3,
                0.5,
                19,
            ));
            d
        };
        let scratch = dynamic.scratch_engine();
        let r = scratch.run(Algorithm::Brute, dynamic.query_points(QueryId(0)));
        assert_eq!(
            canonical(&dynamic.skyline(QueryId(0))),
            canonical(&r.skyline)
        );
    }

    #[test]
    fn weight_increase_repairs_to_scratch_result() {
        let mut d = DynamicEngine::new(grid_engine());
        let queries = rn_workload::generate_queries(d.engine().network(), 2, 0.5, 23);
        let q = d.register_query(&queries);
        let e = EdgeId(7);
        let w = d.engine().network().edge(e).length;
        let out = d.apply(&UpdateBatch::new(vec![Update::SetEdgeWeight {
            edge: e,
            weight: w * 3.0,
        }]));
        assert_eq!(out.updates, 1);
        let scratch = d.scratch_engine();
        let r = scratch.run(Algorithm::Brute, d.query_points(q));
        assert_eq!(canonical(&d.skyline(q)), canonical(&r.skyline));
    }

    #[test]
    fn insert_and_delete_round_trip_matches_scratch() {
        let mut d = DynamicEngine::new(grid_engine());
        let queries = rn_workload::generate_queries(d.engine().network(), 2, 0.5, 29);
        let q = d.register_query(&queries);
        let before = d.live_objects().len();
        let out = d.apply(&UpdateBatch::new(vec![Update::InsertObject {
            pos: NetPosition::new(EdgeId(3), 0.25),
        }]));
        assert_eq!(out.invalidated, 1, "only the inserted object resolves");
        assert_eq!(d.live_objects().len(), before + 1);
        let inserted = ObjectId(before as u32);
        d.apply(&UpdateBatch::new(vec![Update::DeleteObject {
            object: inserted,
        }]));
        assert_eq!(d.live_objects().len(), before);
        // A batch may delete a slot its own earlier insert creates.
        let out = d.apply(&UpdateBatch::new(vec![
            Update::InsertObject {
                pos: NetPosition::new(EdgeId(3), 0.25),
            },
            Update::DeleteObject {
                object: ObjectId(before as u32 + 1),
            },
        ]));
        assert_eq!(out.invalidated, 0);
        assert_eq!(d.live_objects().len(), before);
        let scratch = d.scratch_engine();
        let r = scratch.run(Algorithm::Brute, d.query_points(q));
        assert_eq!(canonical(&d.skyline(q)), canonical(&r.skyline));
    }

    #[test]
    fn deletes_cost_zero_expansions() {
        let mut d = DynamicEngine::new(grid_engine());
        let queries = rn_workload::generate_queries(d.engine().network(), 2, 0.5, 31);
        d.register_query(&queries);
        let victim = d.live_objects()[0];
        let out = d.apply(&UpdateBatch::new(vec![Update::DeleteObject {
            object: victim,
        }]));
        assert_eq!(out.expansions, 0);
        assert_eq!(out.invalidated, 0);
    }

    /// A six-node line of 100 m straight edges, objects at the middle of
    /// edges 0 and 1, and one registered query point 10 m into edge 0.
    fn line_engine() -> (DynamicEngine, QueryId) {
        let mut b = NetworkBuilder::new();
        let nodes: Vec<_> = (0..6)
            .map(|i| b.add_node(Point::new(100.0 * i as f64, 0.0)))
            .collect();
        for w in nodes.windows(2) {
            b.add_straight_edge(w[0], w[1]).unwrap();
        }
        let net = b.build().unwrap();
        let objects = vec![
            NetPosition::new(EdgeId(0), 50.0),
            NetPosition::new(EdgeId(1), 50.0),
        ];
        let mut d = DynamicEngine::new(SkylineEngine::build(net, objects));
        let q = d.register_query(&[NetPosition::new(EdgeId(0), 10.0)]);
        (d, q)
    }

    fn assert_matches_brute(d: &DynamicEngine, q: QueryId) {
        let r = d.scratch_engine().run(Algorithm::Brute, d.query_points(q));
        assert_eq!(canonical(&d.skyline(q)), canonical(&r.skyline));
    }

    #[test]
    fn weight_change_re_resolves_every_live_row() {
        // Even an edge no shortest path crosses re-resolves both rows.
        let (mut d, q) = line_engine();
        let w = d.engine().network().edge(EdgeId(4)).length;
        let out = d.apply(&UpdateBatch::new(vec![Update::SetEdgeWeight {
            edge: EdgeId(4),
            weight: w * 5.0,
        }]));
        assert_eq!(out.invalidated, 2);
        assert_eq!((out.full, out.incremental), (1, 0));
        assert_matches_brute(&d, q);
    }

    #[test]
    fn clamped_rewrite_re_resolves_nothing() {
        // Edge 0 carries the query point and sits at its free-flow floor:
        // a lower weight clamps back to it, so nothing changes.
        let (mut d, q) = line_engine();
        let w = d.engine().network().edge(EdgeId(0)).length;
        let out = d.apply(&UpdateBatch::new(vec![Update::SetEdgeWeight {
            edge: EdgeId(0),
            weight: w * 0.5,
        }]));
        assert_eq!(out.invalidated, 0);
        assert_eq!(out.expansions, 0);
        assert_eq!(d.engine().network().edge(EdgeId(0)).length, w);
        assert_matches_brute(&d, q);
    }

    #[test]
    fn malformed_batch_panics_before_mutating() {
        let (mut d, q) = line_engine();
        let w = d.engine().network().edge(EdgeId(1)).length;
        let live = d.live_objects();
        let batch = UpdateBatch::new(vec![
            Update::SetEdgeWeight {
                edge: EdgeId(1),
                weight: w * 3.0,
            },
            Update::DeleteObject {
                object: ObjectId(0),
            },
            Update::DeleteObject {
                object: ObjectId(0),
            },
        ]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| d.apply(&batch)));
        assert!(caught.is_err(), "a double delete must panic");
        assert_eq!(d.engine().network().edge(EdgeId(1)).length, w);
        assert_eq!(d.live_objects(), live);
        assert_matches_brute(&d, q);
    }

    #[test]
    fn moved_query_point_re_resolves_every_live_row() {
        let mut d = DynamicEngine::new(grid_engine());
        let queries = rn_workload::generate_queries(d.engine().network(), 2, 0.5, 37);
        let q = d.register_query(&queries);
        let e = d.query_points(q)[0].edge;
        let w = d.engine().network().edge(e).length;
        let out = d.apply(&UpdateBatch::new(vec![Update::SetEdgeWeight {
            edge: e,
            weight: w * 1.5,
        }]));
        assert_eq!((out.full, out.incremental), (1, 0));
        assert_eq!(out.invalidated, d.live_objects().len() as u64);
        let scratch = d.scratch_engine();
        let r = scratch.run(Algorithm::Brute, d.query_points(q));
        assert_eq!(canonical(&d.skyline(q)), canonical(&r.skyline));
    }
}

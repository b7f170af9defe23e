//! Incremental skyline maintenance under edge-weight and object churn
//! (DESIGN.md §15).
//!
//! A [`DynamicEngine`] wraps a [`SkylineEngine`] and keeps, for every
//! *registered* query, the exact network-distance vector of every live
//! object. Every row is resolved one way: one A\* engine per query point,
//! its settled map shared across the rows it resolves. Registration
//! resolves every live row; applying an [`UpdateBatch`] re-resolves only
//! the rows the batch can have touched:
//!
//! * every row of a query whose own points sit on a re-weighted edge;
//! * objects sitting on a re-weighted edge (their along-edge position
//!   changes with the weight) and inserted objects;
//! * every other `(query point, object)` pair is kept when a sound
//!   *blast-radius certificate* proves no path through a changed edge can
//!   alter its exact distance (see [the invalidation rule](#invalidation)),
//!   re-resolved otherwise;
//! * deletions cost zero expansions — the retired row simply stops
//!   participating in dominance adjudication.
//!
//! # Invalidation
//!
//! Let `v = d_old(q, s)` be the maintained exact distance. For an edge
//! `e = (a, b)` whose weight rose from `w_old` to `w_new`, any *old* path
//! through `e` is at least `lbₒ(q,a) + w_old + lbₒ(b,s)` (minimised over
//! the two orientations), with `lbₒ` admissible on the pre-batch graph;
//! if that exceeds `v` strictly, no old shortest path used `e`. For an
//! edge whose weight fell, any *new* path through `e` is at least
//! `lbₙ(q,a) + w_new + lbₙ(b,s)` with `lbₙ` admissible on the post-batch
//! graph; if that is at least `v`, no new path through `e` beats the old
//! distance. When every changed edge passes its test, the old shortest
//! path survives (increases) and cannot be undercut (decreases), so
//! `d_new(q, s) = v` exactly — the entry is certified clean. Bound
//! selection makes both sides sound without extra bookkeeping: the
//! engine's oracle is *always* admissible on the current graph, so the
//! old side is evaluated before the substrates mutate and the new side
//! after the staleness protocol (degrade-to-Euclid or rebuild) has run.
//!
//! Both tests compare against `v` raised by the relative slack
//! `CERT_TOLERANCE`. A bound can be exact (ALT's often is, Euclid's
//! along straight edges), and then the rounded sum can land an ulp above
//! the rounded `v` of a path that does cross the edge; the slack covers
//! the rounding of both sums (DESIGN.md §15.2).
//!
//! # Bitwise contract
//!
//! After any update sequence, [`DynamicEngine::skyline`] is bitwise
//! identical — object ids, vectors, and completeness — to a from-scratch
//! [`SkylineEngine`] built over the mutated network and the surviving
//! slot layout ([`DynamicEngine::scratch_engine`]). Three mechanisms carry
//! the contract: object and query positions are stored as *weight
//! fractions* and re-derived as `frac * weight` (never rescaled
//! incrementally), so applying a batch and its
//! [`UpdateBatch::inverse`] restores every coordinate bit-for-bit;
//! certified-clean entries are, by the argument above, exactly the
//! distances a scratch run would compute; and an A\* row is the same
//! float sum an INE drain reports (DESIGN.md §15.2). With
//! `invariant-checks` on, [`DynamicEngine::apply`] re-resolves every
//! certified-clean live row and asserts it bitwise.

use crate::engine::SkylineEngine;
use crate::stats::SkylinePoint;
use rn_geom::Mbr;
use rn_graph::{EdgeId, NetPosition, NodeId, ObjectId, RoadNetwork, Update, UpdateBatch};
use rn_obs::{Metric, QueryTrace};
use rn_skyline::brute_force_skyline;
use rn_sp::{AStar, LbTarget, NetCtx};

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
    /// pruning strength for the certificates and the repair searches.
    Rebuild,
}

/// Relative slack on the certificate comparisons: a row stays clean only
/// when the bound sum clears `v + v * CERT_TOLERANCE` (see
/// [the invalidation rule](self#invalidation) and DESIGN.md §15.2).
const CERT_TOLERANCE: f64 = 1e-9;

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
    /// Registered queries that re-resolved every live row: the query's
    /// own points moved, or no certificate kept a row clean
    /// (`dyn.recompute.full`).
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
/// update protocol. See the module docs for the invalidation rule and the
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
    /// oracle staleness protocol, and re-resolves the rows of every
    /// registered query that no certificate keeps clean. Returns what it
    /// did; the same counters accumulate in [`DynamicEngine::trace`].
    pub fn apply(&mut self, batch: &UpdateBatch) -> MaintenanceOutcome {
        let mut out = MaintenanceOutcome {
            updates: batch.len() as u64,
            ..MaintenanceOutcome::default()
        };
        let deltas = classify(self.engine.network(), batch);
        let any_decrease = deltas.iter().any(|d| d.w_new < d.w_old);
        let any_increase = deltas.iter().any(|d| d.w_new > d.w_old);
        let touched = batch.touched_edges();

        // Per query: dirty flags over the pre-batch slot space (inserted
        // slots are appended as unconditionally dirty later). A query
        // whose own points move re-resolves every row.
        let slots = self.fracs.len();
        let query_moved: Vec<bool> = self
            .queries
            .iter()
            .map(|q| q.edges.iter().any(|e| touched.binary_search(e).is_ok()))
            .collect();
        let mut dirty: Vec<Vec<bool>> = query_moved.iter().map(|&m| vec![m; slots]).collect();

        // Old-side certificates (weight increases) against the pre-batch
        // bound, which is admissible on the pre-batch graph.
        if any_increase {
            let rising: Vec<&WeightDelta> = deltas.iter().filter(|d| d.w_new > d.w_old).collect();
            self.certify(&rising, CertSide::Old, &touched, &query_moved, &mut dirty);
        }

        // --- mutate the substrates ---
        let moved_objects = self.mutate(batch, &deltas, &touched);

        // Oracle staleness protocol (DESIGN.md §15.3).
        if any_decrease {
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
        } else if !deltas.is_empty() {
            self.engine.bound_ref().note_weight_change(false);
        }

        // New-side certificates (weight decreases) against the post-batch
        // bound, which is admissible on the post-batch graph.
        if any_decrease {
            let falling: Vec<&WeightDelta> = deltas.iter().filter(|d| d.w_new < d.w_old).collect();
            self.certify(&falling, CertSide::New, &touched, &query_moved, &mut dirty);
        }
        for d in &mut dirty {
            for &o in &moved_objects {
                d[o.idx()] = true;
            }
        }

        // Re-derive moved query points from their stored fractions.
        let net = self.engine.network();
        for (qi, q) in self.queries.iter_mut().enumerate() {
            if !query_moved[qi] {
                continue;
            }
            for (k, e) in q.edges.iter().enumerate() {
                let w = net.edge(*e).length;
                q.points[k] = NetPosition::new(*e, q.fracs[k] * w);
            }
        }

        // --- re-resolve the dirty rows of every registered query ---
        let live = self.live_objects();
        for (qi, mut dirty_slots) in dirty.into_iter().enumerate() {
            // Slots inserted by this batch are unconditionally dirty.
            dirty_slots.resize(self.fracs.len(), true);
            let arity = self.queries[qi].points.len();
            self.queries[qi]
                .table
                .resize(self.fracs.len(), vec![f64::INFINITY; arity]);
            let (rows, clean): (Vec<ObjectId>, Vec<ObjectId>) =
                live.iter().partition(|o| dirty_slots[o.idx()]);
            #[cfg(feature = "invariant-checks")]
            self.check_certified(qi, &clean);
            if rows.is_empty() {
                continue;
            }
            if clean.is_empty() {
                out.full += 1;
            } else {
                out.incremental += 1;
            }
            out.invalidated += rows.len() as u64;
            out.expansions += self.resolve_rows(qi, &rows);
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

    /// Marks dirty every `(query point, object)` entry the certificates
    /// cannot prove clean against the given weight deltas.
    fn certify(
        &self,
        deltas: &[&WeightDelta],
        side: CertSide,
        touched: &[EdgeId],
        query_moved: &[bool],
        dirty: &mut [Vec<bool>],
    ) {
        let net = self.engine.network();
        let bound = self.engine.bound_ref();
        let mid = self.engine.mid_ref();
        for (qi, q) in self.queries.iter().enumerate() {
            if query_moved[qi] {
                continue; // every row re-resolves anyway
            }
            // lb(query point k, endpoint) per delta, both endpoints.
            let q_targets: Vec<LbTarget> = q.points.iter().map(|p| LbTarget::of(net, p)).collect();
            let qb: Vec<Vec<(f64, f64)>> = deltas
                .iter()
                .map(|d| {
                    q_targets
                        .iter()
                        .map(|t| {
                            (
                                bound.node_bound(d.u, net.point(d.u), t),
                                bound.node_bound(d.v, net.point(d.v), t),
                            )
                        })
                        .collect()
                })
                .collect();
            for (slot, row) in q.table.iter().enumerate() {
                let object = ObjectId(slot as u32);
                if dirty[qi][slot] || !mid.is_live(object) {
                    continue;
                }
                let pos = mid.position(object);
                if touched.binary_search(&pos.edge).is_ok() {
                    continue; // repositioned: unconditionally dirty
                }
                let t_obj = LbTarget::of(net, &pos);
                'deltas: for (di, d) in deltas.iter().enumerate() {
                    let ou = bound.node_bound(d.u, net.point(d.u), &t_obj);
                    let ov = bound.node_bound(d.v, net.point(d.v), &t_obj);
                    let w = match side {
                        CertSide::Old => d.w_old,
                        CertSide::New => d.w_new,
                    };
                    for (k, v) in row.iter().enumerate() {
                        if !v.is_finite() {
                            // Unreachable stays unreachable: weight
                            // updates never change connectivity.
                            continue;
                        }
                        let (qu, qv) = qb[di][k];
                        let through = (qu + w + ov).min(qv + w + ou);
                        let margin = v + v * CERT_TOLERANCE;
                        let clean = match side {
                            CertSide::Old => through > margin,
                            CertSide::New => through >= margin,
                        };
                        if !clean {
                            dirty[qi][slot] = true;
                            break 'deltas;
                        }
                    }
                }
            }
        }
    }

    /// Applies the batch to every substrate: weights (network + disk
    /// image), repositioned objects, inserts and deletes (middle layer +
    /// R-tree). Returns the live objects whose positions moved.
    fn mutate(
        &mut self,
        batch: &UpdateBatch,
        deltas: &[WeightDelta],
        touched: &[EdgeId],
    ) -> Vec<ObjectId> {
        let slots = self.fracs.len();
        let mut moved = Vec::new();
        {
            let (net, store, mid, tree) = self.engine.substrates_mut();
            for d in deltas {
                net.set_edge_weight(d.edge, d.w_new);
            }
            if !touched.is_empty() {
                store.apply_edge_weights(net, touched);
            }
            // Reposition live objects riding re-weighted edges: their
            // stored offset is `frac * weight` of the *new* weight.
            for i in 0..slots {
                let object = ObjectId(i as u32);
                if !mid.is_live(object) {
                    continue;
                }
                let pos = mid.position(object);
                if touched.binary_search(&pos.edge).is_err() {
                    continue;
                }
                let w = net.edge(pos.edge).length;
                let next = NetPosition::new(pos.edge, self.fracs[i] * w);
                let old_point = mid.point(object);
                mid.set_object_position(net, object, next);
                let new_point = mid.point(object);
                if old_point != new_point {
                    tree.remove(&Mbr::from_point(old_point), &object);
                    tree.insert(Mbr::from_point(new_point), object);
                }
                moved.push(object);
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
                    }
                    Update::DeleteObject { object } => {
                        assert!(mid.is_live(*object), "deleting a dead object {object:?}");
                        let point = mid.point(*object);
                        tree.remove(&Mbr::from_point(point), object);
                        mid.remove_object(*object);
                        for q in &mut self.queries {
                            if object.idx() < q.table.len() {
                                let arity = q.points.len();
                                q.table[object.idx()] = vec![f64::INFINITY; arity];
                            }
                        }
                    }
                }
            }
        }
        moved
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

    /// Contract: every row the certificates kept is the distance a fresh
    /// resolution computes on the mutated network, bit for bit. Its
    /// expansions are not counted.
    #[cfg(feature = "invariant-checks")]
    fn check_certified(&self, qi: usize, clean: &[ObjectId]) {
        let (cols, _) = self.resolve(qi, clean);
        for (k, col) in cols.iter().enumerate() {
            for (&o, &fresh) in clean.iter().zip(col) {
                let kept = self.queries[qi].table[o.idx()][k];
                assert_eq!(
                    kept.to_bits(),
                    fresh.to_bits(),
                    "certified row unsound: query {qi}, point {k}, object {o:?} kept {kept} \
                     but re-resolves to {fresh}"
                );
            }
        }
    }
}

/// Which graph a certificate's lower bound must be admissible on.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CertSide {
    /// Pre-batch graph (weight increases; strict `>` required).
    Old,
    /// Post-batch graph (weight decreases; `≥` suffices).
    New,
}

/// One weight update, resolved against the pre-batch network.
struct WeightDelta {
    edge: EdgeId,
    u: NodeId,
    v: NodeId,
    /// Weight before the batch.
    w_old: f64,
    /// Weight after the batch — the requested value run through the same
    /// free-flow clamp [`RoadNetwork::set_edge_weight`] applies.
    w_new: f64,
}

/// Resolves the batch's weight updates into [`WeightDelta`]s.
fn classify(net: &RoadNetwork, batch: &UpdateBatch) -> Vec<WeightDelta> {
    batch
        .updates()
        .iter()
        .filter_map(|u| match u {
            Update::SetEdgeWeight { edge, weight } => {
                let e = net.edge(*edge);
                let floor = e.geometry.length();
                let w_new = if *weight < floor { floor } else { *weight };
                Some(WeightDelta {
                    edge: *edge,
                    u: e.u,
                    v: e.v,
                    w_old: e.length,
                    w_new,
                })
            }
            _ => None,
        })
        .collect()
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

    #[test]
    fn certificates_keep_far_away_objects_clean() {
        // A long line: raising the weight of the far-end edge cannot
        // change distances near the query, and the Euclid certificates
        // prove it — nothing is invalidated.
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
        let w = d.engine().network().edge(EdgeId(4)).length;
        let out = d.apply(&UpdateBatch::new(vec![Update::SetEdgeWeight {
            edge: EdgeId(4),
            weight: w * 5.0,
        }]));
        assert_eq!(out.invalidated, 0, "blast radius excludes both objects");
        assert_eq!(out.expansions, 0);
        let scratch = d.scratch_engine();
        let r = scratch.run(Algorithm::Brute, d.query_points(q));
        assert_eq!(canonical(&d.skyline(q)), canonical(&r.skyline));
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

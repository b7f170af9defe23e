//! Lower-Bound Constraint (LBC) — §4.3, the instance-optimal algorithm.
//!
//! LBC designates one query point (the *source*) to order the search and
//! adjudicates every candidate with **path-distance lower bounds** (plb):
//!
//! * A best-first Euclidean stream over the object R-tree supplies
//!   candidates in ascending `d_E(source, ·)`; sub-trees and objects whose
//!   Euclidean distance vector is dominated by a confirmed skyline vector
//!   are pruned outright (their network vectors are dominated a fortiori).
//! * Every live candidate carries a vector of certified lower bounds —
//!   the Euclidean distances at first, tightened to the monotone `plb` of
//!   a per-query-point A\* engine as expansions are spent, and finalised
//!   to exact network distances when an engine resolves. *No dimension,
//!   including the source, is ever computed further than the adjudication
//!   needs*: the moment a confirmed skyline point dominates the bound
//!   vector, the candidate is discarded with whatever partial bounds it
//!   has. This is precisely the access pattern Theorem 1 proves
//!   instance-optimal.
//! * The candidate whose source bound is smallest is the *NN frontier*;
//!   when its source distance is exact and provably minimal (no other
//!   bound, and no unseen Euclidean distance, is smaller) it is the next
//!   network nearest neighbour of the source. Its identity alone already
//!   makes it — or, under exact ties, one of its tie-batch — a skyline
//!   member on the source dimension, which is why LBC's *initial response*
//!   is near-instant (§6.3): [`Reporter::mark_first`] fires here. The
//!   remaining dimensions are then resolved (cheapest bound first,
//!   discarding early) and the survivor is reported.
//! * Ties on the source distance are adjudicated as a batch and filtered
//!   pairwise, so equal-distance dominators are never missed.
//!
//! The `use_plb = false` mode (ablation) resolves every candidate's full
//! distance vector eagerly, quantifying exactly what the lower-bound
//! machinery saves.

use crate::engine::{AlgoOutput, PartialInfo, QueryInput, UnresolvedCandidate};
use crate::stats::{Reporter, SkylinePoint};
use rn_geom::{OrdF64, Point};
use rn_graph::{NetPosition, ObjectId};
use rn_obs::{Event, ExecGuard, IncompleteReason, Metric, SessionOutcome};
use rn_skyline::dominance::dominates;
use rn_sp::{AStar, AStarStats, BoundKind, LbTarget};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A live candidate: certified lower bounds per query dimension.
struct Cand {
    obj: ObjectId,
    pos: NetPosition,
    /// Lower bound per dimension (Euclidean → plb → exact).
    lb: Vec<f64>,
    /// Whether `lb[j]` is the exact network distance.
    exact: Vec<bool>,
    /// Bumped on every re-queue; stale heap entries are skipped.
    version: u32,
    dead: bool,
    /// Whether any A\* engine has ever been advanced for this candidate.
    /// Discards that happen while this is still `false` cost zero network
    /// expansions — the cheapest possible death, attributed to the oracle
    /// seed when the plain Euclidean seed would have survived.
    expanded: bool,
}

impl Cand {
    fn fully_exact(&self) -> bool {
        self.exact.iter().all(|&e| e)
    }
}

/// What a processing session concluded about a candidate.
enum SessionEnd {
    /// Certified dominated; removed.
    Discarded,
    /// Source bound exceeded the ceiling; re-queued for later.
    Postponed,
    /// Source dimension exact (bounds may remain elsewhere); re-queued
    /// keyed by the exact source distance.
    SourceExact,
}

/// Records one adjudication session in the query trace: the session
/// counter always, the plb-outcome counter for discards/postponements,
/// and (under the `trace` feature) a typed [`Event::SessionEnd`].
fn record_session(reporter: &mut Reporter, obj: ObjectId, end: &SessionEnd) {
    let obs = reporter.obs();
    obs.incr(Metric::LbcSessions);
    let outcome = match end {
        SessionEnd::Discarded => {
            obs.incr(Metric::LbcPlbDiscards);
            SessionOutcome::Discarded
        }
        SessionEnd::Postponed => {
            obs.incr(Metric::LbcPlbPostponed);
            SessionOutcome::Postponed
        }
        SessionEnd::SourceExact => SessionOutcome::SourceExact,
    };
    obs.event(Event::SessionEnd {
        object: obj.0,
        outcome,
    });
}

/// Charges a discard to the oracle seed when it was decisive: the
/// candidate died before any network expansion was spent on it, and the
/// plain Euclidean seed vector would have survived the same dominance
/// check. Only called with a non-Euclidean bound installed, so the
/// counter stays hard-zero on the default path.
fn note_oracle_discard(
    reporter: &mut Reporter,
    input: &QueryInput<'_>,
    qpts: &[Point],
    skyline: &[(ObjectId, Vec<f64>)],
    cand: &Cand,
) {
    if cand.expanded {
        return;
    }
    let obj_pt = input.ctx.point_of(&cand.pos);
    let mut seed: Vec<f64> = qpts.iter().map(|q| q.distance(&obj_pt)).collect();
    input.extend_with_attrs(cand.obj, &mut seed);
    if !skyline.iter().any(|(_, s)| dominates(s, &seed)) {
        reporter.obs().incr(Metric::LbcPlbOracleDiscards);
    }
}

/// The LBC loop: one A\* engine per query point, all reading through the
/// query's store.
pub(crate) fn run(input: &QueryInput<'_>, reporter: &mut Reporter, use_plb: bool) -> AlgoOutput {
    let mut engines: Vec<AStar<'_>> = input
        .queries
        .iter()
        .map(|q| AStar::new(&input.ctx, q.pos))
        .collect();
    let qpts: Vec<Point> = input.queries.iter().map(|q| q.point).collect();
    let n = qpts.len();
    let source = input.queries[0];
    let guard = input.ctx.guard;

    // Oracle seed tightening (DESIGN.md §14): with a non-Euclidean lower
    // bound installed, every candidate's birth vector is raised to the
    // oracle's pair bound per dimension, so dominated candidates can die
    // before any network expansion is spent on them. The Euclidean default
    // skips the pass so the paper's path stays bitwise unchanged.
    let oracle_qts: Option<Vec<LbTarget>> = match input.ctx.lb.kind() {
        BoundKind::Euclid => None,
        _ => Some(
            input
                .queries
                .iter()
                .map(|q| LbTarget::of(input.ctx.net, &q.pos))
                .collect(),
        ),
    };

    // Confirmed network skyline; mirrored into the RefCell the Euclidean
    // stream's pruning closure reads.
    let mut skyline: Vec<(ObjectId, Vec<f64>)> = Vec::new();
    let pruning: std::rc::Rc<std::cell::RefCell<Vec<Vec<f64>>>> =
        std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));

    let stream_pruning = std::rc::Rc::clone(&pruning);
    let stream_qpts = qpts.clone();
    let src_pt = source.point;
    let stream_attrs = input.attrs;
    // Scratch vector reused across every scored MBR (one allocation per
    // query instead of one per R-tree node visited).
    let mut stream_vec: Vec<f64> = Vec::new();
    let mut stream = input.obj_tree.best_first(move |mbr, item| {
        // Key: Euclidean distance to the source (step 1.1's NN order).
        // Prune: Euclidean vector (extended with static attributes, when
        // present) dominated by a confirmed skyline vector.
        stream_vec.clear();
        stream_vec.extend(stream_qpts.iter().map(|q| mbr.min_dist(q)));
        if let Some(a) = stream_attrs {
            match item {
                Some(obj) => stream_vec.extend_from_slice(a.row(*obj)),
                None => stream_vec.extend_from_slice(a.lower()),
            }
        }
        if stream_pruning
            .borrow()
            .iter()
            .any(|s| dominates(s, &stream_vec))
        {
            return None;
        }
        Some(mbr.min_dist(&src_pt))
    });

    // Candidate slab + lazily-rekeyed frontier heap ordered by lb[0].
    let mut slab: Vec<Cand> = Vec::new();
    let mut frontier: BinaryHeap<Reverse<(OrdF64, u32, usize)>> = BinaryHeap::new();
    let mut next_euclid: Option<(f64, ObjectId)> = None;
    let mut stream_done = false;
    let mut candidates = 0usize;
    // Scratch for the pop-time dominance re-check, reused across pops.
    let mut probe: Vec<f64> = Vec::new();

    macro_rules! requeue {
        ($slab:expr, $frontier:expr, $idx:expr) => {{
            let c = &mut $slab[$idx];
            c.version += 1;
            $frontier.push(Reverse((OrdF64::new(c.lb[0]), c.version, $idx)));
        }};
    }

    loop {
        // ---- Budget check (DESIGN.md §12) ----
        // The engines tick the guard per heap pop themselves.
        if guard.is_some_and(|g| g.tripped()) {
            break;
        }

        // ---- Drain the stream while it could still beat the frontier ----
        loop {
            if next_euclid.is_none() && !stream_done {
                loop {
                    match stream.next() {
                        Some((de, mbr, &obj)) => {
                            probe.clear();
                            probe.extend(qpts.iter().map(|q| mbr.min_dist(q)));
                            input.extend_with_attrs(obj, &mut probe);
                            if pruning.borrow().iter().any(|s| dominates(s, &probe)) {
                                continue; // pop-time re-check
                            }
                            next_euclid = Some((de, obj));
                            break;
                        }
                        None => {
                            stream_done = true;
                            break;
                        }
                    }
                }
            }
            let frontier_min = peek_min(&mut frontier, &slab);
            let ingest = match (frontier_min, next_euclid) {
                (_, None) => false,
                (None, Some(_)) => true,
                (Some(fmin), Some((de, _))) => de <= fmin,
            };
            if !ingest {
                break;
            }
            let (de, obj) = next_euclid.take().expect("checked Some");
            let pos = input.ctx.mid.position(obj);
            let obj_pt = input.ctx.point_of(&pos);
            let mut lb = Vec::with_capacity(input.full_arity());
            lb.push(de);
            lb.extend(qpts[1..].iter().map(|q| q.distance(&obj_pt)));
            if let Some(qts) = &oracle_qts {
                let ot = LbTarget::of(input.ctx.net, &pos);
                for (b, qt) in lb.iter_mut().zip(qts) {
                    *b = b.max(input.ctx.lb.pair_bound(qt, &ot));
                }
            }
            let mut exact = vec![false; n];
            // §4.3 extension: static attributes are exact from birth, so
            // a candidate can be discarded on them before any expansion.
            input.extend_with_attrs(obj, &mut lb);
            exact.resize(lb.len(), true);
            // The frontier key must be the (possibly tightened) seed —
            // the staleness check compares the key against `lb[0]`.
            let key0 = lb[0];
            let idx = slab.len();
            slab.push(Cand {
                obj,
                pos,
                lb,
                exact,
                version: 0,
                dead: false,
                expanded: false,
            });
            frontier.push(Reverse((OrdF64::new(key0), 0, idx)));
            candidates += 1;
        }

        // ---- Take the NN-frontier candidate ----
        let Some(Reverse((key, version, idx))) = frontier.pop() else {
            break; // nothing live and the stream is exhausted
        };
        if slab[idx].dead || slab[idx].version != version || slab[idx].lb[0] != key.get() {
            continue; // stale entry
        }

        // The source bound of everything else live right now.
        let second = peek_min(&mut frontier, &slab).unwrap_or(f64::INFINITY);
        let horizon = match next_euclid {
            Some((de, _)) => second.min(de),
            None => second,
        };

        if slab[idx].exact[0] && slab[idx].lb[0] <= horizon {
            // ---- The next network NN (plus any exact ties) ----
            let dn0 = slab[idx].lb[0];
            let mut batch = vec![idx];
            let mut pending_inexact = false;
            while let Some(&Reverse((k2, v2, i2))) = frontier.peek() {
                if slab[i2].dead || slab[i2].version != v2 || slab[i2].lb[0] != k2.get() {
                    frontier.pop();
                    continue;
                }
                if k2.get() == dn0 {
                    frontier.pop();
                    if slab[i2].exact[0] {
                        batch.push(i2);
                    } else {
                        // A tying bound that is not yet exact: resolve it
                        // before the batch can be adjudicated.
                        pending_inexact = true;
                        let end = session(
                            &mut slab[i2],
                            &mut engines,
                            &skyline,
                            dn0,
                            false,
                            use_plb,
                            guard,
                        );
                        record_session(reporter, slab[i2].obj, &end);
                        if !matches!(end, SessionEnd::Discarded) {
                            requeue!(slab, frontier, i2);
                        } else {
                            if oracle_qts.is_some() {
                                note_oracle_discard(reporter, input, &qpts, &skyline, &slab[i2]);
                            }
                            slab[i2].dead = true;
                        }
                    }
                } else {
                    break;
                }
            }
            if pending_inexact {
                // Retry once the ties are settled.
                for &i in &batch {
                    requeue!(slab, frontier, i);
                }
                continue;
            }

            // The batch objects are network NNs: guaranteed skyline
            // members on the source dimension (a unique NN is certain
            // even before its other distances are known — the paper's
            // "immediate" initial response).
            if skyline.is_empty() && batch.len() == 1 {
                reporter.mark_first();
            }

            // Resolve each batch member fully, one at a time (cheapest
            // dimension first, discarding early), then filter the batch
            // pairwise.
            let ends: Vec<SessionEnd> = batch
                .iter()
                .map(|&i| {
                    session(
                        &mut slab[i],
                        &mut engines,
                        &skyline,
                        f64::INFINITY,
                        true,
                        use_plb,
                        guard,
                    )
                })
                .collect();
            if guard.is_some_and(|g| g.tripped()) {
                // The budget tripped mid-resolution: the batch is not
                // fully resolved (interrupted engines return upper bounds,
                // which the resolvers never apply). The batch members stay
                // live and surface in the unresolved report with the
                // certified bounds they hold.
                break;
            }
            let mut confirmed: Vec<(usize, Vec<f64>)> = Vec::new();
            for (&i, end) in batch.iter().zip(&ends) {
                record_session(reporter, slab[i].obj, end);
                match end {
                    SessionEnd::Discarded => {
                        if oracle_qts.is_some() {
                            note_oracle_discard(reporter, input, &qpts, &skyline, &slab[i]);
                        }
                        slab[i].dead = true;
                    }
                    _ => {
                        debug_assert!(slab[i].fully_exact());
                        let vec = slab[i].lb.clone();
                        if skyline.iter().any(|(_, s)| dominates(s, &vec)) {
                            slab[i].dead = true;
                        } else {
                            confirmed.push((i, vec));
                        }
                    }
                }
            }
            for k in 0..confirmed.len() {
                let (i, ref vec) = confirmed[k];
                let dominated = confirmed
                    .iter()
                    .enumerate()
                    .any(|(m, (_, other))| m != k && dominates(other, vec));
                slab[i].dead = true; // classified either way
                if dominated {
                    continue;
                }
                pruning.borrow_mut().push(vec.clone());
                skyline.push((slab[i].obj, vec.clone()));
                reporter.report(SkylinePoint {
                    object: slab[i].obj,
                    vector: vec.clone(),
                });
            }
        } else {
            // ---- Processing session: tighten bounds up to the horizon ----
            let end = session(
                &mut slab[idx],
                &mut engines,
                &skyline,
                horizon,
                false,
                use_plb,
                guard,
            );
            record_session(reporter, slab[idx].obj, &end);
            match end {
                SessionEnd::Discarded => {
                    if oracle_qts.is_some() {
                        note_oracle_discard(reporter, input, &qpts, &skyline, &slab[idx]);
                    }
                    slab[idx].dead = true;
                }
                SessionEnd::Postponed | SessionEnd::SourceExact => {
                    requeue!(slab, frontier, idx);
                }
            }
        }
    }

    // Harvest the per-engine A* counters into the query trace.
    let mut stats = AStarStats::default();
    for e in &engines {
        stats.merge(&e.stats());
    }
    let obs = reporter.obs();
    obs.add(Metric::SpAstarConfirms, stats.confirms);
    obs.add(Metric::SpAstarRetargets, stats.retargets);

    // On a budget trip, every live slab candidate — plus the Euclidean
    // head popped from the stream but not yet ingested — is unresolved;
    // its `lb` vector is certified (Euclidean seeds, monotone plbs, exact
    // entries are all lower bounds) and goes out as-is.
    let partial = guard.filter(|g| g.tripped()).map(|g| {
        let mut unresolved: Vec<UnresolvedCandidate> = slab
            .iter()
            .filter(|c| !c.dead)
            .map(|c| UnresolvedCandidate {
                object: c.obj,
                lower_bounds: c.lb.clone(),
            })
            .collect();
        if let Some((de, obj)) = next_euclid {
            let obj_pt = input.ctx.point_of(&input.ctx.mid.position(obj));
            let mut lb = Vec::with_capacity(input.full_arity());
            lb.push(de);
            lb.extend(qpts[1..].iter().map(|q| q.distance(&obj_pt)));
            input.extend_with_attrs(obj, &mut lb);
            unresolved.push(UnresolvedCandidate {
                object: obj,
                lower_bounds: lb,
            });
        }
        unresolved.sort_by_key(|u| u.object);
        PartialInfo {
            reason: g.reason().unwrap_or(IncompleteReason::Cancelled),
            unresolved,
        }
    });

    AlgoOutput {
        candidates,
        nodes_expanded: stats.expansions,
        partial,
    }
}

/// Current minimum live source bound in the frontier (cleaning stale
/// entries off the top).
fn peek_min(
    frontier: &mut BinaryHeap<Reverse<(OrdF64, u32, usize)>>,
    slab: &[Cand],
) -> Option<f64> {
    while let Some(&Reverse((k, v, i))) = frontier.peek() {
        let c = &slab[i];
        if c.dead || c.version != v || c.lb[0] != k.get() {
            frontier.pop();
            continue;
        }
        return Some(k.get());
    }
    None
}

/// Advances one candidate: repeatedly expand the engine of its cheapest
/// non-exact dimension by one step, refreshing the bound from the engine's
/// plb and abandoning the candidate the moment a skyline vector dominates
/// the bound vector. Ends when the candidate is discarded, its source
/// distance is exact, or its source bound exceeds `ceiling` (it is no
/// longer the NN frontier).
///
/// With `use_plb = false` (ablation) every dimension is resolved exactly,
/// with a domination check only between dimensions — the "full network
/// distance computation" strawman of §4.3.
fn session(
    cand: &mut Cand,
    engines: &mut [AStar<'_>],
    skyline: &[(ObjectId, Vec<f64>)],
    ceiling: f64,
    resolve_fully: bool,
    use_plb: bool,
    guard: Option<&ExecGuard>,
) -> SessionEnd {
    loop {
        // A tripped budget freezes the engines (`advance` refuses), so
        // continuing would spin forever; postpone with the bounds as
        // they stand — they remain certified lower bounds.
        if guard.is_some_and(|g| g.tripped()) {
            return SessionEnd::Postponed;
        }
        if use_plb && skyline.iter().any(|(_, s)| dominates(s, &cand.lb)) {
            return SessionEnd::Discarded;
        }
        if cand.fully_exact() {
            return SessionEnd::SourceExact;
        }
        if !resolve_fully {
            if cand.exact[0] {
                return SessionEnd::SourceExact;
            }
            if cand.lb[0] > ceiling {
                return SessionEnd::Postponed;
            }
        }

        // Cheapest non-exact dimension next (§4.3's expansion rule,
        // extended to include the source dimension).
        let j = (0..cand.lb.len())
            .filter(|&j| !cand.exact[j])
            .min_by(|&a, &b| rn_geom::cmp_f64(cand.lb[a], cand.lb[b]).then(a.cmp(&b)))
            .expect("some dimension is inexact");

        let engine = &mut engines[j];
        if engine.target() != Some(cand.pos) {
            engine.set_target(cand.pos);
        }
        cand.expanded = true;
        if use_plb {
            engine.advance();
            cand.lb[j] = cand.lb[j].max(engine.plb());
            if engine.is_resolved() {
                let exact = engine.result();
                // Contract (Theorem 1's premise): every certified lower
                // bound must be admissible — at confirmation the plb can
                // never exceed the exact network distance it bounded.
                #[cfg(feature = "invariant-checks")]
                assert!(
                    cand.lb[j] <= exact + rn_geom::EPSILON,
                    "LBC lower-bound admissibility violated: plb {} > d_N {exact} in dim {j}",
                    cand.lb[j]
                );
                cand.lb[j] = exact;
                cand.exact[j] = true;
            }
        } else {
            let exact = engine.run();
            if guard.is_some_and(|g| g.tripped()) {
                // The run was cut short: `exact` is only an upper bound.
                return SessionEnd::Postponed;
            }
            // Same admissibility contract for the Euclidean seed bound.
            #[cfg(feature = "invariant-checks")]
            assert!(
                cand.lb[j] <= exact + rn_geom::EPSILON,
                "LBC lower-bound admissibility violated: bound {} > d_N {exact} in dim {j}",
                cand.lb[j]
            );
            cand.lb[j] = exact;
            cand.exact[j] = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Algorithm, SkylineEngine, SkylineResult};
    use rn_geom::Point;
    use rn_graph::{EdgeId, NetPosition, NetworkBuilder};
    use rn_obs::Metric;

    fn line_engine(objects: &[f64]) -> SkylineEngine {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        let net = b.build().unwrap();
        let objs = objects
            .iter()
            .map(|&o| NetPosition::new(EdgeId(0), o))
            .collect();
        SkylineEngine::build(net, objs)
    }

    #[test]
    fn matches_brute_on_a_line() {
        let e = line_engine(&[10.0, 25.0, 40.0, 60.0, 75.0, 95.0]);
        let qs = [
            NetPosition::new(EdgeId(0), 30.0),
            NetPosition::new(EdgeId(0), 70.0),
        ];
        let lbc = e.run(Algorithm::Lbc, &qs);
        let brute = e.run(Algorithm::Brute, &qs);
        assert_eq!(lbc.ids(), brute.ids());
    }

    #[test]
    fn noplb_mode_matches_too() {
        let e = line_engine(&[10.0, 25.0, 40.0, 60.0, 75.0, 95.0]);
        let qs = [
            NetPosition::new(EdgeId(0), 20.0),
            NetPosition::new(EdgeId(0), 80.0),
        ];
        let a = e.run(Algorithm::Lbc, &qs);
        let b = e.run(Algorithm::LbcNoPlb, &qs);
        assert_eq!(a.ids(), b.ids());
        // The plb mode never expands more nodes than the full mode.
        let pops = |r: &SkylineResult| r.trace.get(Metric::SpHeapPops);
        assert!(pops(&a) <= pops(&b));
    }

    #[test]
    fn first_report_is_source_network_nn() {
        // The first skyline point LBC reports is the network NN of the
        // source query point (§4.3 / §6.3).
        let e = line_engine(&[5.0, 45.0, 90.0]);
        let qs = [
            NetPosition::new(EdgeId(0), 40.0),
            NetPosition::new(EdgeId(0), 80.0),
        ];
        let r = e.run(Algorithm::Lbc, &qs);
        assert_eq!(r.skyline[0].object, rn_graph::ObjectId(1));
        assert!(r.stats.initial_time.is_some());
    }

    #[test]
    fn single_query_point() {
        let e = line_engine(&[10.0, 40.0, 90.0]);
        let qs = [NetPosition::new(EdgeId(0), 35.0)];
        let r = e.run(Algorithm::Lbc, &qs);
        assert_eq!(r.skyline.len(), 1);
        assert_eq!(r.skyline[0].object, rn_graph::ObjectId(1));
    }

    #[test]
    fn candidate_count_at_most_object_count() {
        let e = line_engine(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]);
        let qs = [
            NetPosition::new(EdgeId(0), 35.0),
            NetPosition::new(EdgeId(0), 55.0),
        ];
        let r = e.run(Algorithm::Lbc, &qs);
        let candidates = r.trace.get(Metric::QueryCandidates);
        assert!(candidates <= 9);
        assert!(candidates >= r.skyline.len() as u64);
    }

    #[test]
    fn all_objects_unreachable_are_all_skyline() {
        // Queries on an island with no objects; all objects on another
        // island: every vector is all-infinite, nothing dominates, and the
        // whole object set is the skyline (matching the brute oracle).
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(10.0, 0.0));
        let n2 = b.add_node(Point::new(100.0, 100.0));
        let n3 = b.add_node(Point::new(110.0, 100.0));
        b.add_straight_edge(n0, n1).unwrap();
        b.add_straight_edge(n2, n3).unwrap();
        let net = b.build().unwrap();
        let objects = vec![
            NetPosition::new(EdgeId(1), 2.0),
            NetPosition::new(EdgeId(1), 7.0),
        ];
        let e = SkylineEngine::build(net, objects);
        let qs = [
            NetPosition::new(EdgeId(0), 2.0),
            NetPosition::new(EdgeId(0), 8.0),
        ];
        let lbc = e.run(Algorithm::Lbc, &qs);
        let brute = e.run(Algorithm::Brute, &qs);
        assert_eq!(lbc.ids(), brute.ids());
        assert_eq!(lbc.skyline.len(), 2);
    }
}

//! Collaborative Expansion (CE) — §4.1.
//!
//! The straightforward algorithm: one incremental network expansion per
//! query point, alternated round-robin, each visiting objects in ascending
//! network distance.
//!
//! * **Filtering phase** — runs until some object `p` has been visited by
//!   *all* query points. Every object visited by at least one query point
//!   so far forms the candidate set `C`; per the paper, everything outside
//!   `C` is component-wise no better than `p`.
//! * **Refinement phase** — expansion continues. Whenever an object's
//!   distance vector completes it enters a *classification queue*: it is
//!   classified (skyline or dominated) only once every wavefront radius
//!   strictly exceeds the corresponding vector entry. This strict-radius
//!   gate is what makes CE exact even under distance **ties** — a
//!   dominator with an equal coordinate is guaranteed to classify in the
//!   same batch or earlier, never after. Within a batch, candidates
//!   classify in ascending distance-sum order (a dominator always has the
//!   smaller sum).
//! * After each confirmed skyline point, open candidates whose *certified*
//!   lower-bound vectors (exact where visited, wavefront radius elsewhere)
//!   are dominated get pruned — the `∩_q C(p, q)` pruning of the paper —
//!   letting the expansion stop well before visiting everything.

use crate::engine::{AlgoOutput, PartialInfo, QueryInput, UnresolvedCandidate};
use crate::stats::{Reporter, SkylinePoint};
use rn_geom::OrdF64;
use rn_graph::ObjectId;
use rn_obs::{Event, IncompleteReason, Metric};
use rn_skyline::dominance::dominates;
use rn_sp::IncrementalExpansion;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(Clone, Copy, PartialEq)]
enum State {
    /// Distance vector incomplete.
    Open,
    /// Vector complete; waiting for every radius to pass it.
    Waiting,
    /// Confirmed skyline point.
    Skyline,
    /// Dominated (or certified dominated early).
    Pruned,
}

impl State {
    fn unclassified(self) -> bool {
        matches!(self, State::Open | State::Waiting)
    }
}

/// One discovered object. Its per-query distances live in
/// [`CeState::dists`], at the same entry index.
struct Obj {
    id: ObjectId,
    visited: usize,
    /// Member of the frozen candidate set C (phase-1 arrival).
    in_c: bool,
    state: State,
    /// Query dimensions whose wavefront radius has not yet strictly
    /// passed this object's distance.
    blocked: usize,
}

/// Marks an object slot CE has not discovered yet.
const UNSEEN: u32 = u32::MAX;

/// Writes the certified lower-bound vector of an unclassified object
/// into `out`: its exact distance where visited, the dimension's bound
/// elsewhere.
fn certify_into(dists: &[f64], bounds: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        dists
            .iter()
            .zip(bounds)
            .map(|(&d, &r)| if d.is_nan() { r } else { d }),
    );
}

/// The classification state of a CE run: everything except the
/// wavefront engines themselves.
///
/// Every method that consults wavefront progress takes `bounds: &[f64]`,
/// the per-dimension certified emission bounds of the live wavefronts.
pub(crate) struct CeState {
    n: usize,
    /// Static attributes present: every emitted object must be classified
    /// and termination needs the group certificate.
    track_all: bool,
    exhausted: Vec<bool>,
    /// Per object slot (object ids are dense middle-layer slots): the
    /// object's entry in `objs`, or [`UNSEEN`].
    slot: Vec<u32>,
    /// Discovered objects, in discovery order. Every walk over them is
    /// either order-free (per-object decisions, counts) or sorts by id
    /// first, so the query path behaves identically run to run.
    objs: Vec<Obj>,
    /// Per-query network distances, `n` per entry of `objs`; `NAN` marks
    /// "not yet visited".
    dists: Vec<f64>,
    /// Entries of `objs` that may still be Open or Waiting — a superset,
    /// trimmed by [`CeState::prune_open`], so pruning walks only the live
    /// window.
    unclassified: Vec<u32>,
    /// Reused buffer for the certified vector `prune_open` tests.
    cert: Vec<f64>,
    skyline: Vec<(ObjectId, Vec<f64>)>,
    /// Per query point: completed objects waiting for its radius to pass,
    /// keyed by their distance in that dimension.
    waiting: Vec<BinaryHeap<Reverse<(OrdF64, ObjectId)>>>,
    ready: Vec<ObjectId>,
    phase1: bool,
    frozen_candidates: usize,
    /// C members not yet classified (gates termination after phase 1).
    open: usize,
}

impl CeState {
    pub(crate) fn new(input: &QueryInput<'_>) -> Self {
        let n = input.arity();
        CeState {
            n,
            // With static attributes a spatially-dominated object can
            // still be a skyline member (e.g. far but cheap), so the
            // phase-1 filter argument no longer discards refinement-phase
            // arrivals; instead the loop runs until the *group
            // certificate* holds: some skyline vector dominates the
            // certified bounds of everything not yet emitted.
            track_all: input.attrs.is_some(),
            exhausted: vec![false; n],
            slot: vec![UNSEEN; input.ctx.mid.object_count()],
            objs: Vec::new(),
            dists: Vec::new(),
            unclassified: Vec::new(),
            cert: Vec::with_capacity(input.full_arity()),
            skyline: Vec::new(),
            waiting: (0..n).map(|_| BinaryHeap::new()).collect(),
            ready: Vec::new(),
            phase1: true,
            frozen_candidates: 0,
            open: 0,
        }
    }

    /// The entry index of discovered object `id`.
    fn entry(&self, id: ObjectId) -> usize {
        let e = self.slot[id.idx()];
        debug_assert!(e != UNSEEN, "object {id:?} was never discovered");
        e as usize
    }

    /// The per-query distances of entry `e`.
    fn dists(&self, e: usize) -> &[f64] {
        &self.dists[e * self.n..(e + 1) * self.n]
    }

    pub(crate) fn is_exhausted(&self, qi: usize) -> bool {
        self.exhausted[qi]
    }

    pub(crate) fn all_exhausted(&self) -> bool {
        self.exhausted.iter().all(|&e| e)
    }

    /// Termination test: all candidates classified and (under attrs) the
    /// group certificate for the unemitted remainder holds.
    pub(crate) fn should_stop(&self, input: &QueryInput<'_>, bounds: &[f64]) -> bool {
        if self.phase1 || self.open != 0 {
            return false;
        }
        if !self.track_all {
            return true;
        }
        // Group certificate for the unemitted remainder.
        let mut cert: Vec<f64> = bounds
            .iter()
            .zip(&self.exhausted)
            .map(|(&b, &e)| if e { f64::INFINITY } else { b })
            .collect();
        input.extend_with_attr_lower(&mut cert);
        self.skyline.iter().any(|(_, s)| dominates(s, &cert))
    }

    /// Wavefront `qi` has no further emissions: everything waiting on this
    /// dimension is released.
    pub(crate) fn on_exhausted(&mut self, qi: usize) {
        self.exhausted[qi] = true;
        while let Some(Reverse((_, obj))) = self.waiting[qi].pop() {
            self.release(obj);
        }
    }

    /// Wavefront `qi` emitted object `id` at distance `d`. `bounds` are
    /// the certified emission bounds, with `bounds[qi]` already refreshed.
    pub(crate) fn on_emission(&mut self, qi: usize, id: ObjectId, d: f64, bounds: &[f64]) {
        let n = self.n;
        if self.slot[id.idx()] == UNSEEN {
            let e = self.objs.len() as u32;
            self.slot[id.idx()] = e;
            self.objs.push(Obj {
                id,
                visited: 0,
                in_c: self.phase1,
                state: State::Open,
                blocked: 0,
            });
            self.dists.resize(self.dists.len() + n, f64::NAN);
            self.unclassified.push(e);
            // Refinement-phase newcomers are not candidates (§4.1) and do
            // not gate termination — except under the static attribute
            // extension, where a spatially-dominated object can still be
            // a skyline member and must be classified.
            if !self.phase1 && self.track_all {
                self.open += 1;
            }
        }
        let e = self.entry(id);
        let row = e * n..(e + 1) * n;
        let entry = &mut self.objs[e];
        if entry.state != State::Open {
            return;
        }
        if self.dists[row.start + qi].is_nan() {
            self.dists[row.start + qi] = d;
            entry.visited += 1;
        }
        if entry.visited < n {
            return;
        }

        // Vector complete: enter the classification pipeline.
        entry.state = State::Waiting;
        let mut blocked = 0;
        for (j, (&dj, heap)) in self.dists[row]
            .iter()
            .zip(self.waiting.iter_mut())
            .enumerate()
        {
            let passed = self.exhausted[j] || bounds[j] > dj;
            if !passed {
                heap.push(Reverse((OrdF64::new(dj), id)));
                blocked += 1;
            }
        }
        entry.blocked = blocked;
        if blocked == 0 {
            self.ready.push(id);
        }
        if self.phase1 {
            // Phase 1 ends at the first completed vector.
            self.phase1 = false;
            self.frozen_candidates = self.objs.len();
            self.open = self
                .objs
                .iter()
                .filter(|o| o.in_c && o.state.unclassified())
                .count();
        }
    }

    /// Advances dimension `qi`'s classification gate to `bounds[qi]`:
    /// waiting objects strictly below the bound are released.
    pub(crate) fn advance_gates(&mut self, qi: usize, bounds: &[f64]) {
        let r = bounds[qi];
        while let Some(&Reverse((d, obj))) = self.waiting[qi].peek() {
            if r > d.get() {
                self.waiting[qi].pop();
                self.release(obj);
            } else {
                break;
            }
        }
    }

    /// One dimension's gate passed for `obj`; move it to `ready` when
    /// fully unblocked.
    fn release(&mut self, obj: ObjectId) {
        let e = self.entry(obj);
        let o = &mut self.objs[e];
        if o.state == State::Waiting {
            o.blocked -= 1;
            if o.blocked == 0 {
                self.ready.push(obj);
            }
        }
    }

    /// Classifies every ready object: within a batch, ascending
    /// distance-sum order guarantees dominators classify before what they
    /// dominate.
    pub(crate) fn classify_ready(
        &mut self,
        input: &QueryInput<'_>,
        reporter: &mut Reporter,
        bounds: &[f64],
    ) {
        if self.ready.is_empty() {
            return;
        }
        let mut ready = std::mem::take(&mut self.ready);
        // Ascending sum over the *full* vector (distances plus static
        // attributes): a dominator's sum is strictly smaller, so it always
        // classifies before anything it dominates.
        let full_sum = |id: ObjectId| -> f64 {
            let mut s: f64 = self.dists(self.entry(id)).iter().sum();
            if let Some(a) = input.attrs {
                s += a.row(id).iter().sum::<f64>();
            }
            s
        };
        ready.sort_by(|&a, &b| rn_geom::cmp_f64(full_sum(a), full_sum(b)).then(a.cmp(&b)));
        for id in ready {
            let e = self.entry(id);
            if self.objs[e].state != State::Waiting {
                continue; // pruned while waiting
            }
            let mut vec = self.dists(e).to_vec();
            input.extend_with_attrs(id, &mut vec);
            let dominated = self.skyline.iter().any(|(_, s)| dominates(s, &vec));
            let o = &mut self.objs[e];
            if (o.in_c || input.attrs.is_some()) && !self.phase1 {
                self.open -= 1;
            }
            if dominated {
                o.state = State::Pruned;
            } else {
                o.state = State::Skyline;
                self.skyline.push((id, vec.clone()));
                reporter.report(SkylinePoint {
                    object: id,
                    vector: vec.clone(),
                });
                self.prune_open(input, &vec, bounds);
            }
        }
    }

    /// Certified-bound pruning: any unclassified object whose lower-bound
    /// vector is dominated by the new skyline vector can never recover.
    /// Walks only the unclassified entries, dropping the ones classified
    /// since the last walk; each decision depends on its own object alone,
    /// so the walk order does not matter.
    fn prune_open(&mut self, input: &QueryInput<'_>, v: &[f64], bounds: &[f64]) {
        let n = self.n;
        let counts_all = input.attrs.is_some();
        let phase1 = self.phase1;
        let (objs, dists, cert, open) =
            (&mut self.objs, &self.dists, &mut self.cert, &mut self.open);
        self.unclassified.retain(|&e| {
            let e = e as usize;
            let o = &mut objs[e];
            if !o.state.unclassified() {
                return false;
            }
            certify_into(&dists[e * n..(e + 1) * n], bounds, cert);
            input.extend_with_attrs(o.id, cert);
            if !dominates(v, cert) {
                return true;
            }
            o.state = State::Pruned;
            if (o.in_c || counts_all) && !phase1 {
                *open -= 1;
            }
            false
        });
    }

    /// Exact classification of whatever never completed (unreachable
    /// dimensions become infinite distances), then the invariant checks.
    /// Call after the final [`CeState::classify_ready`].
    pub(crate) fn finish(&mut self, input: &QueryInput<'_>, reporter: &mut Reporter) {
        let mut remaining: Vec<(ObjectId, Vec<f64>)> = self
            .objs
            .iter()
            .enumerate()
            .filter(|(_, o)| o.state.unclassified())
            .map(|(e, o)| {
                let mut vec: Vec<f64> = self
                    .dists(e)
                    .iter()
                    .map(|&d| if d.is_nan() { f64::INFINITY } else { d })
                    .collect();
                input.extend_with_attrs(o.id, &mut vec);
                (o.id, vec)
            })
            .collect();
        remaining.sort_by_key(|(id, _)| *id);
        for i in 0..remaining.len() {
            let (id, ref vec) = remaining[i];
            let dominated = self.skyline.iter().any(|(_, s)| dominates(s, vec))
                || remaining
                    .iter()
                    .enumerate()
                    .any(|(j, (_, other))| j != i && dominates(other, vec));
            let e = self.entry(id);
            self.objs[e].state = if dominated {
                State::Pruned
            } else {
                State::Skyline
            };
            if !dominated {
                self.skyline.push((id, vec.clone()));
                reporter.report(SkylinePoint {
                    object: id,
                    vector: vec.clone(),
                });
            }
        }
        if self.phase1 {
            self.frozen_candidates = self.objs.len();
        }

        // Contract (refinement completeness, §4.1): every object CE
        // touched ends classified, and the emitted skyline is an antichain
        // — no member dominates another. A gap here means the strict-radius
        // gate released something too early or the group certificate fired
        // prematurely.
        #[cfg(feature = "invariant-checks")]
        {
            for o in &self.objs {
                assert!(
                    !o.state.unclassified(),
                    "CE refinement incomplete: object {:?} never classified",
                    o.id
                );
            }
            for (i, (ida, va)) in self.skyline.iter().enumerate() {
                for (idb, vb) in self.skyline.iter().skip(i + 1) {
                    assert!(
                        !dominates(va, vb) && !dominates(vb, va),
                        "CE skyline not an antichain: {ida:?} vs {idb:?}"
                    );
                }
            }
        }
    }

    /// The frozen candidate-set size `|C|` (valid after
    /// [`CeState::finish`]).
    pub(crate) fn candidates(&self) -> usize {
        self.frozen_candidates
    }

    /// The candidate-set size as known right now: the frozen `|C|` after
    /// phase 1, or every discovered object while still filtering.
    /// Partial results use this; complete runs report
    /// [`CeState::candidates`].
    pub(crate) fn candidates_now(&self) -> usize {
        if self.phase1 {
            self.objs.len()
        } else {
            self.frozen_candidates
        }
    }

    /// Every discovered-but-unclassified object with its certified
    /// lower-bound vector (exact where visited, emission bound
    /// elsewhere; static attributes exact), sorted by object id — the
    /// unresolved remainder a budget-tripped run reports.
    pub(crate) fn unresolved(
        &self,
        input: &QueryInput<'_>,
        bounds: &[f64],
    ) -> Vec<UnresolvedCandidate> {
        let mut out: Vec<UnresolvedCandidate> = self
            .objs
            .iter()
            .enumerate()
            .filter(|(_, o)| o.state.unclassified())
            .map(|(e, o)| {
                let mut lb = Vec::with_capacity(input.full_arity());
                certify_into(self.dists(e), bounds, &mut lb);
                input.extend_with_attrs(o.id, &mut lb);
                UnresolvedCandidate {
                    object: o.id,
                    lower_bounds: lb,
                }
            })
            .collect();
        out.sort_by_key(|u| u.object);
        out
    }

    /// `true` while the filter phase runs (the candidate set has not
    /// frozen yet). Drivers use this to attribute each consumed emission
    /// to the filter or the refinement phase; the emission that *ends*
    /// phase 1 is consumed before `on_emission` flips the flag, so it
    /// counts as filter work — in both drivers.
    pub(crate) fn in_phase1(&self) -> bool {
        self.phase1
    }
}

pub(crate) fn run(input: &QueryInput<'_>, reporter: &mut Reporter) -> AlgoOutput {
    let n = input.arity();
    let mut ines: Vec<IncrementalExpansion<'_>> = input
        .queries
        .iter()
        .map(|q| IncrementalExpansion::new(&input.ctx, q.pos))
        .collect();
    let mut st = CeState::new(input);
    // Live certified emission bounds; only `bounds[qi]` can change when
    // wavefront `qi` advances, so refreshing that single entry after each
    // `next_nearest` keeps the vector exactly equal to querying every
    // engine afresh.
    let mut bounds: Vec<f64> = ines.iter().map(|i| i.emission_bound()).collect();
    let mut turn = 0usize;
    let mut interrupted = false;

    loop {
        if st.should_stop(input, &bounds) {
            break;
        }
        if st.all_exhausted() {
            break;
        }
        while st.is_exhausted(turn) {
            turn = (turn + 1) % n;
        }
        let qi = turn;
        turn = (turn + 1) % n;

        match ines[qi].next_nearest() {
            None => {
                if ines[qi].interrupted() {
                    // Budget tripped mid-wavefront. Crucially this is NOT
                    // exhaustion: releasing this dimension's waiting
                    // objects would classify against incomplete
                    // expansions. Stop with whatever is certified.
                    interrupted = true;
                    break;
                }
                st.on_exhausted(qi)
            }
            Some((id, d)) => {
                bounds[qi] = ines[qi].emission_bound();
                let was_phase1 = st.in_phase1();
                let obs = reporter.obs();
                obs.incr(Metric::SpIneEmissions);
                obs.incr(if was_phase1 {
                    Metric::CeFilterDistanceComputations
                } else {
                    Metric::CeRefinementDistanceComputations
                });
                st.on_emission(qi, id, d, &bounds);
                if was_phase1 && !st.in_phase1() {
                    reporter.obs().event(Event::Phase {
                        label: "refinement",
                    });
                }
                // The certified emission bound has grown: advance this
                // dimension's gate.
                st.advance_gates(qi, &bounds);
            }
        }

        st.classify_ready(input, reporter, &bounds);
    }

    let nodes_expanded: u64 = ines.iter().map(|i| i.wavefront().settled_count()).sum();
    if interrupted {
        // Sound wrap-up: classify what every gate has certified (those
        // classifications are exact — all potential dominators completed
        // earlier), then report the rest as unresolved. The exhaustive
        // finalisation is skipped: its infinite-distance argument assumes
        // exhausted wavefronts.
        st.classify_ready(input, reporter, &bounds);
        let guard = input.ctx.guard.expect("interruption implies a guard");
        return AlgoOutput {
            candidates: st.candidates_now(),
            nodes_expanded,
            partial: Some(PartialInfo {
                reason: guard.reason().unwrap_or(IncompleteReason::Cancelled),
                unresolved: st.unresolved(input, &bounds),
            }),
        };
    }

    // Wavefronts exhausted with C members incomplete: their missing
    // dimensions are unreachable (infinite). Finalise exactly.
    st.classify_ready(input, reporter, &bounds);
    st.finish(input, reporter);

    AlgoOutput {
        candidates: st.candidates(),
        nodes_expanded,
        partial: None,
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{Algorithm, SkylineEngine};
    use rn_geom::Point;
    use rn_graph::{EdgeId, NetPosition, NetworkBuilder};

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
        let e = line_engine(&[10.0, 40.0, 60.0, 95.0]);
        let qs = [
            NetPosition::new(EdgeId(0), 30.0),
            NetPosition::new(EdgeId(0), 70.0),
        ];
        let ce = e.run(Algorithm::Ce, &qs);
        let brute = e.run(Algorithm::Brute, &qs);
        assert_eq!(ce.ids(), brute.ids());
    }

    #[test]
    fn exact_under_distance_ties() {
        // A symmetric square: objects tie in one dimension, and the
        // dominated one must still be eliminated. This is the
        // configuration the strict-radius classification gate exists for.
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        let n2 = b.add_node(Point::new(200.0, 0.0));
        let n3 = b.add_node(Point::new(0.0, 100.0));
        let n4 = b.add_node(Point::new(100.0, 100.0));
        let n5 = b.add_node(Point::new(200.0, 100.0));
        let e01 = b.add_straight_edge(n0, n1).unwrap();
        b.add_straight_edge(n1, n2).unwrap();
        let e34 = b.add_straight_edge(n3, n4).unwrap();
        let e45 = b.add_straight_edge(n4, n5).unwrap();
        b.add_straight_edge(n0, n3).unwrap();
        let e14 = b.add_straight_edge(n1, n4).unwrap();
        let e25 = b.add_straight_edge(n2, n5).unwrap();
        let net = b.build().unwrap();
        let cafes = vec![
            NetPosition::new(e01, 50.0),
            NetPosition::new(e34, 50.0), // dominated, ties on one dim
            NetPosition::new(e14, 50.0), // dominator
            NetPosition::new(e25, 10.0),
        ];
        let engine = SkylineEngine::build(net, cafes);
        let friends = [NetPosition::new(e01, 10.0), NetPosition::new(e45, 90.0)];
        let ce = engine.run(Algorithm::Ce, &friends);
        let brute = engine.run(Algorithm::Brute, &friends);
        assert_eq!(ce.ids(), brute.ids());
        assert!(!ce.ids().contains(&rn_graph::ObjectId(1)));
    }

    #[test]
    fn single_query_point() {
        let e = line_engine(&[10.0, 40.0, 90.0]);
        let qs = [NetPosition::new(EdgeId(0), 35.0)];
        let r = e.run(Algorithm::Ce, &qs);
        assert_eq!(r.skyline.len(), 1);
        assert_eq!(r.skyline[0].object, rn_graph::ObjectId(1));
        assert!(rn_geom::approx_eq(r.skyline[0].vector[0], 5.0));
    }

    #[test]
    fn disconnected_component_objects() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(10.0, 0.0));
        let n2 = b.add_node(Point::new(100.0, 100.0));
        let n3 = b.add_node(Point::new(110.0, 100.0));
        b.add_straight_edge(n0, n1).unwrap();
        b.add_straight_edge(n2, n3).unwrap();
        let net = b.build().unwrap();
        let objects = vec![
            NetPosition::new(EdgeId(0), 5.0),
            NetPosition::new(EdgeId(1), 5.0), // unreachable from queries
        ];
        let e = SkylineEngine::build(net, objects);
        let qs = [
            NetPosition::new(EdgeId(0), 2.0),
            NetPosition::new(EdgeId(0), 8.0),
        ];
        let ce = e.run(Algorithm::Ce, &qs);
        let brute = e.run(Algorithm::Brute, &qs);
        assert_eq!(ce.ids(), brute.ids());
        assert_eq!(ce.ids(), vec![rn_graph::ObjectId(0)]);
    }

    #[test]
    fn candidate_count_positive_and_bounded() {
        let e = line_engine(&[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0]);
        let qs = [
            NetPosition::new(EdgeId(0), 35.0),
            NetPosition::new(EdgeId(0), 55.0),
        ];
        let r = e.run(Algorithm::Ce, &qs);
        let candidates = r.trace.get(rn_obs::Metric::QueryCandidates);
        assert!(candidates >= r.skyline.len() as u64);
        assert!(candidates <= 9);
    }
}

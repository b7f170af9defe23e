//! Euclidean Distance Constraint (EDC) — §4.2, in its incremental form.
//!
//! EDC exploits the duality between the Euclidean and the network view of
//! the same points:
//!
//! 1. browse the **Euclidean** multi-source skyline (BBS on the object
//!    R-tree) as a guide;
//! 2. for each Euclidean skyline point, compute its **network** distance
//!    vector with per-query-point A\* engines (whose settled hash tables
//!    are reused across targets — step 2/4 sharing);
//! 3. fetch every object inside the hypercube `(origin, shifted point)` —
//!    only those can dominate the shifted point — and compute their
//!    network vectors too;
//! 4. adjudicate: any computed object whose network vector lies inside the
//!    current hypercube can be classified *exactly* against the computed
//!    set (all of its potential dominators are provably computed), so
//!    network skyline points are reported progressively;
//! 5. confirmed network vectors are injected into the Euclidean browse as
//!    dominators, pruning the remaining search.
//!
//! ## Deviation from the paper (documented in DESIGN.md §5)
//!
//! As literally specified, EDC's candidate set can miss a network skyline
//! point whose Euclidean vector escapes every shifted-Euclidean-skyline
//! hypercube (possible when the network/Euclidean distance ratio varies
//! sharply between objects). After the paper's steps complete, this
//! implementation therefore iterates a **closure fetch**: retrieve any
//! object whose Euclidean vector is not dominated by a *confirmed network
//! skyline* vector and compute it, repeating until a fixpoint. On
//! realistic workloads the closure adds nothing (the paper's candidate set
//! already covers it) and the measured candidate counts match the paper's
//! definition; on adversarial inputs it restores correctness — all three
//! algorithms always return identical skylines.

use crate::engine::{AlgoOutput, PartialInfo, QueryInput, UnresolvedCandidate};
use crate::stats::{Reporter, SkylinePoint};
use rn_geom::Point;
use rn_graph::{NetPosition, ObjectId};
use rn_obs::{Event, IncompleteReason, Metric};
use rn_skyline::dominance::{dominates, dominates_or_equal};
use rn_skyline::EuclideanSkylineIter;
use rn_sp::{AStar, AStarStats, BoundKind, LbTarget};
use std::collections::{BTreeMap, BTreeSet};

/// How EDC obtains network distance vectors — the only part of the
/// algorithm that touches the shortest-path substrate, and therefore the
/// parallelisation seam.
///
/// The sequential backend ([`SeqBackend`]) walks one A\* engine per query
/// point over the objects in order; the parallel backend
/// ([`crate::par`]) fans the *dimensions* out across workers, each of
/// which owns its engines and a private store session. Both must satisfy
/// the same contract: vectors are returned **in `objs` order**, with
/// static attributes already appended, and each engine processes the
/// overall target sequence in the same order as the sequential run (so
/// per-engine expansion counts — and hence page-fault counts per session —
/// do not depend on the backend's worker count).
pub(crate) trait VectorBackend {
    /// Network distance vectors (plus static attributes) for each object,
    /// in `objs` order.
    fn vectors(&mut self, input: &QueryInput<'_>, objs: &[ObjectId]) -> Vec<Vec<f64>>;
    /// Cumulative engine counters summed across all engines so far — the
    /// coordinator harvests these into the trace once, at end of run.
    fn stats(&mut self) -> AStarStats;
}

/// The in-thread backend: one A\* engine per query point, settled tables
/// reused across targets (step 2/4 sharing).
pub(crate) struct SeqBackend<'a> {
    engines: Vec<AStar<'a>>,
}

impl<'a> SeqBackend<'a> {
    pub(crate) fn new(input: &'a QueryInput<'a>) -> Self {
        SeqBackend {
            engines: input
                .queries
                .iter()
                .map(|q| AStar::new(&input.ctx, q.pos))
                .collect(),
        }
    }
}

impl VectorBackend for SeqBackend<'_> {
    fn vectors(&mut self, input: &QueryInput<'_>, objs: &[ObjectId]) -> Vec<Vec<f64>> {
        let positions: Vec<NetPosition> = objs.iter().map(|&o| input.ctx.mid.position(o)).collect();
        let mut rows: Vec<Vec<f64>> = objs
            .iter()
            .map(|_| Vec::with_capacity(input.full_arity()))
            .collect();
        // One dimension at a time, so each engine sees the batch's
        // destinations in object order under every backend.
        for e in &mut self.engines {
            for (row, d) in rows.iter_mut().zip(e.distances_to_pack(&positions)) {
                row.push(d);
            }
        }
        for (row, &obj) in rows.iter_mut().zip(objs) {
            input.extend_with_attrs(obj, row);
        }
        rows
    }

    fn stats(&mut self) -> AStarStats {
        let mut total = AStarStats::default();
        for e in &self.engines {
            total.merge(&e.stats());
        }
        total
    }
}

pub(crate) fn run(input: &QueryInput<'_>, reporter: &mut Reporter) -> AlgoOutput {
    let mut backend = SeqBackend::new(input);
    run_mode_with(input, reporter, false, &mut backend)
}

/// The batch form of §4.2: steps 1-4 run to completion and step 5 reports
/// everything at the end ("EDC ... is essentially a batch skyline query
/// algorithm - no network skyline points can be reported until step 5").
pub(crate) fn run_batch(input: &QueryInput<'_>, reporter: &mut Reporter) -> AlgoOutput {
    let mut backend = SeqBackend::new(input);
    run_mode_with(input, reporter, true, &mut backend)
}

pub(crate) fn run_mode_with<B: VectorBackend>(
    input: &QueryInput<'_>,
    reporter: &mut Reporter,
    batch: bool,
    backend: &mut B,
) -> AlgoOutput {
    let qpts: Vec<Point> = input.queries.iter().map(|q| q.point).collect();
    let guard = input.ctx.guard;

    // Oracle window tightening (DESIGN.md §14): with a non-Euclidean lower
    // bound installed, hypercube candidates whose pair lower bound already
    // exceeds the shifted vector in some dimension are dropped before their
    // (expensive) network vectors are computed — such an object cannot
    // dominate anything inside the cube, and the closure fetch keeps the
    // candidate set complete. The Euclidean default skips the pass so the
    // paper's path stays bitwise unchanged.
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

    // Network vectors of every candidate we have paid to compute. Ordered
    // maps keep the ready/rest iteration deterministic across runs.
    let mut computed: BTreeMap<ObjectId, Vec<f64>> = BTreeMap::new();
    // Computed but neither confirmed skyline nor discarded yet.
    let mut undetermined: BTreeSet<ObjectId> = BTreeSet::new();
    // Confirmed network skyline vectors (reported as they are found).
    let mut confirmed: Vec<(ObjectId, Vec<f64>)> = Vec::new();
    // Objects whose vector computation a budget trip cut short. The
    // values an interrupted engine returns are *upper* bounds, so they
    // are discarded wholesale; the unresolved report falls back to the
    // Euclidean lower bound (always sound for network distances).
    let mut aborted: Vec<ObjectId> = Vec::new();
    let mut tripped = false;

    let mut eskyline = match input.attrs {
        None => EuclideanSkylineIter::new(input.obj_tree, &qpts),
        // §4.3 extension: static attributes join the Euclidean browse as
        // pre-computed dimensions.
        Some(a) => EuclideanSkylineIter::with_static_attrs(
            input.obj_tree,
            &qpts,
            |obj: &ObjectId| a.row(*obj).to_vec(),
            a.lower().to_vec(),
        ),
    };
    while let Some((&obj, _evec)) = eskyline.next() {
        if computed.contains_key(&obj) {
            continue;
        }
        // Step 2: shift the Euclidean skyline point into network space.
        reporter.obs().incr(Metric::EdcGuideShifts);
        let shifted_row = backend.vectors(input, &[obj]).pop();
        if guard.is_some_and(|g| g.tripped()) {
            aborted.push(obj);
            tripped = true;
            break;
        }
        let shifted = shifted_row.expect("one vector per object");
        computed.insert(obj, shifted.clone());
        undetermined.insert(obj);

        // Step 3: everything inside the hypercube (o, shifted) could
        // dominate it; fetch and compute the newcomers.
        let mut in_cube = fetch_hypercube(input, &qpts, &shifted, &computed);
        if let Some(qts) = &oracle_qts {
            // An object with `pair_bound > shifted[j]` in any dimension has
            // `d_N > shifted[j]` there too, so it can dominate neither the
            // shifted point nor anything inside its cube.
            in_cube.retain(|&o| {
                let ot = LbTarget::of(input.ctx.net, &input.ctx.mid.position(o));
                qts.iter()
                    .zip(&shifted)
                    .all(|(qt, s)| input.ctx.lb.pair_bound(qt, &ot) <= *s)
            });
        }
        {
            let obs = reporter.obs();
            obs.incr(Metric::EdcWindowFetches);
            obs.add(Metric::EdcWindowCandidates, in_cube.len() as u64);
            obs.event(Event::WindowFetch {
                candidates: in_cube.len() as u64,
            });
        }
        let cube_rows = backend.vectors(input, &in_cube);
        if guard.is_some_and(|g| g.tripped()) {
            aborted.extend(in_cube);
            tripped = true;
            break;
        }
        for (cand, v) in in_cube.iter().zip(cube_rows) {
            computed.insert(*cand, v);
            undetermined.insert(*cand);
        }

        if batch {
            continue; // step 5 adjudicates everything at the end
        }
        // Step 4/5 (incremental): objects whose network vector sits inside
        // the current hypercube have all potential dominators computed, so
        // they can be classified now.
        let mut ready: Vec<ObjectId> = undetermined
            .iter()
            .copied()
            .filter(|o| dominates_or_equal(&computed[o], &shifted))
            .collect();
        // Ascending distance-sum order: dominators classify first.
        ready.sort_by(|a, b| {
            let sa: f64 = computed[a].iter().sum();
            let sb: f64 = computed[b].iter().sum();
            rn_geom::cmp_f64(sa, sb).then(a.cmp(b))
        });
        for o in ready {
            let vec = computed[&o].clone();
            undetermined.remove(&o);
            let dominated = computed
                .iter()
                .any(|(other, v)| *other != o && dominates(v, &vec));
            if !dominated {
                eskyline.add_dominator(vec.clone());
                confirmed.push((o, vec.clone()));
                reporter.report(SkylinePoint {
                    object: o,
                    vector: vec,
                });
            }
        }
    }
    drop(eskyline);

    // Closure fetch (correctness guard): any uncomputed object whose
    // Euclidean vector escapes every confirmed-skyline dominance region
    // could still be a skyline point.
    while !tripped {
        let sky_vecs: Vec<Vec<f64>> = {
            let idx = rn_skyline::bnl::bnl_skyline(&computed.values().cloned().collect::<Vec<_>>());
            let all: Vec<&Vec<f64>> = computed.values().collect();
            idx.into_iter().map(|i| all[i].clone()).collect()
        };
        let mut fresh = fetch_undominated(input, &qpts, &sky_vecs, &computed);
        if let Some(qts) = &oracle_qts {
            // Same soundness argument with the oracle's tighter per-pair
            // bounds: a network vector dominating the lower-bound vector
            // dominates the (element-wise larger) exact vector a fortiori.
            fresh.retain(|&o| {
                let ot = LbTarget::of(input.ctx.net, &input.ctx.mid.position(o));
                let mut lb: Vec<f64> = qts
                    .iter()
                    .map(|qt| input.ctx.lb.pair_bound(qt, &ot))
                    .collect();
                input.extend_with_attrs(o, &mut lb);
                !sky_vecs.iter().any(|s| dominates(s, &lb))
            });
        }
        if fresh.is_empty() {
            break;
        }
        reporter.obs().incr(Metric::EdcClosureRounds);
        let rows = backend.vectors(input, &fresh);
        if guard.is_some_and(|g| g.tripped()) {
            aborted.extend(fresh);
            tripped = true;
            break;
        }
        for (cand, v) in fresh.iter().zip(rows) {
            computed.insert(*cand, v);
            undetermined.insert(*cand);
        }
    }

    let partial = if tripped {
        // Everything computed is exact, but classification against an
        // incompletely-explored candidate set would be unsound — report
        // the remainder as unresolved instead. Computed members keep
        // their exact vectors as (tight) lower bounds; aborted members
        // fall back to Euclidean geometry.
        let mut unresolved: Vec<UnresolvedCandidate> = undetermined
            .iter()
            .map(|&o| UnresolvedCandidate {
                object: o,
                lower_bounds: computed[&o].clone(),
            })
            .collect();
        for &o in &aborted {
            let p = input.ctx.point_of(&input.ctx.mid.position(o));
            let mut lb: Vec<f64> = qpts.iter().map(|q| q.distance(&p)).collect();
            input.extend_with_attrs(o, &mut lb);
            unresolved.push(UnresolvedCandidate {
                object: o,
                lower_bounds: lb,
            });
        }
        unresolved.sort_by_key(|u| u.object);
        Some(PartialInfo {
            reason: guard
                .and_then(|g| g.reason())
                .unwrap_or(IncompleteReason::Cancelled),
            unresolved,
        })
    } else {
        // Final classification of whatever is still undetermined.
        let mut rest: Vec<ObjectId> = std::mem::take(&mut undetermined).into_iter().collect();
        rest.sort_unstable();
        for o in rest {
            let vec = &computed[&o];
            let dominated = computed
                .iter()
                .any(|(other, v)| *other != o && dominates(v, vec));
            if !dominated {
                confirmed.push((o, vec.clone()));
                reporter.report(SkylinePoint {
                    object: o,
                    vector: vec.clone(),
                });
            }
        }
        None
    };

    // Harvest the engines' own counters into the trace. Every dimension's
    // engine sees the same target sequence under every backend (sequential
    // or fanned-out — batches preserve object order), so these sums are
    // identical at every worker count.
    let stats = backend.stats();
    let obs = reporter.obs();
    obs.add(Metric::SpAstarConfirms, stats.confirms);
    obs.add(Metric::SpAstarRetargets, stats.retargets);
    obs.add(Metric::SpAstarPackTargets, stats.pack_targets);

    AlgoOutput {
        candidates: computed.len(),
        nodes_expanded: stats.expansions,
        partial,
    }
}

/// Objects (not yet computed) whose Euclidean vector is component-wise
/// `<=` the given shifted vector — step 3's hypercube fetch, done with one
/// pruned R-tree traversal.
fn fetch_hypercube(
    input: &QueryInput<'_>,
    qpts: &[Point],
    shifted: &[f64],
    computed: &BTreeMap<ObjectId, Vec<f64>>,
) -> Vec<ObjectId> {
    let n = qpts.len();
    let (spatial, statics) = shifted.split_at(n);
    // Sound subtree bound for static dimensions: the dataset-wide minima.
    let lower_ok = input
        .attrs
        .map_or(true, |a| a.lower().iter().zip(statics).all(|(l, s)| l <= s));
    let mut out = Vec::new();
    input.obj_tree.traverse(
        |mbr| lower_ok && qpts.iter().zip(spatial).all(|(q, s)| mbr.min_dist(q) <= *s),
        |mbr, obj| {
            if computed.contains_key(obj) {
                return;
            }
            let spatial_ok = qpts.iter().zip(spatial).all(|(q, s)| mbr.min_dist(q) <= *s);
            let statics_ok = input.attrs.map_or(true, |a| {
                a.row(*obj).iter().zip(statics).all(|(v, s)| v <= s)
            });
            if spatial_ok && statics_ok {
                out.push(*obj);
            }
        },
    );
    out
}

/// Objects (not yet computed) whose Euclidean vector is *not* dominated by
/// any of the given network skyline vectors — the closure fetch.
fn fetch_undominated(
    input: &QueryInput<'_>,
    qpts: &[Point],
    sky: &[Vec<f64>],
    computed: &BTreeMap<ObjectId, Vec<f64>>,
) -> Vec<ObjectId> {
    let mut out = Vec::new();
    // Scratch vectors reused across every node/entry visited: the closure
    // fetch runs once per confirmed-skyline fixpoint round, and a fresh
    // allocation per MBR showed up in heap profiles of large presets.
    let mut lower: Vec<f64> = Vec::new();
    let mut vec: Vec<f64> = Vec::new();
    input.obj_tree.traverse(
        |mbr| {
            lower.clear();
            lower.extend(qpts.iter().map(|q| mbr.min_dist(q)));
            input.extend_with_attr_lower(&mut lower);
            !sky.iter().any(|s| dominates(s, &lower))
        },
        |mbr, obj| {
            if computed.contains_key(obj) {
                return;
            }
            vec.clear();
            vec.extend(qpts.iter().map(|q| mbr.min_dist(q)));
            input.extend_with_attrs(*obj, &mut vec);
            if !sky.iter().any(|s| dominates(s, &vec)) {
                out.push(*obj);
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use crate::engine::{Algorithm, SkylineEngine};
    use rn_geom::Point;
    use rn_graph::{EdgeId, NetPosition, NetworkBuilder};

    #[test]
    fn matches_brute_on_a_line() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        let net = b.build().unwrap();
        let objects: Vec<NetPosition> = [10.0, 25.0, 40.0, 60.0, 75.0, 95.0]
            .iter()
            .map(|&o| NetPosition::new(EdgeId(0), o))
            .collect();
        let e = SkylineEngine::build(net, objects);
        let qs = [
            NetPosition::new(EdgeId(0), 30.0),
            NetPosition::new(EdgeId(0), 70.0),
        ];
        let edc = e.run(Algorithm::Edc, &qs);
        let brute = e.run(Algorithm::Brute, &qs);
        assert_eq!(edc.ids(), brute.ids());
    }

    /// The adversarial configuration the closure fetch exists for: a
    /// network where one object's network distance hugely exceeds its
    /// Euclidean distance while another's does not, so the paper's
    /// hypercube misses a genuine skyline point.
    #[test]
    fn closure_catches_skyline_outside_paper_hypercube() {
        let mut b = NetworkBuilder::new();
        // A long horizontal spine with a huge-detour branch.
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        let n2 = b.add_node(Point::new(50.0, 10.0));
        b.add_straight_edge(n0, n1).unwrap(); // edge 0, length 100
                                              // Branch to n2 whose road length is far above its chord.
        b.add_weighted_edge(n0, n2, 400.0).unwrap(); // edge 1
        b.add_weighted_edge(n1, n2, 400.0).unwrap(); // edge 2
        let net = b.build().unwrap();
        let objects = vec![
            NetPosition::new(EdgeId(1), 200.0), // on the detour branch
            NetPosition::new(EdgeId(0), 50.0),  // on the spine
        ];
        let e = SkylineEngine::build(net, objects);
        let qs = [
            NetPosition::new(EdgeId(0), 10.0),
            NetPosition::new(EdgeId(0), 90.0),
        ];
        let edc = e.run(Algorithm::Edc, &qs);
        let brute = e.run(Algorithm::Brute, &qs);
        assert_eq!(edc.ids(), brute.ids());
    }

    #[test]
    fn batch_mode_defers_all_reports() {
        use rn_workload::{generate_network, generate_objects, generate_queries, NetGenConfig};
        let net = generate_network(&NetGenConfig {
            cols: 14,
            rows: 14,
            edges: 300,
            jitter: 0.3,
            detour_prob: 0.3,
            detour_stretch: (1.1, 1.4),
            seed: 5,
        });
        let objects = generate_objects(&net, 0.5, 6);
        let queries = generate_queries(&net, 4, 0.4, 7);
        let e = SkylineEngine::build(net, objects);

        let batch = e.run_cold(Algorithm::EdcBatch, &queries);
        let incr = e.run_cold(Algorithm::Edc, &queries);
        assert_eq!(batch.ids(), incr.ids());
        // Batch: every page fault precedes the first report.
        assert_eq!(
            batch.stats.initial_pages.unwrap(),
            batch.page_faults(),
            "batch EDC must not report before step 5"
        );
        // Incremental: reporting may start before the work is done.
        assert!(incr.stats.initial_pages.unwrap() <= incr.page_faults());
    }

    #[test]
    fn single_query_point_degenerates_to_network_nn() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        let net = b.build().unwrap();
        let objects: Vec<NetPosition> = [15.0, 55.0, 85.0]
            .iter()
            .map(|&o| NetPosition::new(EdgeId(0), o))
            .collect();
        let e = SkylineEngine::build(net, objects);
        let qs = [NetPosition::new(EdgeId(0), 50.0)];
        let r = e.run(Algorithm::Edc, &qs);
        assert_eq!(r.skyline.len(), 1);
        assert_eq!(r.skyline[0].object, rn_graph::ObjectId(1));
    }
}

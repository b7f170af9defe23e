//! Intra-query parallel drivers (DESIGN.md §9).
//!
//! Both drivers keep the *algorithmic* state on the coordinator thread and
//! move only the **shortest-path substrate** — the part that reads network
//! pages — into worker threads:
//!
//! * [`run_ce`] advances CE's `n` wavefronts in **lockstep rounds**, one
//!   worker per wavefront group; the coordinator folds each round's
//!   emissions into the shared [`CeState`].
//! * [`run_edc`] implements EDC's [`VectorBackend`] over per-dimension A\*
//!   workers: every network-vector request fans across the query
//!   dimensions.
//!
//! Workers never share mutable state: each owns a **private store
//! session** ([`rn_storage::NetworkStore::session_with_stats`]) whose
//! fault counter feeds the query-wide [`IoStats`] through atomics, and all
//! replies are merged in a fixed order (by query-point index). The result
//! — skyline set *and* page-fault count — is therefore identical at every
//! worker count. See `tests/parallel_equivalence.rs`.

use crate::ce::CeState;
use crate::edc::{self, VectorBackend};
use crate::engine::{AlgoOutput, PartialInfo, QueryInput};
use crate::stats::Reporter;
use rn_graph::{NetPosition, ObjectId};
use rn_obs::{Event, IncompleteReason, Metric};
use rn_sp::{AStar, AStarStats, IncrementalExpansion, NetCtx};
use rn_storage::{IoStats, NetworkStore};

/// One round-trip of the CE wavefront pool.
enum CeCmd {
    /// Advance wavefront `qi` by one emission attempt.
    Advance(usize),
}

/// A wavefront's answer to [`CeCmd::Advance`].
struct CeReply {
    qi: usize,
    /// The next `(object, distance)` emission, or `None` when exhausted.
    emission: Option<(ObjectId, f64)>,
    /// The wavefront's certified emission bound *after* this advance.
    bound: f64,
    /// Cumulative nodes settled by this wavefront.
    settled: u64,
}

/// Parallel CE: concurrent per-source wavefronts in lockstep rounds.
///
/// Each worker owns the wavefronts `qi ≡ wi (mod w)`, every one backed by
/// its own store session (so a wavefront's fault pattern is a pure
/// function of the wavefront, not of scheduling). Per round the
/// coordinator asks every still-active wavefront for one emission, then
/// folds the replies **in ascending `qi` order** against the *previous*
/// round's bounds — stale bounds are element-wise under-estimates of the
/// live ones, which [`CeState`] documents as safe (they can only delay a
/// release or weaken a prune, never unsound-classify). Only after every
/// reply of the round is folded do the new bounds apply and the gates
/// advance.
///
/// Relative to sequential CE the round granularity means a wavefront can
/// advance a few emissions further before the termination certificate is
/// checked; the skyline is identical, and the (slightly larger) fault
/// count is still deterministic for a given worker count-independent
/// session layout.
pub(crate) fn run_ce(
    input: &QueryInput<'_>,
    reporter: &mut Reporter,
    workers: usize,
    io: &IoStats,
) -> AlgoOutput {
    let n = input.arity();
    let w = workers.max(1).min(n);

    let worker =
        |wi: usize, rx: std::sync::mpsc::Receiver<CeCmd>, tx: std::sync::mpsc::Sender<CeReply>| {
            // Worker-owned substrate: one private session per owned wavefront.
            let my_qis: Vec<usize> = (wi..n).step_by(w).collect();
            let sessions: Vec<NetworkStore> = my_qis
                .iter()
                .map(|_| input.ctx.store.session_with_stats(io.clone()))
                .collect();
            let ctxs: Vec<NetCtx<'_>> = sessions
                .iter()
                .map(|s| NetCtx::new(input.ctx.net, s, input.ctx.mid).with_bound(input.ctx.lb))
                .collect();
            let mut ines: Vec<IncrementalExpansion<'_>> = my_qis
                .iter()
                .zip(&ctxs)
                .map(|(&qi, c)| IncrementalExpansion::new(c, input.queries[qi].pos))
                .collect();
            while let Ok(CeCmd::Advance(qi)) = rx.recv() {
                let local = qi / w;
                let emission = ines[local].next_nearest();
                let reply = CeReply {
                    qi,
                    emission,
                    bound: ines[local].emission_bound(),
                    settled: ines[local].wavefront().settled_count(),
                };
                if tx.send(reply).is_err() {
                    break;
                }
            }
        };

    rn_par::worker_pool(w, worker, |pool| {
        let mut st = CeState::new(input);
        // Conservative initial bounds: zero under-estimates every
        // wavefront's true emission bound, which CeState accepts.
        let mut bounds = vec![0.0f64; n];
        let mut settled = vec![0u64; n];
        let mut interrupted = false;

        loop {
            // Budget enforcement happens here and only here: at the round
            // barrier, against deterministically merged totals. Workers
            // run guard-free, so cap trips land on the same round at
            // every worker count (DESIGN.md §12).
            if let Some(g) = input.ctx.guard {
                if !g.observe(settled.iter().sum(), io.faults()) {
                    interrupted = true;
                    break;
                }
            }
            if st.should_stop(input, &bounds) || st.all_exhausted() {
                break;
            }
            // One lockstep round: every active wavefront advances once.
            let active: Vec<usize> = (0..n).filter(|&qi| !st.is_exhausted(qi)).collect();
            for &qi in &active {
                pool.send(qi % w, CeCmd::Advance(qi));
            }
            let mut replies: Vec<CeReply> = (0..active.len()).map(|_| pool.recv()).collect();
            // Fixed merge order: ascending query-point index.
            replies.sort_by_key(|r| r.qi);

            let mut advanced: Vec<(usize, f64)> = Vec::new();
            for r in replies {
                settled[r.qi] = r.settled;
                match r.emission {
                    None => st.on_exhausted(r.qi),
                    Some((id, d)) => {
                        // Coordinator-side recording keeps the trace
                        // worker-count-invariant: replies fold in qi order
                        // regardless of which worker produced them.
                        let was_phase1 = st.in_phase1();
                        let obs = reporter.obs();
                        obs.incr(Metric::SpIneEmissions);
                        obs.incr(if was_phase1 {
                            Metric::CeFilterDistanceComputations
                        } else {
                            Metric::CeRefinementDistanceComputations
                        });
                        // Pre-round (stale) bounds: valid under-estimates
                        // for every emission of this round.
                        st.on_emission(r.qi, id, d, &bounds);
                        if was_phase1 && !st.in_phase1() {
                            reporter.obs().event(Event::Phase {
                                label: "refinement",
                            });
                        }
                        advanced.push((r.qi, r.bound));
                    }
                }
            }
            st.classify_ready(input, reporter, &bounds);
            // Now the round is fully folded: apply the new bounds and
            // advance the gates they unlock.
            for &(qi, b) in &advanced {
                bounds[qi] = b;
            }
            for &(qi, _) in &advanced {
                st.advance_gates(qi, &bounds);
            }
            st.classify_ready(input, reporter, &bounds);
        }

        if interrupted {
            // Same sound wrap-up as the sequential driver: certified
            // classifications only, no exhaustive finalisation.
            st.classify_ready(input, reporter, &bounds);
            let guard = input.ctx.guard.expect("interruption implies a guard");
            return AlgoOutput {
                candidates: st.candidates_now(),
                nodes_expanded: settled.iter().sum(),
                partial: Some(PartialInfo {
                    reason: guard.reason().unwrap_or(IncompleteReason::Cancelled),
                    unresolved: st.unresolved(input, &bounds),
                }),
            };
        }

        st.classify_ready(input, reporter, &bounds);
        st.finish(input, reporter);
        AlgoOutput {
            candidates: st.candidates(),
            nodes_expanded: settled.iter().sum(),
            partial: None,
        }
    })
}

/// Per-dimension A\* replies: `(dimension, distances per requested
/// position, cumulative counters of that dimension's engine)`.
type EdcReply = Vec<(usize, Vec<f64>, AStarStats)>;

/// EDC's [`VectorBackend`] over a worker pool: each worker owns the
/// dimensions `j ≡ wi (mod w)`, one A\* engine + private store session
/// per dimension, and answers batched network-vector requests.
struct ParBackend<'p> {
    pool: &'p rn_par::PoolHandle<Vec<NetPosition>, EdcReply>,
    n: usize,
    /// Last reported cumulative counters per dimension. Cumulative values
    /// (not deltas) make the merge order-independent, so the totals are
    /// identical at every worker count.
    stats: Vec<AStarStats>,
    /// The query-wide fault counter, read only at batch barriers for the
    /// budget check below.
    io: &'p IoStats,
}

impl VectorBackend for ParBackend<'_> {
    fn vectors(&mut self, input: &QueryInput<'_>, objs: &[ObjectId]) -> Vec<Vec<f64>> {
        if objs.is_empty() {
            return Vec::new();
        }
        let positions: Vec<NetPosition> = objs.iter().map(|&o| input.ctx.mid.position(o)).collect();
        for wi in 0..self.pool.workers() {
            self.pool.send(wi, positions.clone());
        }
        let mut rows: Vec<Vec<f64>> = vec![vec![0.0; self.n]; objs.len()];
        for _ in 0..self.pool.workers() {
            for (j, dists, cum) in self.pool.recv() {
                self.stats[j] = cum;
                for (i, d) in dists.into_iter().enumerate() {
                    rows[i][j] = d;
                }
            }
        }
        for (row, &obj) in rows.iter_mut().zip(objs) {
            input.extend_with_attrs(obj, row);
        }
        // Coordinator-side budget check at the batch barrier: merged
        // cumulative totals are worker-count invariant, so cap trips are
        // too. The caller (edc::run_mode_with) sees the trip through the
        // guard and discards this batch's rows.
        if let Some(g) = input.ctx.guard {
            let total: u64 = self.stats.iter().map(|s| s.expansions).sum();
            g.observe(total, self.io.faults());
        }
        rows
    }

    fn stats(&mut self) -> AStarStats {
        let mut total = AStarStats::default();
        for s in &self.stats {
            total.merge(s);
        }
        total
    }
}

/// Parallel EDC: the algorithm runs unchanged on the coordinator; every
/// network-vector computation fans its dimensions across the pool.
///
/// Each dimension's engine sees exactly the target sequence the sequential
/// backend would feed it (batches preserve object order), so per-engine
/// expansions — and each private session's fault count — are independent
/// of the worker count.
pub(crate) fn run_edc(
    input: &QueryInput<'_>,
    reporter: &mut Reporter,
    batch: bool,
    workers: usize,
    io: &IoStats,
) -> AlgoOutput {
    let n = input.arity();
    let w = workers.max(1).min(n);

    let worker = |wi: usize,
                  rx: std::sync::mpsc::Receiver<Vec<NetPosition>>,
                  tx: std::sync::mpsc::Sender<EdcReply>| {
        let my_dims: Vec<usize> = (wi..n).step_by(w).collect();
        let sessions: Vec<NetworkStore> = my_dims
            .iter()
            .map(|_| input.ctx.store.session_with_stats(io.clone()))
            .collect();
        let ctxs: Vec<NetCtx<'_>> = sessions
            .iter()
            .map(|s| NetCtx::new(input.ctx.net, s, input.ctx.mid).with_bound(input.ctx.lb))
            .collect();
        let mut engines: Vec<AStar<'_>> = my_dims
            .iter()
            .zip(&ctxs)
            .map(|(&j, c)| AStar::new(c, input.queries[j].pos))
            .collect();
        while let Ok(positions) = rx.recv() {
            let reply: EdcReply = my_dims
                .iter()
                .zip(engines.iter_mut())
                .map(|(&j, e)| (j, e.distances_to_pack(&positions), e.stats()))
                .collect();
            if tx.send(reply).is_err() {
                break;
            }
        }
    };

    rn_par::worker_pool(w, worker, |pool| {
        let mut backend = ParBackend {
            pool: &pool,
            n,
            stats: vec![AStarStats::default(); n],
            io,
        };
        edc::run_mode_with(input, reporter, batch, &mut backend)
    })
}

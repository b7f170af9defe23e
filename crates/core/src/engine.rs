//! The query engine: owns the substrates, dispatches the algorithms, and
//! collects the statistics the evaluation harness reports.

use crate::attrs::AttrTable;
use crate::stats::{QueryStats, Reporter, SkylinePoint, Stopwatch};
use rn_geom::Mbr;
use rn_graph::{NetPosition, ObjectId, RoadNetwork};
use rn_index::{MiddleLayer, RTree};
use rn_obs::{Event, ExecGuard, IncompleteReason, Metric, QueryBudget, QueryTrace};
use rn_sp::{
    AltOracle, BoundSpec, EuclidBound, LbCounters, LowerBound, NetCtx, OracleBuildStats, QueryPoint,
};
use rn_storage::{FaultPlan, IoSnapshot, NetworkStore, PoolConfig};

/// Which of the paper's algorithms to execute.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Algorithm {
    /// Collaborative Expansion (§4.1) — the straightforward baseline.
    Ce,
    /// Euclidean Distance Constraint (§4.2), incremental form (reports
    /// skyline points progressively).
    Edc,
    /// EDC in the paper's batch form: nothing is reported until step 5,
    /// so its initial response time equals its total response time.
    EdcBatch,
    /// Lower-Bound Constraint (§4.3) — the instance-optimal algorithm.
    Lbc,
    /// LBC with path-distance-lower-bound early termination disabled;
    /// every candidate's distances are computed in full. Exists for the
    /// ablation benchmark quantifying what the plb mechanism buys.
    LbcNoPlb,
    /// Brute force over a full distance matrix — the testing oracle.
    Brute,
}

impl Algorithm {
    /// Display name used by the benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Ce => "CE",
            Algorithm::Edc => "EDC",
            Algorithm::EdcBatch => "EDC-batch",
            Algorithm::Lbc => "LBC",
            Algorithm::LbcNoPlb => "LBC-noplb",
            Algorithm::Brute => "BRUTE",
        }
    }

    /// The three algorithms the paper evaluates, in its plotting order.
    pub const PAPER_SET: [Algorithm; 3] = [Algorithm::Ce, Algorithm::Edc, Algorithm::Lbc];
}

/// Where a query's pages come from (DESIGN.md §18). Every mode runs the
/// query on the calling thread through its algorithm's one driver;
/// [`crate::BatchEngine`] runs queries concurrently, one per worker.
#[derive(Clone, Copy)]
pub enum Exec<'s> {
    /// The engine's buffer pool as the previous query left it.
    Warm,
    /// The engine's buffer pool emptied first — the cold-cache
    /// configuration of the paper's averaged runs (§6).
    Cold,
    /// A caller-supplied store — a batch worker's private or shared
    /// session ([`NetworkStore::session`], [`NetworkStore::shared_session`]).
    /// The shared index and oracle counters cannot be attributed to one
    /// query while others run, so the trace reports `index.node_reads` and
    /// the `sp.lb.*` hits as zero; [`crate::BatchOutcome`] carries the
    /// batch aggregate.
    Session(&'s NetworkStore),
}

/// One multi-source skyline query: the algorithm, the query points and
/// every option the paper attaches to them. [`QueryPlan::new`] gives the
/// defaults; override fields with struct-update syntax:
///
/// ```
/// # use msq_core::{Algorithm, Exec, QueryPlan, SourceStrategy};
/// # let queries = [rn_graph::NetPosition::new(rn_graph::EdgeId(0), 1.0)];
/// let plan = QueryPlan {
///     exec: Exec::Cold,
///     source: SourceStrategy::Centroid,
///     ..QueryPlan::new(Algorithm::Lbc, &queries)
/// };
/// # assert_eq!(plan.queries.len(), 1);
/// ```
#[derive(Clone)]
pub struct QueryPlan<'a> {
    /// The algorithm to run.
    pub algo: Algorithm,
    /// The query points, in the order result vectors report them.
    pub queries: &'a [NetPosition],
    /// Where pages come from and how the query is driven.
    pub exec: Exec<'a>,
    /// Limits after which the run returns a certified prefix with
    /// [`Completion::Partial`] (DESIGN.md §12). [`Algorithm::Brute`] is
    /// the testing oracle and always runs to completion.
    pub budget: QueryBudget,
    /// Static non-spatial dimensions appended to every vector (§4.3's
    /// extension); the table must cover every object.
    pub attrs: Option<&'a AttrTable>,
    /// Which query point the run treats as its source (§4.3). Vectors
    /// still come back in the order of [`QueryPlan::queries`].
    pub source: SourceStrategy,
}

impl<'a> QueryPlan<'a> {
    /// A warm, unlimited, attribute-free plan with the first query point
    /// as source.
    pub fn new(algo: Algorithm, queries: &'a [NetPosition]) -> Self {
        QueryPlan {
            algo,
            queries,
            exec: Exec::Warm,
            budget: QueryBudget::unlimited(),
            attrs: None,
            source: SourceStrategy::First,
        }
    }
}

/// Borrowed view of one query execution: substrates plus resolved query
/// points. Constructed by [`SkylineEngine::run_plan`]; algorithm modules
/// consume it.
pub struct QueryInput<'a> {
    /// Network metadata + counted storage + middle layer.
    pub ctx: NetCtx<'a>,
    /// R-tree over the data objects (degenerate point MBRs).
    pub obj_tree: &'a RTree<ObjectId>,
    /// The query points with resolved coordinates.
    pub queries: Vec<QueryPoint>,
    /// Optional static attribute dimensions (§4.3's extension).
    pub attrs: Option<&'a AttrTable>,
}

impl<'a> QueryInput<'a> {
    /// Number of query points `|Q|` (the *spatial* skyline arity).
    pub fn arity(&self) -> usize {
        self.queries.len()
    }

    /// Total vector arity: query points plus static dimensions.
    pub fn full_arity(&self) -> usize {
        self.queries.len() + self.attrs.map_or(0, |a| a.arity())
    }

    /// Appends `obj`'s static attribute values to a distance vector.
    pub fn extend_with_attrs(&self, obj: ObjectId, vec: &mut Vec<f64>) {
        if let Some(a) = self.attrs {
            vec.extend_from_slice(a.row(obj));
        }
    }

    /// Appends the dataset-wide static lower bounds (for R-tree subtrees).
    pub fn extend_with_attr_lower(&self, vec: &mut Vec<f64>) {
        if let Some(a) = self.attrs {
            vec.extend_from_slice(a.lower());
        }
    }
}

/// What an algorithm hands back besides the progressively reported points.
#[derive(Clone, Debug, Default)]
pub(crate) struct AlgoOutput {
    /// Candidate-set size `|C|` under the algorithm's own definition.
    pub candidates: usize,
    /// Wavefront/engine node expansions performed.
    pub nodes_expanded: u64,
    /// Set when the run stopped early on a tripped [`QueryBudget`].
    pub partial: Option<PartialInfo>,
}

/// An object a budget-limited run discovered but could not classify
/// before its [`rn_obs::ExecGuard`] tripped.
#[derive(Clone, Debug, PartialEq)]
pub struct UnresolvedCandidate {
    /// The unclassified object.
    pub object: ObjectId,
    /// Certified per-dimension lower bounds on its distance vector
    /// (spatial dimensions first, static attributes — always exact —
    /// appended). Sources per algorithm: CE uses exact-where-visited /
    /// wavefront-radius elsewhere, EDC falls back to Euclidean
    /// distances (always a sound network lower bound), LBC reports the
    /// candidate's live Euclidean → plb → exact bound vector.
    pub lower_bounds: Vec<f64>,
}

/// Why and with what remainder a query stopped before completing.
#[derive(Clone, Debug, PartialEq)]
pub struct PartialInfo {
    /// The first budget limit that tripped.
    pub reason: IncompleteReason,
    /// Discovered-but-unclassified candidates with certified lower
    /// bounds, sorted by object id. Objects the run never discovered
    /// are not listed; their distances are bounded below by the
    /// wavefront radii / Euclidean geometry as usual.
    pub unresolved: Vec<UnresolvedCandidate>,
}

/// Whether a [`SkylineResult`] covers the full skyline or a certified
/// prefix of it.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Completion {
    /// The full skyline: every reported point is in the true skyline
    /// and nothing is missing.
    #[default]
    Complete,
    /// A budget limit tripped. Every reported point is still in the
    /// true skyline (engines only ever report certified points), but
    /// the listed candidates — and anything undiscovered — may be
    /// missing members.
    Partial(PartialInfo),
}

impl Completion {
    /// `true` for a complete skyline.
    pub fn is_complete(&self) -> bool {
        matches!(self, Completion::Complete)
    }

    /// The partial-result details, when the run was cut short.
    pub fn partial(&self) -> Option<&PartialInfo> {
        match self {
            Completion::Complete => None,
            Completion::Partial(p) => Some(p),
        }
    }
}

/// A finished query: the skyline and the measured statistics.
#[derive(Clone, Debug)]
pub struct SkylineResult {
    /// Confirmed skyline points, in the order the algorithm reported them.
    pub skyline: Vec<SkylinePoint>,
    /// Wall-clock measurements; every work count lives in `trace`.
    pub stats: QueryStats,
    /// The query's observability trace: phase-attributed counters over
    /// the [`rn_obs::Metric`] registry plus (under the `trace` feature)
    /// the typed event log. Deterministic: bitwise identical across runs
    /// and batch worker counts (DESIGN.md §10).
    pub trace: QueryTrace,
    /// Whether the skyline is the full answer or a certified prefix cut
    /// short by a tripped [`QueryBudget`] (DESIGN.md §12).
    pub completion: Completion,
}

impl SkylineResult {
    /// The skyline object ids, sorted — the canonical form for comparing
    /// algorithms against each other.
    pub fn ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.skyline.iter().map(|p| p.object).collect();
        ids.sort_unstable();
        ids
    }

    /// The vector of a given skyline object, if present.
    pub fn vector_of(&self, object: ObjectId) -> Option<&[f64]> {
        self.skyline
            .iter()
            .find(|p| p.object == object)
            .map(|p| p.vector.as_slice())
    }

    /// Network pages faulted, cold plus warm — the paper's "disk pages
    /// accessed" (§6).
    pub fn page_faults(&self) -> u64 {
        self.trace.get(Metric::StoragePageFaultsCold)
            + self.trace.get(Metric::StoragePageFaultsWarm)
    }
}

/// Owns a queryable dataset: the road network (disk-resident through a
/// buffer pool), its data objects (middle layer + R-tree), and runs
/// multi-source skyline queries against them.
pub struct SkylineEngine {
    net: RoadNetwork,
    store: NetworkStore,
    mid: MiddleLayer,
    obj_tree: RTree<ObjectId>,
    edge_locator: rn_index::EdgeLocator,
    /// The network-distance lower bound every query context borrows.
    /// Euclidean by default; [`SkylineEngine::set_bound`] swaps in a
    /// precomputed oracle (DESIGN.md §14).
    bound: Box<dyn LowerBound>,
    /// The spec `bound` was built from — what [`crate::DynamicEngine`]
    /// re-runs when a weight decrease forces an oracle rebuild.
    bound_spec: BoundSpec,
}

impl SkylineEngine {
    /// Builds an engine with the paper's default 1 MB LRU buffer.
    pub fn build(net: RoadNetwork, objects: Vec<NetPosition>) -> Self {
        Self::with_pool_config(net, objects, PoolConfig::default())
    }

    /// Builds an engine with an explicit buffer-pool shape (size, shard
    /// count, readahead depth). Sessions derived for batch workers
    /// inherit the shape, so a sharded/readahead configuration applies
    /// to every worker's private pool.
    pub fn with_pool_config(net: RoadNetwork, objects: Vec<NetPosition>, pool: PoolConfig) -> Self {
        let mid = MiddleLayer::build(&net, &objects);
        Self::from_parts(net, mid, pool)
    }

    /// Builds an engine over an explicit slot layout — `None` entries are
    /// retired object ids (tombstones). This is how the from-scratch
    /// baseline for a [`crate::DynamicEngine`] is constructed: it keeps the
    /// dense id space of the mutated dataset, so incremental and scratch
    /// skylines compare bitwise over the same [`ObjectId`]s.
    pub fn build_slots(net: RoadNetwork, slots: &[Option<NetPosition>]) -> Self {
        let mid = MiddleLayer::build_slots(&net, slots);
        Self::from_parts(net, mid, PoolConfig::default())
    }

    fn from_parts(net: RoadNetwork, mid: MiddleLayer, pool: PoolConfig) -> Self {
        let store = NetworkStore::with_config(&net, pool);
        let obj_tree = Self::tree_of(&mid);
        let edge_locator = rn_index::EdgeLocator::build(&net);
        SkylineEngine {
            net,
            store,
            mid,
            obj_tree,
            edge_locator,
            bound: Box::new(EuclidBound),
            bound_spec: BoundSpec::Euclid,
        }
    }

    /// Bulk-loads the object R-tree over the *live* slots of a middle
    /// layer — retired ids hold placeholder points and must not be
    /// discoverable through the index.
    pub(crate) fn tree_of(mid: &MiddleLayer) -> RTree<ObjectId> {
        RTree::bulk_load(
            mid.all_points()
                .iter()
                .enumerate()
                .filter(|(i, _)| mid.is_live(ObjectId(*i as u32)))
                .map(|(i, p)| (Mbr::from_point(*p), ObjectId(i as u32)))
                .collect(),
        )
    }

    /// Builds (or clears) the network-distance lower-bound oracle every
    /// subsequent query runs under, returning its build cost. Oracle
    /// preprocessing reads the network through a private store session,
    /// so the engine's I/O counters and buffer stay untouched.
    ///
    /// Skylines are bound-invariant: every [`BoundSpec`] yields bitwise
    /// identical results; only the work counters (expansions, retargets,
    /// `lbc.plb.oracle_discards`) change.
    /// `build_ms` in the returned stats is wall-clock and is **never**
    /// recorded into a [`QueryTrace`] — it exists for the bench reports
    /// (DESIGN.md §14).
    pub fn set_bound(&mut self, spec: BoundSpec) -> OracleBuildStats {
        let started = Stopwatch::start();
        self.bound_spec = spec;
        self.bound = match spec {
            BoundSpec::Euclid => Box::new(EuclidBound),
            BoundSpec::Alt { landmarks } => Box::new(AltOracle::build(
                &self.net,
                &self.store,
                &self.mid,
                landmarks,
            )),
        };
        OracleBuildStats {
            bytes: self.bound.build_bytes(),
            build_ms: started.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// The spec the active bound was built from.
    pub fn bound_spec(&self) -> BoundSpec {
        self.bound_spec
    }

    /// The active lower bound (for callers assembling their own contexts).
    pub fn bound_ref(&self) -> &dyn LowerBound {
        self.bound.as_ref()
    }

    /// The road network.
    pub fn network(&self) -> &RoadNetwork {
        &self.net
    }

    /// Number of data objects.
    pub fn object_count(&self) -> usize {
        self.mid.object_count()
    }

    /// The network position of an object.
    pub fn object_position(&self, object: ObjectId) -> NetPosition {
        self.mid.position(object)
    }

    /// Mutable access to the dataset substrates, for the dynamic layer
    /// only: edge weights, the disk image behind the store, the middle
    /// layer and the object R-tree must change together, and
    /// [`crate::DynamicEngine`] owns that protocol (DESIGN.md §15).
    pub(crate) fn substrates_mut(
        &mut self,
    ) -> (
        &mut RoadNetwork,
        &mut NetworkStore,
        &mut MiddleLayer,
        &mut RTree<ObjectId>,
    ) {
        (
            &mut self.net,
            &mut self.store,
            &mut self.mid,
            &mut self.obj_tree,
        )
    }

    /// Pages occupied by the network on the simulated disk.
    pub fn network_page_count(&self) -> usize {
        self.store.page_count()
    }

    /// The R-tree over the data objects.
    pub fn object_tree(&self) -> &RTree<ObjectId> {
        &self.obj_tree
    }

    /// The edge R-tree used for map-matching.
    pub fn edge_locator(&self) -> &rn_index::EdgeLocator {
        &self.edge_locator
    }

    /// The counted network store (for substrate-level instrumentation).
    pub fn store_ref(&self) -> &NetworkStore {
        &self.store
    }

    /// The object middle layer.
    pub fn mid_ref(&self) -> &MiddleLayer {
        &self.mid
    }

    /// Empties the network buffer pool so the next query starts cold, as
    /// each averaged run in §6 does.
    pub fn clear_buffer(&self) {
        self.store.clear_buffer();
    }

    /// Runs `algo` for the query points at `queries` against the warm
    /// buffer pool: [`SkylineEngine::run_plan`] with the default plan.
    ///
    /// # Panics
    /// Panics when `queries` is empty.
    pub fn run(&self, algo: Algorithm, queries: &[NetPosition]) -> SkylineResult {
        self.run_plan(&QueryPlan::new(algo, queries))
    }

    /// [`SkylineEngine::run`] preceded by a buffer flush — the cold-cache
    /// configuration used by the experiment harness.
    ///
    /// # Panics
    /// Panics when `queries` is empty.
    pub fn run_cold(&self, algo: Algorithm, queries: &[NetPosition]) -> SkylineResult {
        self.run_plan(&QueryPlan {
            exec: Exec::Cold,
            ..QueryPlan::new(algo, queries)
        })
    }

    /// Runs one query plan. This is the engine's only execution path:
    /// every combination of algorithm, [`Exec`] mode, budget, attributes
    /// and source strategy is assembled, guarded, metered and turned into
    /// a result here (DESIGN.md §18).
    ///
    /// The skyline is independent of the source strategy and the exec
    /// mode. Vectors, and the lower bounds of unresolved candidates, come
    /// back in the order of `plan.queries`, with attribute dimensions
    /// after the spatial ones.
    ///
    /// # Panics
    /// Panics when `plan.queries` is empty, when `plan.attrs` does not
    /// cover every object, or when a [`SourceStrategy::Index`] is out of
    /// range.
    pub fn run_plan(&self, plan: &QueryPlan<'_>) -> SkylineResult {
        let algo = plan.algo;
        assert!(!plan.queries.is_empty(), "need at least one query point");
        if let Some(a) = plan.attrs {
            assert_eq!(
                a.len(),
                self.object_count(),
                "attribute table must cover every object"
            );
        }
        // The source runs in slot 0. The swap is its own inverse, so the
        // same swap puts the result vectors back in caller order.
        let src = plan.source.pick(self, plan.queries);
        let mut queries: Vec<QueryPoint> = plan
            .queries
            .iter()
            .map(|pos| QueryPoint::on_network(&self.net, *pos))
            .collect();
        queries.swap(0, src);

        if let Exec::Cold = plan.exec {
            self.clear_buffer();
        }
        let store = match plan.exec {
            Exec::Warm | Exec::Cold => &self.store,
            Exec::Session(s) => s,
        };
        let io = store.stats().clone();
        let guard = guard_for(algo, &plan.budget, io.faults());
        let input = QueryInput {
            ctx: NetCtx::with_guard(&self.net, store, &self.mid, guard.as_ref())
                .with_bound(self.bound.as_ref()),
            obj_tree: &self.obj_tree,
            queries,
            attrs: plan.attrs,
        };

        // The shared index and oracle counters are attributed to this
        // query unless concurrent batch queries move them too.
        let attributed = !matches!(plan.exec, Exec::Session(_));
        if attributed {
            self.obj_tree.reset_node_reads();
            self.mid.reset_node_reads();
        }
        let lb_before = attributed.then(|| self.bound.counters());
        let io_before = io.snapshot();
        let started = Stopwatch::start();
        let mut reporter = Reporter::with_io(io.clone());
        reporter.obs().event(Event::QueryStart {
            algo: algo.name(),
            arity: input.arity() as u64,
        });
        let mut out = dispatch(algo, &input, &mut reporter);
        let stats = QueryStats {
            total_time: started.elapsed(),
            initial_time: reporter.time_to_first(),
            initial_pages: reporter.pages_to_first(),
        };

        let mut trace = reporter.take_obs();
        let mut skyline = reporter.into_points();
        let index_reads = if attributed {
            self.obj_tree.node_reads() + self.mid.node_reads()
        } else {
            0
        };
        let io = io.snapshot().since(&io_before);
        finish_trace(&mut trace, &out, &io, index_reads, skyline.len());
        if let Some(before) = &lb_before {
            harvest_bound(&mut trace, self.bound.as_ref(), before);
        }
        if src != 0 {
            let unresolved = out.partial.iter_mut().flat_map(|p| &mut p.unresolved);
            for v in skyline
                .iter_mut()
                .map(|p| &mut p.vector)
                .chain(unresolved.map(|u| &mut u.lower_bounds))
            {
                v.swap(0, src);
            }
        }
        SkylineResult {
            skyline,
            stats,
            trace,
            completion: out
                .partial
                .map_or(Completion::Complete, Completion::Partial),
        }
    }

    /// Installs (or clears, with `None`) a deterministic page-read fault
    /// plan on the engine's store. Subsequent reads — including those of
    /// sessions created afterwards, which inherit the plan — retry
    /// injected failures with capped exponential backoff and meter them
    /// in the `storage.io.*` counters (DESIGN.md §12).
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.store.set_fault_plan(plan);
    }

    /// The currently installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.store.fault_plan()
    }
}

/// Completes a query trace with the aggregates only known once the
/// algorithm returned: heap pops, index reads, page-fault attribution and
/// the final candidate/skyline sizes. [`SkylineEngine::run_plan`] calls it
/// for every exec mode, so the exported counter set never depends on how
/// the query was driven.
fn finish_trace(
    trace: &mut QueryTrace,
    out: &AlgoOutput,
    io: &IoSnapshot,
    index_reads: u64,
    skyline_len: usize,
) {
    trace.add(Metric::SpHeapPops, out.nodes_expanded);
    trace.add(Metric::IndexNodeReads, index_reads);
    trace.add(Metric::StoragePageRequests, io.logical);
    trace.add(Metric::StoragePageFaultsCold, io.cold_faults);
    trace.add(Metric::StoragePageFaultsWarm, io.warm_faults);
    trace.add(Metric::QueryCandidates, out.candidates as u64);
    trace.add(Metric::QuerySkylineSize, skyline_len as u64);
    trace.add(Metric::StorageIoInjectedErrors, io.injected_errors);
    trace.add(Metric::StorageIoRetries, io.retries);
    trace.add(Metric::StorageIoBackoffUs, io.backoff_us);
    trace.add(Metric::StoragePrefetchIssued, io.prefetch_issued);
    trace.add(Metric::StoragePrefetchHits, io.prefetch_hits);
    trace.add(Metric::StoragePrefetchWasted, io.prefetch_wasted);
    if let Some(p) = &out.partial {
        trace.incr(Metric::QueryIncomplete);
        trace.add(Metric::QueryUnresolvedCandidates, p.unresolved.len() as u64);
    }
    let confirms = trace.get(Metric::SpAstarConfirms);
    trace.event(Event::HeapPops {
        count: out.nodes_expanded,
    });
    trace.event(Event::AStarConfirms { count: confirms });
    trace.event(Event::IndexReads { count: index_reads });
    trace.event(Event::PageFaults {
        cold: io.cold_faults,
        warm: io.warm_faults,
    });
    if let Some(p) = &out.partial {
        trace.event(Event::Incomplete {
            reason: p.reason,
            unresolved: p.unresolved.len() as u64,
        });
    }
    trace.event(Event::QueryEnd {
        skyline: skyline_len as u64,
    });
}

/// Harvests the lower-bound oracle's hit accounting into the trace as a
/// delta over the pre-dispatch snapshot, plus the (deterministic) index
/// footprint. Build wall time stays out: it is host wall-clock, and
/// traces are bitwise deterministic (DESIGN.md §14).
fn harvest_bound(trace: &mut QueryTrace, bound: &dyn LowerBound, before: &LbCounters) {
    let after = bound.counters();
    trace.add(
        Metric::SpLbOracleHits,
        after.oracle_hits.saturating_sub(before.oracle_hits),
    );
    trace.add(
        Metric::SpLbEuclidFallbacks,
        after
            .euclid_fallbacks
            .saturating_sub(before.euclid_fallbacks),
    );
    trace.add(Metric::OracleBuildBytes, bound.build_bytes());
}

/// Builds the execution guard for one query, or `None` when the budget
/// is unlimited or the algorithm is the brute-force oracle (which always
/// runs to completion so partial results can be validated against it).
fn guard_for(algo: Algorithm, budget: &QueryBudget, fault_base: u64) -> Option<ExecGuard> {
    if budget.is_unlimited() || algo == Algorithm::Brute {
        None
    } else {
        Some(ExecGuard::new(budget, fault_base))
    }
}

/// Routes one query to its algorithm module.
fn dispatch(algo: Algorithm, input: &QueryInput<'_>, reporter: &mut Reporter) -> AlgoOutput {
    match algo {
        Algorithm::Ce => crate::ce::run(input, reporter),
        Algorithm::Edc => crate::edc::run(input, reporter, false),
        Algorithm::EdcBatch => crate::edc::run(input, reporter, true),
        Algorithm::Lbc => crate::lbc::run(input, reporter, true),
        Algorithm::LbcNoPlb => crate::lbc::run(input, reporter, false),
        Algorithm::Brute => crate::brute::run(input, reporter),
    }
}

/// Which query point a [`QueryPlan`] runs as its *source* (§4.3: "LBC can
/// use different strategies for selecting the source query points to
/// support the applications with user preferences"). LBC grows its
/// nearest-neighbour stream from the source, so skyline points near it are
/// reported first; the other algorithms just see the query set reordered.
/// The skyline is the same under every choice; only the report order and
/// the cost profile change.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SourceStrategy {
    /// The first query point (LBC's default).
    First,
    /// The query point with the smallest total Euclidean distance to the
    /// others — the most "central" one, which tends to shrink the NN
    /// frontier's spread.
    Centroid,
    /// A caller-chosen index into the query slice (user preference: the
    /// skyline points nearest this query point arrive first).
    Index(usize),
}

impl SourceStrategy {
    fn pick(self, engine: &SkylineEngine, queries: &[NetPosition]) -> usize {
        match self {
            SourceStrategy::First => 0,
            SourceStrategy::Index(i) => {
                assert!(i < queries.len(), "source index out of range");
                i
            }
            SourceStrategy::Centroid => {
                let pts: Vec<rn_geom::Point> = queries
                    .iter()
                    .map(|q| engine.network().position_point(q))
                    .collect();
                (0..pts.len())
                    .min_by(|&a, &b| {
                        let sa: f64 = pts.iter().map(|p| pts[a].distance(p)).sum();
                        let sb: f64 = pts.iter().map(|p| pts[b].distance(p)).sum();
                        rn_geom::cmp_f64(sa, sb).then(a.cmp(&b))
                    })
                    .unwrap_or(0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rn_geom::Point;
    use rn_graph::{EdgeId, NetworkBuilder};

    fn tiny_engine() -> SkylineEngine {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        let n2 = b.add_node(Point::new(100.0, 100.0));
        let n3 = b.add_node(Point::new(0.0, 100.0));
        b.add_straight_edge(n0, n1).unwrap();
        b.add_straight_edge(n1, n2).unwrap();
        b.add_straight_edge(n2, n3).unwrap();
        b.add_straight_edge(n3, n0).unwrap();
        let net = b.build().unwrap();
        let objects = vec![
            NetPosition::new(EdgeId(0), 50.0),
            NetPosition::new(EdgeId(2), 50.0),
        ];
        SkylineEngine::build(net, objects)
    }

    #[test]
    fn engine_exposes_dataset_shape() {
        let e = tiny_engine();
        assert_eq!(e.object_count(), 2);
        assert_eq!(e.network().node_count(), 4);
        assert!(e.network_page_count() >= 1);
    }

    #[test]
    fn brute_runs_and_reports() {
        let e = tiny_engine();
        // Off-centre query so the two objects are not tied.
        let qs = vec![NetPosition::new(EdgeId(1), 30.0)];
        let r = e.run(Algorithm::Brute, &qs);
        // One query point: the skyline is the network NN (unique here).
        assert_eq!(r.skyline.len(), 1);
        assert!(r.stats.total_time >= r.stats.initial_time.unwrap());
    }

    #[test]
    #[should_panic(expected = "at least one query point")]
    fn empty_query_set_panics() {
        let e = tiny_engine();
        e.run(Algorithm::Brute, &[]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn source_index_out_of_range_panics() {
        let e = tiny_engine();
        let qs = vec![NetPosition::new(EdgeId(1), 30.0)];
        e.run_plan(&QueryPlan {
            source: SourceStrategy::Index(5),
            ..QueryPlan::new(Algorithm::Lbc, &qs)
        });
    }

    #[test]
    fn empty_object_set_yields_empty_skyline() {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(100.0, 0.0));
        b.add_straight_edge(n0, n1).unwrap();
        let e = SkylineEngine::build(b.build().unwrap(), Vec::new());
        let qs = vec![
            NetPosition::new(EdgeId(0), 10.0),
            NetPosition::new(EdgeId(0), 90.0),
        ];
        for algo in [
            Algorithm::Ce,
            Algorithm::Edc,
            Algorithm::EdcBatch,
            Algorithm::Lbc,
            Algorithm::LbcNoPlb,
            Algorithm::Brute,
        ] {
            let r = e.run(algo, &qs);
            assert!(r.skyline.is_empty(), "{}", algo.name());
            assert!(r.stats.initial_time.is_none(), "{}", algo.name());
        }
    }

    #[test]
    fn algorithm_names_are_stable() {
        // The benchmark tables and EXPERIMENTS.md reference these labels.
        assert_eq!(Algorithm::Ce.name(), "CE");
        assert_eq!(Algorithm::Edc.name(), "EDC");
        assert_eq!(Algorithm::EdcBatch.name(), "EDC-batch");
        assert_eq!(Algorithm::Lbc.name(), "LBC");
        assert_eq!(Algorithm::LbcNoPlb.name(), "LBC-noplb");
        assert_eq!(Algorithm::Brute.name(), "BRUTE");
        assert_eq!(Algorithm::PAPER_SET.len(), 3);
    }

    #[test]
    fn cold_run_faults_pages_again() {
        let e = tiny_engine();
        let qs = vec![NetPosition::new(EdgeId(1), 50.0)];
        let warm_first = e.run(Algorithm::Brute, &qs);
        let warm_second = e.run(Algorithm::Brute, &qs);
        assert!(warm_second.page_faults() <= warm_first.page_faults());
        let cold = e.run_cold(Algorithm::Brute, &qs);
        assert!(cold.page_faults() >= warm_second.page_faults());
    }
}

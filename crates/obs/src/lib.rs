//! Query observability: metric registry, counter bank and trace recorder.
//!
//! The paper's experimental section argues entirely via counters —
//! network-distance computations, R-tree node accesses, page faults,
//! candidate-set sizes. This crate makes those counters first-class
//! outputs of every query:
//!
//! * [`Metric`] — the closed registry of counter names. Every exported
//!   counter is a variant here; the string table ([`METRIC_NAMES`]) is
//!   parsed by `xtask lint` so that a name typo in `Metric::from_name` /
//!   `QueryTrace::get_name` call sites fails static analysis instead of
//!   silently reading zero.
//! * [`QueryTrace`] — a fixed-size counter bank plus a bounded ring
//!   buffer of typed lifecycle [`Event`]s. The counter bank is always
//!   on (a `u64` add per increment); event capture only happens under
//!   the `trace` cargo feature.
//! * JSON export — [`QueryTrace::counters_json`] (feature-stable, used
//!   for golden snapshots) and [`QueryTrace::to_json`] (counters +
//!   events + drop count, used for bitwise determinism assertions).
//!
//! Determinism contract: each query records into its own trace on the
//! one thread that runs it (or harvests engine-owned plain counters at
//! the end of the run), so a query's trace is bitwise reproducible.
//! `msq_core::BatchEngine` merges per-query traces in batch-index order,
//! which keeps the merged trace identical at every worker count. See
//! DESIGN.md §10.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;

pub use budget::{CancelToken, ExecGuard, IncompleteReason, QueryBudget};

/// Maximum number of events retained per trace. Further events are
/// dropped (counted in [`QueryTrace::dropped_events`]) rather than
/// reallocating — recording must stay O(1) per event.
pub const TRACE_CAPACITY: usize = 4096;

/// The closed set of exported counters.
///
/// Variant order is the export order of [`QueryTrace::counters_json`];
/// append new metrics at the end and mirror them in [`METRIC_NAMES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Metric {
    /// CE: network-distance emissions consumed during the filter
    /// (phase-1) round-robin, before the candidate set freezes.
    CeFilterDistanceComputations = 0,
    /// CE: emissions consumed during refinement (phase 2).
    CeRefinementDistanceComputations,
    /// EDC: Euclidean-skyline guide points shifted to network space.
    EdcGuideShifts,
    /// EDC: hypercube window queries issued against the object R-tree.
    EdcWindowFetches,
    /// EDC: candidate objects returned by those window queries.
    EdcWindowCandidates,
    /// EDC: closure-fetch guard rounds after the guide loop.
    EdcClosureRounds,
    /// LBC: adjudication sessions opened on candidate dimensions.
    LbcSessions,
    /// LBC: candidates discarded by the plb lower-bound test alone.
    LbcPlbDiscards,
    /// LBC: sessions postponed because the expansion budget ran out
    /// before the candidate could be resolved.
    LbcPlbPostponed,
    /// Shortest paths: priority-queue settles across all engines.
    SpHeapPops,
    /// A*: exact distances confirmed (target resolved and read).
    SpAstarConfirms,
    /// A*: retarget operations (`set_target` on a live engine).
    SpAstarRetargets,
    /// INE: objects emitted in ascending network-distance order.
    SpIneEmissions,
    /// R-tree nodes read across the object tree and middle layer.
    IndexNodeReads,
    /// Buffer pool: logical page requests.
    StoragePageRequests,
    /// Buffer pool: cold (compulsory) faults — first touch of a page.
    StoragePageFaultsCold,
    /// Buffer pool: warm faults — re-reads of a previously evicted page.
    StoragePageFaultsWarm,
    /// Candidate-set size |C| reported by the algorithm.
    QueryCandidates,
    /// Skyline size |S| of the final answer.
    QuerySkylineSize,
    /// A\*: destinations handed to the list form of distance resolution
    /// (`AStar::distances_to_pack`, one retarget each).
    SpAstarPackTargets,
    /// 1 when the query stopped before completing (budget exhausted or
    /// cancelled); 0 for a complete run. Additive across trace merges:
    /// a batch trace counts its incomplete queries.
    QueryIncomplete,
    /// Candidates left unresolved (neither confirmed skyline nor
    /// pruned) when an incomplete query stopped.
    QueryUnresolvedCandidates,
    /// Storage: page-read errors injected by the deterministic fault
    /// plan (each one is retried; see `storage.io.retries`).
    StorageIoInjectedErrors,
    /// Storage: read retries performed after injected errors.
    StorageIoRetries,
    /// Storage: total simulated exponential-backoff delay, in
    /// microseconds, accumulated across those retries (modeled, not
    /// slept — deterministic).
    StorageIoBackoffUs,
    /// Lower-bound oracle: evaluations where the precomputed bound
    /// (ALT landmarks) was strictly tighter than the plain Euclidean
    /// bound.
    SpLbOracleHits,
    /// Lower-bound oracle: evaluations where the Euclidean bound was
    /// already at least as tight and the oracle added nothing.
    SpLbEuclidFallbacks,
    /// Oracle index footprint in bytes (landmark distance tables).
    /// Deterministic: a pure function of network + knobs.
    OracleBuildBytes,
    /// LBC: candidates discarded by the plb test whose seed vector was
    /// tightened by the oracle, before any network expansion was spent
    /// on them — the pruning the precompute paid for.
    LbcPlbOracleDiscards,
    /// Dynamic layer: individual updates (weight deltas, object
    /// inserts/deletes) applied to the substrate (DESIGN.md §15).
    DynUpdatesApplied,
    /// Dynamic layer: live `(query, object)` rows a batch re-resolved
    /// through A\* (every live row when the batch changed some edge's
    /// weight, else the freshly inserted ones).
    DynCandidatesInvalidated,
    /// Dynamic layer: per batch, registered queries that re-resolved
    /// some, but not all, of their live rows.
    DynRecomputeIncremental,
    /// Dynamic layer: per batch, registered queries that re-resolved
    /// every live row (every query, when the batch changed some edge's
    /// weight).
    DynRecomputeFull,
    /// Dynamic layer: lower-bound oracle rebuilds forced by weight
    /// decreases under the rebuild policy.
    DynOracleRebuilds,
}

/// String table for [`Metric`], indexed by discriminant.
///
/// The `metric-names` markers delimit the region `xtask lint` parses to
/// build its registry of legal metric names — keep every entry between
/// them, one per line, as a plain string literal.
pub const METRIC_NAMES: [&str; Metric::COUNT] = [
    // metric-names:begin
    "ce.filter.distance_computations",
    "ce.refinement.distance_computations",
    "edc.guide.shifts",
    "edc.window.fetches",
    "edc.window.candidates",
    "edc.closure.rounds",
    "lbc.sessions",
    "lbc.plb.discards",
    "lbc.plb.postponed",
    "sp.heap_pops",
    "sp.astar.confirms",
    "sp.astar.retargets",
    "sp.ine.emissions",
    "index.node_reads",
    "storage.page.requests",
    "storage.page.faults.cold",
    "storage.page.faults.warm",
    "query.candidates",
    "query.skyline.size",
    "sp.astar.pack.targets",
    "query.incomplete",
    "query.unresolved.candidates",
    "storage.io.injected_errors",
    "storage.io.retries",
    "storage.io.backoff_us",
    "sp.lb.oracle_hits",
    "sp.lb.euclid_fallbacks",
    "oracle.build.bytes",
    "lbc.plb.oracle_discards",
    "dyn.updates.applied",
    "dyn.candidates.invalidated",
    "dyn.recompute.incremental",
    "dyn.recompute.full",
    "dyn.oracle.rebuilds",
    // metric-names:end
];

impl Metric {
    /// Number of registered metrics.
    pub const COUNT: usize = 34;

    /// Every metric, in export order.
    pub const ALL: [Metric; Metric::COUNT] = [
        Metric::CeFilterDistanceComputations,
        Metric::CeRefinementDistanceComputations,
        Metric::EdcGuideShifts,
        Metric::EdcWindowFetches,
        Metric::EdcWindowCandidates,
        Metric::EdcClosureRounds,
        Metric::LbcSessions,
        Metric::LbcPlbDiscards,
        Metric::LbcPlbPostponed,
        Metric::SpHeapPops,
        Metric::SpAstarConfirms,
        Metric::SpAstarRetargets,
        Metric::SpIneEmissions,
        Metric::IndexNodeReads,
        Metric::StoragePageRequests,
        Metric::StoragePageFaultsCold,
        Metric::StoragePageFaultsWarm,
        Metric::QueryCandidates,
        Metric::QuerySkylineSize,
        Metric::SpAstarPackTargets,
        Metric::QueryIncomplete,
        Metric::QueryUnresolvedCandidates,
        Metric::StorageIoInjectedErrors,
        Metric::StorageIoRetries,
        Metric::StorageIoBackoffUs,
        Metric::SpLbOracleHits,
        Metric::SpLbEuclidFallbacks,
        Metric::OracleBuildBytes,
        Metric::LbcPlbOracleDiscards,
        Metric::DynUpdatesApplied,
        Metric::DynCandidatesInvalidated,
        Metric::DynRecomputeIncremental,
        Metric::DynRecomputeFull,
        Metric::DynOracleRebuilds,
    ];

    /// The registered dotted name of this metric.
    pub fn name(self) -> &'static str {
        METRIC_NAMES[self as usize]
    }

    /// Reverse lookup: the metric registered under `name`, if any.
    ///
    /// Call sites that pass a string literal are checked by the
    /// `metric-name` rule of `xtask lint` against [`METRIC_NAMES`].
    pub fn from_name(name: &str) -> Option<Metric> {
        Metric::ALL
            .iter()
            .copied()
            .find(|m| METRIC_NAMES[*m as usize] == name)
    }
}

/// Outcome of an LBC adjudication session, attached to
/// [`Event::SessionEnd`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionOutcome {
    /// The candidate was discarded on lower bounds alone.
    Discarded,
    /// The session hit its expansion budget and was postponed.
    Postponed,
    /// The source dimension was resolved exactly.
    SourceExact,
}

impl SessionOutcome {
    fn label(self) -> &'static str {
        match self {
            SessionOutcome::Discarded => "discarded",
            SessionOutcome::Postponed => "postponed",
            SessionOutcome::SourceExact => "source_exact",
        }
    }
}

/// A typed query-lifecycle event.
///
/// Events carry no timestamps — a trace is a pure function of the query
/// and therefore bitwise reproducible. Per-object events are recorded
/// by the algorithm drivers as they happen; totals harvested after the
/// run (heap pops, A* confirmations, index reads, page faults) are
/// recorded once at result-assembly time as aggregate events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A query began: algorithm name and query arity |Q|.
    QueryStart {
        /// Algorithm name, e.g. `"CE"`.
        algo: &'static str,
        /// Number of query points.
        arity: u64,
    },
    /// The driver crossed a phase boundary (e.g. CE filter→refinement).
    Phase {
        /// Phase being entered.
        label: &'static str,
    },
    /// An LBC adjudication session ended for `object`.
    SessionEnd {
        /// Object id the session adjudicated.
        object: u32,
        /// How the session ended.
        outcome: SessionOutcome,
    },
    /// EDC fetched a hypercube window from the object R-tree.
    WindowFetch {
        /// Number of candidate objects the window returned.
        candidates: u64,
    },
    /// Aggregate: total priority-queue settles for the query.
    HeapPops {
        /// Settle count.
        count: u64,
    },
    /// Aggregate: total A* confirmations for the query.
    AStarConfirms {
        /// Confirmation count.
        count: u64,
    },
    /// Aggregate: total R-tree node reads for the query.
    IndexReads {
        /// Node-read count.
        count: u64,
    },
    /// Aggregate: page faults attributed cold/warm.
    PageFaults {
        /// Compulsory (first-touch) faults.
        cold: u64,
        /// Re-fault of a previously evicted page.
        warm: u64,
    },
    /// The query stopped before completing: budget exhausted or
    /// cancelled. The confirmed-so-far skyline is still sound.
    Incomplete {
        /// Which limit tripped.
        reason: IncompleteReason,
        /// Candidates left unresolved at the stop point.
        unresolved: u64,
    },
    /// The query finished with a skyline of the given size.
    QueryEnd {
        /// Skyline size |S|.
        skyline: u64,
    },
}

impl Event {
    fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            Event::QueryStart { algo, arity } => {
                let _ = write!(
                    out,
                    r#"{{"type":"query_start","algo":"{algo}","arity":{arity}}}"#
                );
            }
            Event::Phase { label } => {
                let _ = write!(out, r#"{{"type":"phase","label":"{label}"}}"#);
            }
            Event::SessionEnd { object, outcome } => {
                let _ = write!(
                    out,
                    r#"{{"type":"session_end","object":{object},"outcome":"{}"}}"#,
                    outcome.label()
                );
            }
            Event::WindowFetch { candidates } => {
                let _ = write!(
                    out,
                    r#"{{"type":"window_fetch","candidates":{candidates}}}"#
                );
            }
            Event::HeapPops { count } => {
                let _ = write!(out, r#"{{"type":"heap_pops","count":{count}}}"#);
            }
            Event::AStarConfirms { count } => {
                let _ = write!(out, r#"{{"type":"astar_confirms","count":{count}}}"#);
            }
            Event::IndexReads { count } => {
                let _ = write!(out, r#"{{"type":"index_reads","count":{count}}}"#);
            }
            Event::PageFaults { cold, warm } => {
                let _ = write!(
                    out,
                    r#"{{"type":"page_faults","cold":{cold},"warm":{warm}}}"#
                );
            }
            Event::Incomplete { reason, unresolved } => {
                let _ = write!(
                    out,
                    r#"{{"type":"incomplete","reason":"{}","unresolved":{unresolved}}}"#,
                    reason.label()
                );
            }
            Event::QueryEnd { skyline } => {
                let _ = write!(out, r#"{{"type":"query_end","skyline":{skyline}}}"#);
            }
        }
    }
}

/// Per-query recorder: a counter bank over [`Metric`] plus a bounded
/// event log.
///
/// The counter path is always on and costs one `u64` add per increment.
/// [`QueryTrace::event`] stores events only when the crate is built
/// with the `trace` feature; otherwise it compiles to nothing and the
/// exported counters are identical either way (golden snapshots compare
/// [`QueryTrace::counters_json`], which is feature-stable).
#[derive(Clone, Debug, PartialEq)]
pub struct QueryTrace {
    counters: [u64; Metric::COUNT],
    events: Vec<Event>,
    dropped: u64,
}

impl Default for QueryTrace {
    fn default() -> Self {
        QueryTrace {
            counters: [0; Metric::COUNT],
            events: Vec::new(),
            dropped: 0,
        }
    }
}

impl QueryTrace {
    /// An empty trace.
    pub fn new() -> Self {
        QueryTrace::default()
    }

    /// Add 1 to `metric`.
    #[inline]
    pub fn incr(&mut self, metric: Metric) {
        self.counters[metric as usize] += 1;
    }

    /// Add `n` to `metric`.
    #[inline]
    pub fn add(&mut self, metric: Metric, n: u64) {
        self.counters[metric as usize] += n;
    }

    /// Current value of `metric`.
    #[inline]
    pub fn get(&self, metric: Metric) -> u64 {
        self.counters[metric as usize]
    }

    /// Current value of the metric registered under `name`; `None` for
    /// unregistered names. String-literal call sites are checked by
    /// `xtask lint` (rule `metric-name`).
    pub fn get_name(&self, name: &str) -> Option<u64> {
        Metric::from_name(name).map(|m| self.get(m))
    }

    /// Record a lifecycle event. Under the `trace` feature the event is
    /// appended to the bounded log (drops counted past
    /// [`TRACE_CAPACITY`]); otherwise this is a no-op.
    #[inline]
    pub fn event(&mut self, event: Event) {
        #[cfg(feature = "trace")]
        {
            if self.events.len() < TRACE_CAPACITY {
                self.events.push(event);
            } else {
                self.dropped += 1;
            }
        }
        #[cfg(not(feature = "trace"))]
        {
            let _ = event;
        }
    }

    /// Recorded events (empty unless built with the `trace` feature).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events dropped because the log was full.
    pub fn dropped_events(&self) -> u64 {
        self.dropped
    }

    /// Fold `other` into `self`: counters add, events append in order
    /// (subject to the same capacity bound), drop counts add.
    pub fn merge(&mut self, other: &QueryTrace) {
        for i in 0..Metric::COUNT {
            self.counters[i] += other.counters[i];
        }
        for e in &other.events {
            self.event(e.clone());
        }
        self.dropped += other.dropped;
    }

    /// The counter bank as a JSON object, one key per registered metric
    /// in registry order. Identical under default and `trace` builds —
    /// this is the golden-snapshot format.
    pub fn counters_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        for (i, m) in Metric::ALL.iter().enumerate() {
            let comma = if i + 1 < Metric::COUNT { "," } else { "" };
            let _ = writeln!(out, "  \"{}\": {}{}", m.name(), self.get(*m), comma);
        }
        out.push('}');
        out
    }

    /// Full export: counters, the event log and the drop count.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n\"counters\": ");
        out.push_str(&self.counters_json());
        out.push_str(",\n\"events\": [");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n  ");
            e.write_json(&mut out);
        }
        if !self.events.is_empty() {
            out.push('\n');
        }
        let _ = write!(out, "],\n\"dropped_events\": {}\n}}", self.dropped);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique_and_roundtrip() {
        for (i, name) in METRIC_NAMES.iter().enumerate() {
            assert_eq!(
                METRIC_NAMES.iter().filter(|n| *n == name).count(),
                1,
                "duplicate metric name {name}"
            );
            let m = Metric::from_name(name).expect("registered name resolves");
            assert_eq!(m as usize, i, "ALL order matches METRIC_NAMES for {name}");
            assert_eq!(m.name(), *name);
        }
        assert_eq!(Metric::ALL.len(), Metric::COUNT);
        // lint: allow(metric-name) — negative lookup is the point here.
        assert_eq!(Metric::from_name("not.a.metric"), None);
    }

    #[test]
    fn counter_bank_incr_add_get() {
        let mut t = QueryTrace::new();
        t.incr(Metric::SpHeapPops);
        t.add(Metric::SpHeapPops, 4);
        t.add(Metric::QueryCandidates, 7);
        assert_eq!(t.get(Metric::SpHeapPops), 5);
        assert_eq!(t.get_name("sp.heap_pops"), Some(5));
        assert_eq!(t.get_name("query.candidates"), Some(7));
        assert_eq!(t.get(Metric::QuerySkylineSize), 0);
        // lint: allow(metric-name) — negative lookup is the point here.
        assert_eq!(t.get_name("no.such.counter"), None);
    }

    #[test]
    fn merge_adds_counters_and_drop_counts() {
        let mut a = QueryTrace::new();
        a.add(Metric::IndexNodeReads, 3);
        let mut b = QueryTrace::new();
        b.add(Metric::IndexNodeReads, 2);
        b.add(Metric::StoragePageFaultsCold, 1);
        a.merge(&b);
        assert_eq!(a.get(Metric::IndexNodeReads), 5);
        assert_eq!(a.get(Metric::StoragePageFaultsCold), 1);
    }

    #[test]
    fn counters_json_lists_every_metric_in_order() {
        let mut t = QueryTrace::new();
        t.add(Metric::CeFilterDistanceComputations, 11);
        let json = t.counters_json();
        let mut last = 0usize;
        for name in METRIC_NAMES {
            let at = json.find(&format!("\"{name}\"")).expect("name present");
            assert!(at >= last, "{name} out of order");
            last = at;
        }
        assert!(json.contains("\"ce.filter.distance_computations\": 11,"));
        assert!(json.ends_with('}'));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn ring_buffer_bounds_event_log() {
        let mut t = QueryTrace::new();
        for _ in 0..(TRACE_CAPACITY + 5) {
            t.event(Event::HeapPops { count: 1 });
        }
        assert_eq!(t.events().len(), TRACE_CAPACITY);
        assert_eq!(t.dropped_events(), 5);
        assert!(t.to_json().contains("\"dropped_events\": 5"));
    }

    #[cfg(feature = "trace")]
    #[test]
    fn events_export_in_order() {
        let mut t = QueryTrace::new();
        t.event(Event::QueryStart {
            algo: "CE",
            arity: 3,
        });
        t.event(Event::Phase {
            label: "refinement",
        });
        t.event(Event::SessionEnd {
            object: 9,
            outcome: SessionOutcome::Discarded,
        });
        t.event(Event::WindowFetch { candidates: 2 });
        t.event(Event::PageFaults { cold: 4, warm: 1 });
        t.event(Event::QueryEnd { skyline: 2 });
        let json = t.to_json();
        let start = json.find("query_start").expect("start");
        let phase = json.find("\"phase\"").expect("phase");
        let session = json.find("session_end").expect("session");
        let end = json.find("query_end").expect("end");
        assert!(start < phase && phase < session && session < end);
        assert!(json.contains(r#""outcome":"discarded""#));
        assert!(json.contains(r#""cold":4,"warm":1"#));
    }

    #[cfg(not(feature = "trace"))]
    #[test]
    fn events_are_noops_without_trace_feature() {
        let mut t = QueryTrace::new();
        t.event(Event::QueryStart {
            algo: "CE",
            arity: 3,
        });
        assert!(t.events().is_empty());
        assert_eq!(t.dropped_events(), 0);
        assert!(t.to_json().contains("\"events\": []"));
    }

    #[test]
    fn counters_json_is_feature_stable() {
        // The golden format must not depend on event capture.
        let mut t = QueryTrace::new();
        t.event(Event::QueryEnd { skyline: 1 });
        t.add(Metric::QuerySkylineSize, 1);
        let json = t.counters_json();
        assert!(!json.contains("events"));
        assert!(json.contains("\"query.skyline.size\": 1"));
    }
}

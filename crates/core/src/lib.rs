//! # msq-core — Multi-source Skyline Queries in Road Networks
//!
//! A faithful, production-quality implementation of
//! *Deng, Zhou, Shen: "Multi-source Skyline Query Processing in Road
//! Networks" (ICDE 2007)*.
//!
//! Given a road network, a set of data objects located on its edges, and a
//! set of query points `Q = {q_1..q_n}`, every object `p` is described by
//! the vector of its shortest-path (network) distances to the query points;
//! the **multi-source network skyline** is the set of objects whose vectors
//! are not dominated. All network distances are computed on-the-fly — no
//! pre-computed distance matrix exists anywhere in this workspace.
//!
//! ## The three algorithms (§4)
//!
//! | module | algorithm | strategy |
//! |---|---|---|
//! | [`ce`]  | Collaborative Expansion | one incremental Dijkstra wavefront per query point, alternated |
//! | [`edc`] | Euclidean Distance Constraint | Euclidean skyline as a guide; A\* towards its members; window-fetch of potential dominators |
//! | [`lbc`] | Lower-Bound Constraint | Euclidean NN stream pruned by confirmed skyline; **path-distance lower bounds** adjudicate candidates with partial expansions (instance-optimal, Theorem 1) |
//!
//! All three return exactly the same skyline; [`brute`] provides the
//! oracle the test-suite checks them against.
//!
//! ## Quick start
//!
//! ```
//! use msq_core::{SkylineEngine, Algorithm};
//! use rn_graph::{NetworkBuilder, NetPosition, EdgeId};
//! use rn_geom::Point;
//!
//! // A square city block with two hotels on its streets.
//! let mut b = NetworkBuilder::new();
//! let n0 = b.add_node(Point::new(0.0, 0.0));
//! let n1 = b.add_node(Point::new(100.0, 0.0));
//! let n2 = b.add_node(Point::new(100.0, 100.0));
//! let n3 = b.add_node(Point::new(0.0, 100.0));
//! b.add_straight_edge(n0, n1).unwrap();
//! b.add_straight_edge(n1, n2).unwrap();
//! b.add_straight_edge(n2, n3).unwrap();
//! b.add_straight_edge(n3, n0).unwrap();
//! let net = b.build().unwrap();
//!
//! let hotels = vec![
//!     NetPosition::new(EdgeId(0), 30.0),
//!     NetPosition::new(EdgeId(2), 60.0),
//! ];
//! let engine = SkylineEngine::build(net, hotels);
//! let queries = vec![
//!     NetPosition::new(EdgeId(1), 10.0),
//!     NetPosition::new(EdgeId(3), 90.0),
//! ];
//! let result = engine.run(Algorithm::Lbc, &queries);
//! assert!(!result.skyline.is_empty());
//! // Same answer from the straightforward algorithm:
//! let ce = engine.run(Algorithm::Ce, &queries);
//! assert_eq!(result.ids(), ce.ids());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attrs;
pub mod batch;
pub mod brute;
pub mod ce;
pub mod dynamic;
pub mod edc;
pub mod engine;
pub mod lbc;
pub mod nnq;
pub(crate) mod par;
pub mod stats;

pub use attrs::AttrTable;
pub use batch::{BatchEngine, BatchOutcome};
pub use dynamic::{DynamicEngine, MaintenanceOutcome, OracleMaintenance, QueryId};
pub use engine::{
    Algorithm, Completion, Exec, PartialInfo, QueryInput, QueryPlan, SkylineEngine, SkylineResult,
    SourceStrategy, UnresolvedCandidate,
};
pub use nnq::Aggregate;
pub use rn_sp::{BoundKind, BoundSpec, LowerBound, OracleBuildStats};
pub use stats::{canonical, QueryStats, Reporter, SkylinePoint};
// Re-exported so trace consumers need no direct rn-obs dependency.
pub use rn_obs::{
    CancelToken, Event, IncompleteReason, Metric, QueryBudget, QueryTrace, SessionOutcome,
    METRIC_NAMES,
};
// Re-exported so chaos-test harnesses need no direct rn-storage dependency.
pub use rn_storage::FaultPlan;

//! Shortest-path engine — §3's network distance machinery, built for the
//! incremental access patterns of §4.
//!
//! The multi-source skyline algorithms never run "one shortest path, start
//! to finish". They need:
//!
//! * **resumable Dijkstra wavefronts** ([`dijkstra::Dijkstra`]) that settle
//!   one node at a time and can be parked and resumed — CE interleaves one
//!   wavefront per query point;
//! * **incremental object discovery** ([`ine::IncrementalExpansion`]) that
//!   reports data objects in strictly ascending network distance from a
//!   query point, by probing the middle layer for every edge the wavefront
//!   crosses;
//! * **resumable, retarget-able A\*** ([`astar::AStar`]) that keeps one
//!   settled-distance hash table per *source* and reuses it across many
//!   *targets* (§6.1, after \[26\]), and that exposes the paper's central
//!   quantity — the **path-distance lower bound** `plb` (§4.3) — so LBC can
//!   advance the cheapest frontier one step at a time and stop the moment a
//!   candidate is provably dominated;
//! * **lower-bound oracles** ([`oracle`]) — a pluggable [`oracle::LowerBound`]
//!   seam feeding the skyline pruning rules (A\* keys its heap by the
//!   Euclidean distance): the zero-cost Euclidean bound (default) and ALT
//!   landmark triangle bounds;
//! * **reference oracles** ([`apsp_oracle`]) — Floyd–Warshall all-pairs and
//!   position-to-position distances — used only by the test suites.
//!
//! All expansion I/O goes through [`rn_storage::NetworkStore`], so every
//! adjacency read is a counted (and buffered) page access.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

// lint: allow(apsp) — module *name* only: the test-only Floyd–Warshall
// reference oracle, renamed so the query-path lower-bound seam owns `oracle`.
pub mod apsp_oracle;
pub mod astar;
pub mod ctx;
pub mod dijkstra;
pub mod ine;
pub mod nodemap;
pub mod oracle;
pub mod path;

pub use astar::{AStar, AStarStats};
pub use ctx::{NetCtx, QueryPoint};
pub use dijkstra::Dijkstra;
pub use ine::IncrementalExpansion;
pub use nodemap::NodeMap;
pub use oracle::{
    AltOracle, BoundKind, BoundSpec, EuclidBound, LbCounters, LbTarget, LowerBound,
    OracleBuildStats, EUCLID,
};
pub use path::{NetPath, PathFinder};

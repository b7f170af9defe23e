//! Road-network model — §3 of the paper.
//!
//! A road network is an undirected graph `G = (V, E)`: nodes are road
//! junctions with planar coordinates, edges are road segments whose geometry
//! may be a straight line or a polyline. The edge *length* (arc length of
//! the geometry) defines the network metric `d_N`; the node coordinates
//! define the Euclidean metric `d_E` used for lower bounds.
//!
//! This crate owns:
//!
//! * the in-memory network representation ([`RoadNetwork`]) with
//!   CSR-compressed adjacency lists for allocation-free traversal,
//! * the [`builder::NetworkBuilder`] used by loaders and generators,
//! * on-network positions ([`NetPosition`]) for data objects and query
//!   points that live *on edges* rather than on junctions,
//! * Hilbert-curve node ordering ([`hilbert`]) used to cluster adjacency
//!   lists onto disk pages,
//! * a plain-text interchange format ([`io`]) so real road data
//!   (e.g. Digital Chart of the World extracts) can be dropped in,
//! * normalisation of arbitrary coordinates into the paper's 1 km x 1 km
//!   evaluation square ([`normalize`]), and
//! * connectivity analysis ([`connectivity`]) — experiments always run on a
//!   single connected component so every distance is finite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod connectivity;
pub mod delta;
pub mod hilbert;
pub mod io;
pub mod network;
pub mod normalize;

pub use builder::NetworkBuilder;
pub use delta::{Update, UpdateBatch};
pub use network::{Edge, EdgeId, NetPosition, Node, NodeId, ObjectId, RoadNetwork};

//! Workload generation — the experimental setup of §6.1.
//!
//! The paper evaluates on three Digital Chart of the World road networks
//! (California, Australia, North America), all "unified into a 1 km x 1 km
//! region to represent different network densities", with data objects
//! "extracted uniformly from the edges" at a density `ω = |D|/|E|` and
//! query points confined to a 10 % sub-region. The DCW site is gone and
//! this environment is offline, so [`netgen`] synthesises road networks
//! with the properties the evaluation actually exercises:
//!
//! * **exact node/edge counts** (spanning tree over a jittered grid plus
//!   extra grid-adjacent edges — always connected, no post-hoc trimming),
//! * **controlled density** (all presets occupy the same 1 km square, so a
//!   preset with more junctions is denser),
//! * **controlled δ = d_N / d_E** via polyline detours (sparser presets get
//!   larger detours, mirroring the paper's observation that low density
//!   implies large δ).
//!
//! [`presets`] pins the three paper networks; [`objects`] and [`queries`]
//! sample object sets and query sets exactly as §6.1 describes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod netgen;
pub mod objects;
pub mod presets;
pub mod queries;
pub mod radial;
pub mod stream;
pub mod updates;

pub use netgen::{generate_network, NetGenConfig};
pub use objects::{generate_objects, read_positions, write_positions};
pub use presets::{au_like, ca_like, na_like, OracleKnobs, Preset};
pub use queries::generate_queries;
pub use radial::{generate_radial_network, RadialConfig};
pub use stream::{stream_build, BudgetExceeded, StreamBuildReport, StreamNetConfig};
pub use updates::{ChurnConfig, UpdateStream};

//! Skyline primitives — the §2 substrate.
//!
//! Everything in this crate works on *minimisation* skylines over dense
//! `f64` attribute vectors, which is how the road-network algorithms see
//! their data (the i-th attribute of an object is its distance to the i-th
//! query point).
//!
//! * [`dominance`] — the dominance relation and a brute-force reference
//!   skyline;
//! * [`bnl`] — Block-Nested-Loops (Börzsönyi et al., ICDE 2001);
//! * [`sfs`] — Sort-Filter-Skyline (Chomicki et al., ICDE 2003);
//! * [`euclidean`] — the R-tree-based *multi-source Euclidean skyline* of
//!   §4.2: a BBS-style best-first browse ordered by the sum of per-query
//!   mindists, with dominance pruning at both insertion and pop time, and
//!   an incremental iterator that accepts externally discovered dominators
//!   (what the incremental EDC variant needs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bnl;
pub mod dominance;
pub mod euclidean;
pub mod sfs;

pub use dominance::{brute_force_skyline, dominates};
pub use euclidean::{multi_source_euclidean_skyline, EuclideanSkylineIter};

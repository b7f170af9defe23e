//! Benchmark harness shared by the per-figure bench targets and the
//! `experiments` binary.
//!
//! The harness mirrors §6.1: a preset network (CA/AU/NA-like) normalised
//! to the 1 km square, objects at density ω, query points in a 10 %
//! region, and every reported number averaged over `MSQ_SEEDS` query
//! seeds (default 3; the paper averages ten). Results are printed as
//! aligned text tables whose rows match the
//! series of the corresponding paper figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dynamic;
pub mod figures;
pub mod harness;
pub mod observability;
pub mod oracle;
pub mod report;
pub mod scale;
pub mod sweep;
pub mod throughput;

pub use harness::{
    average, build_engine, format_row, print_header, run_setting, seed_count, AvgMetrics, Setting,
    DEFAULT_SEEDS,
};

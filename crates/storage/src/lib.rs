//! Simulated disk storage for road networks — the I/O model of §3/§6.1.
//!
//! The paper measures algorithms primarily by **network disk pages
//! accessed**: adjacency lists are "clustered on the disk to minimize the
//! I/O cost during network distance computation", the page size is 4 KB and
//! a 1 MB LRU buffer sits in front of the disk. This crate reproduces that
//! model exactly:
//!
//! * [`page`] — fixed 4 KB pages and page ids;
//! * [`buffer`] — an O(1) LRU buffer pool with hit/fault accounting;
//! * [`shard`] — the buffer pool sharded by page-id hash for concurrent
//!   sessions (one shard by default, so the paper's configuration is
//!   reproduced bit for bit);
//! * [`netstore`] — the clustered network store: every node's adjacency
//!   record (its coordinates plus, per incident edge, the edge id, the
//!   opposite node, its coordinates and the edge length) serialised onto
//!   pages in Hilbert order, read back through the buffer pool;
//! * [`stats`] — shared I/O counters sampled by the experiment harness.
//!
//! The "disk" is a `Vec<Bytes>` in memory; what makes the simulation honest
//! is that *every* adjacency read during a shortest-path expansion goes
//! through the buffer pool and is counted, so the page-fault series of
//! Figures 5 and 6 is reproduced structurally rather than by timing a
//! physical disk.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod buffer;
pub mod fault;
pub mod netstore;
pub mod page;
pub mod shard;
pub mod stats;

pub use bitset::PageBitSet;
pub use buffer::BufferPool;
pub use fault::FaultPlan;
pub use netstore::{AdjEntry, AdjRecord, NetworkStore, StoreBuilder};
pub use page::{PageId, PAGE_SIZE};
pub use shard::{PoolConfig, ShardedPool};
pub use stats::{IoSnapshot, IoStats};

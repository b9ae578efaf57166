//! # stash-dfs
//!
//! A from-scratch stand-in for **Galileo** (Malensek et al., UCC 2011) —
//! the zero-hop-DHT distributed storage and analytics substrate the paper
//! deploys STASH on top of (§VI-C).
//!
//! The properties STASH depends on, all reproduced here:
//!
//! * **Geohash partitioning** — observations are grouped into blocks by a
//!   geohash prefix and a UTC day; blocks are assigned to nodes by hashing
//!   the first (configurable) geohash characters
//!   (paper §VIII-A: "partitioned uniformly over the cluster based on the
//!   first 2 characters of their Geohash"), so geospatially proximate data
//!   is colocated.
//! * **Zero-hop lookup** — [`Partitioner`] is a pure function every node
//!   can evaluate locally; finding any block's owner costs no network hops.
//!   [`plan_reads`] derives, from the same pure inputs, one reader per plan
//!   block: the block's effective owner, or — for a plan that spans
//!   partitions — possibly its first live replica, balancing the reads.
//! * **Expensive cold reads** — every block read is charged through a
//!   [`DiskModel`] (seek + transfer time) before its observations are
//!   scanned. This is the cost STASH exists to avoid. Reads are sequential
//!   on the node's one disk; [`Lanes`] is the schedule that lets the disk
//!   read block *i+1* while block *i* is aggregated, for this store and
//!   for the `stash-elastic` baseline alike.
//! * **Local aggregation** — [`NodeStore::fetch_partials`] scans the
//!   blocks the plan gives this node as they become ready (on as many threads as the host has
//!   cores) and returns per-Cell partial summaries, which a coordinator
//!   merges (the monoid property of [`stash_model::SummaryStats`] makes
//!   partial merging exact).
//!
//! The "disk" is the deterministic `stash-data`-style generator supplied
//! by the embedder: any block expands to the same observations on every
//! read, so the simulated store behaves like a (very large) immutable
//! dataset without storing terabytes. See DESIGN.md §2 for the substitution
//! argument.

pub mod block;
pub mod disk;
pub mod frame;
pub mod partitioner;
pub mod rollup;
pub mod store;

pub use block::{plan_blocks, plan_reads, BlockKey, BlockPlanError, MAX_BLOCKS_PER_FETCH};
pub use disk::{DiskModel, DiskStats, LaneBill, Lanes};
pub use frame::{
    frame_spatial_res, BlockFrame, FrameAggregation, FrameBuilder, FrameCache,
    DEFAULT_FRAME_CACHE_BYTES,
};
pub use partitioner::Partitioner;
pub use rollup::RollupStore;
pub use store::{AppendOutcome, BlockScan, BlockSource, NodeStore};

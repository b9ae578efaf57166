//! # stash-cluster
//!
//! The full simulated deployment of the paper's system (Fig. 4): Galileo
//! storage nodes with STASH graphs in their memory, a front end that
//! scatters each query to its owners and settles every failed share itself
//! (retry, then DFS replica failover), the Clique Handoff hotspot protocol,
//! and a client API standing in for the Grafana front-end.
//!
//! One [`SimCluster`] owns:
//!
//! * a [`stash_net::Router`] fabric with `n_nodes + 1` endpoints (the extra
//!   endpoint is the client gateway);
//! * per node: a main dispatch thread (never blocks), two small worker
//!   tiers — SubQuery service and block fetch (the paper's nodes are
//!   8-core), a [`stash_dfs::NodeStore`], a local
//!   [`stash_core::StashGraph`], a **guest** graph for replicas
//!   (§VII-A: "a helper node maintains two STASH graphs — one local and one
//!   guest"), a routing table, and a hotspot manager;
//! * a clonable [`ClusterClient`] whose `query()` call is exactly one
//!   user interaction of the front-end.
//!
//! Two execution modes reproduce the paper's comparisons:
//! [`Mode::Basic`] — the bare storage system, every query scans blocks —
//! and [`Mode::Stash`] — the full caching middleware.

mod caller;
pub mod client;
pub mod cluster;
pub mod config;
mod fence;
mod gather;
pub mod ingest;
pub mod node;
pub mod protocol;
pub mod source;

pub use client::{ClientError, ClusterClient, QueryCall, TracedQueryCall};
pub use cluster::{ClusterConfig, Mode, NodeStatsSnapshot, RetentionReport, SimCluster};
pub use config::{ClusterConfigBuilder, ConfigError, RollupPolicy};
pub use ingest::IngestClient;
pub use protocol::ClusterError;
pub use source::{GenBlockSource, LiveSource};

// Re-export the producer-side ingest machinery so cluster users drive a
// live stream without naming the `stash-ingest` crate themselves.
pub use stash_ingest::{
    run_stream, AppendSink, IngestConfig, IngestError, IngestStats, OverloadPolicy,
};

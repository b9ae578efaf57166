//! # stash-net
//!
//! The simulated cluster fabric for the STASH reproduction.
//!
//! The paper evaluates on a 120-node cluster; this crate substitutes an
//! in-process message-passing fabric (DESIGN.md §2) with the properties the
//! experiments depend on:
//!
//! * **Real concurrency** — every simulated node is OS threads draining
//!   real queues, so queueing delay, hotspots, and head-of-line blocking
//!   *emerge* rather than being modeled.
//! * **Modeled wire time** — each message is handed to its destination at
//!   send time, stamped due `base_latency + bytes / bandwidth` later, and
//!   waited for by the thread that consumes it, without occupying either
//!   endpoint (messages are genuinely in flight; the fabric has no threads).
//! * **Observability** — per-node delivered/dropped/refused counts and
//!   fabric-wide message/byte counters.
//!
//! The fabric is payload-generic: the cluster crate defines its own message
//! enum and the ElasticSearch baseline its own; both share this router.
//!
//! The router is also the **fault plane**: a seeded [`FaultPlan`] injects
//! deterministic per-link drops, duplicates, and delays; partitions and
//! node crash/restart are scripted imperatively (`Router::set_partition`,
//! `Router::crash_node`). Faults live at the wire so upper layers see them
//! the way real processes do — silence, duplicates, and dead peers.

pub mod fault;
pub mod queue;
pub mod router;
pub mod rpc;
pub mod stats;

pub use fault::{FaultDecision, FaultPlan, LinkFault};
pub use queue::{DelayQueue, Inbox, Parked};
pub use router::{Endpoint, Envelope, Handover, NetConfig, NodeId, Port, Router};
pub use rpc::{Arrived, ReplySlot, RpcTable};
pub use stats::NetStats;

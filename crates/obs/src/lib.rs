//! Observability primitives for the STASH cluster.
//!
//! Four pieces, all allocation-free on the hot path:
//!
//! - [`MetricsRegistry`] — a per-node registry of named [`Counter`]s,
//!   [`Gauge`]s, and [`Histogram`]s. Registration takes a lock once;
//!   recording through the returned `Arc` handle is lock-free atomics.
//! - [`Histogram`] — fixed log₂ buckets over `u64` nanoseconds with
//!   per-bucket sums, so percentile extraction is exact whenever every
//!   sample in the selected bucket is equal (the common case for modeled
//!   costs) and bounded by the 2× bucket width otherwise.
//! - [`QueryTrace`] / [`StageTimes`] — lightweight tracing spans that ride
//!   the cluster RPC envelope: per-stage timings (route, PLM check, graph
//!   merge, DFS scan, wire, retry/backoff, reply waits) recorded along the
//!   query path and returned to the client next to the result.
//! - [`sleep_until`] / [`wait_until`] — the one place where modeled time
//!   is waited for, to an absolute deadline with the thread's timer slack
//!   at its minimum (DESIGN.md §2b).
//!
//! Metric names follow `subsystem.object.event` (e.g. `graph.hit`,
//! `handoff.attempt`, `query.stage.dfs`); see DESIGN.md §11.

mod deadline;
mod hist;
mod metrics;
mod trace;

pub use deadline::{sleep_until, wait_until};
pub use hist::{Histogram, HistogramSnapshot, NUM_BUCKETS};
pub use metrics::{Counter, Gauge, MetricValue, MetricsRegistry};
pub use trace::{QueryTrace, StageTimes};

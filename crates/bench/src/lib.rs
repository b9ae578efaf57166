//! # stash-bench
//!
//! The experiment harness that regenerates **every figure of the paper's
//! evaluation** (§VIII) against the simulated cluster:
//!
//! | Module | Paper figure | What it measures |
//! |---|---|---|
//! | [`fig6::latency`] | Fig. 6a | query latency vs size: basic / cold STASH / warm STASH |
//! | [`fig6::throughput`] | Fig. 6b | throughput under a panning mix: basic vs STASH |
//! | [`fig6::maintenance`] | Fig. 6c | cold-start Cell population time vs query size |
//! | [`fig6::hotspot`] | Fig. 6d | responses/sec during a hotspot burst: replication on/off |
//! | [`fig7::dicing`] | Fig. 7a/7b | iterative dicing, descending/ascending |
//! | [`fig7::panning`] | Fig. 7c | pans of 10/20/25 % in 8 directions |
//! | [`fig7::zooming`] | Fig. 7d/7e | drill-down/roll-up with 50/75/100 % prepopulation |
//! | [`fig8`] | Fig. 8a–8c | the same pan/dice streams vs the ES-like baseline |
//! | [`ablation`] | DESIGN.md §8 | dispersion, derivation, helper selection, reroute sweep |
//! | [`fault_sweep`] | — (robustness) | throughput under uniform message loss, 100% success |
//! | [`ingest`] | — (DESIGN.md §13) | mid-stream query latency: delta-patch vs invalidate-all |
//! | [`sustained`] | — (DESIGN.md §16) | 10⁵-query closed-loop warm load: req/s + p50/p95/p99 |
//! | [`rollup`] | — (DESIGN.md §17) | long-history coarse queries: rollup-served vs raw recompute |
//! | [`profile`] | — (observability) | per-stage p50/p95/p99 latency breakdown from query traces |
//!
//! Experiments run at a configurable [`Scale`]; `Scale::small()` keeps
//! `cargo bench` minutes-long while `Scale::paper()` is the configuration
//! EXPERIMENTS.md reports. Absolute times depend on the simulator's cost
//! models; the *shape* (orderings, ratios, crossovers) is what reproduces
//! the paper — see DESIGN.md §7.

pub mod ablation;
pub mod fault_sweep;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod harness;
pub mod ingest;
pub mod profile;
pub mod report;
pub mod rollup;
pub mod sustained;

pub use harness::Scale;

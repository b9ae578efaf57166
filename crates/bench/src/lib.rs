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
//! | [`ingest`] | — (DESIGN.md §13) | mid-stream query latency: delta-patch vs invalidate-all |
//!
//! The `figures` binary runs them. The product's own performance — load,
//! per-stage time, rollup serving — is measured by `perf` (`bench/`), and
//! fault sweeps are the chaos suites' job.
//!
//! Experiments run at a configurable [`Scale`]; `Scale::small()` finishes
//! in minutes while `Scale::paper()` is the configuration EXPERIMENTS.md
//! reports. Absolute times depend on the simulator's cost models; the
//! *shape* (orderings, ratios, crossovers) is what reproduces the paper —
//! see DESIGN.md §7.

pub mod ablation;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod harness;
pub mod ingest;
pub mod report;

pub use harness::Scale;

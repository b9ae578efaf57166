//! STASH tuning knobs.
//!
//! The paper repeatedly notes its thresholds are configurable ("the
//! threshold for the total number of Cells allowed in STASH is configurable
//! and limited", §V-C; "a configurable threshold" for hotspot detection,
//! §VII-B1; cooldown and purge periods, §VII-D). This struct gathers all of
//! them with defaults scaled for the laptop-size simulated cluster.

use stash_model::SketchSpec;

/// How a hotspotted node picks candidate helper nodes (§VII-B3 vs the
/// random-helper ablation of DESIGN.md §8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HelperSelection {
    /// The paper's scheme: the node owning the geohash antipode of the
    /// Clique root, maximally isolated from the hotspotted region.
    Antipode,
    /// Ablation: a pseudo-random other node.
    Random,
}

/// Configuration of one node's STASH instance.
#[derive(Debug, Clone)]
pub struct StashConfig {
    // -- Cell replacement (§V-C) -------------------------------------------
    /// Maximum Cells held in the local graph before replacement kicks in.
    pub max_cells: usize,
    /// Replacement evicts lowest-freshness Cells until the count drops to
    /// `max_cells * safe_fraction` (the paper's "safe limit").
    pub safe_fraction: f64,
    /// Fraction of [`StashConfig::F_INC`] dispersed to the region's
    /// spatiotemporal neighborhood (the grey cells of Fig. 3).
    pub neighbor_fraction: f64,
    /// Logical-time constant of the exponential freshness decay: a Cell
    /// untouched for `decay_tau` clock ticks retains 1/e of its score.
    pub decay_tau: f64,

    // -- Query evaluation ----------------------------------------------------
    /// Derive missing coarse Cells by merging cached children (§V-B
    /// condition (b)). Disabled only by the ablation benches.
    pub enable_derivation: bool,
    /// Byte budget of the per-node decoded-frame cache sitting in front of
    /// the block store (DESIGN.md §12). `0` disables caching.
    pub frame_cache_bytes: usize,
    /// Mergeable sketch state carried per Cell attribute (DESIGN.md §14):
    /// quantile, distinct-count, and heavy-hitter partials folded at block
    /// scans and merged upward with the exact summaries. Disabled by
    /// default; exact-only behavior is bit-for-bit unchanged when off.
    pub sketch: SketchSpec,

    // -- Hotspot handling (§VII) ---------------------------------------------
    /// Pending-request queue length at which a node declares itself
    /// hotspotted (paper's experiments: 100).
    pub hotspot_threshold: usize,
    /// Clique depth: a root plus `clique_depth - 1` spatial refinement
    /// levels below it (paper example: depth 2 = Cell + children).
    pub clique_depth: u8,
    /// Maximum total Cells replicated per handoff (the paper's `N`).
    pub max_replicable_cells: usize,
    /// Probability that a query fully covered by a replica is rerouted to
    /// the helper node (§VII-C "probabilistically rerouted").
    pub reroute_probability: f64,
    /// Logical ticks a node waits after a handoff before it may hand off
    /// again (§VII-D cooldown).
    pub cooldown_ticks: u64,
    /// Guest-graph entries unused for this many ticks are purged (§VII-D).
    pub guest_ttl_ticks: u64,
    /// Routing-table entries older than this are purged (§VII-D "signifying
    /// the retreat of hotspot").
    pub routing_ttl_ticks: u64,
    /// Helper-node selection policy.
    pub helper_selection: HelperSelection,
}

impl Default for StashConfig {
    fn default() -> Self {
        StashConfig {
            max_cells: 200_000,
            safe_fraction: 0.85,
            neighbor_fraction: 0.4,
            decay_tau: 64.0,
            enable_derivation: true,
            frame_cache_bytes: 64 << 20,
            sketch: SketchSpec::disabled(),
            hotspot_threshold: 100,
            clique_depth: 2,
            max_replicable_cells: 4_096,
            reroute_probability: 0.75,
            cooldown_ticks: 32,
            guest_ttl_ticks: 512,
            routing_ttl_ticks: 512,
            helper_selection: HelperSelection::Antipode,
        }
    }
}

impl StashConfig {
    /// Freshness added to each Cell of a directly-accessed region (`f_inc`).
    pub const F_INC: f64 = 1.0;
    /// Maximum Cliques shipped per handoff (the paper's `K`).
    pub const TOP_K_CLIQUES: usize = 8;
    /// Cell capacity of a helper's guest graph.
    pub const GUEST_MAX_CELLS: usize = 100_000;

    /// The replacement target: Cell count after an eviction pass.
    pub fn safe_limit(&self) -> usize {
        ((self.max_cells as f64) * self.safe_fraction).floor() as usize
    }

    /// Check every knob against its valid domain, returning the first
    /// violation as a message. This is the fallible surface the cluster
    /// config builder reports through; [`StashConfig::validate`] wraps it
    /// for runtimes that prefer to fail loudly at startup.
    pub fn check(&self) -> Result<(), String> {
        if self.max_cells == 0 {
            return Err("max_cells must be positive".into());
        }
        if !(0.0..=1.0).contains(&self.safe_fraction) {
            return Err("safe_fraction must be within [0,1]".into());
        }
        if !(0.0..=1.0).contains(&self.neighbor_fraction) {
            return Err("neighbor_fraction must be within [0,1]".into());
        }
        if self.decay_tau <= 0.0 {
            return Err("decay_tau must be positive".into());
        }
        if self.clique_depth < 1 {
            return Err("clique_depth must be at least 1".into());
        }
        if !(0.0..=1.0).contains(&self.reroute_probability) {
            return Err("reroute_probability must be within [0,1]".into());
        }
        if self.max_replicable_cells == 0 {
            return Err("max_replicable_cells must be positive".into());
        }
        self.sketch
            .validate()
            .map_err(|e| format!("sketch spec invalid: {e}"))
    }

    /// Panics if any knob is out of its valid domain. Called by node
    /// runtimes at startup so misconfiguration fails loudly, not subtly.
    pub fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        StashConfig::default().validate();
    }

    #[test]
    fn safe_limit_applies_fraction() {
        let c = StashConfig {
            max_cells: 1000,
            safe_fraction: 0.85,
            ..Default::default()
        };
        assert_eq!(c.safe_limit(), 850);
    }

    #[test]
    #[should_panic(expected = "safe_fraction")]
    fn bad_fraction_rejected() {
        StashConfig {
            safe_fraction: 1.5,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "clique_depth")]
    fn zero_clique_depth_rejected() {
        StashConfig {
            clique_depth: 0,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "sketch spec")]
    fn bad_sketch_spec_rejected() {
        let mut spec = SketchSpec::standard();
        spec.hll_precision = 99;
        StashConfig {
            sketch: spec,
            ..Default::default()
        }
        .validate();
    }

    #[test]
    fn sketch_enabled_defaults_are_valid() {
        StashConfig {
            sketch: SketchSpec::standard(),
            ..Default::default()
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "max_cells")]
    fn zero_capacity_rejected() {
        StashConfig {
            max_cells: 0,
            ..Default::default()
        }
        .validate();
    }
}

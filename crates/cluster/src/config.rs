//! Validated configuration surface for [`ClusterConfig`] (DESIGN.md §17).
//!
//! Historically a cluster was configured by struct-literal update over
//! [`ClusterConfig::default`], with a handful of `assert!`s firing deep in
//! [`crate::SimCluster::new`]. That worked while every field was
//! independently sensible, but continuous rollups introduced *cross-field*
//! invariants (rollup levels against the block geometry, retention against
//! the live set) that are much better rejected at construction time with a
//! typed error than mid-boot with a panic.
//!
//! The builder is the front door: `ClusterConfig::builder()` → typed
//! setters → [`ClusterConfigBuilder::build`], which runs
//! [`ClusterConfig::check`] and returns a [`ConfigError`] naming the first
//! violated invariant class. [`RollupPolicy`] has private fields, so a
//! rollup configuration can *only* enter through its validated
//! constructors — there is no way to hand the cluster an unchecked policy.
//! The fields stay public, so a config can still be written as a struct
//! literal over `Default`, or edited after `build()`; `SimCluster::new`
//! re-runs the same `check()` as the backstop for those, so an unvalidated
//! config still fails loudly.

use crate::cluster::{ClusterConfig, Mode};
use stash_data::{GeneratorConfig, NamGenerator};
use stash_dfs::DiskModel;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange, MAX_GEOHASH_LEN};
use stash_model::Level;
use stash_net::NetConfig;
use std::time::Duration;

/// One rejected invariant class of a cluster configuration. Each variant is
/// a *class* — the carried string names the specific field and value — so
/// callers can branch on what kind of mistake they made (and the tests can
/// pin that every class is actually reachable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// Node count or mode-level shape is unusable (zero nodes, …).
    Topology(String),
    /// A worker tier has no threads.
    Workers(String),
    /// Block/partition geometry is inconsistent (prefix longer than the
    /// block, block longer than a geohash, …).
    Partitioning(String),
    /// Dataset shape is unusable (an attribute count other than the
    /// generator schema's, …).
    Dataset(String),
    /// The live-ingest block set disagrees with the block geometry or the
    /// data domain.
    LiveSet(String),
    /// The embedded [`stash_core::StashConfig`] failed its own checks.
    Stash(String),
    /// The rollup policy disagrees with the cluster it is attached to.
    Rollup(String),
    /// A timeout or backoff is zero.
    Timing(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Topology(m) => write!(f, "topology: {m}"),
            ConfigError::Workers(m) => write!(f, "workers: {m}"),
            ConfigError::Partitioning(m) => write!(f, "partitioning: {m}"),
            ConfigError::Dataset(m) => write!(f, "dataset: {m}"),
            ConfigError::LiveSet(m) => write!(f, "live set: {m}"),
            ConfigError::Stash(m) => write!(f, "stash: {m}"),
            ConfigError::Rollup(m) => write!(f, "rollup: {m}"),
            ConfigError::Timing(m) => write!(f, "timing: {m}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Continuous-rollup policy: which coarse levels to materialize, and
/// optionally a retention horizon below which raw blocks may be dropped
/// (the rollup becomes the authoritative answer there — DESIGN.md §17).
///
/// Fields are private: the only way to obtain an enabled policy is
/// [`RollupPolicy::new`] / [`RollupPolicy::with_retention`], which validate
/// what they can context-free; the cross-field checks against block
/// geometry and mode run in [`ClusterConfig::check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupPolicy {
    /// Sorted, deduplicated rollup levels; empty means disabled.
    levels: Vec<Level>,
    /// Absolute epoch-seconds cutoff: raw blocks whose day ends at or
    /// before this (and before the watermark) are retirable.
    retention_horizon: Option<i64>,
    /// Actually drop retired blocks from the store (`false` keeps raw
    /// data and only *measures* what retention would free).
    downsample: bool,
}

impl Default for RollupPolicy {
    fn default() -> Self {
        RollupPolicy::disabled()
    }
}

impl RollupPolicy {
    /// No rollups (the pre-§17 behavior). `Default` resolves here, which is
    /// what keeps `..ClusterConfig::default()` literals compiling.
    pub fn disabled() -> Self {
        RollupPolicy {
            levels: Vec::new(),
            retention_horizon: None,
            downsample: false,
        }
    }

    /// A rollup policy maintaining Cells at `levels`. Rejects an empty
    /// level set and hour-granularity levels (an hourly "rollup" is as
    /// fine as the raw stream — nothing is rolled up).
    pub fn new(levels: Vec<Level>) -> Result<Self, ConfigError> {
        if levels.is_empty() {
            return Err(ConfigError::Rollup(
                "rollup level set must not be empty (use RollupPolicy::disabled())".into(),
            ));
        }
        if let Some(l) = levels
            .iter()
            .find(|l| l.temporal_res() == TemporalRes::Hour)
        {
            return Err(ConfigError::Rollup(format!(
                "level {l} is hour-granular; rollup levels must be Day or coarser"
            )));
        }
        let mut levels = levels;
        levels.sort_unstable();
        levels.dedup();
        Ok(RollupPolicy {
            levels,
            retention_horizon: None,
            downsample: false,
        })
    }

    /// Enable retention: raw blocks whose day ends at or before
    /// `horizon_epoch_secs` (and before the rollup watermark) become
    /// retirable; with `downsample` they are actually dropped by
    /// [`crate::SimCluster::apply_retention`] and the rollup answers for
    /// them. Errors on a disabled policy — retention without rollup levels
    /// would drop data nothing can answer for.
    pub fn with_retention(
        mut self,
        horizon_epoch_secs: i64,
        downsample: bool,
    ) -> Result<Self, ConfigError> {
        if self.levels.is_empty() {
            return Err(ConfigError::Rollup(
                "retention requires rollup levels: dropped blocks must have an authority".into(),
            ));
        }
        self.retention_horizon = Some(horizon_epoch_secs);
        self.downsample = downsample;
        Ok(self)
    }

    pub fn is_enabled(&self) -> bool {
        !self.levels.is_empty()
    }

    /// Sorted, deduplicated rollup levels (empty when disabled).
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    pub fn retention_horizon(&self) -> Option<i64> {
        self.retention_horizon
    }

    pub fn downsample(&self) -> bool {
        self.downsample
    }
}

impl ClusterConfig {
    /// Start a validated configuration (the front door since DESIGN.md
    /// §17). Setters are typed; [`ClusterConfigBuilder::build`] rejects
    /// inconsistent configurations with a [`ConfigError`].
    pub fn builder() -> ClusterConfigBuilder {
        ClusterConfigBuilder {
            config: ClusterConfig::default(),
        }
    }

    /// Check every construction invariant, returning the first violation.
    /// [`crate::SimCluster::new`] runs this as a backstop, so configurations
    /// assembled by struct literal, or edited after `build()`, are still
    /// rejected — just with a panic instead of a `Result`.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.n_nodes == 0 {
            return Err(ConfigError::Topology(
                "cluster needs at least one node".into(),
            ));
        }
        if self.service_workers == 0 || self.fetch_workers == 0 {
            return Err(ConfigError::Workers(
                "every worker tier needs at least one thread".into(),
            ));
        }
        if self.block_len == 0 || self.block_len > MAX_GEOHASH_LEN {
            return Err(ConfigError::Partitioning(format!(
                "block_len {} not in 1..={MAX_GEOHASH_LEN}",
                self.block_len
            )));
        }
        if self.block_len < ClusterConfig::PARTITION_PREFIX_LEN {
            return Err(ConfigError::Partitioning(format!(
                "block_len {} shorter than the partition prefix ({})",
                self.block_len,
                ClusterConfig::PARTITION_PREFIX_LEN
            )));
        }
        let schema_len = NamGenerator::new(self.generator.clone()).schema().len();
        if self.n_attrs != schema_len {
            return Err(ConfigError::Dataset(format!(
                "n_attrs {} is not the generator schema's {schema_len} attributes",
                self.n_attrs
            )));
        }
        if !(0.0..=1.0).contains(&self.live_base_fraction) {
            return Err(ConfigError::LiveSet(format!(
                "live_base_fraction {} not within [0, 1]",
                self.live_base_fraction
            )));
        }
        for &(geohash, day) in &self.live_blocks {
            if geohash.len() != self.block_len {
                return Err(ConfigError::LiveSet(format!(
                    "live block {geohash} has length {}, expected block_len {}",
                    geohash.len(),
                    self.block_len
                )));
            }
            if day.res != TemporalRes::Day {
                return Err(ConfigError::LiveSet(format!(
                    "live block {geohash} keyed by a {:?} bin; blocks are day-granular",
                    day.res
                )));
            }
            let r = day.range();
            if r.start < self.data_time.start || r.end > self.data_time.end {
                return Err(ConfigError::LiveSet(format!(
                    "live block {geohash} day [{}, {}) outside the data domain [{}, {})",
                    r.start, r.end, self.data_time.start, self.data_time.end
                )));
            }
        }
        self.stash.check().map_err(ConfigError::Stash)?;
        if self.rollup.is_enabled() {
            if self.mode != Mode::Stash {
                return Err(ConfigError::Rollup(
                    "rollups require Mode::Stash (Basic mode always scans raw blocks)".into(),
                ));
            }
            for l in self.rollup.levels() {
                if l.spatial_res() > self.block_len {
                    return Err(ConfigError::Rollup(format!(
                        "level {l} is spatially finer than the block geometry (block_len {}); \
                         rollup levels must be at or coarser than block granularity",
                        self.block_len
                    )));
                }
            }
            if let Some(h) = self.rollup.retention_horizon() {
                if h <= self.data_time.start {
                    return Err(ConfigError::Rollup(format!(
                        "retention horizon {h} at or before the data domain start {}; \
                         nothing would ever be retained",
                        self.data_time.start
                    )));
                }
            }
        }
        if self.sub_rpc_timeout.is_zero() || self.distress_timeout.is_zero() {
            return Err(ConfigError::Timing("rpc timeouts must be positive".into()));
        }
        Ok(())
    }
}

/// Builder over [`ClusterConfig`]: typed setters, cross-field validation in
/// [`ClusterConfigBuilder::build`]. Setters are infallible — all checking
/// happens once, at `build`, where every field is known.
#[derive(Debug, Clone)]
pub struct ClusterConfigBuilder {
    config: ClusterConfig,
}

macro_rules! setter {
    ($(#[$doc:meta])* $name:ident: $ty:ty) => {
        $(#[$doc])*
        pub fn $name(mut self, $name: $ty) -> Self {
            self.config.$name = $name;
            self
        }
    };
}

impl ClusterConfigBuilder {
    setter!(n_nodes: usize);
    setter!(service_workers: usize);
    setter!(fetch_workers: usize);
    setter!(mode: Mode);
    setter!(enable_replication: bool);
    setter!(stash: stash_core::StashConfig);
    setter!(net: NetConfig);
    setter!(disk: DiskModel);
    setter!(block_len: u8);
    setter!(data_bbox: BBox);
    setter!(data_time: TimeRange);
    setter!(generator: GeneratorConfig);
    setter!(scan_cost_per_obs: Duration);
    setter!(cell_service_cost: Duration);
    setter!(sub_rpc_timeout: Duration);
    setter!(distress_timeout: Duration);
    setter!(retry_backoff: Duration);
    setter!(client_retries: u32);
    setter!(live_blocks: Vec<(Geohash, TimeBin)>);
    setter!(live_base_fraction: f64);
    setter!(ingest_patch: bool);
    setter!(
        /// Continuous-rollup policy; [`RollupPolicy`]'s private fields mean
        /// only validated policies can reach this setter.
        rollup: RollupPolicy
    );

    /// Arbitrary transformation escape hatch, for call sites that adjust a
    /// nested field the setters don't name (e.g. one generator knob).
    pub fn tweak(mut self, f: impl FnOnce(&mut ClusterConfig)) -> Self {
        f(&mut self.config);
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<ClusterConfig, ConfigError> {
        self.config.check()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::time::epoch_seconds;
    use std::str::FromStr;

    fn day(y: i64, m: u32, d: u32) -> TimeBin {
        TimeBin::containing(TemporalRes::Day, epoch_seconds(y, m, d, 0, 0, 0))
    }

    fn rollup_levels() -> Vec<Level> {
        vec![
            Level::of(2, TemporalRes::Day).unwrap(),
            Level::of(1, TemporalRes::Month).unwrap(),
        ]
    }

    #[test]
    fn default_checks_clean() {
        assert_eq!(ClusterConfig::default().check(), Ok(()));
    }

    #[test]
    fn builder_rejects_distinct_invalid_classes() {
        // Each case is a different ConfigError variant — the issue's "at
        // least five distinct invalid-config classes" bar, pinned.
        let topology = ClusterConfig::builder().n_nodes(0).build().unwrap_err();
        assert!(matches!(topology, ConfigError::Topology(_)), "{topology}");

        let workers = ClusterConfig::builder()
            .service_workers(0)
            .build()
            .unwrap_err();
        assert!(matches!(workers, ConfigError::Workers(_)), "{workers}");
        assert!(workers.to_string().contains("worker tier"));

        let partitioning = ClusterConfig::builder().block_len(1).build().unwrap_err();
        assert!(
            matches!(partitioning, ConfigError::Partitioning(_)),
            "{partitioning}"
        );

        // The attribute count is the generator schema's (4), and no other.
        for n_attrs in [0, 3, 5] {
            let dataset = ClusterConfig::builder()
                .tweak(|c| c.n_attrs = n_attrs)
                .build()
                .unwrap_err();
            assert!(matches!(dataset, ConfigError::Dataset(_)), "{dataset}");
        }

        let live = ClusterConfig::builder()
            .live_blocks(vec![(Geohash::from_str("9q").unwrap(), day(2015, 2, 2))])
            .build()
            .unwrap_err();
        assert!(matches!(live, ConfigError::LiveSet(_)), "{live}");

        let stash = ClusterConfig::builder()
            .tweak(|c| c.stash.safe_fraction = 2.0)
            .build()
            .unwrap_err();
        assert!(matches!(stash, ConfigError::Stash(_)), "{stash}");

        let timing = ClusterConfig::builder()
            .sub_rpc_timeout(Duration::ZERO)
            .build()
            .unwrap_err();
        assert!(matches!(timing, ConfigError::Timing(_)), "{timing}");
    }

    #[test]
    fn rollup_policy_constructors_validate() {
        assert!(!RollupPolicy::disabled().is_enabled());
        assert!(RollupPolicy::new(Vec::new()).is_err());
        let hourly = Level::of(3, TemporalRes::Hour).unwrap();
        assert!(RollupPolicy::new(vec![hourly]).is_err());
        assert!(RollupPolicy::disabled()
            .with_retention(epoch_seconds(2015, 6, 1, 0, 0, 0), true)
            .is_err());

        let p = RollupPolicy::new(rollup_levels()).unwrap();
        assert!(p.is_enabled());
        assert_eq!(p.levels().len(), 2);
        assert!(p.retention_horizon().is_none());
        let p = p
            .with_retention(epoch_seconds(2015, 6, 1, 0, 0, 0), true)
            .unwrap();
        assert!(p.downsample());
        assert!(p.retention_horizon().is_some());
    }

    #[test]
    fn rollup_levels_are_sorted_and_deduped() {
        let month = Level::of(1, TemporalRes::Month).unwrap();
        let d2 = Level::of(2, TemporalRes::Day).unwrap();
        let p = RollupPolicy::new(vec![month, d2, month]).unwrap();
        let mut expect = [month, d2];
        expect.sort_unstable();
        assert_eq!(p.levels(), &expect[..]);
    }

    #[test]
    fn rollup_cross_field_checks_run_at_build() {
        let policy = RollupPolicy::new(rollup_levels()).unwrap();
        // Basic mode never consults rollups — configuring both is a
        // contradiction, rejected.
        let basic = ClusterConfig::builder()
            .mode(Mode::Basic)
            .rollup(policy.clone())
            .build()
            .unwrap_err();
        assert!(matches!(basic, ConfigError::Rollup(_)), "{basic}");

        // A level spatially finer than the block is not a rollup.
        let fine = RollupPolicy::new(vec![Level::of(5, TemporalRes::Day).unwrap()]).unwrap();
        let err = ClusterConfig::builder()
            .block_len(3)
            .rollup(fine)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Rollup(_)), "{err}");

        // A horizon before any data exists retains nothing — reject it.
        let hopeless = policy
            .clone()
            .with_retention(epoch_seconds(2014, 1, 1, 0, 0, 0), true)
            .unwrap();
        let err = ClusterConfig::builder()
            .rollup(hopeless)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::Rollup(_)), "{err}");

        // And the well-formed case builds.
        let good = policy
            .with_retention(epoch_seconds(2015, 6, 1, 0, 0, 0), true)
            .unwrap();
        ClusterConfig::builder().rollup(good).build().unwrap();
    }
}

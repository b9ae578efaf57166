//! Configuration for sketch-valued Cells.
//!
//! The spec is carried inside `StashConfig` and threaded down to the scan
//! kernel, so every sketch in a deployment is built with identical
//! parameters — a precondition for merging (sketches panic on config
//! mismatch, mirroring the schema-mismatch panic of the exact summaries).

/// Knobs for the per-attribute sketch bundle. `enabled: false` (the
/// default) keeps Cells exact-only and bit-for-bit identical to a build
/// without this crate.
#[derive(Debug, Clone, PartialEq)]
pub struct SketchSpec {
    /// Master switch; when off, no sketch state is allocated anywhere.
    pub enabled: bool,
    /// Initial relative-error target of the quantile sketch.
    pub quantile_alpha: f64,
    /// Log-bucket budget of the quantile sketch; compaction keeps the table
    /// at or below this, widening the error bound instead of growing.
    pub quantile_max_buckets: usize,
    /// log₂ of the HLL register count (error ≈ 1.04/√2^p).
    pub hll_precision: u8,
    /// Count-min matrix width (overcount bound 2·total/width).
    pub cm_width: usize,
    /// Count-min matrix depth (bound failure probability 2^−depth).
    pub cm_depth: usize,
    /// Heavy-hitter candidate-list cap; exact merge invariance holds while
    /// the distinct values per attribute stay within it.
    pub hh_candidates: usize,
}

/// Most values a bundle ever holds raw, whatever the candidate cap.
pub(crate) const RAW_MAX: usize = 64;

/// [`SketchSpec::raw_cap`] for a candidate cap.
#[inline]
pub(crate) fn raw_cap(hh_candidates: usize) -> usize {
    (hh_candidates / 2).min(RAW_MAX)
}

impl Default for SketchSpec {
    fn default() -> Self {
        SketchSpec::disabled()
    }
}

impl SketchSpec {
    /// Exact-only mode: no sketches anywhere (the default).
    pub fn disabled() -> Self {
        SketchSpec {
            enabled: false,
            ..SketchSpec::standard()
        }
    }

    /// Sketches on, with parameters sized for the simulated NAM workload:
    /// ~1% quantile error, ~6.5% distinct-count error, and a heavy-hitter
    /// cap that covers unit-quantized NAM attributes exactly.
    pub fn standard() -> Self {
        SketchSpec {
            enabled: true,
            quantile_alpha: 0.01,
            quantile_max_buckets: 64,
            hll_precision: 8,
            cm_width: 64,
            cm_depth: 3,
            hh_candidates: 256,
        }
    }

    /// Values a bundle built under this spec holds raw before it folds
    /// them into its sketches: `min(64, hh_candidates / 2)`. Derived, not
    /// a knob. The half keeps every promotion — a raw run, or two merged
    /// runs of at most this many each — inside the candidate cap, where
    /// the sketches are a pure function of the values (DESIGN.md §14).
    pub fn raw_cap(&self) -> usize {
        raw_cap(self.hh_candidates)
    }

    /// Validate parameter ranges (mirrors the panics of the sketch
    /// constructors, but as a `Result` for config loading).
    pub fn validate(&self) -> Result<(), String> {
        if !(self.quantile_alpha > 0.0 && self.quantile_alpha < 1.0) {
            return Err("sketch.quantile_alpha must be in (0, 1)".into());
        }
        if self.quantile_max_buckets < 4 {
            return Err("sketch.quantile_max_buckets must be at least 4".into());
        }
        if !(4..=16).contains(&self.hll_precision) {
            return Err("sketch.hll_precision must be in 4..=16".into());
        }
        if self.cm_width < 8 {
            return Err("sketch.cm_width must be at least 8".into());
        }
        if !(1..=8).contains(&self.cm_depth) {
            return Err("sketch.cm_depth must be in 1..=8".into());
        }
        if self.hh_candidates == 0 {
            return Err("sketch.hh_candidates must be positive".into());
        }
        // A raw bundle's wire header packs these three in 32 bits each.
        for (name, v) in [
            ("quantile_max_buckets", self.quantile_max_buckets),
            ("cm_width", self.cm_width),
            ("hh_candidates", self.hh_candidates),
        ] {
            if u32::try_from(v).is_err() {
                return Err(format!("sketch.{name} must fit in 32 bits"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_valid() {
        let spec = SketchSpec::default();
        assert!(!spec.enabled);
        assert!(spec.validate().is_ok());
        assert!(SketchSpec::standard().validate().is_ok());
    }

    #[test]
    fn raw_cap_is_half_the_candidate_cap_up_to_64() {
        assert_eq!(SketchSpec::standard().raw_cap(), 64);
        for (cap, raw) in [(1, 0), (2, 1), (100, 50), (128, 64), (4096, 64)] {
            let spec = SketchSpec {
                hh_candidates: cap,
                ..SketchSpec::standard()
            };
            assert_eq!(spec.raw_cap(), raw, "hh_candidates {cap}");
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        for f in [
            |s: &mut SketchSpec| s.quantile_alpha = 1.5,
            |s: &mut SketchSpec| s.quantile_max_buckets = 2,
            |s: &mut SketchSpec| s.hll_precision = 30,
            |s: &mut SketchSpec| s.cm_width = 1,
            |s: &mut SketchSpec| s.cm_depth = 0,
            |s: &mut SketchSpec| s.hh_candidates = 0,
            |s: &mut SketchSpec| s.cm_width = 1 << 32,
            |s: &mut SketchSpec| s.quantile_max_buckets = 1 << 33,
            |s: &mut SketchSpec| s.hh_candidates = usize::MAX,
        ] {
            let mut spec = SketchSpec::standard();
            f(&mut spec);
            assert!(spec.validate().is_err());
        }
    }
}

//! Batched fold support: per-value preparation shared across fold targets.
//!
//! The scan kernel folds every valid row into one sketch bundle *per
//! resolution group* (typically ~5). A naive per-push fold therefore
//! recomputes the value's `ln` (quantile bucket index), its 64-bit hash
//! (HLL), and its count-min columns once per group — pure functions of the
//! value and the [`SketchSpec`], not of the receiving sketch. A [`FoldCtx`]
//! hoists all of that into a single [`FoldCtx::prepare`] call per
//! `(row, attribute)`, and the sketches accept the precomputed
//! [`PreparedValue`] instead:
//!
//! * [`AttrSketches::push_prepared_batch`](crate::AttrSketches::push_prepared_batch)
//!   applies the HLL register updates and the heavy-hitter matrix/candidate
//!   updates of a run — the two order-sensitive folds, which must still run
//!   per cell in row order to stay bit-identical to a direct per-cell fold;
//! * the quantile update is *batched*: the caller tallies the run's
//!   [`PreparedValue::quantile_key`]s once and the bundle applies each
//!   `(key, count)` pair once via
//!   [`UddSketch::add_packed`](crate::UddSketch::add_packed). The quantile
//!   sketch's canonical compaction level makes its state a pure function of
//!   the inserted multiset, so batching (and the reordering it implies) is
//!   exact, not approximate.
//!
//! A bundle still in its raw form (DESIGN.md §14) needs neither: the kernel
//! appends the values themselves
//! ([`AttrSketches::try_extend_raw`](crate::AttrSketches::try_extend_raw))
//! and prepares a slot's values only for targets that hold sketches.
//!
//! Folding a prepared value is bit-for-bit identical to calling the plain
//! `push` entry points with the original `f64` — pinned by the
//! `prepared_fold_matches_push_fold` proptest.

use crate::hash::{canonical_bits, splitmix64};
use crate::spec::SketchSpec;

/// Maximum count-min depth (mirrors the `HeavyHitters` constructor bound);
/// sizes the fixed column array in [`PreparedValue`].
const MAX_CM_DEPTH: usize = 8;

/// Everything the three sketches need to fold one value, computed once.
///
/// Cheap to copy; build one per `(row, attribute)` and reuse it for every
/// resolution group the row lands in.
#[derive(Debug, Clone, Copy, Default)]
pub struct PreparedValue {
    /// Canonical bit pattern of the value (`-0.0` → `0.0`, NaNs collapsed).
    pub(crate) bits: u64,
    /// `splitmix64(bits)` — the HLL routing hash.
    pub(crate) hash: u64,
    /// Packed level-0 quantile bucket key (see [`UddSketch::add_packed`]).
    ///
    /// [`UddSketch::add_packed`]: crate::UddSketch::add_packed
    udd_key: i64,
    /// Count-min column per matrix row, for `d < cm_depth`.
    pub(crate) cols: [u32; MAX_CM_DEPTH],
}

impl PreparedValue {
    /// The packed quantile bucket key — the scratch-table key for batched
    /// quantile updates. Equal values always produce equal keys, and the
    /// key is independent of any sketch's current compaction level.
    #[inline]
    pub fn quantile_key(&self) -> i64 {
        self.udd_key
    }
}

/// Precomputed fold constants for one [`SketchSpec`]. Build once per scan.
#[derive(Debug, Clone)]
pub struct FoldCtx {
    /// `ln γ₀` of the quantile sketch — computed with the exact expression
    /// `UddSketch` uses so bucket indices match bit-for-bit.
    ln_gamma0: f64,
    cm_width: u64,
    cm_depth: usize,
}

impl FoldCtx {
    /// Fold constants for sketches configured per `spec`.
    pub fn new(spec: &SketchSpec) -> Self {
        FoldCtx::with(spec.quantile_alpha, spec.cm_width, spec.cm_depth)
    }

    /// Fold constants for a quantile α and a `cm_width × cm_depth`
    /// count-min matrix.
    pub(crate) fn with(quantile_alpha: f64, cm_width: usize, cm_depth: usize) -> Self {
        FoldCtx {
            ln_gamma0: ((1.0 + quantile_alpha) / (1.0 - quantile_alpha)).ln(),
            cm_width: cm_width as u64,
            cm_depth: cm_depth.min(MAX_CM_DEPTH),
        }
    }

    /// Prepare one value: canonicalize, hash, bucket-index, and count-min
    /// columns — every per-value computation the fold repeats per group.
    #[inline]
    pub fn prepare(&self, value: f64) -> PreparedValue {
        let bits = canonical_bits(value);
        let mut cols = [0u32; MAX_CM_DEPTH];
        // Same column math as `HeavyHitters::column`, including its
        // power-of-two mask fast path.
        let pow2 = self.cm_width.is_power_of_two();
        for (d, col) in cols.iter_mut().enumerate().take(self.cm_depth) {
            let h = splitmix64(bits ^ (0xC0FF_EE00 + d as u64));
            *col = if pow2 {
                (h & (self.cm_width - 1)) as u32
            } else {
                (h % self.cm_width) as u32
            };
        }
        PreparedValue {
            bits,
            hash: splitmix64(bits),
            udd_key: crate::quantile::packed_key(self.ln_gamma0, value),
            cols,
        }
    }
}

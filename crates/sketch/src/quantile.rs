//! UDDSketch-style quantile sketch with a canonical compaction level.
//!
//! Values are binned into logarithmic buckets: a positive value `v` falls in
//! bucket `⌈ln v / ln γ⌉`, giving every bucket a bounded *relative* width and
//! hence a bounded relative error `α = (γ−1)/(γ+1)` on any quantile
//! estimate. When the bucket table outgrows its budget the sketch *compacts*:
//! γ is squared and bucket `i` maps to `⌈i/2⌉`, halving resolution and
//! doubling coverage (the Uniform DDSketch collapse rule).
//!
//! The crucial property for STASH is **merge-order invariance**. The sketch
//! always compacts down to the *minimal* level whose bucket count fits the
//! budget, and bucket indices at level `k` are derived from level-0 indices
//! by exact integer ceil-division (`⌈i₀ / 2^k⌉`), never by re-binning floats
//! at the coarser γ. Because the occupied-bucket count at any level is
//! monotone under multiset union, that minimal level — and therefore the
//! entire state — is a pure function of the inserted multiset. Any merge
//! tree over any partition of the data produces bit-identical state, which
//! is what lets cached hierarchical roll-ups answer percentile queries
//! exactly as if the raw observations had been folded directly.
//!
//! The bucket table is an open-addressed hash map, not an ordered tree:
//! `push` is the scan kernel's per-row hot path, and a linear-probe table
//! turns the ~log-depth pointer chase per insert into one hash and a short
//! probe. Order only matters at the edges — serialization, merge, quantile
//! walks — so the table canonicalizes to sorted `(index, count)` pairs
//! there, keeping the wire form and equality bit-deterministic.

use crate::error::MergeError;
use crate::hash::splitmix64;
use stash_flat::{FlatError, WordReader, WordWriter};

/// A quantile estimate plus the guarantee it came with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileEstimate {
    /// The estimated quantile value.
    pub value: f64,
    /// Maximum relative error of `value` at the sketch's current compaction
    /// level: the true quantile `v` satisfies `|value − v| ≤ bound · |v|`.
    pub relative_error: f64,
    /// Number of observations the estimate aggregates.
    pub count: u64,
}

/// Open-addressed `i64 → u64` counter table with power-of-two capacity and
/// linear probing. Occupancy is marked by a non-zero count (bucket counts
/// are always ≥ 1), so no separate tombstone/occupied bitmap is needed.
/// Iteration order is unspecified; callers needing determinism use
/// [`BucketMap::sorted`].
#[derive(Debug, Clone, Default)]
pub(crate) struct BucketMap {
    keys: Vec<i64>,
    counts: Vec<u64>,
    len: usize,
}

impl BucketMap {
    const MIN_CAPACITY: usize = 16;

    pub(crate) fn new() -> Self {
        BucketMap::default()
    }

    /// Occupied bucket count.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn slot_of(&self, key: i64) -> usize {
        debug_assert!(!self.counts.is_empty());
        let mask = self.counts.len() - 1;
        let mut slot = splitmix64(key as u64) as usize & mask;
        while self.counts[slot] != 0 && self.keys[slot] != key {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Add `delta` (> 0) to `key`'s count, inserting the bucket if absent.
    /// Counts saturate instead of wrapping: long-lived rollups can push a
    /// bucket past `u64::MAX`, and a wrapped count of 0 would corrupt the
    /// occupancy encoding.
    pub(crate) fn add(&mut self, key: i64, delta: u64) {
        debug_assert!(delta > 0);
        // Keep load at or below 7/8 so probes stay short.
        if (self.len + 1) * 8 > self.counts.len() * 7 {
            self.grow();
        }
        let slot = self.slot_of(key);
        if self.counts[slot] == 0 {
            self.keys[slot] = key;
            self.len += 1;
        }
        self.counts[slot] = self.counts[slot].saturating_add(delta);
    }

    fn grow(&mut self) {
        let new_cap = (self.counts.len() * 2).max(Self::MIN_CAPACITY);
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_cap]);
        let old_counts = std::mem::replace(&mut self.counts, vec![0; new_cap]);
        for (key, count) in old_keys.into_iter().zip(old_counts) {
            if count != 0 {
                let slot = self.slot_of(key);
                self.keys[slot] = key;
                self.counts[slot] += count;
            }
        }
    }

    /// All `(key, count)` pairs in unspecified order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.keys
            .iter()
            .zip(&self.counts)
            .filter(|(_, &c)| c != 0)
            .map(|(&k, &c)| (k, c))
    }

    /// Canonical form: `(key, count)` pairs sorted by key ascending.
    pub(crate) fn sorted(&self) -> Vec<(i64, u64)> {
        let mut pairs: Vec<(i64, u64)> = self.iter().collect();
        pairs.sort_unstable_by_key(|&(k, _)| k);
        pairs
    }

    /// Sum of all counts (saturating).
    pub(crate) fn total(&self) -> u64 {
        self.counts.iter().fold(0u64, |a, &c| a.saturating_add(c))
    }

    /// Table capacity in slots, for memory accounting.
    pub(crate) fn capacity(&self) -> usize {
        self.counts.len()
    }
}

/// Mergeable quantile sketch (the partial state of the two-step aggregate).
#[derive(Debug, Clone)]
pub struct UddSketch {
    /// Initial (finest) relative error target; γ₀ = (1+α₀)/(1−α₀).
    alpha: f64,
    /// Bucket budget; compaction keeps `neg.len() + pos.len()` at or below
    /// this.
    max_buckets: usize,
    /// Compaction level `k`; the effective base is γ₀^(2^k).
    compactions: u32,
    /// Exact count of zero-valued observations (zero has no log bucket).
    zero_count: u64,
    /// Buckets of negative values, keyed by the level-`k` index of `|v|`.
    neg: BucketMap,
    /// Buckets of positive values, keyed by the level-`k` index of `v`.
    pos: BucketMap,
}

/// Two sketches are equal when their canonical states match; the hash
/// tables' internal layouts (capacity, probe order) are irrelevant.
impl PartialEq for UddSketch {
    fn eq(&self, other: &Self) -> bool {
        self.alpha == other.alpha
            && self.max_buckets == other.max_buckets
            && self.compactions == other.compactions
            && self.zero_count == other.zero_count
            && self.neg.sorted() == other.neg.sorted()
            && self.pos.sorted() == other.pos.sorted()
    }
}

/// Integer ceil-division for a positive divisor, exact for all signs.
#[inline]
fn ceil_div(a: i64, b: i64) -> i64 {
    // Every caller passes a positive power of two (`1 << compactions`,
    // merge shifts, `2` during compaction), so Euclidean division is an
    // arithmetic shift — no hardware divide in the per-bucket hot path.
    debug_assert!(b > 0 && (b as u64).is_power_of_two());
    (a + b - 1) >> b.trailing_zeros()
}

/// Pack a value's *level-0* bucket assignment into one `i64` key, for
/// batched folds ([`UddSketch::add_packed`]): `0` for the zero/NaN bucket,
/// otherwise `(base_index << 2) | side` with `side = 0b01` for positive and
/// `0b11` for negative values. The shift is wrapping, so packing stays
/// panic-free for absurd α (which saturates `base_index`); it is injective
/// for `|base_index| < 2⁶¹`, far beyond any index a finite `f64` magnitude
/// can produce at a sane α.
///
/// `ln_gamma0` must be `((1 + α)/(1 − α)).ln()` — the exact expression
/// `UddSketch` evaluates — so the packed index is bit-identical to what
/// [`UddSketch::push`] would compute.
#[inline]
pub(crate) fn packed_key(ln_gamma0: f64, value: f64) -> i64 {
    if value == 0.0 || value.is_nan() {
        return 0;
    }
    let magnitude = value.abs();
    let base = (magnitude.ln() / ln_gamma0).ceil() as i64;
    let side = if value > 0.0 { 0b01 } else { 0b11 };
    base.wrapping_shl(2) | side
}

impl UddSketch {
    /// An empty sketch targeting relative error `alpha` with at most
    /// `max_buckets` log buckets.
    ///
    /// # Panics
    /// Panics if `alpha` is outside `(0, 1)` or `max_buckets < 4`.
    pub fn new(alpha: f64, max_buckets: usize) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "quantile alpha must be in (0, 1)"
        );
        assert!(max_buckets >= 4, "quantile sketch needs at least 4 buckets");
        UddSketch {
            alpha,
            max_buckets,
            compactions: 0,
            zero_count: 0,
            neg: BucketMap::new(),
            pos: BucketMap::new(),
        }
    }

    /// ln γ₀ for the configured α₀.
    #[inline]
    fn ln_gamma0(&self) -> f64 {
        ((1.0 + self.alpha) / (1.0 - self.alpha)).ln()
    }

    /// Effective γ at the current compaction level.
    #[inline]
    fn gamma(&self) -> f64 {
        (self.ln_gamma0() * 2f64.powi(self.compactions as i32)).exp()
    }

    /// Level-0 bucket index of a positive magnitude. Always computed at the
    /// finest level so coarser indices can be derived by exact integer
    /// arithmetic (see module docs).
    #[inline]
    fn base_index(&self, magnitude: f64) -> i64 {
        (magnitude.ln() / self.ln_gamma0()).ceil() as i64
    }

    /// Index of a magnitude at the current compaction level.
    #[inline]
    fn index(&self, magnitude: f64) -> i64 {
        ceil_div(self.base_index(magnitude), 1i64 << self.compactions.min(62))
    }

    /// Fold one observation in.
    pub fn push(&mut self, value: f64) {
        if value == 0.0 || value.is_nan() {
            // NaNs carry no orderable information; count them with zero so
            // totals still reconcile with the exact summaries.
            self.zero_count = self.zero_count.saturating_add(1);
        } else if value > 0.0 {
            let i = self.index(value);
            self.pos.add(i, 1);
        } else {
            let i = self.index(-value);
            self.neg.add(i, 1);
        }
        self.compact_to_budget();
    }

    /// Fold `count` observations that share one packed level-0 bucket key
    /// (from `packed_key` via
    /// [`FoldCtx::prepare`](crate::FoldCtx::prepare)) in one step —
    /// bit-identical to `count` repeated [`push`](Self::push) calls of any
    /// value in that bucket, because the sketch's state is a pure function
    /// of the inserted (bucket, count) multiset.
    pub fn add_packed(&mut self, key: i64, count: u64) {
        if count == 0 {
            return;
        }
        if key == 0 {
            self.zero_count = self.zero_count.saturating_add(count);
        } else {
            // Arithmetic shift recovers the signed level-0 index.
            let base = key >> 2;
            let i = ceil_div(base, 1i64 << self.compactions.min(62));
            if key & 0b10 == 0 {
                self.pos.add(i, count);
            } else {
                self.neg.add(i, count);
            }
        }
        self.compact_to_budget();
    }

    /// `(alpha, max_buckets)`: the configuration a merge must match.
    pub(crate) fn config(&self) -> (f64, usize) {
        (self.alpha, self.max_buckets)
    }

    /// Refuse to merge differently-configured sketches (see
    /// [`try_merge`](Self::try_merge)).
    pub(crate) fn check_config(&self, other: &UddSketch) -> Result<(), MergeError> {
        if self.alpha == other.alpha && self.max_buckets == other.max_buckets {
            Ok(())
        } else {
            Err(MergeError::ConfigMismatch { sketch: "quantile" })
        }
    }

    /// Merge another sketch into this one. Commutative and associative with
    /// bit-identical results (canonical compaction level, see module docs).
    /// On a configuration mismatch — reachable with wire-delivered partials
    /// from a misconfigured peer — returns an error and leaves `self`
    /// untouched.
    pub fn try_merge(&mut self, other: &UddSketch) -> Result<(), MergeError> {
        self.check_config(other)?;
        while self.compactions < other.compactions {
            self.compact();
        }
        let shift = 1i64 << (self.compactions - other.compactions).min(62);
        for (i, c) in other.neg.iter() {
            self.neg.add(ceil_div(i, shift), c);
        }
        for (i, c) in other.pos.iter() {
            self.pos.add(ceil_div(i, shift), c);
        }
        self.zero_count = self.zero_count.saturating_add(other.zero_count);
        self.compact_to_budget();
        Ok(())
    }

    /// Merge another sketch into this one.
    ///
    /// # Panics
    /// Panics if the two sketches were configured differently; use
    /// [`try_merge`](Self::try_merge) when the other side arrived over the
    /// wire.
    pub fn merge(&mut self, other: &UddSketch) {
        if let Err(e) = self.try_merge(other) {
            panic!("{e} (UddSketch::merge)");
        }
    }

    /// One compaction step: γ ← γ², bucket `i` → `⌈i/2⌉`.
    fn compact(&mut self) {
        self.compactions += 1;
        for side in [&mut self.neg, &mut self.pos] {
            let old = std::mem::take(side);
            for (i, c) in old.iter() {
                side.add(ceil_div(i, 2), c);
            }
        }
    }

    /// Compact until the bucket table fits the budget. At most ~60 levels
    /// are ever needed: by then every magnitude collapses into two buckets
    /// per sign.
    fn compact_to_budget(&mut self) {
        while self.neg.len() + self.pos.len() > self.max_buckets {
            self.compact();
        }
    }

    /// Total observations folded in (saturating).
    pub fn count(&self) -> u64 {
        self.zero_count
            .saturating_add(self.neg.total())
            .saturating_add(self.pos.total())
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Current maximum relative error `α_k = (γ_k − 1)/(γ_k + 1)`; grows
    /// with each compaction, starting at the configured α₀.
    pub fn error_bound(&self) -> f64 {
        let g = self.gamma();
        (g - 1.0) / (g + 1.0)
    }

    /// The accessor: estimate the `q`-quantile (`q` clamped to `[0, 1]`).
    /// `None` on an empty sketch.
    pub fn quantile(&self, q: f64) -> Option<QuantileEstimate> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        // 0-indexed rank of the requested quantile.
        let rank = ((total - 1) as f64 * q.clamp(0.0, 1.0)).floor() as u64;
        let gamma = self.gamma();
        // Representative of bucket `i`: 2γ^i/(γ+1), the point whose worst
        // relative error over the bucket (γ^(i−1), γ^i] is exactly
        // (γ−1)/(γ+1) — the bound reported alongside the estimate.
        let rep = |i: i64| gamma.powf(i as f64) * 2.0 / (gamma + 1.0);
        let mut cum = 0u64;
        // Ascending value order: negatives from largest magnitude down,
        // then zero, then positives from smallest magnitude up.
        for (i, c) in self.neg.sorted().into_iter().rev() {
            cum += c;
            if cum > rank {
                return Some(self.estimate(-rep(i), total));
            }
        }
        cum += self.zero_count;
        if cum > rank {
            return Some(self.estimate(0.0, total));
        }
        for (i, c) in self.pos.sorted() {
            cum += c;
            if cum > rank {
                return Some(self.estimate(rep(i), total));
            }
        }
        // Unreachable when counts are consistent; defend anyway.
        None
    }

    fn estimate(&self, value: f64, count: u64) -> QuantileEstimate {
        QuantileEstimate {
            value,
            relative_error: self.error_bound(),
            count,
        }
    }

    /// Approximate in-memory footprint, for cache budgets.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<UddSketch>() + (self.neg.capacity() + self.pos.capacity()) * 16
    }

    /// Exact serialized footprint: the flat wire form's byte length.
    pub fn wire_bytes(&self) -> usize {
        self.flat_words() * 8
    }

    /// Words of this sketch's flat encoding (DESIGN.md §15): a 6-word
    /// header (α bits, budget, level, zero count, two side lengths) plus
    /// two `(index, count)` pair runs in canonical sorted order.
    pub fn flat_words(&self) -> usize {
        6 + 2 * (self.neg.len() + self.pos.len())
    }

    /// Append the flat wire form to `w`. Equal sketches encode to
    /// identical words (canonical sorted bucket order).
    pub fn flat_encode(&self, w: &mut WordWriter) {
        w.push_f64(self.alpha);
        w.push_u64(self.max_buckets as u64);
        w.push_u64(self.compactions as u64);
        w.push_u64(self.zero_count);
        w.push_u64(self.neg.len() as u64);
        w.push_u64(self.pos.len() as u64);
        for (i, c) in self.neg.sorted().into_iter().chain(self.pos.sorted()) {
            w.push_i64(i);
            w.push_u64(c);
        }
    }

    /// Decode a flat wire form, validating every invariant the constructor
    /// and canonical form guarantee. Never panics on corrupt input.
    pub fn flat_decode(r: &mut WordReader) -> Result<Self, FlatError> {
        let alpha = r.f64()?;
        let max_buckets = r.u64()? as usize;
        let compactions = r.u64()?;
        let zero_count = r.u64()?;
        let neg_len = r.u64()? as usize;
        let pos_len = r.u64()? as usize;
        if !(alpha > 0.0 && alpha < 1.0) || max_buckets < 4 {
            return Err(FlatError::Corrupt("invalid quantile sketch config"));
        }
        if compactions > 62 {
            return Err(FlatError::Corrupt("quantile compaction level out of range"));
        }
        if neg_len.saturating_add(pos_len) > max_buckets {
            return Err(FlatError::Corrupt("quantile bucket count exceeds budget"));
        }
        let mut side = |n: usize| -> Result<BucketMap, FlatError> {
            let mut m = BucketMap::new();
            let mut prev: Option<i64> = None;
            for _ in 0..n {
                let i = r.i64()?;
                let c = r.u64()?;
                if prev.is_some_and(|p| p >= i) {
                    return Err(FlatError::Corrupt("quantile buckets not sorted"));
                }
                if c == 0 {
                    return Err(FlatError::Corrupt("quantile bucket with zero count"));
                }
                prev = Some(i);
                m.add(i, c);
            }
            Ok(m)
        };
        let neg = side(neg_len)?;
        let pos = side(pos_len)?;
        Ok(UddSketch {
            alpha,
            max_buckets,
            compactions: compactions as u32,
            zero_count,
            neg,
            pos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: &[f64]) -> UddSketch {
        let mut s = UddSketch::new(0.01, 64);
        for &v in values {
            s.push(v);
        }
        s
    }

    fn exact_quantile(values: &[f64], q: f64) -> f64 {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = ((sorted.len() - 1) as f64 * q).floor() as usize;
        sorted[rank]
    }

    #[test]
    fn empty_has_no_quantile() {
        assert_eq!(UddSketch::new(0.01, 64).quantile(0.5), None);
    }

    #[test]
    fn bucket_map_counts_and_canonicalizes() {
        let mut m = BucketMap::new();
        for round in 1..=3u64 {
            for key in [-5i64, 0, 7, 1000, -5] {
                m.add(key, round);
            }
        }
        assert_eq!(m.len(), 4);
        assert_eq!(m.total(), 5 * (1 + 2 + 3));
        assert_eq!(
            m.sorted(),
            vec![(-5, 12), (0, 6), (7, 6), (1000, 6)],
            "sorted form is canonical"
        );
    }

    #[test]
    fn bucket_map_survives_growth() {
        let mut m = BucketMap::new();
        for key in 0..500i64 {
            m.add(key * 3 - 700, 2);
        }
        assert_eq!(m.len(), 500);
        assert_eq!(m.total(), 1000);
        let sorted = m.sorted();
        assert!(sorted.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn estimates_respect_relative_error() {
        let values: Vec<f64> = (1..=500).map(|i| (i as f64) * 0.37 + 0.1).collect();
        let s = sketch_of(&values);
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.99, 1.0] {
            let est = s.quantile(q).unwrap();
            let exact = exact_quantile(&values, q);
            assert!(
                (est.value - exact).abs() <= est.relative_error * exact.abs() + 1e-9,
                "q={q}: est {} vs exact {exact} (bound {})",
                est.value,
                est.relative_error
            );
        }
    }

    #[test]
    fn handles_mixed_signs_and_zero() {
        let values = [-10.0, -1.0, 0.0, 0.0, 1.0, 10.0, 100.0];
        let s = sketch_of(&values);
        assert_eq!(s.count(), 7);
        let med = s.quantile(0.5).unwrap();
        assert_eq!(med.value, 0.0);
        assert!(s.quantile(0.0).unwrap().value < 0.0);
        assert!(s.quantile(1.0).unwrap().value > 90.0);
    }

    #[test]
    fn merge_is_bit_identical_to_whole_fold() {
        let values: Vec<f64> = (0..300).map(|i| ((i * 37) % 100) as f64 - 50.0).collect();
        for split in [0, 1, 150, 299, 300] {
            let (lo, hi) = values.split_at(split);
            let mut merged = sketch_of(lo);
            merged.merge(&sketch_of(hi));
            assert_eq!(merged, sketch_of(&values), "split at {split}");
        }
    }

    #[test]
    fn compaction_keeps_budget_and_widens_bound() {
        let mut s = UddSketch::new(0.001, 8);
        let initial_bound = s.error_bound();
        // A huge dynamic range forces repeated compaction.
        for e in -20..=20 {
            s.push(10f64.powi(e));
        }
        assert!(s.neg.len() + s.pos.len() <= 8);
        assert!(s.compactions > 0);
        assert!(s.error_bound() > initial_bound);
        assert!(s.error_bound() < 1.0);
    }

    #[test]
    #[should_panic(expected = "sketch config mismatch")]
    fn merge_rejects_config_mismatch() {
        let mut a = UddSketch::new(0.01, 64);
        a.merge(&UddSketch::new(0.02, 64));
    }

    #[test]
    fn try_merge_errors_without_mutating() {
        let mut a = sketch_of(&[1.0, -2.0, 0.0]);
        let before = a.clone();
        let err = a.try_merge(&UddSketch::new(0.02, 64)).unwrap_err();
        assert_eq!(err, MergeError::ConfigMismatch { sketch: "quantile" });
        assert_eq!(a, before, "failed merge must leave the receiver intact");
        assert!(a.try_merge(&sketch_of(&[3.0])).is_ok());
        assert_eq!(a.count(), 4);
    }

    #[test]
    fn add_packed_matches_push() {
        // Batched (key, count) folds must land bit-identically to repeated
        // pushes, including across compactions and for zero/NaN.
        let values = [0.25, -3.5, 0.0, f64::NAN, 1e9, 1e-9, 7.0, 7.0, -0.0];
        let mut pushed = UddSketch::new(0.01, 8);
        let mut batched = UddSketch::new(0.01, 8);
        let ln_gamma0 = pushed.ln_gamma0();
        let mut tally: Vec<(i64, u64)> = Vec::new();
        for &v in &values {
            pushed.push(v);
            let key = packed_key(ln_gamma0, v);
            match tally.iter_mut().find(|(k, _)| *k == key) {
                Some((_, c)) => *c += 1,
                None => tally.push((key, 1)),
            }
        }
        for (key, count) in tally {
            batched.add_packed(key, count);
        }
        assert_eq!(batched, pushed);
        assert_eq!(batched.count(), pushed.count());
    }

    #[test]
    fn counts_saturate_at_boundaries() {
        // Drive zero_count and a bucket count to the boundary through the
        // wire decoder, then push past it: counts must pin, not wrap.
        let s = sketch_of(&[0.0, 5.0]);
        let mut w = WordWriter::new();
        s.flat_encode(&mut w);
        let mut words = w.into_words();
        words[3] = u64::MAX - 1; // zero_count
        *words.last_mut().unwrap() = u64::MAX - 1; // the 5.0 bucket
        let mut big = UddSketch::flat_decode(&mut WordReader::new(&words)).unwrap();
        big.push(0.0);
        big.push(0.0);
        big.push(5.0);
        big.push(5.0);
        assert_eq!(big.zero_count, u64::MAX);
        assert_eq!(big.pos.total(), u64::MAX);
        assert_eq!(big.count(), u64::MAX);
        let mut merged = UddSketch::flat_decode(&mut WordReader::new(&words)).unwrap();
        merged.merge(&big);
        assert_eq!(merged.count(), u64::MAX);
    }

    #[test]
    fn flat_roundtrip_preserves_state_and_length() {
        let s = sketch_of(&[-3.5, 0.0, 1.0, 2.0, 2.0, 1e9, 1e-9]);
        let mut w = WordWriter::new();
        s.flat_encode(&mut w);
        assert_eq!(w.len(), s.flat_words());
        assert_eq!(w.len() * 8, s.wire_bytes());
        let words = w.into_words();
        let mut r = WordReader::new(&words);
        let back = UddSketch::flat_decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn flat_decode_rejects_corrupt_buffers() {
        let s = sketch_of(&[1.0, 2.0, -4.0]);
        let mut w = WordWriter::new();
        s.flat_encode(&mut w);
        let words = w.into_words();
        // Truncation at every prefix must error, never panic.
        for cut in 0..words.len() {
            let mut r = WordReader::new(&words[..cut]);
            assert!(UddSketch::flat_decode(&mut r).is_err(), "cut {cut}");
        }
        // A zero bucket count is non-canonical.
        let mut bad = words.clone();
        *bad.last_mut().unwrap() = 0;
        assert!(UddSketch::flat_decode(&mut WordReader::new(&bad)).is_err());
        // An absurd compaction level is rejected.
        let mut bad = words;
        bad[2] = 63;
        assert!(UddSketch::flat_decode(&mut WordReader::new(&bad)).is_err());
    }
}

//! The per-attribute sketch bundle carried inside a Cell.

use crate::distinct::DistinctSketch;
use crate::error::MergeError;
use crate::fold::PreparedValue;
use crate::heavy::HeavyHitters;
use crate::quantile::UddSketch;
use crate::spec::SketchSpec;
use serde::{Deserialize, Serialize};
use stash_flat::{FlatError, WordReader, WordWriter};

/// All three sketch partials for one attribute. Lives alongside the exact
/// `SummaryStats` of the attribute and obeys the same monoid contract:
/// freshly-constructed state is the identity, and merging bundles built
/// from partitions of a dataset yields the bundle of the whole (bit-for-bit
/// for quantiles and distinct counts; for heavy hitters, whenever distinct
/// values fit the candidate cap).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttrSketches {
    pub quantile: UddSketch,
    pub distinct: DistinctSketch,
    pub heavy: HeavyHitters,
}

impl AttrSketches {
    /// Empty bundle configured per `spec`.
    pub fn new(spec: &SketchSpec) -> Self {
        AttrSketches {
            quantile: UddSketch::new(spec.quantile_alpha, spec.quantile_max_buckets),
            distinct: DistinctSketch::new(spec.hll_precision),
            heavy: HeavyHitters::new(spec.cm_width, spec.cm_depth, spec.hh_candidates),
        }
    }

    /// Fold one observation of this attribute into all three sketches.
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.quantile.push(value);
        self.distinct.push(value);
        self.heavy.push(value);
    }

    /// Fold a [`prepared`](crate::FoldCtx::prepare) observation into the
    /// distinct and heavy-hitter sketches — bit-identical to the
    /// corresponding halves of [`push`](Self::push), with the per-value
    /// hashing done once by the caller. The *quantile* update is
    /// deliberately left out: batch it through
    /// [`add_quantile_batch`](Self::add_quantile_batch) keyed by
    /// [`PreparedValue::quantile_key`] (see the `fold` module docs).
    #[inline]
    pub fn push_prepared(&mut self, pv: &PreparedValue) {
        self.distinct.push_hashed(pv.hash);
        self.heavy.push_prepared(pv);
    }

    /// Fold a run of prepared observations into the distinct and
    /// heavy-hitter sketches — bit-identical to calling
    /// [`push_prepared`](Self::push_prepared) once per element in order,
    /// with per-value loop setup hoisted out of both sketches' hot paths.
    /// The quantile half stays deferred, exactly as for `push_prepared`.
    #[inline]
    pub fn push_prepared_batch(&mut self, pvs: &[PreparedValue]) {
        self.distinct
            .push_hashed_batch(pvs.iter().map(|pv| pv.hash));
        self.heavy.push_prepared_batch(pvs);
    }

    /// Fold `count` quantile observations sharing one packed bucket key in
    /// one step (the deferred half of [`push_prepared`](Self::push_prepared);
    /// see [`UddSketch::add_packed`]).
    #[inline]
    pub fn add_quantile_batch(&mut self, key: i64, count: u64) {
        self.quantile.add_packed(key, count);
    }

    /// Check that `other` was configured compatibly for merging, without
    /// mutating either bundle. Callers that merge *sequences* of bundles
    /// atomically (all-or-nothing) check every pair up front with this.
    pub fn check_config(&self, other: &AttrSketches) -> Result<(), MergeError> {
        self.quantile.check_config(&other.quantile)?;
        self.distinct.check_config(&other.distinct)?;
        self.heavy.check_config(&other.heavy)
    }

    /// Merge another bundle into this one. On any configuration mismatch —
    /// reachable with wire-delivered partials from a misconfigured peer —
    /// returns an error and leaves *all three* sketches untouched (configs
    /// are checked up front, so no partial merge is ever applied).
    pub fn try_merge(&mut self, other: &AttrSketches) -> Result<(), MergeError> {
        self.check_config(other)?;
        self.quantile
            .try_merge(&other.quantile)
            .expect("checked quantile config");
        self.distinct
            .try_merge(&other.distinct)
            .expect("checked distinct config");
        self.heavy
            .try_merge(&other.heavy)
            .expect("checked heavy-hitter config");
        Ok(())
    }

    /// Merge another bundle into this one.
    ///
    /// # Panics
    /// Panics if the bundles were configured differently; use
    /// [`try_merge`](Self::try_merge) when the other side arrived over the
    /// wire.
    pub fn merge(&mut self, other: &AttrSketches) {
        if let Err(e) = self.try_merge(other) {
            panic!("{e} (AttrSketches::merge)");
        }
    }

    /// True if no observation has been folded in.
    pub fn is_empty(&self) -> bool {
        self.quantile.is_empty() && self.distinct.is_empty() && self.heavy.is_empty()
    }

    /// Approximate in-memory footprint, for cache budgets.
    pub fn estimated_bytes(&self) -> usize {
        self.quantile.estimated_bytes()
            + self.distinct.estimated_bytes()
            + self.heavy.estimated_bytes()
    }

    /// Exact serialized footprint: the flat wire form's byte length.
    pub fn wire_bytes(&self) -> usize {
        self.flat_words() * 8
    }

    /// Words of this bundle's flat encoding: the three sketches in
    /// sequence, each self-delimiting (DESIGN.md §15).
    pub fn flat_words(&self) -> usize {
        self.quantile.flat_words() + self.distinct.flat_words() + self.heavy.flat_words()
    }

    /// Append the flat wire form to `w`: quantile, then distinct, then
    /// heavy hitters.
    pub fn flat_encode(&self, w: &mut WordWriter) {
        self.quantile.flat_encode(w);
        self.distinct.flat_encode(w);
        self.heavy.flat_encode(w);
    }

    /// Decode a flat wire form. Never panics on corrupt input.
    pub fn flat_decode(r: &mut WordReader) -> Result<Self, FlatError> {
        Ok(AttrSketches {
            quantile: UddSketch::flat_decode(r)?,
            distinct: DistinctSketch::flat_decode(r)?,
            heavy: HeavyHitters::flat_decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_merge_equals_whole_fold() {
        let spec = SketchSpec::standard();
        let values: Vec<f64> = (0..300).map(|i| ((i * 31) % 60) as f64 - 30.0).collect();
        let mut whole = AttrSketches::new(&spec);
        for &v in &values {
            whole.push(v);
        }
        let (lo, hi) = values.split_at(120);
        let mut a = AttrSketches::new(&spec);
        for &v in lo {
            a.push(v);
        }
        let mut b = AttrSketches::new(&spec);
        for &v in hi {
            b.push(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn new_bundle_is_identity() {
        let spec = SketchSpec::standard();
        let mut s = AttrSketches::new(&spec);
        s.push(4.0);
        s.push(-1.5);
        let before = s.clone();
        s.merge(&AttrSketches::new(&spec));
        assert_eq!(s, before);
        assert!(AttrSketches::new(&spec).is_empty());
        assert!(!s.is_empty());
    }

    #[test]
    fn prepared_fold_matches_push() {
        // push_prepared + a batched quantile apply must reproduce plain
        // push bit-for-bit.
        let spec = SketchSpec::standard();
        let ctx = crate::FoldCtx::new(&spec);
        let values: Vec<f64> = (0..200).map(|i| (i as f64) * 0.37 - 30.0).collect();
        let mut pushed = AttrSketches::new(&spec);
        let mut prepared = AttrSketches::new(&spec);
        let mut tally: Vec<(i64, u64)> = Vec::new();
        for &v in &values {
            pushed.push(v);
            let pv = ctx.prepare(v);
            prepared.push_prepared(&pv);
            match tally.iter_mut().find(|(k, _)| *k == pv.quantile_key()) {
                Some((_, c)) => *c += 1,
                None => tally.push((pv.quantile_key(), 1)),
            }
        }
        for (key, count) in tally {
            prepared.add_quantile_batch(key, count);
        }
        assert_eq!(prepared, pushed);
    }

    #[test]
    fn try_merge_rejects_any_component_mismatch() {
        let spec = SketchSpec::standard();
        let mut a = AttrSketches::new(&spec);
        a.push(1.0);
        let before = a.clone();
        for f in [
            |s: &mut SketchSpec| s.quantile_alpha = 0.02,
            |s: &mut SketchSpec| s.hll_precision = 9,
            |s: &mut SketchSpec| s.cm_depth = 4,
        ] {
            let mut other_spec = spec.clone();
            f(&mut other_spec);
            let err = a.try_merge(&AttrSketches::new(&other_spec)).unwrap_err();
            assert!(matches!(err, MergeError::ConfigMismatch { .. }));
            assert_eq!(a, before, "failed merge must leave the receiver intact");
        }
    }

    #[test]
    fn serde_roundtrip_preserves_state() {
        let spec = SketchSpec::standard();
        let mut s = AttrSketches::new(&spec);
        for i in 0..40 {
            s.push((i % 7) as f64);
        }
        let json = serde_json::to_string(&s).unwrap();
        let back: AttrSketches = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn flat_roundtrip_preserves_state_and_length() {
        let spec = SketchSpec::standard();
        let mut s = AttrSketches::new(&spec);
        for i in 0..40 {
            s.push((i % 7) as f64 - 2.0);
        }
        let mut w = WordWriter::new();
        s.flat_encode(&mut w);
        assert_eq!(w.len(), s.flat_words());
        assert_eq!(w.len() * 8, s.wire_bytes());
        let words = w.into_words();
        let mut r = WordReader::new(&words);
        let back = AttrSketches::flat_decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, s);
    }
}

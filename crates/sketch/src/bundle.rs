//! The per-attribute sketch bundle carried inside a Cell.
//!
//! A bundle takes one of two forms, by how many values it has seen:
//!
//! * **raw** — at most [`SketchSpec::raw_cap`] values (`N`), held as a
//!   sorted run of their canonical bit patterns. A Cell of a handful of
//!   rows keeps, copies and ships a handful of words.
//! * **sketched** — the quantile, distinct and heavy-hitter sketches.
//!
//! The first push or merge that takes a bundle past `N` folds its run into
//! the sketches. Every sketch is a pure function of its multiset while the
//! candidate set stays within its cap, and a promotion folds at most `2N ≤
//! hh_candidates` values, so a promoted run is bit-for-bit the sketch a
//! direct fold of the same values builds — and every estimate a bundle
//! answers is the one its sketches would. The form is a function of the
//! count, as the sketches' own sparse and dense forms are functions of
//! their content (DESIGN.md §14).

use crate::distinct::{DistinctEstimate, DistinctSketch};
use crate::error::MergeError;
use crate::fold::{FoldCtx, PreparedValue};
use crate::hash::{canonical_bits, is_canonical_bits};
use crate::heavy::{HeavyHitters, TopKEntry, TopKResult};
use crate::quantile::{QuantileEstimate, UddSketch};
use crate::spec::{raw_cap, SketchSpec, RAW_MAX};
use stash_flat::{FlatError, WordReader, WordWriter};
use std::borrow::Cow;

/// All sketch partials for one attribute. Lives alongside the exact
/// `SummaryStats` of the attribute and obeys the same monoid contract:
/// freshly-constructed state is the identity, and merging bundles built
/// from partitions of a dataset yields the bundle of the whole (bit-for-bit
/// for quantiles and distinct counts; for heavy hitters, whenever distinct
/// values fit the candidate cap). See the module docs for its two forms.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrSketches {
    form: Form,
}

#[derive(Debug, Clone, PartialEq)]
enum Form {
    /// At most `params.raw_cap()` canonical bit patterns, ascending.
    Raw { params: Params, values: Vec<u64> },
    /// More than `raw_cap` values seen.
    Sketched(Box<Sketches>),
}

/// The spec parameters a bundle is built under: what a raw run must carry
/// so a merge can refuse another spec's bundle and a promotion can build
/// the right sketches.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Params {
    alpha: f64,
    max_buckets: usize,
    hll_precision: u8,
    cm_width: usize,
    cm_depth: usize,
    hh_candidates: usize,
}

impl Params {
    fn of(spec: &SketchSpec) -> Self {
        Params {
            alpha: spec.quantile_alpha,
            max_buckets: spec.quantile_max_buckets,
            hll_precision: spec.hll_precision,
            cm_width: spec.cm_width,
            cm_depth: spec.cm_depth,
            hh_candidates: spec.hh_candidates,
        }
    }

    fn spec(&self) -> SketchSpec {
        SketchSpec {
            enabled: true,
            quantile_alpha: self.alpha,
            quantile_max_buckets: self.max_buckets,
            hll_precision: self.hll_precision,
            cm_width: self.cm_width,
            cm_depth: self.cm_depth,
            hh_candidates: self.hh_candidates,
        }
    }

    #[inline]
    fn raw_cap(&self) -> usize {
        raw_cap(self.hh_candidates)
    }

    /// The component-wise config check of the three sketches' `try_merge`,
    /// naming the first component that differs.
    fn check(&self, other: &Params) -> Result<(), MergeError> {
        let sketch = if self.alpha != other.alpha || self.max_buckets != other.max_buckets {
            "quantile"
        } else if self.hll_precision != other.hll_precision {
            "distinct"
        } else if (self.cm_width, self.cm_depth, self.hh_candidates)
            != (other.cm_width, other.cm_depth, other.hh_candidates)
        {
            "heavy_hitters"
        } else {
            return Ok(());
        };
        Err(MergeError::ConfigMismatch { sketch })
    }

    /// The sketches of the raw run `values` (ascending).
    fn sketches_of(&self, values: &[u64]) -> Sketches {
        let mut s = Sketches {
            quantile: UddSketch::new(self.alpha, self.max_buckets),
            distinct: DistinctSketch::new(self.hll_precision),
            heavy: HeavyHitters::new(self.cm_width, self.cm_depth, self.hh_candidates),
        };
        s.merge_run(values);
        s
    }
}

/// The sketched form.
#[derive(Debug, Clone, PartialEq)]
struct Sketches {
    quantile: UddSketch,
    distinct: DistinctSketch,
    heavy: HeavyHitters,
}

impl Sketches {
    fn params(&self) -> Params {
        let (alpha, max_buckets) = self.quantile.config();
        let (cm_width, cm_depth, hh_candidates) = self.heavy.config();
        Params {
            alpha,
            max_buckets,
            hll_precision: self.distinct.precision(),
            cm_width,
            cm_depth,
            hh_candidates,
        }
    }

    fn push(&mut self, value: f64) {
        self.quantile.push(value);
        self.distinct.push(value);
        self.heavy.push(value);
    }

    /// Fold a run in order; `tally` counts its quantile keys.
    fn push_prepared_batch(&mut self, pvs: &[PreparedValue], tally: &[(i64, u64)]) {
        self.distinct
            .push_hashed_batch(pvs.iter().map(|pv| pv.hash));
        self.heavy.push_prepared_batch(pvs);
        for &(key, count) in tally {
            self.quantile.add_packed(key, count);
        }
    }

    /// Merge in the sketches of the raw run `bits` (ascending) without
    /// building them: equal values sit side by side, so each distinct
    /// value is prepared and folded once, with its count, as a merge
    /// visits each bucket, register and counter once; the candidates take
    /// every distinct value, then one trim, as `try_merge` of an untrimmed
    /// sketch of the run does ([`HeavyHitters::add_counted`]). A
    /// promotion's run — at most `2N ≤ hh_candidates` values — never trims
    /// in a direct fold, and the quantile and distinct sketches are pure
    /// functions of the multiset, so for it this is exactly the merge of
    /// its direct fold.
    fn merge_run(&mut self, bits: &[u64]) {
        let (alpha, _) = self.quantile.config();
        let (cm_width, cm_depth, _) = self.heavy.config();
        let ctx = FoldCtx::with(alpha, cm_width, cm_depth);
        const CHUNK: usize = 16;
        let mut pvs = [PreparedValue::default(); CHUNK];
        let mut counts = [0u64; CHUNK];
        let mut rest = bits;
        while !rest.is_empty() {
            let mut n = 0;
            while n < CHUNK && !rest.is_empty() {
                let run = rest.iter().take_while(|&&b| b == rest[0]).count();
                pvs[n] = ctx.prepare(f64::from_bits(rest[0]));
                counts[n] = run as u64;
                rest = &rest[run..];
                n += 1;
            }
            let (pvs, counts) = (&pvs[..n], &counts[..n]);
            self.distinct
                .push_hashed_batch(pvs.iter().map(|pv| pv.hash));
            self.heavy.add_counted(pvs, counts);
            for (pv, &c) in pvs.iter().zip(counts) {
                self.quantile.add_packed(pv.quantile_key(), c);
            }
        }
        self.heavy.trim();
    }

    fn merge(&mut self, other: &Sketches) {
        self.quantile
            .try_merge(&other.quantile)
            .expect("checked quantile config");
        self.distinct
            .try_merge(&other.distinct)
            .expect("checked distinct config");
        self.heavy
            .try_merge(&other.heavy)
            .expect("checked heavy-hitter config");
    }
}

/// Tag bit of a raw run's first word. A sketched bundle opens with the
/// quantile sketch's α, a positive float, so its top bit is clear.
const RAW_TAG: u64 = 1 << 63;

/// Header words of a raw run.
const RAW_HEADER_WORDS: usize = 3;

/// Restore ascending order to `run` after values were appended from
/// `start` on: sort the tail, then merge it into the head from the back.
/// The tail is at most a raw cap long.
fn merge_tail(run: &mut [u64], start: usize) {
    let tail_len = run.len() - start;
    if tail_len == 0 {
        return;
    }
    run[start..].sort_unstable();
    if start == 0 || run[start - 1] <= run[start] {
        return;
    }
    let mut tail = [0u64; RAW_MAX];
    tail[..tail_len].copy_from_slice(&run[start..]);
    let (mut i, mut j) = (start, tail_len);
    for k in (0..run.len()).rev() {
        if j == 0 {
            break;
        }
        if i > 0 && run[i - 1] > tail[j - 1] {
            run[k] = run[i - 1];
            i -= 1;
        } else {
            run[k] = tail[j - 1];
            j -= 1;
        }
    }
}

impl AttrSketches {
    /// Empty bundle configured per `spec`: an empty raw run.
    ///
    /// # Panics
    /// Panics if `spec` fails [`SketchSpec::validate`], as the sketch
    /// constructors do on their own parameters.
    pub fn new(spec: &SketchSpec) -> Self {
        if let Err(e) = spec.validate() {
            panic!("{e}");
        }
        AttrSketches {
            form: Form::Raw {
                params: Params::of(spec),
                values: Vec::new(),
            },
        }
    }

    fn params(&self) -> Params {
        match &self.form {
            Form::Raw { params, .. } => *params,
            Form::Sketched(s) => s.params(),
        }
    }

    /// The sketched form, promoting a raw run first.
    fn promote(&mut self) -> &mut Sketches {
        if let Form::Raw { params, values } = &self.form {
            self.form = Form::Sketched(Box::new(params.sketches_of(values)));
        }
        match &mut self.form {
            Form::Sketched(s) => s,
            Form::Raw { .. } => unreachable!("promoted above"),
        }
    }

    /// The sketches this bundle's values fold into: its own when sketched,
    /// its run promoted when raw.
    fn sketches(&self) -> Cow<'_, Sketches> {
        match &self.form {
            Form::Sketched(s) => Cow::Borrowed(s),
            Form::Raw { params, values } => Cow::Owned(params.sketches_of(values)),
        }
    }

    /// Fold one observation of this attribute in.
    pub fn push(&mut self, value: f64) {
        if let Form::Raw { params, values } = &mut self.form {
            if values.len() < params.raw_cap() {
                let bits = canonical_bits(value);
                values.insert(values.partition_point(|&b| b <= bits), bits);
                return;
            }
        }
        self.promote().push(value);
    }

    /// Append `values` to a raw run if they fit under its cap — the scan
    /// kernel's fold for raw targets, which needs no
    /// [`FoldCtx::prepare`]. Returns `false`, leaving the bundle untouched,
    /// when the bundle holds sketches or the run would pass the cap: fold
    /// the values through [`push_prepared_batch`](Self::push_prepared_batch)
    /// then.
    pub fn try_extend_raw(&mut self, values: &[f64]) -> bool {
        self.extend_raw(values.iter().map(|&v| canonical_bits(v)))
    }

    /// Append canonical bit patterns to a raw run if they fit under its
    /// cap; `false`, leaving the bundle untouched, otherwise.
    fn extend_raw(&mut self, bits: impl ExactSizeIterator<Item = u64>) -> bool {
        let Form::Raw { params, values } = &mut self.form else {
            return false;
        };
        if values.len() + bits.len() > params.raw_cap() {
            return false;
        }
        let start = values.len();
        values.extend(bits);
        merge_tail(values, start);
        true
    }

    /// Fold a run of [`prepared`](crate::FoldCtx::prepare) observations in,
    /// bit-identical to [`push`](Self::push)ing them in order. `tally` counts
    /// the run's [`quantile_key`](PreparedValue::quantile_key)s — one
    /// `(key, count)` pair per key, or several that sum to it — so a caller
    /// folding one run into many bundles tallies it once. A raw bundle the
    /// run would take past its cap is promoted first.
    pub fn push_prepared_batch(&mut self, pvs: &[PreparedValue], tally: &[(i64, u64)]) {
        if !self.extend_raw(pvs.iter().map(|pv| pv.bits)) {
            self.promote().push_prepared_batch(pvs, tally);
        }
    }

    /// Check that `other` was configured compatibly for merging, without
    /// mutating either bundle. Callers that merge *sequences* of bundles
    /// atomically (all-or-nothing) check every pair up front with this.
    pub fn check_config(&self, other: &AttrSketches) -> Result<(), MergeError> {
        self.params().check(&other.params())
    }

    /// Merge another bundle into this one. On any configuration mismatch —
    /// reachable with wire-delivered partials from a misconfigured peer —
    /// returns an error and leaves the bundle untouched (configs are
    /// checked up front, so no partial merge is ever applied).
    pub fn try_merge(&mut self, other: &AttrSketches) -> Result<(), MergeError> {
        self.check_config(other)?;
        if let Form::Raw { values, .. } = &other.form {
            if self.extend_raw(values.iter().copied()) {
                return Ok(());
            }
        }
        let promoted = match (&mut self.form, &other.form) {
            (Form::Sketched(s), Form::Sketched(t)) => {
                s.merge(t);
                return Ok(());
            }
            (Form::Sketched(s), Form::Raw { values, .. }) => {
                s.merge_run(values);
                return Ok(());
            }
            (Form::Raw { values, .. }, Form::Sketched(t)) => {
                // Merging is commutative: their sketches take our run.
                let mut s = (**t).clone();
                s.merge_run(values);
                s
            }
            (Form::Raw { params, values }, Form::Raw { values: theirs, .. }) => {
                // Past the cap: `extend_raw` above took every run that fits.
                let mut s = params.sketches_of(values);
                s.merge_run(theirs);
                s
            }
        };
        self.form = Form::Sketched(Box::new(promoted));
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
        self.count() == 0
    }

    /// True while the bundle holds its values raw (at most
    /// [`SketchSpec::raw_cap`] of them).
    pub fn is_raw(&self) -> bool {
        matches!(self.form, Form::Raw { .. })
    }

    /// Observations folded in (saturating).
    pub fn count(&self) -> u64 {
        match &self.form {
            Form::Raw { values, .. } => values.len() as u64,
            Form::Sketched(s) => s.heavy.count(),
        }
    }

    /// The estimate of [`UddSketch::quantile`].
    pub fn quantile(&self, q: f64) -> Option<QuantileEstimate> {
        self.sketches().quantile.quantile(q)
    }

    /// The estimate of [`DistinctSketch::estimate`].
    pub fn distinct(&self) -> DistinctEstimate {
        self.sketches().distinct.estimate()
    }

    /// The estimate of [`HeavyHitters::top_k`].
    pub fn top_k(&self, k: usize) -> Vec<TopKEntry> {
        self.sketches().heavy.top_k(k)
    }

    /// The estimate of [`HeavyHitters::top_k_report`].
    pub fn top_k_report(&self, k: usize) -> TopKResult {
        self.sketches().heavy.top_k_report(k)
    }

    /// The three sketches this bundle's values fold into — its own, or a
    /// raw run promoted — by value.
    pub fn to_sketches(&self) -> (UddSketch, DistinctSketch, HeavyHitters) {
        let s = self.sketches().into_owned();
        (s.quantile, s.distinct, s.heavy)
    }

    /// Approximate in-memory footprint, for cache budgets.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<AttrSketches>()
            + match &self.form {
                Form::Raw { values, .. } => values.capacity() * 8,
                Form::Sketched(s) => {
                    s.quantile.estimated_bytes()
                        + s.distinct.estimated_bytes()
                        + s.heavy.estimated_bytes()
                }
            }
    }

    /// Exact serialized footprint: the flat wire form's byte length.
    pub fn wire_bytes(&self) -> usize {
        self.flat_words() * 8
    }

    /// Words of this bundle's flat encoding (DESIGN.md §15): a raw run's
    /// three header words and its values, or the three sketches in
    /// sequence, each self-delimiting.
    pub fn flat_words(&self) -> usize {
        match &self.form {
            Form::Raw { values, .. } => RAW_HEADER_WORDS + values.len(),
            Form::Sketched(s) => {
                s.quantile.flat_words() + s.distinct.flat_words() + s.heavy.flat_words()
            }
        }
    }

    /// Append the flat wire form to `w`. Raw: `RAW_TAG | depth << 48 |
    /// precision << 40 | n << 32 | hh_candidates`, α bits,
    /// `max_buckets << 32 | cm_width`, then the `n` values ascending.
    /// Sketched: quantile, then distinct, then heavy hitters.
    pub fn flat_encode(&self, w: &mut WordWriter) {
        match &self.form {
            Form::Raw { params, values } => {
                w.push_u64(
                    RAW_TAG
                        | (params.cm_depth as u64) << 48
                        | (params.hll_precision as u64) << 40
                        | (values.len() as u64) << 32
                        | params.hh_candidates as u64,
                );
                w.push_f64(params.alpha);
                w.push_u64((params.max_buckets as u64) << 32 | params.cm_width as u64);
                w.extend_u64(values);
            }
            Form::Sketched(s) => {
                s.quantile.flat_encode(w);
                s.distinct.flat_encode(w);
                s.heavy.flat_encode(w);
            }
        }
    }

    /// Decode a flat wire form. Never panics on corrupt input. Beyond each
    /// sketch's own checks, the form must be the one the count prescribes:
    /// a raw run holds at most its cap of canonical, ascending bit
    /// patterns under a valid spec, and sketches hold more than the cap.
    pub fn flat_decode(r: &mut WordReader) -> Result<Self, FlatError> {
        let head = {
            let mut peek = *r;
            peek.u64()?
        };
        if head & RAW_TAG == 0 {
            let s = Sketches {
                quantile: UddSketch::flat_decode(r)?,
                distinct: DistinctSketch::flat_decode(r)?,
                heavy: HeavyHitters::flat_decode(r)?,
            };
            let cap = raw_cap(s.heavy.config().2) as u64;
            if s.heavy.count() <= cap || s.quantile.count() <= cap {
                return Err(FlatError::Corrupt("sketched bundle within its raw cap"));
            }
            return Ok(AttrSketches {
                form: Form::Sketched(Box::new(s)),
            });
        }
        let head = r.u64()?;
        let alpha = r.f64()?;
        let sizes = r.u64()?;
        if head & 0x7F00_0000_0000_0000 != 0 {
            return Err(FlatError::Corrupt("unknown raw bundle header bits"));
        }
        let params = Params {
            alpha,
            max_buckets: (sizes >> 32) as usize,
            hll_precision: (head >> 40) as u8,
            cm_width: sizes as u32 as usize,
            cm_depth: (head >> 48) as u8 as usize,
            hh_candidates: head as u32 as usize,
        };
        // The 8-bit count borrows at most 255 words before it is checked.
        let values = r.take((head >> 32) as u8 as usize)?;
        if params.spec().validate().is_err() {
            return Err(FlatError::Corrupt("invalid raw bundle config"));
        }
        if values.len() > params.raw_cap() {
            return Err(FlatError::Corrupt("raw run above its cap"));
        }
        if !values.is_sorted() {
            return Err(FlatError::Corrupt("raw run not sorted"));
        }
        if !values.iter().all(|&b| is_canonical_bits(b)) {
            return Err(FlatError::Corrupt("non-canonical raw value"));
        }
        Ok(AttrSketches {
            form: Form::Raw {
                params,
                values: values.to_vec(),
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle_of(spec: &SketchSpec, values: &[f64]) -> AttrSketches {
        let mut s = AttrSketches::new(spec);
        for &v in values {
            s.push(v);
        }
        s
    }

    /// The sketches a direct per-value fold builds.
    fn direct(spec: &SketchSpec, values: &[f64]) -> Sketches {
        let mut s = Params::of(spec).sketches_of(&[]);
        for &v in values {
            s.push(v);
        }
        s
    }

    fn encode(s: &AttrSketches) -> Vec<u64> {
        let mut w = WordWriter::new();
        s.flat_encode(&mut w);
        assert_eq!(w.len(), s.flat_words());
        w.into_words()
    }

    fn decode(words: &[u64]) -> Result<AttrSketches, FlatError> {
        let mut r = WordReader::new(words);
        let s = AttrSketches::flat_decode(&mut r)?;
        r.finish()?;
        Ok(s)
    }

    #[test]
    fn partition_merge_equals_whole_fold() {
        let spec = SketchSpec::standard();
        let values: Vec<f64> = (0..300).map(|i| ((i * 31) % 60) as f64 - 30.0).collect();
        let whole = bundle_of(&spec, &values);
        let (lo, hi) = values.split_at(120);
        let mut a = bundle_of(&spec, lo);
        a.merge(&bundle_of(&spec, hi));
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
    fn form_follows_the_count() {
        let spec = SketchSpec::standard();
        let n = spec.raw_cap();
        assert_eq!(n, 64);
        let values: Vec<f64> = (0..=n).map(|i| i as f64 * 0.25 - 3.0).collect();
        let raw = bundle_of(&spec, &values[..n]);
        assert!(raw.is_raw());
        assert_eq!(raw.count(), n as u64);
        assert_eq!(raw.flat_words(), 3 + n);
        let sketched = bundle_of(&spec, &values);
        assert!(!sketched.is_raw());
        assert_eq!(sketched.count(), n as u64 + 1);
        // The promoted run is the direct fold, state and estimates alike.
        let Form::Sketched(s) = &sketched.form else {
            unreachable!()
        };
        assert_eq!(**s, direct(&spec, &values));
        assert_eq!(*raw.sketches(), direct(&spec, &values[..n]));
        assert_eq!(
            raw.quantile(0.9),
            direct(&spec, &values[..n]).quantile.quantile(0.9)
        );
    }

    #[test]
    fn prepared_fold_matches_push() {
        // The kernel's batch entry point must reproduce plain push
        // bit-for-bit, across the promotion.
        let spec = SketchSpec::standard();
        let ctx = crate::FoldCtx::new(&spec);
        let values: Vec<f64> = (0..200).map(|i| (i as f64) * 0.37 - 30.0).collect();
        for chunk in [1, 7, 64, 65, 200] {
            let mut pushed = AttrSketches::new(&spec);
            let mut prepared = AttrSketches::new(&spec);
            for run in values.chunks(chunk) {
                let pvs: Vec<PreparedValue> = run.iter().map(|&v| ctx.prepare(v)).collect();
                let tally: Vec<(i64, u64)> = pvs.iter().map(|pv| (pv.quantile_key(), 1)).collect();
                prepared.push_prepared_batch(&pvs, &tally);
                for &v in run {
                    pushed.push(v);
                }
            }
            assert_eq!(prepared, pushed, "chunk {chunk}");
        }
    }

    #[test]
    fn try_merge_rejects_any_component_mismatch() {
        let spec = SketchSpec::standard();
        let values: Vec<f64> = (0..100).map(f64::from).collect();
        type Mismatch = (fn(&mut SketchSpec), &'static str);
        let mismatches: [Mismatch; 4] = [
            (|s| s.quantile_alpha = 0.02, "quantile"),
            (|s| s.hll_precision = 9, "distinct"),
            (|s| s.cm_depth = 4, "heavy_hitters"),
            (|s| s.hh_candidates = 300, "heavy_hitters"),
        ];
        // Receiver and other side each empty, raw and sketched.
        for rows in [0usize, 3, 100] {
            let mut a = bundle_of(&spec, &values[..rows]);
            let before = a.clone();
            for (f, sketch) in mismatches {
                let mut other_spec = spec.clone();
                f(&mut other_spec);
                for other_rows in [0usize, 3, 100] {
                    let other = bundle_of(&other_spec, &values[..other_rows]);
                    let err = a.try_merge(&other).unwrap_err();
                    assert_eq!(err, MergeError::ConfigMismatch { sketch });
                    assert_eq!(a, before, "failed merge must leave the receiver intact");
                }
            }
        }
    }

    #[test]
    fn flat_roundtrip_preserves_state_and_length() {
        let spec = SketchSpec::standard();
        for rows in [0usize, 1, 40, 64, 65, 400] {
            let values: Vec<f64> = (0..rows).map(|i| (i % 7) as f64 - 2.0).collect();
            let s = bundle_of(&spec, &values);
            let words = encode(&s);
            assert_eq!(words.len() * 8, s.wire_bytes());
            assert_eq!(decode(&words).unwrap(), s);
        }
    }

    #[test]
    fn flat_decoder_refuses_every_malformed_raw_run() {
        let spec = SketchSpec::standard();
        let good = encode(&bundle_of(&spec, &[-1.5, 0.0, 2.0, 2.0]));
        assert!(decode(&good).is_ok());
        let corrupt = |f: &dyn Fn(&mut Vec<u64>)| {
            let mut w = good.clone();
            f(&mut w);
            decode(&w)
        };
        // Unsorted.
        assert!(corrupt(&|w| w.swap(3, 5)).is_err());
        // Non-canonical bits: -0.0 and a NaN payload.
        assert!(corrupt(&|w| w[6] = (-0.0f64).to_bits()).is_err());
        assert!(corrupt(&|w| w[6] = u64::MAX).is_err());
        // A count above the cap, with the words present.
        let over = |w: &mut Vec<u64>| {
            w[0] = w[0] & !(0xFF << 32) | 65 << 32;
            w.truncate(3);
            w.extend(std::iter::repeat_n(1.0f64.to_bits(), 65));
        };
        assert!(corrupt(&over).is_err());
        // An invalid spec: depth 0, α ≥ 1, width below 8, unknown bits.
        assert!(corrupt(&|w| w[0] &= !(0xFF << 48)).is_err());
        assert!(corrupt(&|w| w[1] = 1.5f64.to_bits()).is_err());
        assert!(corrupt(&|w| w[2] = w[2] & !0xFFFF_FFFF | 4).is_err());
        assert!(corrupt(&|w| w[0] |= 1 << 60).is_err());
        // Truncated anywhere.
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut {cut}");
        }
        // A sketched form holding no more than the cap.
        let small = direct(&spec, &[1.0, 2.0, 3.0]);
        let mut w = WordWriter::new();
        small.quantile.flat_encode(&mut w);
        small.distinct.flat_encode(&mut w);
        small.heavy.flat_encode(&mut w);
        assert!(decode(&w.into_words()).is_err());
    }

    proptest::proptest! {
        #[test]
        fn raw_into_sketched_equals_its_promotion_merged_for_any_values(
            big in proptest::collection::vec(-3000i32..3000, 21..2500),
            small in proptest::collection::vec(-40i32..40, 0..=20),
        ) {
            // A cap of 40 candidates (raw cap 20): a receiver of a few
            // dozen values stays inside it, one of thousands trims.
            let spec = SketchSpec { hh_candidates: 40, ..SketchSpec::standard() };
            let big: Vec<f64> = big.into_iter().map(f64::from).collect();
            let small: Vec<f64> = small.into_iter().map(|v| f64::from(v) * 0.5).collect();
            let receiver = bundle_of(&spec, &big);
            let raw = bundle_of(&spec, &small);
            proptest::prop_assert!(raw.is_raw() && !receiver.is_raw());
            let promoted = AttrSketches {
                form: Form::Sketched(Box::new(direct(&spec, &small))),
            };
            let mut want = receiver.clone();
            want.merge(&promoted);
            for (a, b) in [(&receiver, &raw), (&raw, &receiver)] {
                let mut got = a.clone();
                got.merge(b);
                proptest::prop_assert_eq!(&got, &want);
            }
        }
    }

    #[test]
    fn raw_into_sketched_equals_its_promotion_merged() {
        // Inside the candidate cap and past it (the receiver trimmed).
        let spec = SketchSpec {
            hh_candidates: 40,
            ..SketchSpec::standard()
        };
        let n = spec.raw_cap();
        for receiver_rows in [25usize, 200, 5000] {
            let big: Vec<f64> = (0..receiver_rows)
                .map(|i| (i * 7919 % 3001) as f64)
                .collect();
            let small: Vec<f64> = (0..n).map(|i| (i * 13 % 17) as f64 - 4.0).collect();
            let receiver = bundle_of(&spec, &big);
            let raw = bundle_of(&spec, &small);
            assert!(raw.is_raw() && !receiver.is_raw());
            let promoted = AttrSketches {
                form: Form::Sketched(Box::new(direct(&spec, &small))),
            };
            for (a, b) in [(&receiver, &raw), (&raw, &receiver)] {
                let mut got = a.clone();
                got.merge(b);
                let mut want = receiver.clone();
                want.merge(&promoted);
                assert_eq!(got, want, "receiver rows {receiver_rows}");
            }
        }
    }
}

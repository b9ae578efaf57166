//! Mergeable per-attribute summary statistics.
//!
//! STASH returns "aggregated summary statistics" as the main content of a
//! Cell (Table I of the paper). The statistics kept here — count, min, max,
//! sum, sum of squares — are exactly the ones a visualization front-end
//! needs for heatmaps and histograms (max temperature, mean humidity, …),
//! and crucially they are **decomposable**: merging the summaries of the 32
//! spatial children of a cell yields the summary of the parent, bit-for-bit
//! identical to aggregating the raw observations directly. That algebraic
//! property is what makes roll-up queries answerable from cache.
//!
//! Both types cross the client edge as JSON (the front-end protocol,
//! paper §VI-A; `json.rs`): the exact summaries as readable objects, sketch
//! bundles as their flat words (DESIGN.md §14, §15) — one machine-readable
//! partial form, read back by the flat decoder's own checks, with estimates
//! left to the accessors.

use stash_sketch::{AttrSketches, MergeError, SketchSpec};
use std::sync::Arc;

/// Aggregated statistics for one attribute over one spatiotemporal bin.
///
/// An *empty* summary (`count == 0`) is the monoid identity: merging it into
/// anything is a no-op, and its min/max/mean are undefined (`None`).
///
/// Serialization: the in-memory ±∞ sentinels of an empty summary are not
/// representable in JSON (the front-end protocol, §VI-A), so the wire form
/// carries `min`/`max` as `null` when the summary holds no rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SummaryStats {
    pub count: u64,
    /// Minimum observed value; meaningless when `count == 0`.
    pub(crate) min: f64,
    /// Maximum observed value; meaningless when `count == 0`.
    pub(crate) max: f64,
    pub sum: f64,
    /// Sum of squared values, for variance/stddev.
    pub sum_sq: f64,
}

impl Default for SummaryStats {
    fn default() -> Self {
        Self::empty()
    }
}

impl SummaryStats {
    /// The monoid identity: a summary of zero observations.
    pub const fn empty() -> Self {
        SummaryStats {
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Summary of a single observation.
    pub fn of(value: f64) -> Self {
        SummaryStats {
            count: 1,
            min: value,
            max: value,
            sum: value,
            sum_sq: value * value,
        }
    }

    /// Fold one more observation in.
    #[inline]
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.sum += value;
        self.sum_sq += value * value;
    }

    /// Merge another summary into this one (commutative, associative,
    /// identity = [`SummaryStats::empty`]).
    #[inline]
    pub fn merge(&mut self, other: &SummaryStats) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
    }

    /// Merged copy (non-mutating form of [`merge`](Self::merge)).
    pub fn merged(mut self, other: &SummaryStats) -> SummaryStats {
        self.merge(other);
        self
    }

    /// Aggregate a slice of raw values.
    pub fn from_values(values: &[f64]) -> Self {
        let mut s = SummaryStats::empty();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Minimum, if any observation was aggregated.
    #[inline]
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Maximum, if any observation was aggregated.
    #[inline]
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, if any observation was aggregated.
    #[inline]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Population variance, if any observation was aggregated. Clamped at
    /// zero to absorb floating-point cancellation.
    pub fn variance(&self) -> Option<f64> {
        let mean = self.mean()?;
        Some((self.sum_sq / self.count as f64 - mean * mean).max(0.0))
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Serialized footprint in bytes; used by STASH's configurable
    /// in-memory Cell budget.
    pub const fn estimated_bytes() -> usize {
        std::mem::size_of::<SummaryStats>()
    }

    /// The check both readers — flat words and JSON — hold a decoded
    /// summary to: one of no rows is [`empty`](Self::empty) bit for bit.
    /// Any other extremes or sums would move a receiver's under
    /// [`merge`](Self::merge) with no row behind them.
    pub(crate) fn check_decoded(&self) -> Result<(), &'static str> {
        let state = |s: &SummaryStats| [s.min, s.max, s.sum, s.sum_sq].map(f64::to_bits);
        if self.count == 0 && state(self) != state(&SummaryStats::empty()) {
            return Err("summary of no rows with non-empty state");
        }
        Ok(())
    }
}

/// The per-attribute statistics of one Cell, aligned with an
/// [`AttrSchema`](crate::attr::AttrSchema): `summaries[i]` aggregates
/// attribute `i` exactly, and — when the deployment enables sketch-valued
/// Cells — `sketches[i]` carries the mergeable sketch partials (quantiles,
/// distinct count, heavy hitters) for the same attribute.
///
/// Sketches are strictly additive: with `sketches == None` (the default and
/// the only state older builds could produce) every operation and the wire
/// form are bit-for-bit identical to the historical exact-only
/// `CellSummary`. The serialized object gains a `"sketches"` key only when
/// sketch state is present: the bundles' flat words, as `u64`s.
///
/// Both halves are **shared and copy-on-write**: cloning a `CellStats`
/// bumps one reference count (two when sketched), so a cache hit, a rollup
/// serve or a handoff snapshot copies neither the exact summaries nor
/// estimator state, and a clone already handed out is an immutable
/// snapshot. The exact writers — [`push_row`](Self::push_row),
/// [`merge_strict`](Self::merge_strict), [`merge_attr`](Self::merge_attr)
/// and [`merge_attrs`](Self::merge_attrs) — and the sketch writers —
/// `push_row`, the pairwise arm of `merge_strict` and
/// [`attr_sketches_mut`](Self::attr_sketches_mut) — un-share first
/// (`Arc::make_mut`: free while unshared, one deep copy otherwise). Equality
/// and both serialized forms see content only (DESIGN.md §14).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellStats {
    pub(crate) summaries: Arc<[SummaryStats]>,
    /// `Some` iff this Cell carries sketch partials; aligned with
    /// `summaries` when present.
    pub(crate) sketches: Option<Arc<[AttrSketches]>>,
}

/// Historical name for [`CellStats`], kept so existing call sites and wire
/// schemas read naturally — a Cell's "summary" is now stats-plus-sketches.
pub type CellSummary = CellStats;

impl CellStats {
    /// An empty exact-only summary for `n_attrs` attributes.
    pub fn empty(n_attrs: usize) -> Self {
        CellStats {
            summaries: std::iter::repeat_n(SummaryStats::empty(), n_attrs).collect(),
            sketches: None,
        }
    }

    /// An empty summary for `n_attrs` attributes, carrying empty sketch
    /// state when `spec` enables it (exact-only otherwise).
    pub fn empty_with(n_attrs: usize, spec: &SketchSpec) -> Self {
        let mut s = CellStats::empty(n_attrs);
        s.ensure_sketches(spec);
        s
    }

    /// Wrap pre-computed per-attribute summaries (exact-only), collected
    /// straight into the shared slice: one allocation for an iterator of
    /// known length.
    pub fn from_parts(summaries: impl IntoIterator<Item = SummaryStats>) -> Self {
        CellStats {
            summaries: summaries.into_iter().collect(),
            sketches: None,
        }
    }

    /// Number of attributes.
    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.summaries.len()
    }

    /// Total observation count (identical across attributes when built via
    /// [`push_row`](Self::push_row); taken from attribute 0).
    pub fn count(&self) -> u64 {
        self.summaries.first().map_or(0, |s| s.count)
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Per-attribute summary accessor.
    #[inline]
    pub fn attr(&self, i: usize) -> Option<&SummaryStats> {
        self.summaries.get(i)
    }

    /// All summaries, schema order.
    #[inline]
    pub fn attrs(&self) -> &[SummaryStats] {
        &self.summaries
    }

    /// Fold in one observation row (`values[i]` is attribute `i`), into the
    /// exact summaries and any sketch partials alike.
    ///
    /// # Panics
    /// Panics if the row width differs from the summary width.
    #[inline]
    pub fn push_row(&mut self, values: &[f64]) {
        assert_eq!(values.len(), self.summaries.len(), "row width mismatch");
        for (s, &v) in Arc::make_mut(&mut self.summaries).iter_mut().zip(values) {
            s.push(v);
        }
        if let Some(sketches) = &mut self.sketches {
            for (s, &v) in Arc::make_mut(sketches).iter_mut().zip(values) {
                s.push(v);
            }
        }
    }

    /// Merge another Cell's summary into this one.
    ///
    /// Sketch handling preserves the monoid contract that hierarchy code
    /// (`Cell::from_children`, partials gathering) relies on: an *empty*
    /// exact-only summary is the identity, so merging sketch-carrying state
    /// into a fresh accumulator adopts the sketches. Merging two
    /// sketch-carrying summaries merges them pairwise; any other mix of a
    /// non-empty exact-only side with a sketched side drops the sketches —
    /// an estimate that silently missed rows would be worse than no
    /// estimate.
    ///
    /// # Panics
    /// Panics if attribute counts or sketch configurations differ — for
    /// locally-built summaries both are always a bug. Use
    /// [`merge_strict`](Self::merge_strict) when `other` arrived over the
    /// wire.
    pub fn merge(&mut self, other: &CellStats) {
        assert_eq!(
            self.summaries.len(),
            other.summaries.len(),
            "schema mismatch in CellSummary::merge"
        );
        if let Err(e) = self.merge_strict(other) {
            panic!("{e} (CellSummary::merge)");
        }
    }

    /// Fallible [`merge`](Self::merge) for summaries decoded from the wire:
    /// partials fragments and ingest deltas can carry state built by a
    /// misconfigured or stale peer, and a gather must refuse such a fragment
    /// instead of crashing the node. On a schema-width or sketch-config
    /// mismatch this returns an error and leaves `self` completely untouched
    /// (sketch configs are checked across *all* attributes before anything
    /// merges).
    pub fn merge_strict(&mut self, other: &CellStats) -> Result<(), MergeError> {
        if self.summaries.len() != other.summaries.len() {
            return Err(MergeError::SchemaWidth {
                left: self.summaries.len(),
                right: other.summaries.len(),
            });
        }
        // Decide sketch state from pre-merge counts, before exact folding.
        if !(other.count() == 0 && other.sketches.is_none()) {
            if self.count() == 0 && self.sketches.is_none() {
                // Adopting is sharing: a count bump, not a copy.
                self.sketches = other.sketches.clone();
            } else {
                match (&mut self.sketches, &other.sketches) {
                    (Some(a), Some(b)) => {
                        // Checked before un-sharing: a refused merge
                        // neither copies nor touches anything.
                        for (x, y) in a.iter().zip(b.iter()) {
                            x.check_config(y)?;
                        }
                        for (x, y) in Arc::make_mut(a).iter_mut().zip(b.iter()) {
                            x.try_merge(y).expect("checked sketch config");
                        }
                    }
                    (None, None) => {}
                    _ => self.sketches = None,
                }
            }
        }
        for (a, b) in Arc::make_mut(&mut self.summaries)
            .iter_mut()
            .zip(other.summaries.iter())
        {
            a.merge(b);
        }
        Ok(())
    }

    /// Merge a single attribute's *exact* statistics into attribute `i`.
    /// Sketch state is untouched. Un-shares the exact summaries first; to
    /// fold every attribute, [`merge_attrs`](Self::merge_attrs) un-shares
    /// once.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn merge_attr(&mut self, i: usize, other: &SummaryStats) {
        Arc::make_mut(&mut self.summaries)[i].merge(other);
    }

    /// Merge `others[i]` into attribute `i` for every attribute — the
    /// emission primitive of the columnar scan kernel, which accumulates
    /// per-slot stats in a flat `SummaryStats` array rather than as whole
    /// `CellSummary` values. Un-shares once. Sketch state is untouched; the
    /// kernel folds sketches through
    /// [`attr_sketches_mut`](Self::attr_sketches_mut) in its own pass.
    ///
    /// # Panics
    /// Panics if `others` is not as wide as the summary.
    #[inline]
    pub fn merge_attrs(&mut self, others: &[SummaryStats]) {
        assert_eq!(
            others.len(),
            self.summaries.len(),
            "schema mismatch in merge_attrs"
        );
        for (a, b) in Arc::make_mut(&mut self.summaries).iter_mut().zip(others) {
            a.merge(b);
        }
    }

    /// True if this summary carries sketch partials.
    #[inline]
    pub fn has_sketches(&self) -> bool {
        self.sketches.is_some()
    }

    /// Sketch partials for attribute `i`, if carried.
    #[inline]
    pub fn attr_sketches(&self, i: usize) -> Option<&AttrSketches> {
        self.sketches.as_ref().and_then(|s| s.get(i))
    }

    /// Mutable sketch partials for attribute `i`, if carried — the sketch
    /// emission primitive of the scan kernel. Un-shares the payload first.
    #[inline]
    pub fn attr_sketches_mut(&mut self, i: usize) -> Option<&mut AttrSketches> {
        self.sketches
            .as_mut()
            .and_then(|s| Arc::make_mut(s).get_mut(i))
    }

    /// Attach empty sketch state configured per `spec` if none is carried
    /// yet (no-op when `spec` is disabled or sketches are already present).
    pub fn ensure_sketches(&mut self, spec: &SketchSpec) {
        if spec.enabled && self.sketches.is_none() {
            self.sketches = Some(vec![AttrSketches::new(spec); self.summaries.len()].into());
        }
    }

    /// Approximate in-memory footprint of this Cell's state as if it were
    /// unshared: a payload a clone still shares is counted in full by each
    /// holder, so a sum over Cells over-counts shared state. Nothing
    /// budgets by it yet.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<CellSummary>()
            + self.summaries.len() * SummaryStats::estimated_bytes()
            + self
                .sketches
                .as_ref()
                .map_or(0, |s| s.iter().map(AttrSketches::estimated_bytes).sum())
    }

    /// Exact serialized footprint of the sketch payload alone (0 in
    /// exact-only mode); feeds the `sketch.bytes` counter.
    pub fn sketch_wire_bytes(&self) -> usize {
        self.sketches
            .as_ref()
            .map_or(0, |s| s.iter().map(AttrSketches::wire_bytes).sum())
    }

    /// Exact serialized footprint, for the network cost model: the byte
    /// length of this summary's flat wire form (header word, five words
    /// per exact summary, plus any sketch payload — DESIGN.md §15).
    pub fn wire_bytes(&self) -> usize {
        crate::flat::cell_stats_words(self) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_identity() {
        let mut a = SummaryStats::from_values(&[1.0, 2.0, 3.0]);
        let before = a;
        a.merge(&SummaryStats::empty());
        assert_eq!(a, before);
        let b = SummaryStats::empty().merged(&before);
        assert_eq!(b, before);
    }

    #[test]
    fn push_equals_merge_of_singletons() {
        let vals = [3.0, -1.5, 7.25, 0.0, 42.0];
        let folded = SummaryStats::from_values(&vals);
        let mut merged = SummaryStats::empty();
        for &v in &vals {
            merged.merge(&SummaryStats::of(v));
        }
        assert_eq!(folded, merged);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let a = SummaryStats::from_values(&[1.0, 2.0]);
        let b = SummaryStats::from_values(&[-5.0]);
        let c = SummaryStats::from_values(&[10.0, 0.5, 3.0]);
        assert_eq!(a.merged(&b), b.merged(&a));
        assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
    }

    #[test]
    fn statistics_values() {
        let s = SummaryStats::from_values(&[2.0, 4.0, 6.0, 8.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(8.0));
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.variance(), Some(5.0));
        assert!((s.stddev().unwrap() - 5.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_statistics_are_none() {
        let s = SummaryStats::empty();
        assert!(s.is_empty());
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean(), None);
        assert_eq!(s.variance(), None);
        assert_eq!(s.stddev(), None);
    }

    #[test]
    fn variance_never_negative() {
        // Values engineered for floating-point cancellation.
        let s = SummaryStats::from_values(&[1e8 + 1.0, 1e8 + 1.0, 1e8 + 1.0]);
        assert!(s.variance().unwrap() >= 0.0);
    }

    #[test]
    fn cell_summary_rows() {
        let mut cs = CellSummary::empty(3);
        cs.push_row(&[1.0, 10.0, 100.0]);
        cs.push_row(&[3.0, 30.0, 300.0]);
        assert_eq!(cs.count(), 2);
        assert_eq!(cs.attr(0).unwrap().mean(), Some(2.0));
        assert_eq!(cs.attr(1).unwrap().max(), Some(30.0));
        assert_eq!(cs.attr(2).unwrap().sum, 400.0);
        assert!(cs.attr(3).is_none());
    }

    #[test]
    fn cell_summary_merge_matches_combined_rows() {
        let rows_a = [[1.0, 5.0], [2.0, 6.0]];
        let rows_b = [[3.0, 7.0]];
        let mut a = CellSummary::empty(2);
        for r in &rows_a {
            a.push_row(r);
        }
        let mut b = CellSummary::empty(2);
        for r in &rows_b {
            b.push_row(r);
        }
        let mut all = CellSummary::empty(2);
        for r in rows_a.iter().chain(&rows_b) {
            all.push_row(r);
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn merge_attr_equals_whole_merge() {
        let mut whole = CellSummary::empty(2);
        whole.push_row(&[1.0, 5.0]);
        let other = {
            let mut o = CellSummary::empty(2);
            o.push_row(&[3.0, 7.0]);
            o
        };
        let mut by_attr = whole.clone();
        for i in 0..2 {
            by_attr.merge_attr(i, other.attr(i).unwrap());
        }
        let mut all_attrs = whole.clone();
        all_attrs.merge_attrs(other.attrs());
        whole.merge(&other);
        assert_eq!(by_attr, whole);
        assert_eq!(all_attrs, whole);
    }

    #[test]
    #[should_panic(expected = "schema mismatch")]
    fn merge_rejects_schema_mismatch() {
        let mut a = CellSummary::empty(2);
        let b = CellSummary::empty(3);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn push_row_rejects_width_mismatch() {
        let mut a = CellSummary::empty(2);
        a.push_row(&[1.0]);
    }

    #[test]
    fn estimated_bytes_scales_with_attrs() {
        let small = CellSummary::empty(1);
        let big = CellSummary::empty(8);
        assert!(big.estimated_bytes() > small.estimated_bytes());
    }

    // -- Shared, copy-on-write exact summaries and sketch payload -----------

    fn sketched(spec: &SketchSpec, rows: std::ops::Range<u32>) -> CellStats {
        let mut s = CellStats::empty_with(2, spec);
        for i in rows {
            s.push_row(&[i as f64 * 0.25, (i % 5) as f64]);
        }
        s
    }

    fn exact(rows: std::ops::Range<u32>) -> CellStats {
        sketched(&SketchSpec::default(), rows)
    }

    fn flat_bytes(s: &CellStats) -> Vec<u8> {
        let key = crate::CellKey::new(
            "9q8y".parse().unwrap(),
            stash_geo::TimeBin::containing(stash_geo::TemporalRes::Day, 0),
        );
        crate::FlatPartials::encode(&[(key, s.clone())]).to_bytes()
    }

    fn shares_payload(a: &CellStats, b: &CellStats) -> bool {
        Arc::ptr_eq(a.sketches.as_ref().unwrap(), b.sketches.as_ref().unwrap())
    }

    fn shares_summaries(a: &CellStats, b: &CellStats) -> bool {
        Arc::ptr_eq(&a.summaries, &b.summaries)
    }

    #[test]
    fn every_writer_unshares_and_leaves_clones_untouched() {
        type Writer = fn(&mut CellStats, &CellStats);
        // (name, writer, writes the exact summaries, writes the sketches)
        let writers: [(&str, Writer, bool, bool); 5] = [
            ("push_row", |s, _| s.push_row(&[7.5, 2.0]), true, true),
            ("merge", |s, other| s.merge(other), true, true),
            (
                "merge_attr",
                |s, other| s.merge_attr(1, other.attr(1).unwrap()),
                true,
                false,
            ),
            (
                "merge_attrs",
                |s, other| s.merge_attrs(other.attrs()),
                true,
                false,
            ),
            (
                "attr_sketches_mut",
                |s, _| s.attr_sketches_mut(1).unwrap().push(3.0),
                false,
                true,
            ),
        ];
        let spec = SketchSpec::standard();
        for with_sketches in [false, true] {
            let cell = |rows| {
                if with_sketches {
                    sketched(&spec, rows)
                } else {
                    exact(rows)
                }
            };
            let other = cell(100..140);
            for (name, write, writes_exact, writes_sketches) in writers {
                if !with_sketches && !writes_exact {
                    continue;
                }
                let name = format!("{name}, sketches {with_sketches}");
                let mut original = cell(0..100);
                let mut twin = cell(0..100); // never shared
                let snapshot = original.clone();
                assert!(
                    shares_summaries(&original, &snapshot),
                    "{name}: clone copied"
                );
                if with_sketches {
                    assert!(shares_payload(&original, &snapshot), "{name}: clone copied");
                }
                let before = flat_bytes(&snapshot);

                write(&mut original, &other);
                write(&mut twin, &other);
                assert_eq!(
                    !shares_summaries(&original, &snapshot),
                    writes_exact,
                    "{name}"
                );
                if with_sketches {
                    assert_eq!(
                        !shares_payload(&original, &snapshot),
                        writes_sketches,
                        "{name}"
                    );
                }
                assert_eq!(flat_bytes(&snapshot), before, "{name}: clone changed");
                assert_ne!(original, snapshot, "{name}: write lost");
                assert_eq!(original, twin, "{name}");
                assert_eq!(flat_bytes(&original), flat_bytes(&twin), "{name}");
            }
        }
    }

    #[test]
    fn refused_merge_neither_copies_nor_changes_a_shared_payload() {
        let spec = SketchSpec::standard();
        let mismatched = sketched(
            &SketchSpec {
                hll_precision: spec.hll_precision + 1,
                ..spec.clone()
            },
            0..10,
        );
        let mut original = sketched(&spec, 0..100);
        let snapshot = original.clone();
        let before = flat_bytes(&snapshot);
        assert!(original.merge_strict(&mismatched).is_err());
        assert!(shares_payload(&original, &snapshot), "error path copied");
        assert_eq!(flat_bytes(&original), before);
        assert_eq!(flat_bytes(&snapshot), before);
        assert_eq!(original, sketched(&spec, 0..100));
    }

    #[test]
    fn adopting_merge_shares_instead_of_copying() {
        let spec = SketchSpec::standard();
        let source = sketched(&spec, 0..100);
        let before = flat_bytes(&source);
        let mut acc = CellStats::empty(2);
        acc.merge_strict(&source).unwrap();
        assert!(shares_payload(&acc, &source));
        assert_eq!(acc, source);
        // The accumulator's next fold pays the one copy; the source (a
        // resident Cell, a reply in flight) never sees it.
        acc.merge(&sketched(&spec, 100..140));
        assert_eq!(flat_bytes(&source), before);
        let mut cold = sketched(&spec, 0..100);
        cold.merge(&sketched(&spec, 100..140));
        assert_eq!(flat_bytes(&acc), flat_bytes(&cold));
    }
}

//! Merge laws for the sketch partials — the algebra that makes cached
//! hierarchical roll-ups of sketch-valued Cells answer like a direct fold
//! over the raw observations — plus oracle tests pinning the heavy-hitter
//! candidate table against the ordered-set implementation it replaced,
//! dense-array oracles pinning the sparse-until-dense register file and
//! count-min matrix across their promotion points, merge trees crossing the
//! bundle's raw-until-sketched cap against a direct fold, and corruption
//! tests for the wire decoders.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use stash_flat::{WordReader, WordWriter};
use stash_sketch::{AttrSketches, DistinctSketch, FoldCtx, HeavyHitters, SketchSpec, UddSketch};

/// Unbounded-precision values: exercise the log-bucket and hash paths.
fn arb_values(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1000.0f64..1000.0, 0..max_len)
}

/// Quantized values with a small domain: the regime where the heavy-hitter
/// candidate list is exactly merge-order invariant.
fn arb_quantized(max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec((-40i32..40).prop_map(|i| i as f64), 0..max_len)
}

/// Operand sizes on both sides of both promotion points of [`hll_of`] (64
/// registers: dense from 15 non-zeros) and [`hh_wide_of`] (32 × 3 matrix:
/// dense from 24 non-zero counters, about eight distinct values): a handful
/// of values stays sparse in both, a few dozen promote both, a few hundred
/// saturate them. Merging two draws covers sparse + sparse staying sparse,
/// sparse + sparse crossing, sparse + dense and dense + dense
/// (`every_form_pairing_merges_like_the_dense_fold` pins one of each).
fn arb_spanning() -> impl Strategy<Value = Vec<f64>> {
    let value = || (-300i32..300).prop_map(|i| i as f64 * 0.5);
    prop_oneof![
        prop::collection::vec(value(), 0..6),
        prop::collection::vec(value(), 6..40),
        prop::collection::vec(value(), 300..450),
    ]
}

fn udd_of(values: &[f64]) -> UddSketch {
    let mut s = UddSketch::new(0.02, 32);
    for &v in values {
        s.push(v);
    }
    s
}

fn hll_of(values: &[f64]) -> DistinctSketch {
    let mut s = DistinctSketch::new(6);
    for &v in values {
        s.push(v);
    }
    s
}

fn hh_of(values: &[f64]) -> HeavyHitters {
    let mut s = HeavyHitters::new(32, 3, 128);
    for &v in values {
        s.push(v);
    }
    s
}

/// [`hh_of`] with a cap the 600-value domain of [`arb_spanning`] never
/// reaches, so the candidate set stays exactly merge-order invariant.
fn hh_wide_of(values: &[f64]) -> HeavyHitters {
    let mut s = HeavyHitters::new(32, 3, 1024);
    for &v in values {
        s.push(v);
    }
    s
}

fn bundle_of(values: &[f64]) -> AttrSketches {
    let mut s = AttrSketches::new(&SketchSpec::standard());
    for &v in values {
        s.push(v);
    }
    s
}

/// The `BTreeSet`-backed heavy-hitter implementation this PR replaced,
/// reimplemented verbatim as the oracle for the open-addressed candidate
/// table: same hashes, same 2×-cap trim hysteresis, same largest-
/// `(estimate, bits)` survivor rule. Its canonical state (sorted
/// candidates, matrix, total) must match `HeavyHitters` bit-for-bit.
mod oracle {
    use std::collections::BTreeSet;

    pub fn splitmix64(mut x: u64) -> u64 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    pub fn canonical_bits(v: f64) -> u64 {
        if v == 0.0 {
            0.0f64.to_bits()
        } else if v.is_nan() {
            f64::NAN.to_bits()
        } else {
            v.to_bits()
        }
    }

    pub struct BTreeHh {
        width: usize,
        depth: usize,
        limit: usize,
        pub total: u64,
        pub rows: Vec<u64>,
        candidates: BTreeSet<u64>,
    }

    impl BTreeHh {
        pub fn new(width: usize, depth: usize, limit: usize) -> Self {
            BTreeHh {
                width,
                depth,
                limit,
                total: 0,
                rows: vec![0; width * depth],
                candidates: BTreeSet::new(),
            }
        }

        fn column(&self, bits: u64, d: usize) -> usize {
            (splitmix64(bits ^ (0xC0FF_EE00 + d as u64)) % self.width as u64) as usize
        }

        pub fn push(&mut self, value: f64) {
            let bits = canonical_bits(value);
            self.total += 1;
            for d in 0..self.depth {
                let col = self.column(bits, d);
                self.rows[d * self.width + col] += 1;
            }
            self.candidates.insert(bits);
            self.trim();
        }

        pub fn merge(&mut self, other: &BTreeHh) {
            self.total += other.total;
            for (a, &b) in self.rows.iter_mut().zip(&other.rows) {
                *a += b;
            }
            for &bits in &other.candidates {
                self.candidates.insert(bits);
            }
            self.trim();
        }

        fn trim(&mut self) {
            if self.candidates.len() <= 2 * self.limit {
                return;
            }
            let mut ranked: Vec<(u64, u64)> = self
                .candidates
                .iter()
                .map(|&bits| (self.estimate_bits(bits), bits))
                .collect();
            ranked.sort_unstable();
            self.candidates = ranked[ranked.len() - self.limit..]
                .iter()
                .map(|&(_, bits)| bits)
                .collect();
        }

        fn estimate_bits(&self, bits: u64) -> u64 {
            (0..self.depth)
                .map(|d| self.rows[d * self.width + self.column(bits, d)])
                .min()
                .unwrap_or(0)
        }

        pub fn estimate(&self, value: f64) -> u64 {
            self.estimate_bits(canonical_bits(value))
        }

        /// Sorted candidate bits — the canonical form the table must match.
        pub fn sorted_candidates(&self) -> Vec<u64> {
            self.candidates.iter().copied().collect()
        }
    }
}

/// The register file and the count-min matrix as plain dense arrays, folded
/// from raw values with no notion of a sparse form, and the same arrays
/// expanded from a sketch's flat words (DESIGN.md §15), whichever run —
/// sparse entries or the whole array — the sketch ships.
mod dense {
    use super::oracle::{canonical_bits, splitmix64};
    use stash_flat::WordWriter;
    use stash_sketch::{DistinctSketch, HeavyHitters};

    pub fn registers_of(values: &[f64], precision: u32) -> Vec<u8> {
        let mut regs = vec![0u8; 1 << precision];
        for &v in values {
            let h = splitmix64(canonical_bits(v));
            let rank = ((h << precision).leading_zeros() + 1).min(64 - precision + 1) as u8;
            let r = &mut regs[(h >> (64 - precision)) as usize];
            *r = (*r).max(rank);
        }
        regs
    }

    pub fn matrix_of(values: &[f64], width: usize, depth: usize) -> Vec<u64> {
        let mut rows = vec![0u64; width * depth];
        for &v in values {
            for d in 0..depth {
                let h = splitmix64(canonical_bits(v) ^ (0xC0FF_EE00 + d as u64));
                rows[d * width + (h % width as u64) as usize] += 1;
            }
        }
        rows
    }

    fn words(encode: impl FnOnce(&mut WordWriter)) -> Vec<u64> {
        let mut w = WordWriter::new();
        encode(&mut w);
        w.into_words()
    }

    /// Header `precision | sparse << 8 | n << 32`, then either `n` entries
    /// `index << 8 | rank`, two per word with the earlier in the upper half,
    /// or the registers eight per word, big-endian.
    pub fn registers(s: &DistinctSketch) -> Vec<u8> {
        let words = words(|w| s.flat_encode(w));
        let (head, body) = (words[0], &words[1..]);
        if head & 1 << 8 == 0 {
            return body.iter().flat_map(|w| w.to_be_bytes()).collect();
        }
        let mut regs = vec![0u8; 1 << (head & 0xFF)];
        let halves = body.iter().flat_map(|&w| [(w >> 32) as u32, w as u32]);
        for e in halves.take((head >> 32) as usize) {
            regs[(e >> 8) as usize] = e as u8;
        }
        regs
    }

    /// Header `width, depth, limit, total, k, flags`; then either `n`
    /// entries `index << v | count` (flags `1 << 1 | n << 32`, `v = 64 −
    /// ⌈log₂(width·depth)⌉`) or the matrix row-major; then the `k`
    /// candidates. Returns the matrix and the candidates.
    fn heavy(s: &HeavyHitters) -> (Vec<u64>, Vec<u64>) {
        let words = words(|w| s.flat_encode(w));
        let cells = (words[0] * words[1]) as usize;
        let (k, flags, body) = (words[4] as usize, words[5], &words[6..]);
        let (matrix, candidates) = if flags & 1 << 1 == 0 {
            (body[..cells].to_vec(), &body[cells..])
        } else {
            let n = (flags >> 32) as usize;
            let v = 64 - cells.next_power_of_two().trailing_zeros();
            let mut rows = vec![0u64; cells];
            for &e in &body[..n] {
                rows[(e >> v) as usize] = e & ((1 << v) - 1);
            }
            (rows, &body[n..])
        };
        assert_eq!(candidates.len(), k, "candidates end the words");
        (matrix, candidates.to_vec())
    }

    pub fn matrix(s: &HeavyHitters) -> Vec<u64> {
        heavy(s).0
    }

    pub fn candidates(s: &HeavyHitters) -> Vec<u64> {
        heavy(s).1
    }
}

/// Flat-encode, check the priced length, decode, and hand the words back.
macro_rules! flat_roundtrip {
    ($ty:ty, $s:expr) => {{
        let mut w = WordWriter::new();
        $s.flat_encode(&mut w);
        prop_assert_eq!(w.len(), $s.flat_words());
        let words = w.into_words();
        let mut r = WordReader::new(&words);
        let back = <$ty>::flat_decode(&mut r).unwrap();
        r.finish().unwrap();
        prop_assert_eq!(&back, $s);
        words
    }};
}

/// Build matched (new, oracle) heavy-hitter folds with a cap small enough
/// that continuous values trim constantly.
fn hh_pair(values: &[f64]) -> (HeavyHitters, oracle::BTreeHh) {
    let mut new = HeavyHitters::new(32, 3, 8);
    let mut old = oracle::BTreeHh::new(32, 3, 8);
    for &v in values {
        new.push(v);
        old.push(v);
    }
    (new, old)
}

/// Assert the new table's canonical state matches the oracle bit-for-bit
/// (total, full matrix, sorted candidates).
fn assert_matches_oracle(new: &HeavyHitters, old: &oracle::BTreeHh) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.count(), old.total, "total");
    prop_assert_eq!(dense::matrix(new), &old.rows[..], "count-min matrix");
    prop_assert_eq!(
        dense::candidates(new),
        old.sorted_candidates(),
        "candidate set"
    );
    Ok(())
}

#[test]
fn every_form_pairing_merges_like_the_dense_fold() {
    let run = |lo: i32, hi: i32| -> Vec<f64> { (lo..hi).map(|i| i as f64 * 0.5).collect() };
    // (left, right, left dense?, right dense?, merged dense?)
    let hll_dense = |s: &DistinctSketch| s.flat_words() == 1 + 8;
    for (a, b, forms) in [
        (run(0, 3), run(3, 6), [false, false, false]),
        (run(0, 12), run(12, 24), [false, false, true]),
        (run(0, 5), run(5, 200), [false, true, true]),
        (run(0, 200), run(100, 300), [true, true, true]),
    ] {
        let (sa, sb) = (hll_of(&a), hll_of(&b));
        let mut merged = sa.clone();
        merged.merge(&sb);
        assert_eq!([&sa, &sb, &merged].map(hll_dense), forms);
        let all = [&a[..], &b[..]].concat();
        assert_eq!(merged, hll_of(&all));
        assert_eq!(dense::registers(&merged), dense::registers_of(&all, 6));
    }
    let hh_dense = |s: &HeavyHitters| s.flat_words() == 6 + 96 + dense::candidates(s).len();
    for (a, b, forms) in [
        (run(0, 3), run(2, 5), [false, false, false]),
        (run(0, 6), run(6, 12), [false, false, true]),
        (run(0, 5), run(5, 600), [false, true, true]),
        (run(0, 500), run(100, 600), [true, true, true]),
    ] {
        let (sa, sb) = (hh_wide_of(&a), hh_wide_of(&b));
        let mut merged = sa.clone();
        merged.merge(&sb);
        assert_eq!([&sa, &sb, &merged].map(hh_dense), forms);
        let all = [&a[..], &b[..]].concat();
        assert_eq!(merged, hh_wide_of(&all));
        assert_eq!(dense::matrix(&merged), dense::matrix_of(&all, 32, 3));
    }
}

proptest! {
    #[test]
    fn udd_merge_commutes(a in arb_values(60), b in arb_values(60)) {
        let mut ab = udd_of(&a);
        ab.merge(&udd_of(&b));
        let mut ba = udd_of(&b);
        ba.merge(&udd_of(&a));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn udd_merge_associates(a in arb_values(40), b in arb_values(40), c in arb_values(40)) {
        let mut left = udd_of(&a);
        left.merge(&udd_of(&b));
        left.merge(&udd_of(&c));
        let mut bc = udd_of(&b);
        bc.merge(&udd_of(&c));
        let mut right = udd_of(&a);
        right.merge(&bc);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn udd_partition_equals_whole(values in arb_values(120), split in 0usize..120) {
        let split = split.min(values.len());
        let (lo, hi) = values.split_at(split);
        let mut merged = udd_of(lo);
        merged.merge(&udd_of(hi));
        prop_assert_eq!(merged, udd_of(&values));
    }

    #[test]
    fn udd_quantile_is_within_bound(values in arb_values(120), q in 0.0f64..=1.0) {
        if values.is_empty() {
            return Ok(());
        }
        let s = udd_of(&values);
        let est = s.quantile(q).unwrap();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = ((sorted.len() - 1) as f64 * q).floor() as usize;
        let exact = sorted[rank];
        prop_assert!(
            (est.value - exact).abs() <= est.relative_error * exact.abs() + 1e-9,
            "est {} exact {} bound {}", est.value, exact, est.relative_error
        );
    }

    #[test]
    fn hll_merge_commutes(a in arb_values(60), b in arb_values(60)) {
        let mut ab = hll_of(&a);
        ab.merge(&hll_of(&b));
        let mut ba = hll_of(&b);
        ba.merge(&hll_of(&a));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn hll_partition_equals_whole(values in arb_values(120), split in 0usize..120) {
        let split = split.min(values.len());
        let (lo, hi) = values.split_at(split);
        let mut merged = hll_of(lo);
        merged.merge(&hll_of(hi));
        prop_assert_eq!(merged, hll_of(&values));
    }

    #[test]
    fn hll_merge_is_idempotent(values in arb_values(60)) {
        let s = hll_of(&values);
        let mut doubled = s.clone();
        doubled.merge(&s);
        prop_assert_eq!(doubled, s);
    }

    #[test]
    fn hh_merge_commutes_within_cap(a in arb_quantized(80), b in arb_quantized(80)) {
        let mut ab = hh_of(&a);
        ab.merge(&hh_of(&b));
        let mut ba = hh_of(&b);
        ba.merge(&hh_of(&a));
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn hh_partition_equals_whole_within_cap(values in arb_quantized(150), split in 0usize..150) {
        let split = split.min(values.len());
        let (lo, hi) = values.split_at(split);
        let mut merged = hh_of(lo);
        merged.merge(&hh_of(hi));
        prop_assert_eq!(merged, hh_of(&values));
    }

    #[test]
    fn hh_estimate_brackets_true_count(values in arb_quantized(150)) {
        let s = hh_of(&values);
        for target in [-40.0f64, -1.0, 0.0, 1.0, 39.0] {
            let true_count = values.iter().filter(|&&v| v == target).count() as u64;
            let est = s.estimate(target);
            prop_assert!(est >= true_count);
            prop_assert!(est <= true_count + s.error_bound());
        }
    }

    #[test]
    fn bundle_partition_equals_whole(values in arb_quantized(150), split in 0usize..150) {
        let split = split.min(values.len());
        let (lo, hi) = values.split_at(split);
        let mut merged = bundle_of(lo);
        merged.merge(&bundle_of(hi));
        prop_assert_eq!(merged, bundle_of(&values));
    }

    // ---- open-addressed candidate table vs. the BTreeSet oracle ----

    #[test]
    fn hh_table_matches_btreeset_oracle_on_fold(values in arb_values(200)) {
        // Continuous values + cap 8: eviction fires constantly, exercising
        // the trim path where the two implementations could diverge.
        let (new, old) = hh_pair(&values);
        assert_matches_oracle(&new, &old)?;
        for &v in values.iter().take(10) {
            prop_assert_eq!(new.estimate(v), old.estimate(v));
        }
    }

    #[test]
    fn hh_table_matches_btreeset_oracle_on_merge(
        values in arb_values(200),
        split in 0usize..200,
    ) {
        let split = split.min(values.len());
        let (lo, hi) = values.split_at(split);
        let (mut new, mut old) = hh_pair(lo);
        let (new_hi, old_hi) = hh_pair(hi);
        new.merge(&new_hi);
        old.merge(&old_hi);
        assert_matches_oracle(&new, &old)?;
    }

    #[test]
    fn hh_table_matches_btreeset_oracle_on_quantized_merge_tree(
        a in arb_quantized(80), b in arb_quantized(80), c in arb_quantized(80),
    ) {
        // Same shapes as the merge-law tests above, checked against the
        // oracle instead of against another fold of the new code.
        let (mut new, mut old) = hh_pair(&a);
        let (new_b, old_b) = hh_pair(&b);
        let (mut new_bc, mut old_bc) = hh_pair(&c);
        new_bc.merge(&new_b);
        old_bc.merge(&old_b);
        new.merge(&new_bc);
        old.merge(&old_bc);
        assert_matches_oracle(&new, &old)?;
    }

    // ---- prepared/batched folds are bit-identical to plain pushes ----

    #[test]
    fn prepared_fold_matches_push_fold(values in arb_values(150)) {
        let spec = SketchSpec::standard();
        let ctx = FoldCtx::new(&spec);
        let mut pushed = AttrSketches::new(&spec);
        let mut prepared = AttrSketches::new(&spec);
        for &v in &values {
            pushed.push(v);
            let pv = ctx.prepare(v);
            prepared.push_prepared_batch(&[pv], &[(pv.quantile_key(), 1)]);
        }
        prop_assert_eq!(prepared, pushed);
    }

    // ---- sparse-until-dense state vs. plain dense arrays ----

    #[test]
    fn hll_merge_laws_hold_across_promotion(
        a in arb_spanning(), b in arb_spanning(), c in arb_spanning(),
    ) {
        let (sa, sb, sc) = (hll_of(&a), hll_of(&b), hll_of(&c));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        let mut left = ab.clone();
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        // Partition equals whole, and both equal the plain dense fold.
        let all: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        let whole = hll_of(&all);
        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(dense::registers(&left), dense::registers_of(&all, 6));
        prop_assert_eq!(dense::registers(&ab), dense::registers_of(&[&a[..], &b[..]].concat(), 6));
        // The form is a function of the non-zero count alone: merged and
        // folded states encode to the same words, sparse below 15 entries.
        for s in [&ab, &left, &right, &whole] {
            let nonzero = dense::registers(s).iter().filter(|&&r| r != 0).count();
            let run = if nonzero < 15 { nonzero.div_ceil(2) } else { 8 };
            prop_assert_eq!(s.flat_words(), 1 + run);
        }
        prop_assert_eq!(flat_roundtrip!(DistinctSketch, &left), flat_roundtrip!(DistinctSketch, &whole));
    }

    #[test]
    fn hh_merge_laws_hold_across_promotion(
        a in arb_spanning(), b in arb_spanning(), c in arb_spanning(),
    ) {
        let (sa, sb, sc) = (hh_wide_of(&a), hh_wide_of(&b), hh_wide_of(&c));
        let mut ab = sa.clone();
        ab.merge(&sb);
        let mut ba = sb.clone();
        ba.merge(&sa);
        prop_assert_eq!(&ab, &ba);
        let mut left = ab.clone();
        left.merge(&sc);
        let mut bc = sb.clone();
        bc.merge(&sc);
        let mut right = sa.clone();
        right.merge(&bc);
        prop_assert_eq!(&left, &right);
        let all: Vec<f64> = a.iter().chain(&b).chain(&c).copied().collect();
        let whole = hh_wide_of(&all);
        prop_assert_eq!(&left, &whole);
        prop_assert_eq!(dense::matrix(&left), dense::matrix_of(&all, 32, 3));
        prop_assert_eq!(dense::matrix(&ab), dense::matrix_of(&[&a[..], &b[..]].concat(), 32, 3));
        for s in [&ab, &left, &right, &whole] {
            let nonzero = dense::matrix(s).iter().filter(|&&c| c != 0).count();
            let run = if nonzero < 24 { nonzero } else { 96 };
            prop_assert_eq!(s.flat_words(), 6 + run + dense::candidates(s).len());
        }
        prop_assert_eq!(flat_roundtrip!(HeavyHitters, &left), flat_roundtrip!(HeavyHitters, &whole));
    }

    #[test]
    fn prepared_batches_match_pushes_across_promotion(values in arb_spanning(), chunk in 1usize..80) {
        // The scan kernel's entry points: raw targets take the values while
        // they fit, and the run that would pass the cap arrives prepared and
        // promotes the bundle. A raw cap of 8 (16 candidates) promotes while
        // the register file and matrix are still sparse lists, so later runs
        // search them or cross them into the dense arrays, and draws past
        // 2 × 16 distinct values trim inside a batch; a cap of 64 (1 024
        // candidates) promotes the larger draws straight into the dense arrays.
        for hh_candidates in [16, 1024] {
            let spec = SketchSpec { hll_precision: 6, cm_width: 32, hh_candidates, ..SketchSpec::standard() };
            let ctx = FoldCtx::new(&spec);
            let mut pushed = AttrSketches::new(&spec);
            let mut batched = AttrSketches::new(&spec);
            for run in values.chunks(chunk) {
                for &v in run {
                    pushed.push(v);
                }
                if batched.try_extend_raw(run) {
                    continue;
                }
                let prepared: Vec<_> = run.iter().map(|&v| ctx.prepare(v)).collect();
                let tally: Vec<_> = prepared.iter().map(|pv| (pv.quantile_key(), 1)).collect();
                batched.push_prepared_batch(&prepared, &tally);
            }
            prop_assert_eq!(batched.is_raw(), values.len() <= spec.raw_cap());
            let (quantile, hll, heavy) = batched.to_sketches();
            let (pushed_quantile, pushed_hll, _) = pushed.to_sketches();
            prop_assert_eq!(&quantile, &pushed_quantile);
            prop_assert_eq!(&hll, &pushed_hll);
            prop_assert_eq!(dense::registers(&hll), dense::registers_of(&values, 6));
            prop_assert_eq!(dense::matrix(&heavy), dense::matrix_of(&values, 32, 3));
            prop_assert_eq!(&batched, &pushed);
            prop_assert_eq!(flat_roundtrip!(AttrSketches, &batched), flat_roundtrip!(AttrSketches, &pushed));
        }
    }

    // ---- the raw form: exact below its cap, the sketches above ----

    #[test]
    fn raw_form_merge_trees_equal_the_direct_fold(
        parts in prop::collection::vec(
            prop_oneof![arb_quantized(40), arb_values(40), arb_values(90)],
            1..7,
        ),
        picks in prop::collection::vec(any::<usize>(), 6),
        flips in prop::collection::vec(any::<bool>(), 6),
    ) {
        // Parts from empty to past the 64-value cap, merged along a random
        // tree with random operand order: merged raw runs, runs promoted
        // by a merge, raw into sketched and sketched into raw. At most 540
        // values: no candidate set ever trims, so every form must land on
        // the direct fold's state.
        let spec = SketchSpec::standard();
        let all: Vec<f64> = parts.concat();
        let mut level: Vec<AttrSketches> = parts.iter().map(|p| bundle_of(p)).collect();
        for (&pick, &flip) in picks.iter().zip(&flips) {
            if level.len() < 2 {
                break;
            }
            let i = pick % (level.len() - 1);
            let right = level.remove(i + 1);
            let left = &mut level[i];
            if flip {
                let mut r = right;
                r.merge(left);
                *left = r;
            } else {
                left.merge(&right);
            }
        }
        let merged = level.into_iter().reduce(|mut a, b| { a.merge(&b); a }).unwrap();
        let direct = bundle_of(&all);
        prop_assert_eq!(&merged, &direct);
        prop_assert_eq!(merged.is_raw(), all.len() <= spec.raw_cap());
        prop_assert_eq!(merged.count(), all.len() as u64);
        // Encoded state: one canonical word sequence.
        prop_assert_eq!(flat_roundtrip!(AttrSketches, &merged), flat_roundtrip!(AttrSketches, &direct));
        if merged.is_raw() {
            prop_assert_eq!(merged.flat_words(), 3 + all.len());
        }
        // Every estimator equals the plain sketches' direct per-value fold.
        let (q, d, h) = merged.to_sketches();
        let mut sq = UddSketch::new(spec.quantile_alpha, spec.quantile_max_buckets);
        let mut sd = DistinctSketch::new(spec.hll_precision);
        let mut sh = HeavyHitters::new(spec.cm_width, spec.cm_depth, spec.hh_candidates);
        for &v in &all {
            sq.push(v);
            sd.push(v);
            sh.push(v);
        }
        prop_assert_eq!(&q, &sq);
        prop_assert_eq!(&d, &sd);
        prop_assert_eq!(&h, &sh);
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile(p), sq.quantile(p));
        }
        prop_assert_eq!(merged.distinct().count.to_bits(), sd.estimate().count.to_bits());
        prop_assert_eq!(merged.top_k_report(8), sh.top_k_report(8));
    }

    #[test]
    fn try_merge_refuses_another_specs_bundle_in_either_form(
        ours in prop_oneof![arb_values(10), arb_values(120)],
        theirs in prop_oneof![arb_values(10), arb_values(120)],
        which in 0usize..5,
    ) {
        let spec = SketchSpec::standard();
        let mut other_spec = spec.clone();
        match which {
            0 => other_spec.quantile_alpha = 0.02,
            1 => other_spec.quantile_max_buckets = 32,
            2 => other_spec.hll_precision = 6,
            3 => other_spec.cm_width = 32,
            _ => other_spec.hh_candidates = 100,
        }
        let mut a = bundle_of(&ours);
        let before = a.clone();
        let mut b = AttrSketches::new(&other_spec);
        for &v in &theirs {
            b.push(v);
        }
        prop_assert!(a.try_merge(&b).is_err());
        prop_assert_eq!(&a, &before);
        prop_assert!(a.check_config(&b).is_err());
    }

    // ---- wire-form corruption never panics ----

    #[test]
    fn corrupt_flat_bundles_never_panic(
        values in prop_oneof![arb_values(12), arb_values(60), arb_values(1200)],
        flip_word in 0usize..4096,
        flip_bit in 0u32..64,
    ) {
        // Continuous values, none to a thousand: a standard bundle's matrix
        // (dense from 48 counters) and register file (from 63) in either
        // form, independently.
        let bundle = bundle_of(&values);
        let mut w = WordWriter::new();
        bundle.flat_encode(&mut w);
        let words = w.into_words();
        // Truncation at every prefix: an error, never a panic.
        for cut in 0..words.len() {
            prop_assert!(AttrSketches::flat_decode(&mut WordReader::new(&words[..cut])).is_err());
        }
        // A single bit flip anywhere in the payload: same contract. (A
        // flip can leave the words decodable — that's fine; the property
        // is panic-freedom, not detection.)
        let mut flipped = words.clone();
        let i = flip_word % flipped.len();
        flipped[i] ^= 1u64 << flip_bit;
        let _ = AttrSketches::flat_decode(&mut WordReader::new(&flipped));
        // The untouched buffer still roundtrips.
        let back = AttrSketches::flat_decode(&mut WordReader::new(&words)).unwrap();
        prop_assert_eq!(back, bundle);
    }
}

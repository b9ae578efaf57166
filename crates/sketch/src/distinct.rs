//! HyperLogLog distinct-count estimator with linear-counting correction.
//!
//! The partial state is a file of `2^p` 6-bit ranks: register `j` holds the
//! maximum number of leading zero bits (+1) seen in the hashed suffix of any
//! value routed to `j`. Merging is register-wise `max`, which is idempotent,
//! commutative, and associative — bit-for-bit merge-order invariance for
//! free. The accessor applies the standard HLL harmonic-mean estimator,
//! falling back to linear counting over the empty registers in the
//! small-cardinality regime where it is strictly more accurate.
//!
//! The register file is held **sparse until dense** (the HLL++ idea): a
//! sorted list of the non-zero registers while that is smaller than the
//! byte array, the byte array from then on. Registers only ever move away
//! from zero, so the number of non-zero registers only grows and the form
//! is a pure function of it — never demoted, and therefore as
//! merge-order-invariant as the registers themselves. The flat wire form
//! mirrors the memory form, so a Cell that saw a handful of rows costs a
//! handful of words to keep, copy and ship (DESIGN.md §14, §15).

use crate::error::MergeError;
use crate::hash::hash_value;
use crate::sparse::{coalesce, merge_run, upsert, RUN_BUFFER};
use stash_flat::{FlatError, WordReader, WordWriter};

/// A distinct-count estimate plus its standard error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistinctEstimate {
    /// Estimated number of distinct values.
    pub count: f64,
    /// Relative standard error of the estimator (≈ 1.04/√m); the true
    /// cardinality lies within ±3·`standard_error`·`count` with high
    /// probability.
    pub standard_error: f64,
}

impl DistinctEstimate {
    /// The estimate rounded to a whole count.
    pub fn rounded(&self) -> u64 {
        self.count.round().max(0.0) as u64
    }
}

/// The register file, sparse until dense.
#[derive(Debug, Clone)]
enum Registers {
    /// The non-zero registers as `index << 8 | rank`, ascending by index.
    /// Held while there are fewer than [`promote_at`] of them.
    Sparse(Vec<u32>),
    /// One max-rank byte per register.
    Dense(Vec<u8>),
}

/// Header tag (bit 8 of word 0) of a sparse flat run; the entry count sits
/// in the word's upper half.
const SPARSE_TAG: u64 = 1 << 8;

/// Words of a sparse flat run of `n` entries: two 32-bit entries per word.
#[inline]
const fn sparse_run_words(n: usize) -> usize {
    n.div_ceil(2)
}

/// The promotion point for `m` registers: the smallest non-zero count whose
/// sparse run (`⌈n/2⌉` words) is no smaller than the dense run (`m/8`
/// words) — one short of a quarter of the registers. Fewer are held and
/// shipped sparse, that many or more dense: a function of the register
/// count alone.
#[inline]
const fn promote_at(m: usize) -> usize {
    m / 4 - 1
}

#[inline]
const fn entry(idx: usize, rank: u8) -> u32 {
    (idx as u32) << 8 | rank as u32
}

/// Register index of a sparse entry.
#[inline]
fn index(e: u32) -> usize {
    (e >> 8) as usize
}

impl Registers {
    /// The canonical form of a dense register file.
    fn from_dense(regs: Vec<u8>) -> Self {
        let nonzero = regs.iter().filter(|&&r| r != 0).count();
        if nonzero >= promote_at(regs.len()) {
            return Registers::Dense(regs);
        }
        let mut entries = Vec::with_capacity(nonzero);
        entries.extend(
            regs.iter()
                .enumerate()
                .filter(|(_, &r)| r != 0)
                .map(|(i, &r)| entry(i, r)),
        );
        Registers::Sparse(entries)
    }

    /// The dense register file of either form.
    fn to_dense(&self, m: usize) -> Vec<u8> {
        match self {
            Registers::Dense(regs) => regs.clone(),
            Registers::Sparse(entries) => {
                let mut regs = vec![0u8; m];
                for &e in entries {
                    regs[index(e)] = e as u8;
                }
                regs
            }
        }
    }
}

/// Mergeable distinct-count sketch (the partial state of the two-step
/// aggregate).
#[derive(Debug, Clone)]
pub struct DistinctSketch {
    /// log₂ of the register count.
    precision: u8,
    registers: Registers,
}

/// Two sketches are equal when their registers are; which form holds them
/// is irrelevant (and, at rest, determined by them).
impl PartialEq for DistinctSketch {
    fn eq(&self, other: &Self) -> bool {
        self.precision == other.precision
            && match (&self.registers, &other.registers) {
                (Registers::Sparse(a), Registers::Sparse(b)) => a == b,
                (Registers::Dense(a), Registers::Dense(b)) => a == b,
                (Registers::Sparse(s), Registers::Dense(d))
                | (Registers::Dense(d), Registers::Sparse(s)) => {
                    d.iter().filter(|&&r| r != 0).count() == s.len()
                        && s.iter().all(|&e| d[index(e)] == e as u8)
                }
            }
    }
}

impl DistinctSketch {
    /// An empty sketch with `2^precision` registers.
    ///
    /// # Panics
    /// Panics unless `4 ≤ precision ≤ 16`.
    pub fn new(precision: u8) -> Self {
        assert!(
            (4..=16).contains(&precision),
            "hll precision must be in 4..=16"
        );
        DistinctSketch {
            precision,
            registers: Registers::Sparse(Vec::new()),
        }
    }

    /// Register count `m = 2^p`.
    #[inline]
    fn m(&self) -> usize {
        1 << self.precision
    }

    /// Register index and rank of a digest.
    #[inline]
    fn route(precision: u8, h: u64) -> (usize, u8) {
        let p = precision as u32;
        // Rank of the remaining 64−p bits: leading zeros + 1, capped so an
        // all-zero suffix stays representable.
        let rank = ((h << p).leading_zeros() as u8 + 1).min(64 - precision + 1);
        ((h >> (64 - p)) as usize, rank)
    }

    /// Fold in a run of entries, ascending strictly by index: every named
    /// register rises to at least the entry's rank, and the sparse list is
    /// promoted once it reaches the promotion point.
    fn absorb(&mut self, run: &[u32]) {
        match &mut self.registers {
            Registers::Dense(regs) => {
                for &e in run {
                    let r = &mut regs[index(e)];
                    *r = (*r).max(e as u8);
                }
            }
            Registers::Sparse(entries) => {
                // Entries of one index differ in rank only: the larger wins.
                merge_run(entries, run, index, u32::max);
                if entries.len() >= promote_at(1 << self.precision) {
                    self.promote();
                }
            }
        }
    }

    /// Switch to the dense form. Private: below the promotion point the
    /// result is an equal sketch in a form the wire decoder rejects, so a
    /// caller that is not at or past it must [`canonicalize`](Self::canonicalize)
    /// before returning (only the long-batch fold does; tests use it to
    /// pin the accessors' independence of the form).
    fn promote(&mut self) {
        if let Registers::Sparse(_) = self.registers {
            self.registers = Registers::Dense(self.registers.to_dense(self.m()));
        }
    }

    /// Return to the canonical form after [`promote`](Self::promote).
    fn canonicalize(&mut self) {
        if let Registers::Dense(regs) = &mut self.registers {
            self.registers = Registers::from_dense(std::mem::take(regs));
        }
    }

    /// True iff the held form is the one the non-zero count prescribes —
    /// what every `&self` outside this module sees.
    fn is_canonical(&self) -> bool {
        let promote_at = promote_at(self.m());
        match &self.registers {
            Registers::Sparse(entries) => entries.len() < promote_at,
            Registers::Dense(regs) => regs.iter().filter(|&&r| r != 0).count() >= promote_at,
        }
    }

    /// Fold one observation in.
    pub fn push(&mut self, value: f64) {
        self.push_hashed(hash_value(value));
    }

    /// Fold one observation in from its precomputed `hash_value` digest —
    /// bit-identical to [`push`](Self::push), with the hash shared across
    /// fold targets (see [`FoldCtx`](crate::FoldCtx)).
    #[inline]
    pub(crate) fn push_hashed(&mut self, h: u64) {
        let (idx, rank) = Self::route(self.precision, h);
        match &mut self.registers {
            Registers::Dense(regs) => regs[idx] = regs[idx].max(rank),
            Registers::Sparse(entries) => {
                upsert(entries, entry(idx, rank), index, u32::max);
                if entries.len() >= promote_at(1 << self.precision) {
                    self.promote();
                }
            }
        }
    }

    /// Fold a run of precomputed digests in — bit-identical to calling
    /// [`push_hashed`](Self::push_hashed) once per digest (register max is
    /// order-invariant). Into the sparse list the digests go as sorted
    /// runs, one merge pass each; a batch that could promote the list by
    /// itself folds into the byte array instead and returns to the
    /// canonical form afterwards.
    pub(crate) fn push_hashed_batch<I: ExactSizeIterator<Item = u64>>(&mut self, mut hashes: I) {
        let precision = self.precision;
        let sparse = matches!(self.registers, Registers::Sparse(_));
        if sparse && hashes.len() < promote_at(self.m()) {
            let mut run = [0u32; RUN_BUFFER];
            loop {
                let mut n = 0;
                for h in hashes.by_ref().take(RUN_BUFFER) {
                    let (idx, rank) = Self::route(precision, h);
                    run[n] = entry(idx, rank);
                    n += 1;
                }
                if n == 0 {
                    return;
                }
                let n = coalesce(&mut run[..n], index, u32::max);
                self.absorb(&run[..n]);
            }
        }
        self.promote();
        let Registers::Dense(regs) = &mut self.registers else {
            unreachable!("promote leaves the dense form");
        };
        for h in hashes {
            let (idx, rank) = Self::route(precision, h);
            if rank > regs[idx] {
                regs[idx] = rank;
            }
        }
        if sparse {
            self.canonicalize();
        }
    }

    /// log₂ of the register count: the configuration a merge must match.
    pub(crate) fn precision(&self) -> u8 {
        self.precision
    }

    /// Refuse to merge differently-configured sketches (see
    /// [`try_merge`](Self::try_merge)).
    pub(crate) fn check_config(&self, other: &DistinctSketch) -> Result<(), MergeError> {
        if self.precision == other.precision {
            Ok(())
        } else {
            Err(MergeError::ConfigMismatch { sketch: "distinct" })
        }
    }

    /// Merge another sketch into this one (register-wise max). On a
    /// precision mismatch — reachable with wire-delivered partials from a
    /// misconfigured peer — returns an error and leaves `self` untouched.
    pub fn try_merge(&mut self, other: &DistinctSketch) -> Result<(), MergeError> {
        self.check_config(other)?;
        match &other.registers {
            Registers::Sparse(entries) => self.absorb(entries),
            Registers::Dense(theirs) => {
                // The union has at least their non-zeros: it is dense.
                self.promote();
                let Registers::Dense(ours) = &mut self.registers else {
                    unreachable!("promote leaves the dense form");
                };
                for (a, &b) in ours.iter_mut().zip(theirs) {
                    if b > *a {
                        *a = b;
                    }
                }
            }
        }
        Ok(())
    }

    /// Merge another sketch into this one (register-wise max).
    ///
    /// # Panics
    /// Panics if the two sketches were configured differently; use
    /// [`try_merge`](Self::try_merge) when the other side arrived over the
    /// wire.
    pub fn merge(&mut self, other: &DistinctSketch) {
        if let Err(e) = self.try_merge(other) {
            panic!("{e} (DistinctSketch::merge)");
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        match &self.registers {
            Registers::Sparse(entries) => entries.is_empty(),
            Registers::Dense(regs) => regs.iter().all(|&r| r == 0),
        }
    }

    /// The accessor: estimated distinct count with its standard error.
    ///
    /// Computed from the rank histogram (how many registers hold each
    /// rank), summed in rank order — the same additions whichever form
    /// holds the registers, so the estimate's bits cannot depend on it.
    pub fn estimate(&self) -> DistinctEstimate {
        let m = self.m();
        // Ranks are at most 64 − 4 + 1; bin 0 counts the empty registers.
        let mut histogram = [0u32; 65];
        match &self.registers {
            Registers::Sparse(entries) => {
                histogram[0] = (m - entries.len()) as u32;
                for &e in entries {
                    histogram[(e & 0xFF) as usize] += 1;
                }
            }
            Registers::Dense(regs) => {
                for &r in regs {
                    histogram[r as usize] += 1;
                }
            }
        }
        let zeros = histogram[0];
        let denom: f64 = histogram
            .iter()
            .enumerate()
            .map(|(r, &n)| n as f64 * 2f64.powi(-(r as i32)))
            .sum();
        let m = m as f64;
        let alpha = match self.precision {
            4 => 0.673,
            5 => 0.697,
            6 => 0.709,
            _ => 0.7213 / (1.0 + 1.079 / m),
        };
        let raw = alpha * m * m / denom;
        let count = if raw <= 2.5 * m && zeros > 0 {
            // Linear counting over the empty registers.
            m * (m / zeros as f64).ln()
        } else {
            raw
        };
        DistinctEstimate {
            count,
            standard_error: 1.04 / m.sqrt(),
        }
    }

    /// In-memory footprint, for cache budgets: the struct plus whatever the
    /// held form has allocated.
    pub fn estimated_bytes(&self) -> usize {
        std::mem::size_of::<DistinctSketch>()
            + match &self.registers {
                Registers::Sparse(entries) => entries.capacity() * 4,
                Registers::Dense(regs) => regs.capacity(),
            }
    }

    /// Exact serialized footprint: the flat wire form's byte length.
    pub fn wire_bytes(&self) -> usize {
        self.flat_words() * 8
    }

    /// Words of this sketch's flat encoding (DESIGN.md §15): one header
    /// word plus `⌈n/2⌉` words for `n` sparse entries or `2^p / 8` packed
    /// register words — read off the held form, no register is visited.
    pub fn flat_words(&self) -> usize {
        1 + match &self.registers {
            Registers::Sparse(entries) => sparse_run_words(entries.len()),
            Registers::Dense(regs) => regs.len() / 8,
        }
    }

    /// Append the flat wire form to `w`, mirroring the held form. Sparse:
    /// header `precision | SPARSE_TAG | n << 32`, then the entries two per
    /// word, the earlier one in the upper half, a trailing half zero.
    /// Dense: header `precision`, then registers packed big-endian eight
    /// per word in register order. Both are canonical.
    pub fn flat_encode(&self, w: &mut WordWriter) {
        debug_assert!(self.is_canonical(), "encoding a non-canonical form");
        match &self.registers {
            Registers::Sparse(entries) => {
                w.push_u64(self.precision as u64 | SPARSE_TAG | (entries.len() as u64) << 32);
                for pair in entries.chunks(2) {
                    let lo = pair.get(1).copied().unwrap_or(0);
                    w.push_u64((pair[0] as u64) << 32 | lo as u64);
                }
            }
            Registers::Dense(regs) => {
                w.push_u64(self.precision as u64);
                for chunk in regs.chunks_exact(8) {
                    w.push_u64(u64::from_be_bytes(chunk.try_into().expect("chunks(8)")));
                }
            }
        }
    }

    /// Decode a flat wire form, validating precision, register ranks and
    /// that the run is the canonical one for its non-zero count (so equal
    /// states have one encoding). Never panics on corrupt input.
    pub fn flat_decode(r: &mut WordReader) -> Result<Self, FlatError> {
        let header = r.u64()?;
        let precision = header & 0xFF;
        if !(4..=16).contains(&precision) {
            return Err(FlatError::Corrupt("invalid hll precision"));
        }
        let precision = precision as u8;
        let m = 1usize << precision;
        let max_rank = 64 - precision + 1;
        let n = (header >> 32) as usize;
        let registers = match header & 0xFFFF_FF00 {
            SPARSE_TAG => {
                if n >= promote_at(m) {
                    return Err(FlatError::Corrupt("hll sparse run at or above promotion"));
                }
                // `take` bounds the run by the buffer before anything is
                // allocated for it.
                let words = r.take(sparse_run_words(n))?;
                let mut entries = Vec::with_capacity(n);
                let mut next_idx = 0usize;
                for i in 0..n {
                    let e = (words[i / 2] >> (32 * (1 - i % 2))) as u32;
                    let (idx, rank) = ((e >> 8) as usize, e as u8);
                    if idx < next_idx || idx >= m {
                        return Err(FlatError::Corrupt("hll sparse index out of order"));
                    }
                    if rank == 0 || rank > max_rank {
                        return Err(FlatError::Corrupt("hll register rank out of range"));
                    }
                    next_idx = idx + 1;
                    entries.push(e);
                }
                if n % 2 == 1 && words[n / 2] as u32 != 0 {
                    return Err(FlatError::Corrupt("hll sparse padding not zero"));
                }
                Registers::Sparse(entries)
            }
            0 if n == 0 => {
                let mut regs = Vec::with_capacity(m);
                for word in r.take(m / 8)? {
                    regs.extend_from_slice(&word.to_be_bytes());
                }
                if regs.iter().any(|&rk| rk > max_rank) {
                    return Err(FlatError::Corrupt("hll register rank out of range"));
                }
                if regs.iter().filter(|&&rk| rk != 0).count() < promote_at(m) {
                    return Err(FlatError::Corrupt("hll dense run below promotion"));
                }
                Registers::Dense(regs)
            }
            _ => return Err(FlatError::Corrupt("invalid hll header")),
        };
        Ok(DistinctSketch {
            precision,
            registers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: impl IntoIterator<Item = f64>) -> DistinctSketch {
        let mut s = DistinctSketch::new(8);
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn empty_estimates_zero() {
        let s = DistinctSketch::new(8);
        assert!(s.is_empty());
        assert_eq!(s.estimate().rounded(), 0);
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let once = sketch_of((0..50).map(f64::from));
        let thrice = sketch_of((0..150).map(|i| f64::from(i % 50)));
        assert_eq!(once, thrice);
    }

    #[test]
    fn estimate_tracks_true_cardinality() {
        for n in [10usize, 100, 1000, 10_000] {
            let s = sketch_of((0..n).map(|i| i as f64 * 1.25));
            let est = s.estimate();
            let tolerance = (3.0 * est.standard_error * n as f64).max(2.0);
            assert!(
                (est.count - n as f64).abs() <= tolerance,
                "n={n}: estimate {} (±{tolerance})",
                est.count
            );
        }
    }

    #[test]
    fn merge_is_bit_identical_to_whole_fold() {
        let values: Vec<f64> = (0..400).map(|i| ((i * 13) % 177) as f64).collect();
        for split in [0, 1, 200, 400] {
            let (lo, hi) = values.split_at(split);
            let mut merged = sketch_of(lo.iter().copied());
            merged.merge(&sketch_of(hi.iter().copied()));
            assert_eq!(merged, sketch_of(values.iter().copied()), "split {split}");
        }
    }

    #[test]
    #[should_panic(expected = "sketch config mismatch")]
    fn merge_rejects_config_mismatch() {
        let mut a = DistinctSketch::new(8);
        a.merge(&DistinctSketch::new(9));
    }

    #[test]
    fn try_merge_errors_without_mutating() {
        let mut a = sketch_of([1.0, 2.0]);
        let before = a.clone();
        let err = a.try_merge(&DistinctSketch::new(9)).unwrap_err();
        assert_eq!(err, MergeError::ConfigMismatch { sketch: "distinct" });
        assert_eq!(a, before, "failed merge must leave the receiver intact");
        assert!(a.try_merge(&sketch_of([3.0])).is_ok());
    }

    fn flat_words_of(s: &DistinctSketch) -> Vec<u64> {
        let mut w = WordWriter::new();
        s.flat_encode(&mut w);
        assert_eq!(w.len(), s.flat_words());
        assert_eq!(w.len() * 8, s.wire_bytes());
        w.into_words()
    }

    fn decode(words: &[u64]) -> Result<DistinctSketch, FlatError> {
        let mut r = WordReader::new(words);
        let s = DistinctSketch::flat_decode(&mut r)?;
        r.finish()?;
        Ok(s)
    }

    fn is_sparse(s: &DistinctSketch) -> bool {
        matches!(s.registers, Registers::Sparse(_))
    }

    fn nonzero(s: &DistinctSketch) -> usize {
        let regs = s.registers.to_dense(s.m());
        regs.iter().filter(|&&r| r != 0).count()
    }

    #[test]
    fn promotes_exactly_at_the_promotion_point() {
        // p = 8: 256 registers, dense run 32 words, so 62 entries (31
        // words) are the last sparse state.
        assert_eq!(promote_at(256), 63);
        let mut s = DistinctSketch::new(8);
        for i in 0..2000 {
            s.push(i as f64 * 0.75);
            let nonzero = nonzero(&s);
            assert_eq!(is_sparse(&s), nonzero < 63, "at {nonzero} non-zeros");
            let run = if nonzero < 63 {
                nonzero.div_ceil(2)
            } else {
                32
            };
            assert_eq!(s.flat_words(), 1 + run);
        }
        assert!(!is_sparse(&s));
    }

    #[test]
    fn accessors_do_not_depend_on_the_form() {
        for n in [0usize, 1, 7, 40, 62, 63, 500] {
            let held = sketch_of((0..n).map(|i| i as f64 * 1.5 - 9.0));
            let mut dense = held.clone();
            dense.promote();
            let via_flat = decode(&flat_words_of(&held)).unwrap();
            for other in [&dense, &via_flat] {
                assert_eq!(other, &held, "n={n}");
                assert_eq!(
                    other.estimate().count.to_bits(),
                    held.estimate().count.to_bits(),
                    "n={n}"
                );
                assert_eq!(other.is_empty(), held.is_empty());
            }
            // Flat decoding lands in the canonical form.
            assert_eq!(is_sparse(&via_flat), is_sparse(&held));
            // Both forms hold the same register file.
            assert_eq!(
                dense.registers.to_dense(dense.m()),
                held.registers.to_dense(held.m())
            );
        }
    }

    #[test]
    fn batch_fold_matches_single_pushes_in_state_and_form() {
        for n in [3usize, 31, 32, 70, 400] {
            for distinct in [2usize, 40, 400] {
                let values: Vec<f64> = (0..n).map(|i| (i % distinct) as f64).collect();
                let mut batched = sketch_of([100.0, 200.0]);
                batched.push_hashed_batch(values.iter().map(|&v| hash_value(v)));
                let single = sketch_of([100.0, 200.0].into_iter().chain(values));
                assert_eq!(batched, single);
                assert_eq!(
                    is_sparse(&batched),
                    is_sparse(&single),
                    "n={n} d={distinct}"
                );
            }
        }
    }

    #[test]
    fn estimated_bytes_follow_the_held_form() {
        let empty = DistinctSketch::new(8);
        assert_eq!(
            empty.estimated_bytes(),
            std::mem::size_of::<DistinctSketch>()
        );
        let small = sketch_of((0..5).map(f64::from));
        assert!(small.estimated_bytes() < std::mem::size_of::<DistinctSketch>() + 64);
        let big = sketch_of((0..500).map(f64::from));
        assert_eq!(
            big.estimated_bytes(),
            std::mem::size_of::<DistinctSketch>() + 256
        );
    }

    #[test]
    fn flat_roundtrip_preserves_state_and_length() {
        for n in [0usize, 1, 2, 77, 1000] {
            let s = sketch_of((0..n).map(|i| i as f64 - 38.0));
            let back = decode(&flat_words_of(&s)).unwrap();
            assert_eq!(back, s);
            assert_eq!(flat_words_of(&back), flat_words_of(&s));
        }
        // A small sketch ships a handful of words, not the register file.
        assert_eq!(sketch_of([1.0, 2.0, 3.0]).flat_words(), 3);
        assert_eq!(sketch_of((0..1000).map(f64::from)).flat_words(), 33);
    }

    #[test]
    fn flat_decode_rejects_corrupt_buffers() {
        let sparse = flat_words_of(&sketch_of((0..20).map(f64::from)));
        let dense = flat_words_of(&sketch_of((0..1000).map(f64::from)));
        assert_eq!(sparse[0], 8 | SPARSE_TAG | 20 << 32);
        assert_eq!(dense[0], 8);
        for words in [&sparse, &dense] {
            for cut in 0..words.len() {
                assert!(decode(&words[..cut]).is_err(), "cut {cut}");
            }
            // A bogus precision is rejected.
            let mut bad = words.clone();
            bad[0] = (bad[0] & !0xFF) | 3;
            assert!(decode(&bad).is_err());
            // Unknown header bits are rejected.
            let mut bad = words.clone();
            bad[0] |= 1 << 9;
            assert!(decode(&bad).is_err());
        }
        // An out-of-range rank is rejected in either run.
        let mut bad = dense.clone();
        bad[1] = u64::MAX;
        assert!(decode(&bad).is_err());
        let mut bad = sparse.clone();
        bad[1] |= 0xFF;
        assert!(decode(&bad).is_err());
        // A dense run carrying an entry count is rejected.
        let mut bad = dense.clone();
        bad[0] |= 5 << 32;
        assert!(decode(&bad).is_err());
        // A dense run with fewer non-zeros than the promotion point is not
        // canonical (its state encodes sparse).
        let mut few = vec![0u64; 33];
        (few[0], few[1]) = (8, 1 << 56);
        assert!(decode(&few).is_err());

        let entries = |es: &[(u32, u32)]| -> Vec<u64> {
            let mut words = vec![8 | SPARSE_TAG | (es.len() as u64) << 32];
            for pair in es.chunks(2) {
                let e = |&(idx, rank): &(u32, u32)| (idx << 8 | rank) as u64;
                words.push(e(&pair[0]) << 32 | pair.get(1).map_or(0, e));
            }
            words
        };
        assert!(decode(&entries(&[(3, 1), (9, 2), (200, 5)])).is_ok());
        // Unsorted and repeated indices.
        assert!(decode(&entries(&[(9, 1), (3, 2)])).is_err());
        assert!(decode(&entries(&[(3, 1), (3, 2)])).is_err());
        // Index beyond the register file.
        assert!(decode(&entries(&[(3, 1), (256, 2)])).is_err());
        // Zero rank, and a rank above 64 − p + 1.
        assert!(decode(&entries(&[(3, 0)])).is_err());
        assert!(decode(&entries(&[(3, 57)])).is_ok());
        assert!(decode(&entries(&[(3, 58)])).is_err());
        // Non-zero padding after an odd entry count.
        let mut bad = entries(&[(3, 1)]);
        bad[1] |= 1;
        assert!(decode(&bad).is_err());
        // An entry count at or above the promotion point, encoded sparse.
        let many: Vec<(u32, u32)> = (0..63).map(|i| (i, 1)).collect();
        assert!(decode(&entries(&many)).is_err());
        assert!(decode(&entries(&many[..62])).is_ok());
        // A huge entry count fails on the buffer bound, before allocating.
        assert!(decode(&[8 | SPARSE_TAG | 40 << 32, 0]).is_err());
    }
}

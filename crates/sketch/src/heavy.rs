//! Count-min + candidate-table heavy-hitters sketch.
//!
//! Frequencies live in a `depth × width` count-min matrix: every observation
//! increments one counter per row (chosen by independent hashes of the
//! value), and a point query takes the minimum across rows — an estimate
//! that never undercounts and overcounts by at most `2·total/width` with
//! probability `1 − 2^−depth`. The matrix merges entrywise, so it is exactly
//! merge-order invariant.
//!
//! The matrix is held **sparse until dense**, like the HLL register file
//! next door: a sorted list of the non-zero counters — index and count
//! packed into one word each — while that is smaller than the full matrix,
//! the full matrix from then on. Counters only grow, so the form is a pure
//! function of the state and never reverts; the flat wire form mirrors it
//! (DESIGN.md §14, §15).
//!
//! A count-min matrix alone cannot *enumerate* the heavy values, so the
//! sketch also carries a capped candidate set of values actually seen. The
//! set is an open-addressed hash table ([`CandidateSet`], same idiom as the
//! quantile sketch's `BucketMap`): membership insert is the per-push hot
//! path of the scan kernel on continuous data, and a linear-probe table
//! turns the ordered-tree insert the seed paid into one hash and a short
//! probe. Order only matters at the edges — serialization, equality,
//! `top_k` — where the table canonicalizes to sorted bit order, keeping the
//! wire form deterministic.
//!
//! Eviction is deterministic — drop candidates with the smallest
//! `(estimate, value bits)` — and amortized: the set may grow to twice its
//! cap before a one-pass trim cuts it back, so saturated streams pay O(1)
//! amortized per push instead of a full rescan. As long as the number of
//! distinct values stays within the cap (the intended regime: quantized or
//! categorical attributes, cf. the generator's `value_quantum`) no eviction
//! ever fires and the set is bit-for-bit merge-order invariant. Beyond the
//! cap the set degrades to a best-effort top set while the matrix keeps its
//! guarantees; the sketch records that degradation in a sticky
//! [`is_trimmed`](HeavyHitters::is_trimmed) flag so consumers can tell a
//! complete enumeration from a best-effort one.

use crate::error::MergeError;
use crate::fold::PreparedValue;
use crate::hash::{canonical_bits, is_canonical_bits, splitmix64};
use crate::sparse::{coalesce, merge_run, upsert, RUN_BUFFER};
use stash_flat::{FlatError, WordReader, WordWriter};

/// One entry of a top-K answer.
///
/// **Contract:** [`HeavyHitters::top_k`] returns fewer than `k` entries
/// whenever the sketch tracks fewer than `k` candidates. If the sketch was
/// never trimmed ([`HeavyHitters::is_trimmed`] is `false`) that shorter
/// list is ground truth — the data simply had fewer distinct values. After
/// a trim the candidate set is best-effort and may omit true heavy values;
/// use [`HeavyHitters::top_k_report`] to obtain the answer together with
/// that truncation signal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKEntry {
    /// The candidate value.
    pub value: f64,
    /// Count-min frequency estimate; never below the true count.
    pub count: u64,
    /// Overcount bound: the true count is within `[count − error_bound,
    /// count]` with probability `1 − 2^−depth`.
    pub error_bound: u64,
}

/// A top-K answer plus the candidate-set completeness signal clients need
/// to interpret a short list (see [`TopKEntry`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// The most frequent candidates, ordered by descending estimate.
    pub entries: Vec<TopKEntry>,
    /// True when candidate eviction has fired somewhere in this sketch's
    /// history (including merged-in partials): `entries` may omit values
    /// that are truly among the top `k`. When false, a list shorter than
    /// `k` means the data had fewer distinct values — ground truth.
    pub truncated: bool,
}

/// Open-addressed set of canonical value bit patterns with power-of-two
/// capacity and linear probing. The empty-slot sentinel is `u64::MAX` — a
/// non-canonical NaN payload that `canonical_bits` can never produce (and
/// that decoding rejects), so no bitmap is needed. Iteration order is
/// unspecified; callers needing determinism use [`CandidateSet::sorted`].
#[derive(Debug, Clone, Default)]
struct CandidateSet {
    slots: Vec<u64>,
    len: usize,
}

/// Empty-slot marker: unreachable as a candidate (see [`CandidateSet`]).
const EMPTY_SLOT: u64 = u64::MAX;

impl CandidateSet {
    const MIN_CAPACITY: usize = 16;

    fn new() -> Self {
        CandidateSet::default()
    }

    /// An empty set presized so `n` members fit without growing (capacity
    /// is never part of the canonical state).
    fn with_capacity_for(n: usize) -> Self {
        let cap = (n * 8 / 7 + 1).next_power_of_two().max(Self::MIN_CAPACITY);
        CandidateSet {
            slots: vec![EMPTY_SLOT; cap],
            len: 0,
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn slot_of(&self, bits: u64) -> usize {
        self.probe(bits, splitmix64(bits))
    }

    /// Linear probe from `hash` (which must be `splitmix64(bits)`) to the
    /// slot holding `bits` or the first empty slot.
    #[inline]
    fn probe(&self, bits: u64, hash: u64) -> usize {
        debug_assert!(!self.slots.is_empty());
        debug_assert_eq!(hash, splitmix64(bits));
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        while self.slots[slot] != EMPTY_SLOT && self.slots[slot] != bits {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Insert a canonical bit pattern; returns true if it was new.
    #[inline]
    fn insert(&mut self, bits: u64) -> bool {
        self.insert_hashed(bits, splitmix64(bits))
    }

    /// [`insert`](Self::insert) with the probe hash (`splitmix64(bits)`)
    /// precomputed by the caller.
    #[inline]
    fn insert_hashed(&mut self, bits: u64, hash: u64) -> bool {
        debug_assert_ne!(bits, EMPTY_SLOT, "sentinel inserted as candidate");
        // Keep load at or below 7/8 so probes stay short.
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let slot = self.probe(bits, hash);
        if self.slots[slot] == EMPTY_SLOT {
            self.slots[slot] = bits;
            self.len += 1;
            true
        } else {
            false
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(Self::MIN_CAPACITY);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; new_cap]);
        for bits in old {
            if bits != EMPTY_SLOT {
                let slot = self.slot_of(bits);
                self.slots[slot] = bits;
            }
        }
    }

    /// All members in unspecified order.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.slots.iter().copied().filter(|&b| b != EMPTY_SLOT)
    }

    /// Canonical form: members sorted ascending by bit pattern.
    fn sorted(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.iter().collect();
        v.sort_unstable();
        v
    }

    fn estimated_bytes(&self) -> usize {
        self.slots.len() * 8
    }
}

/// The count-min matrix, sparse until dense.
#[derive(Debug, Clone)]
enum Counters {
    /// The non-zero counters as `index << value_bits | count`, ascending
    /// (`index` is the row-major position). Held while there are fewer
    /// than [`promote_at`] of them and the sketch's total — which bounds
    /// every counter — fits the count field.
    Sparse(Vec<u64>),
    /// `depth × width` counters, row-major (saturating on overflow).
    Dense(Vec<u64>),
}

/// Flag bit (word 5 of the flat form) of a sparse matrix run; the entry
/// count sits in the word's upper half.
const SPARSE_FLAG: u64 = 1 << 1;

/// The promotion point for a matrix of `cells` counters: a quarter of them
/// non-zero — a function of the matrix size alone. Size alone would keep
/// the list until every counter is non-zero (an entry costs one word, like
/// a counter), but every update of the list is a merge pass over it where
/// the array takes an indexed add, and a gather that keeps merging small
/// Cells into one accumulator would walk a list as long as the matrix each
/// time (measured: 3× the dense merge, and +40 % on the scan kernel's
/// `core_micro` `scan_with_sketches`). The list is therefore kept only while
/// it is at least four times smaller than the matrix.
#[inline]
const fn promote_at(cells: usize) -> usize {
    cells / 4
}

/// Bits of a sparse entry left for the count once the index of a `cells`-
/// counter matrix has taken the top ones.
#[inline]
const fn value_bits(cells: usize) -> u32 {
    ((cells - 1) as u64).leading_zeros()
}

/// A sparse entry: counter `idx` holding `count`.
#[inline]
const fn entry(idx: usize, count: u64, vbits: u32) -> u64 {
    (idx as u64) << vbits | count
}

/// Matrix position of a sparse entry.
#[inline]
const fn entry_index(e: u64, vbits: u32) -> usize {
    (e >> vbits) as usize
}

/// Count held by a sparse entry.
#[inline]
const fn entry_count(e: u64, vbits: u32) -> u64 {
    e & !(u64::MAX << vbits)
}

/// Mergeable heavy-hitters sketch (the partial state of the two-step
/// aggregate).
#[derive(Debug, Clone)]
pub struct HeavyHitters {
    width: usize,
    depth: usize,
    /// Candidate-set capacity.
    limit: usize,
    /// True once any trim evicted candidates (sticky, merged with OR).
    trimmed: bool,
    /// Total observations folded in (saturating on overflow). No counter
    /// exceeds it.
    total: u64,
    counters: Counters,
    /// Canonical bit patterns of candidate values.
    candidates: CandidateSet,
}

/// Two sketches are equal when their canonical states match; the candidate
/// table's internal layout (capacity, probe order) and the form holding
/// the matrix are irrelevant.
impl PartialEq for HeavyHitters {
    fn eq(&self, other: &Self) -> bool {
        self.width == other.width
            && self.depth == other.depth
            && self.limit == other.limit
            && self.trimmed == other.trimmed
            && self.total == other.total
            && self.counters_eq(other)
            && self.candidates.sorted() == other.candidates.sorted()
    }
}

impl HeavyHitters {
    /// An empty sketch with a `depth × width` count-min matrix and at most
    /// `limit` tracked candidates.
    ///
    /// # Panics
    /// Panics if `width < 8`, `depth` is outside `1..=8`, or `limit == 0`.
    pub fn new(width: usize, depth: usize, limit: usize) -> Self {
        assert!(width >= 8, "count-min width must be at least 8");
        assert!((1..=8).contains(&depth), "count-min depth must be in 1..=8");
        assert!(limit > 0, "heavy-hitter candidate limit must be positive");
        assert!(
            width.checked_mul(depth).is_some(),
            "count-min matrix size overflows"
        );
        HeavyHitters {
            width,
            depth,
            limit,
            trimmed: false,
            total: 0,
            counters: Counters::Sparse(Vec::new()),
            candidates: CandidateSet::new(),
        }
    }

    /// Matrix size in counters.
    #[inline]
    fn cells(&self) -> usize {
        self.width * self.depth
    }

    /// True iff a state with this many non-zero counters and this total is
    /// held (and shipped) sparse.
    #[inline]
    fn is_sparse_state(cells: usize, nonzero: usize, total: u64) -> bool {
        nonzero < promote_at(cells) && total >> value_bits(cells) == 0
    }

    /// The canonical form of a dense matrix whose counters `total` bounds.
    fn canonical(cells: usize, rows: Vec<u64>, total: u64) -> Counters {
        let nonzero = rows.iter().filter(|&&c| c != 0).count();
        if !Self::is_sparse_state(cells, nonzero, total) {
            return Counters::Dense(rows);
        }
        let vbits = value_bits(cells);
        let mut entries = Vec::with_capacity(nonzero);
        entries.extend(
            rows.iter()
                .enumerate()
                .filter(|(_, &c)| c != 0)
                .map(|(i, &c)| entry(i, c, vbits)),
        );
        Counters::Sparse(entries)
    }

    /// The dense matrix of either form.
    fn to_dense(&self) -> Vec<u64> {
        match &self.counters {
            Counters::Dense(rows) => rows.clone(),
            Counters::Sparse(entries) => {
                let vbits = value_bits(self.cells());
                let mut rows = vec![0u64; self.cells()];
                for &e in entries {
                    rows[entry_index(e, vbits)] = entry_count(e, vbits);
                }
                rows
            }
        }
    }

    /// Switch to the dense form. Private: on a state that is still a
    /// sparse one the result is an equal sketch in a form the wire decoder
    /// rejects, so a caller that has not reached the promotion point must
    /// [`canonicalize`](Self::canonicalize) before returning (only the
    /// long-batch fold does; tests use it to pin the accessors'
    /// independence of the form).
    fn promote(&mut self) {
        if let Counters::Sparse(_) = self.counters {
            self.counters = Counters::Dense(self.to_dense());
        }
    }

    /// Return to the canonical form after [`promote`](Self::promote).
    fn canonicalize(&mut self) {
        let cells = self.cells();
        if let Counters::Dense(rows) = &mut self.counters {
            self.counters = Self::canonical(cells, std::mem::take(rows), self.total);
        }
    }

    /// True iff the held form is the one the state prescribes — what every
    /// `&self` outside this module sees.
    fn is_canonical(&self) -> bool {
        let cells = self.cells();
        match &self.counters {
            Counters::Sparse(entries) => Self::is_sparse_state(cells, entries.len(), self.total),
            Counters::Dense(rows) => {
                let nonzero = rows.iter().filter(|&&c| c != 0).count();
                !Self::is_sparse_state(cells, nonzero, self.total)
            }
        }
    }

    /// Leave the sparse form once the total no longer fits an entry's
    /// count field. Call after raising `total` and before adding to any
    /// counter: it keeps packed additions from carrying into the index.
    #[inline]
    fn fit_total(&mut self) {
        if self.total >> value_bits(self.cells()) != 0 {
            self.promote();
        }
    }

    /// Fold in a run of packed entries, ascending strictly by index: every
    /// named counter grows by the entry's count, and the sparse list is
    /// promoted once it reaches the promotion point. `total` must already
    /// include the run ([`fit_total`](Self::fit_total) done).
    fn absorb(&mut self, run: &[u64]) {
        let cells = self.cells();
        let vbits = value_bits(cells);
        match &mut self.counters {
            Counters::Dense(rows) => {
                for &e in run {
                    let c = &mut rows[entry_index(e, vbits)];
                    *c = c.saturating_add(entry_count(e, vbits));
                }
            }
            Counters::Sparse(entries) => {
                // No counter exceeds the total and the total fits the count
                // field: the sum cannot carry into the index.
                merge_run(
                    entries,
                    run,
                    |e| entry_index(e, vbits),
                    |a, b| a + entry_count(b, vbits),
                );
                if entries.len() >= promote_at(cells) {
                    self.promote();
                }
            }
        }
    }

    /// Count one observation whose row-`d` column is `cols[d]`. `total`
    /// must already include it ([`fit_total`](Self::fit_total) done).
    #[inline]
    fn absorb_one(&mut self, cols: &[u32; 8]) {
        let cells = self.cells();
        let vbits = value_bits(cells);
        for (d, &col) in cols.iter().enumerate().take(self.depth) {
            let idx = d * self.width + col as usize;
            match &mut self.counters {
                Counters::Dense(rows) => rows[idx] = rows[idx].saturating_add(1),
                Counters::Sparse(entries) => {
                    // As in `absorb`: the sum cannot carry into the index.
                    upsert(
                        entries,
                        entry(idx, 1, vbits),
                        |e| entry_index(e, vbits),
                        |a, b| a + entry_count(b, vbits),
                    );
                    if entries.len() >= promote_at(cells) {
                        self.promote();
                    }
                }
            }
        }
    }

    /// Counter `(row, col)` of the matrix — the one read path of both
    /// forms, so no estimate can depend on which one holds the state.
    #[inline]
    fn count_at(&self, row: usize, col: usize) -> u64 {
        let idx = row * self.width + col;
        match &self.counters {
            Counters::Dense(rows) => rows[idx],
            Counters::Sparse(entries) => {
                let vbits = value_bits(self.cells());
                entries
                    .binary_search_by_key(&idx, |&e| entry_index(e, vbits))
                    .map_or(0, |i| entry_count(entries[i], vbits))
            }
        }
    }

    fn counters_eq(&self, other: &HeavyHitters) -> bool {
        match (&self.counters, &other.counters) {
            (Counters::Sparse(a), Counters::Sparse(b))
            | (Counters::Dense(a), Counters::Dense(b)) => a == b,
            (Counters::Sparse(s), Counters::Dense(d))
            | (Counters::Dense(d), Counters::Sparse(s)) => {
                let vbits = value_bits(self.cells());
                d.iter().filter(|&&c| c != 0).count() == s.len()
                    && s.iter()
                        .all(|&e| d[entry_index(e, vbits)] == entry_count(e, vbits))
            }
        }
    }

    /// Row-`d` column for a value's canonical bits. For power-of-two
    /// widths (the common configuration) the modulo reduces to a mask —
    /// same column, no division in the estimate/trim hot path.
    #[inline]
    fn column(&self, bits: u64, d: usize) -> usize {
        let h = splitmix64(bits ^ (0xC0FF_EE00 + d as u64));
        if self.width.is_power_of_two() {
            h as usize & (self.width - 1)
        } else {
            (h % self.width as u64) as usize
        }
    }

    /// Fold one observation in.
    pub fn push(&mut self, value: f64) {
        let bits = canonical_bits(value);
        self.total = self.total.saturating_add(1);
        self.fit_total();
        let mut cols = [0u32; 8];
        for (d, col) in cols.iter_mut().enumerate().take(self.depth) {
            *col = self.column(bits, d) as u32;
        }
        self.absorb_one(&cols);
        // The set only grows past the trim threshold on a *new* insert, so
        // trimming is a no-op (an early-return len check) otherwise.
        if self.candidates.insert(bits) {
            self.trim();
        }
    }

    /// Fold a run of observations [prepared](crate::FoldCtx::prepare) with
    /// this sketch's configuration in — bit for bit [`push`](Self::push)
    /// once per element in order, the per-value `splitmix64` rounds (per
    /// matrix row and for the candidate probe) hoisted out. The count-min
    /// updates apply matrix-row-major across the values between trims
    /// (saturating adds commute, so the matrix state is order-invariant);
    /// an insert that trims first counts the values up to and including
    /// its own, so the trim ranks by the counts a per-value push has seen.
    /// Into the sparse list the values go as sorted runs, one merge pass
    /// each; a run that could promote the list by itself folds into the
    /// dense array instead and returns to the canonical form afterwards.
    pub(crate) fn push_prepared_batch(&mut self, pvs: &[PreparedValue]) {
        let mut counted = 0;
        for (i, pv) in pvs.iter().enumerate() {
            if self.candidates.insert_hashed(pv.bits, pv.hash)
                && self.candidates.len() > 2 * self.limit
            {
                self.count_prepared(&pvs[counted..=i], None);
                counted = i + 1;
                self.trim();
            }
        }
        self.count_prepared(&pvs[counted..], None);
    }

    /// The first half of a [`try_merge`](Self::try_merge) of the sketch a
    /// direct fold of a multiset builds, when that fold never trims (its
    /// distinct values fit twice the cap) — without building it. The
    /// multiset is `pvs[i]` `counts[i]` times each, distinct values: the
    /// matrix takes the counts and the candidates the values. Called once
    /// or more, then [`trim`](Self::trim) once, as the merge does; how a
    /// bundle's raw run folds into its sketches.
    pub(crate) fn add_counted(&mut self, pvs: &[PreparedValue], counts: &[u64]) {
        debug_assert_eq!(pvs.len(), counts.len());
        self.count_prepared(pvs, Some(counts));
        for pv in pvs {
            self.candidates.insert_hashed(pv.bits, pv.hash);
        }
    }

    /// The matrix half of a fold: `total` and the count-min counters take
    /// `pvs`, each once or `counts[i]` times.
    fn count_prepared(&mut self, pvs: &[PreparedValue], counts: Option<&[u64]>) {
        let weight = |i: usize| counts.map_or(1, |c| c[i]);
        let total = counts.map_or(pvs.len() as u64, |c| {
            c.iter().fold(0u64, |a, &b| a.saturating_add(b))
        });
        self.total = self.total.saturating_add(total);
        self.fit_total();
        let (cells, width, depth) = (self.cells(), self.width, self.depth);
        let sparse = matches!(self.counters, Counters::Sparse(_));
        if sparse && pvs.len() * depth < promote_at(cells) {
            let vbits = value_bits(cells);
            let per_chunk = RUN_BUFFER / depth;
            for (c, chunk) in pvs.chunks(per_chunk).enumerate() {
                let mut run = [0u64; RUN_BUFFER];
                let mut n = 0;
                for d in 0..depth {
                    for (i, pv) in chunk.iter().enumerate() {
                        // A weight is at most `total`, which fits the
                        // count field while the list is held.
                        let w = weight(c * per_chunk + i);
                        run[n] = entry(d * width + pv.cols[d] as usize, w, vbits);
                        n += 1;
                    }
                }
                let n = coalesce(
                    &mut run[..n],
                    |e| entry_index(e, vbits),
                    |a, b| a + entry_count(b, vbits),
                );
                self.absorb(&run[..n]);
            }
        } else {
            self.promote();
            let Counters::Dense(rows) = &mut self.counters else {
                unreachable!("promote leaves the dense form");
            };
            for (d, row) in rows.chunks_exact_mut(width).enumerate() {
                for (i, pv) in pvs.iter().enumerate() {
                    let c = &mut row[pv.cols[d] as usize];
                    *c = c.saturating_add(weight(i));
                }
            }
            if sparse {
                self.canonicalize();
            }
        }
    }

    /// `(width, depth, limit)`: the configuration a merge must match.
    pub(crate) fn config(&self) -> (usize, usize, usize) {
        (self.width, self.depth, self.limit)
    }

    /// Refuse to merge differently-configured sketches (see
    /// [`try_merge`](Self::try_merge)).
    pub(crate) fn check_config(&self, other: &HeavyHitters) -> Result<(), MergeError> {
        if self.width == other.width && self.depth == other.depth && self.limit == other.limit {
            Ok(())
        } else {
            Err(MergeError::ConfigMismatch {
                sketch: "heavy_hitters",
            })
        }
    }

    /// Merge another sketch into this one (entrywise matrix add, candidate
    /// union, deterministic re-trim). On a configuration mismatch —
    /// reachable with wire-delivered partials from a misconfigured peer —
    /// returns an error and leaves `self` untouched.
    pub fn try_merge(&mut self, other: &HeavyHitters) -> Result<(), MergeError> {
        self.check_config(other)?;
        self.total = self.total.saturating_add(other.total);
        self.trimmed |= other.trimmed;
        self.fit_total();
        match &other.counters {
            Counters::Sparse(entries) => self.absorb(entries),
            Counters::Dense(theirs) => {
                // The sum has at least their non-zeros and their total: it
                // is dense.
                self.promote();
                let Counters::Dense(ours) = &mut self.counters else {
                    unreachable!("promote leaves the dense form");
                };
                for (a, &b) in ours.iter_mut().zip(theirs) {
                    *a = a.saturating_add(b);
                }
            }
        }
        for bits in other.candidates.iter() {
            self.candidates.insert(bits);
        }
        self.trim();
        Ok(())
    }

    /// Merge another sketch into this one.
    ///
    /// # Panics
    /// Panics if the two sketches were configured differently; use
    /// [`try_merge`](Self::try_merge) when the other side arrived over the
    /// wire.
    pub fn merge(&mut self, other: &HeavyHitters) {
        if let Err(e) = self.try_merge(other) {
            panic!("{e} (HeavyHitters::merge)");
        }
    }

    /// Amortized eviction: once the set exceeds twice its cap, cut it back
    /// to the cap in one pass, dropping the smallest `(estimate, bits)`
    /// first. Evictions never touch the matrix, so batching them is
    /// equivalent to evicting one at a time. A selection partition (not a
    /// full sort) finds the survivors: ranks are distinct (bits break
    /// ties), so the surviving *set* — and therefore the canonical state —
    /// is deterministic regardless of partition order.
    pub(crate) fn trim(&mut self) {
        if self.candidates.len() <= 2 * self.limit {
            return;
        }
        let mut ranked: Vec<(u64, u64)> = Vec::with_capacity(self.candidates.len());
        ranked.extend(
            self.candidates
                .iter()
                .map(|bits| (self.estimate_bits(bits), bits)),
        );
        let cut = ranked.len() - self.limit;
        ranked.select_nth_unstable(cut - 1);
        // Survivors get a table sized for the full grow-to-`2·limit+1`
        // oscillation, so the inserts between consecutive trims never
        // trigger a grow-rehash.
        let mut survivors = CandidateSet::with_capacity_for(2 * self.limit + 1);
        for &(_, bits) in &ranked[cut..] {
            survivors.insert(bits);
        }
        self.candidates = survivors;
        self.trimmed = true;
    }

    /// Count-min point estimate for a canonical bit pattern.
    fn estimate_bits(&self, bits: u64) -> u64 {
        (0..self.depth)
            .map(|d| self.count_at(d, self.column(bits, d)))
            .min()
            .unwrap_or(0)
    }

    /// The accessor: frequency estimate for a specific value (never below
    /// the true count).
    pub fn estimate(&self, value: f64) -> u64 {
        self.estimate_bits(canonical_bits(value))
    }

    /// Overcount bound that holds with probability `1 − 2^−depth`
    /// (saturating: totals near `u64::MAX` report `u64::MAX/width`-ish
    /// bounds instead of wrapping to tiny ones).
    pub fn error_bound(&self) -> u64 {
        self.total.saturating_mul(2).div_ceil(self.width as u64)
    }

    /// Total observations folded in.
    pub fn count(&self) -> u64 {
        self.total
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// True once candidate eviction has fired in this sketch's history
    /// (its own trims or any merged-in partial's). While false, the
    /// candidate set enumerates *every* distinct value folded in.
    #[inline]
    pub fn is_trimmed(&self) -> bool {
        self.trimmed
    }

    /// The accessor: the `k` most frequent candidate values, ordered by
    /// descending estimate (ties broken by ascending value for
    /// determinism). See [`TopKEntry`] for the shorter-than-`k` contract;
    /// [`top_k_report`](Self::top_k_report) carries the truncation signal.
    pub fn top_k(&self, k: usize) -> Vec<TopKEntry> {
        let error_bound = self.error_bound();
        let mut entries: Vec<(u64, u64)> = self
            .candidates
            .sorted()
            .into_iter()
            .map(|bits| (self.estimate_bits(bits), bits))
            .collect();
        entries.sort_by(|a, b| {
            b.0.cmp(&a.0)
                .then_with(|| f64::from_bits(a.1).total_cmp(&f64::from_bits(b.1)))
        });
        entries
            .into_iter()
            .take(k)
            .map(|(count, bits)| TopKEntry {
                value: f64::from_bits(bits),
                count,
                error_bound,
            })
            .collect()
    }

    /// [`top_k`](Self::top_k) plus the completeness signal: `truncated`
    /// is set when eviction may have dropped true heavy values, so a list
    /// shorter than `k` cannot be mistaken for ground truth.
    pub fn top_k_report(&self, k: usize) -> TopKResult {
        TopKResult {
            entries: self.top_k(k),
            truncated: self.trimmed,
        }
    }

    /// In-memory footprint, for cache budgets: the struct plus whatever the
    /// held matrix form and the candidate table have allocated.
    pub fn estimated_bytes(&self) -> usize {
        let (Counters::Sparse(held) | Counters::Dense(held)) = &self.counters;
        std::mem::size_of::<HeavyHitters>()
            + held.capacity() * 8
            + self.candidates.estimated_bytes()
    }

    /// Exact serialized footprint: the flat wire form's byte length.
    pub fn wire_bytes(&self) -> usize {
        self.flat_words() * 8
    }

    /// Words of this sketch's flat encoding (DESIGN.md §15): a 6-word
    /// header (config, total, candidate count, flags), the matrix run —
    /// one word per sparse entry or the whole matrix row-major — then
    /// candidates in sorted bit order. All three lengths are read off the
    /// held state; no counter is visited.
    pub fn flat_words(&self) -> usize {
        let (Counters::Sparse(held) | Counters::Dense(held)) = &self.counters;
        6 + held.len() + self.candidates.len()
    }

    /// Append the flat wire form to `w`, the matrix run mirroring the held
    /// form: flags word `trimmed | SPARSE_FLAG | n << 32` and the `n`
    /// packed entries, or flags word `trimmed` and the matrix row-major.
    /// Equal sketches encode to identical words (the form is a function of
    /// the state; candidates drain in canonical sorted order).
    pub fn flat_encode(&self, w: &mut WordWriter) {
        debug_assert!(self.is_canonical(), "encoding a non-canonical form");
        let (flags, held) = match &self.counters {
            Counters::Sparse(entries) => (SPARSE_FLAG | (entries.len() as u64) << 32, entries),
            Counters::Dense(rows) => (0, rows),
        };
        w.push_u64(self.width as u64);
        w.push_u64(self.depth as u64);
        w.push_u64(self.limit as u64);
        w.push_u64(self.total);
        w.push_u64(self.candidates.len() as u64);
        w.push_u64(flags | self.trimmed as u64);
        w.extend_u64(held);
        for bits in self.candidates.sorted() {
            w.push_u64(bits);
        }
    }

    /// Decode a flat wire form, validating the same invariants as the
    /// constructor, that no counter exceeds the total, that the matrix run
    /// is the canonical one for its state, plus the canonical candidate
    /// form (sorted, canonical bit patterns only — which also keeps the
    /// table's `u64::MAX` sentinel unreachable). Never panics on corrupt
    /// input.
    pub fn flat_decode(r: &mut WordReader) -> Result<Self, FlatError> {
        let width = r.u64()? as usize;
        let depth = r.u64()? as usize;
        let limit = r.u64()? as usize;
        let total = r.u64()?;
        let n_candidates = r.u64()? as usize;
        let flags = r.u64()?;
        if width < 8 || !(1..=8).contains(&depth) || limit == 0 {
            return Err(FlatError::Corrupt("invalid heavy-hitter config"));
        }
        if n_candidates > limit.saturating_mul(2) {
            return Err(FlatError::Corrupt("heavy-hitter candidate overflow"));
        }
        let n_entries = (flags >> 32) as usize;
        let sparse = flags & SPARSE_FLAG != 0;
        if flags & 0xFFFF_FFFC != 0 || (!sparse && n_entries != 0) {
            return Err(FlatError::Corrupt("unknown heavy-hitter flags"));
        }
        let cells = width
            .checked_mul(depth)
            .ok_or(FlatError::Corrupt("heavy-hitter matrix size overflow"))?;
        let counters = if sparse {
            if !Self::is_sparse_state(cells, n_entries, total) {
                return Err(FlatError::Corrupt(
                    "heavy-hitter sparse run at or above promotion",
                ));
            }
            // `take` bounds the run by the buffer before it is copied.
            let entries = r.take(n_entries)?;
            let vbits = value_bits(cells);
            let mut next_idx = 0usize;
            for &e in entries {
                let (idx, count) = (entry_index(e, vbits), entry_count(e, vbits));
                if idx < next_idx || idx >= cells {
                    return Err(FlatError::Corrupt("heavy-hitter sparse index out of order"));
                }
                if count == 0 || count > total {
                    return Err(FlatError::Corrupt("heavy-hitter counter out of range"));
                }
                next_idx = idx + 1;
            }
            Counters::Sparse(entries.to_vec())
        } else {
            let rows = r.take(cells)?;
            if rows.iter().any(|&c| c > total) {
                return Err(FlatError::Corrupt("heavy-hitter counter out of range"));
            }
            let nonzero = rows.iter().filter(|&&c| c != 0).count();
            if Self::is_sparse_state(cells, nonzero, total) {
                return Err(FlatError::Corrupt("heavy-hitter dense run below promotion"));
            }
            Counters::Dense(rows.to_vec())
        };
        let mut candidates = CandidateSet::new();
        let mut prev: Option<u64> = None;
        for &bits in r.take(n_candidates)? {
            if prev.is_some_and(|p| p >= bits) {
                return Err(FlatError::Corrupt("heavy-hitter candidates not sorted"));
            }
            if !is_canonical_bits(bits) {
                return Err(FlatError::Corrupt("non-canonical heavy-hitter candidate"));
            }
            prev = Some(bits);
            candidates.insert(bits);
        }
        Ok(HeavyHitters {
            width,
            depth,
            limit,
            trimmed: flags & 1 == 1,
            total,
            counters,
            candidates,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: impl IntoIterator<Item = f64>) -> HeavyHitters {
        let mut s = HeavyHitters::new(64, 3, 32);
        for v in values {
            s.push(v);
        }
        s
    }

    fn flat_words_of(s: &HeavyHitters) -> Vec<u64> {
        let mut w = WordWriter::new();
        s.flat_encode(&mut w);
        assert_eq!(w.len(), s.flat_words());
        assert_eq!(w.len() * 8, s.wire_bytes());
        w.into_words()
    }

    fn decode(words: &[u64]) -> Result<HeavyHitters, FlatError> {
        let mut r = WordReader::new(words);
        let s = HeavyHitters::flat_decode(&mut r)?;
        r.finish()?;
        Ok(s)
    }

    fn is_sparse(s: &HeavyHitters) -> bool {
        matches!(s.counters, Counters::Sparse(_))
    }

    fn nonzero(s: &HeavyHitters) -> usize {
        s.to_dense().iter().filter(|&&c| c != 0).count()
    }

    #[test]
    fn candidate_set_inserts_and_canonicalizes() {
        let mut s = CandidateSet::new();
        for round in 0..3 {
            for bits in [0u64, 7, 1 << 40, 3] {
                let fresh = s.insert(bits);
                assert_eq!(fresh, round == 0, "bits {bits} round {round}");
            }
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.sorted(), vec![0, 3, 7, 1 << 40]);
    }

    #[test]
    fn candidate_set_survives_growth() {
        let mut s = CandidateSet::new();
        for i in 0..500u64 {
            assert!(s.insert(splitmix64(i)));
        }
        assert_eq!(s.len(), 500);
        let sorted = s.sorted();
        assert_eq!(sorted.len(), 500);
        assert!(sorted.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn estimates_never_undercount() {
        // A skewed stream: value i appears (20 - i) times.
        let mut stream = Vec::new();
        for i in 0..20 {
            for _ in 0..(20 - i) {
                stream.push(i as f64);
            }
        }
        let s = sketch_of(stream.iter().copied());
        for i in 0..20u64 {
            let true_count = 20 - i;
            let est = s.estimate(i as f64);
            assert!(est >= true_count, "undercount for {i}");
            assert!(
                est <= true_count + s.error_bound(),
                "overcount beyond bound"
            );
        }
    }

    #[test]
    fn top_k_finds_the_heavy_values() {
        let mut stream: Vec<f64> = (0..30).map(f64::from).collect();
        for _ in 0..50 {
            stream.push(7.0);
            stream.push(13.0);
        }
        let top = sketch_of(stream.iter().copied()).top_k(2);
        let values: Vec<f64> = top.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![7.0, 13.0]);
        assert!(top[0].count >= 51);
    }

    #[test]
    fn merge_is_bit_identical_within_cap() {
        let values: Vec<f64> = (0..200).map(|i| ((i * 7) % 30) as f64).collect();
        for split in [0, 1, 100, 200] {
            let (lo, hi) = values.split_at(split);
            let mut merged = sketch_of(lo.iter().copied());
            merged.merge(&sketch_of(hi.iter().copied()));
            assert_eq!(merged, sketch_of(values.iter().copied()), "split {split}");
        }
    }

    #[test]
    fn candidate_list_respects_cap_and_reports_trim() {
        let s = sketch_of((0..200).map(f64::from));
        assert!(s.candidates.len() <= 2 * 32, "hysteresis ceiling");
        assert_eq!(s.count(), 200);
        assert!(s.is_trimmed(), "200 distinct values must trim a 32-cap set");
        let report = s.top_k_report(64);
        assert!(report.truncated);
        assert!(report.entries.len() < 64);
        // Within the cap: no trim, a short top-k is ground truth.
        let small = sketch_of((0..10).map(f64::from));
        assert!(!small.is_trimmed());
        let report = small.top_k_report(64);
        assert!(!report.truncated);
        assert_eq!(report.entries.len(), 10);
    }

    #[test]
    fn trimmed_flag_survives_merge_and_wire() {
        let trimmed = sketch_of((0..200).map(f64::from));
        let mut clean = sketch_of([1.0, 2.0]);
        assert!(!clean.is_trimmed());
        clean.merge(&trimmed);
        assert!(clean.is_trimmed(), "trim flag must be sticky across merge");
        assert!(decode(&flat_words_of(&clean)).unwrap().is_trimmed());
    }

    #[test]
    #[should_panic(expected = "sketch config mismatch")]
    fn merge_rejects_config_mismatch() {
        let mut a = HeavyHitters::new(64, 3, 32);
        a.merge(&HeavyHitters::new(64, 4, 32));
    }

    #[test]
    fn try_merge_errors_without_mutating() {
        let mut a = sketch_of([1.0, 2.0, 3.0]);
        let before = a.clone();
        let err = a.try_merge(&HeavyHitters::new(64, 3, 64)).unwrap_err();
        assert_eq!(
            err,
            MergeError::ConfigMismatch {
                sketch: "heavy_hitters"
            }
        );
        assert_eq!(a, before, "failed merge must leave the receiver intact");
        assert!(a.try_merge(&sketch_of([4.0])).is_ok());
        assert_eq!(a.count(), 4);
    }

    /// A sketch with an arbitrary (huge) total and its one counter as
    /// large, taken through the wire decoder — states no fold can reach.
    fn with_total(total: u64) -> HeavyHitters {
        let mut s = HeavyHitters::new(8, 1, 4);
        s.push(1.0);
        let rows = s.to_dense().iter().map(|&c| c * total).collect();
        s.total = total;
        s.counters = HeavyHitters::canonical(8, rows, total);
        decode(&flat_words_of(&s)).unwrap()
    }

    #[test]
    fn arithmetic_saturates_at_counter_boundaries() {
        // error_bound: 2 * total would wrap for totals ≥ 2^63.
        let big = with_total(u64::MAX - 1);
        assert_eq!(big.error_bound(), u64::MAX.div_ceil(8));
        // push and merge saturate instead of wrapping.
        let mut s = with_total(u64::MAX - 1);
        s.push(1.0);
        s.push(1.0);
        assert_eq!(s.count(), u64::MAX);
        let mut m = with_total(u64::MAX - 1);
        m.merge(&big);
        assert_eq!(m.count(), u64::MAX);
        assert_eq!(
            m.estimate(1.0),
            u64::MAX,
            "matrix add saturated, not wrapped"
        );
    }

    #[test]
    fn promotes_exactly_at_the_promotion_point() {
        // 16 × 2 = 32 counters: sparse while fewer than 8 are non-zero.
        assert_eq!(promote_at(32), 8);
        let mut s = HeavyHitters::new(16, 2, 512);
        for i in 0..400 {
            s.push(i as f64 * 0.5);
            let nonzero = nonzero(&s);
            assert_eq!(is_sparse(&s), nonzero < 8, "at {nonzero} non-zeros");
            let run = if nonzero < 8 { nonzero } else { 32 };
            assert_eq!(s.flat_words(), 6 + run + s.candidates.len());
        }
        assert!(!is_sparse(&s));
        // A total beyond an entry's count field also ends the sparse form:
        // 8 counters leave 61 bits.
        assert_eq!(value_bits(8), 61);
        let small = with_total((1 << 61) - 2);
        assert!(is_sparse(&small));
        let mut grown = small.clone();
        grown.push(1.0);
        assert!(is_sparse(&grown));
        grown.push(1.0);
        assert!(!is_sparse(&grown));
        assert_eq!(grown.estimate(1.0), 1 << 61);
        let mut merged = small.clone();
        merged.merge(&small);
        assert!(!is_sparse(&merged));
        assert_eq!(merged.estimate(1.0), (1 << 62) - 4);
    }

    #[test]
    fn accessors_do_not_depend_on_the_form() {
        for n in [0usize, 1, 9, 60, 300, 3000] {
            let held = sketch_of((0..n).map(|i| ((i * 7) % 500) as f64 * 0.25));
            let mut dense = held.clone();
            dense.promote();
            let via_flat = decode(&flat_words_of(&held)).unwrap();
            for other in [&dense, &via_flat] {
                assert_eq!(other, &held, "n={n}");
                assert_eq!(other.top_k(16), held.top_k(16), "n={n}");
                for v in [0.0, 0.25, 17.5, 124.75, 9999.0] {
                    assert_eq!(other.estimate(v), held.estimate(v), "n={n} v={v}");
                }
            }
            // Flat decoding lands in the canonical form.
            assert_eq!(is_sparse(&via_flat), is_sparse(&held));
            // Both forms hold the same matrix.
            assert_eq!(dense.to_dense(), held.to_dense());
        }
        assert!(is_sparse(&sketch_of((0..10).map(f64::from))));
        assert!(!is_sparse(&sketch_of((0..3000).map(f64::from))));
    }

    #[test]
    fn batch_fold_matches_single_pushes_in_state_and_form() {
        let ctx = crate::FoldCtx::new(&crate::SketchSpec::standard());
        for n in [1usize, 7, 8, 50, 2000] {
            for distinct in [2usize, 30, 1500] {
                let values: Vec<f64> = (0..n).map(|i| (i % distinct) as f64).collect();
                let pvs: Vec<PreparedValue> = values.iter().map(|&v| ctx.prepare(v)).collect();
                // A cap no run here reaches, and one most runs trim.
                for limit in [4096, 8] {
                    let seeded = || {
                        let mut s = HeavyHitters::new(64, 3, limit);
                        s.push(-1.0);
                        s.push(-2.0);
                        s
                    };
                    let mut batched = seeded();
                    batched.push_prepared_batch(&pvs);
                    let mut pushed = seeded();
                    for &v in &values {
                        pushed.push(v);
                    }
                    assert_eq!(batched, pushed, "n={n} d={distinct} limit={limit}");
                    assert_eq!(is_sparse(&batched), is_sparse(&pushed));
                }
            }
        }
    }

    #[test]
    fn estimated_bytes_follow_the_held_form() {
        let empty = HeavyHitters::new(64, 3, 32);
        assert_eq!(empty.estimated_bytes(), std::mem::size_of::<HeavyHitters>());
        let small = sketch_of((0..4).map(f64::from));
        assert!(
            small.estimated_bytes() < std::mem::size_of::<HeavyHitters>() + 16 * 8 + 16 * 8 + 8
        );
        let big = sketch_of((0..3000).map(f64::from));
        assert!(big.estimated_bytes() >= std::mem::size_of::<HeavyHitters>() + 192 * 8);
    }

    #[test]
    fn flat_roundtrip_preserves_state_and_length() {
        for n in [0usize, 1, 60, 3000] {
            let s = sketch_of((0..n).map(|i| (i % 1100) as f64 - 5.0));
            let back = decode(&flat_words_of(&s)).unwrap();
            assert_eq!(back, s);
            assert_eq!(flat_words_of(&back), flat_words_of(&s));
        }
        // A small sketch ships its non-zero counters, not the matrix.
        assert_eq!(sketch_of([1.0, 1.0, 1.0]).flat_words(), 6 + 3 + 1);
        let big = sketch_of((0..3000).map(f64::from));
        assert_eq!(big.flat_words(), 6 + 192 + big.candidates.len());
    }

    #[test]
    fn flat_decode_rejects_corrupt_buffers() {
        let sparse = flat_words_of(&sketch_of((0..10).map(f64::from)));
        let dense = flat_words_of(&sketch_of((0..3000).map(f64::from)));
        assert_eq!(sparse[5] & 0xFFFF_FFFF, SPARSE_FLAG);
        assert_eq!(dense[5], 1, "trimmed, dense");
        for words in [&sparse, &dense] {
            for cut in 0..words.len() {
                assert!(decode(&words[..cut]).is_err(), "cut {cut}");
            }
            // A zero-depth config is rejected.
            let mut bad = words.clone();
            bad[1] = 0;
            assert!(decode(&bad).is_err());
            // More candidates than the hysteresis ceiling is rejected.
            let mut bad = words.clone();
            bad[4] = 1000;
            assert!(decode(&bad).is_err());
            // Unknown flag bits are rejected.
            let mut bad = words.clone();
            bad[5] |= 4;
            assert!(decode(&bad).is_err());
            // A non-canonical candidate (the table sentinel) is rejected.
            let mut bad = words.clone();
            *bad.last_mut().unwrap() = u64::MAX;
            assert!(decode(&bad).is_err());
            // A counter above the total is rejected.
            let mut bad = words.clone();
            bad[3] = 0;
            assert!(decode(&bad).is_err());
        }
        // A dense run carrying an entry count is rejected.
        let mut bad = dense.clone();
        bad[5] |= 3 << 32;
        assert!(decode(&bad).is_err());
        // A dense run whose state encodes sparse is not canonical.
        let few = sketch_of((0..10).map(f64::from));
        let mut words = vec![64, 3, 32, 10, 0, 0];
        words.extend(few.to_dense());
        assert!(decode(&words).is_err());

        // 16 × 2 matrix: 5 index bits, 59 count bits, sparse below 8
        // entries; total 9.
        let entries = |es: &[(u64, u64)]| -> Vec<u64> {
            let mut words = vec![16, 2, 4, 9, 0, SPARSE_FLAG | (es.len() as u64) << 32];
            words.extend(es.iter().map(|&(idx, count)| idx << 59 | count));
            words
        };
        assert!(decode(&entries(&[(0, 2), (3, 4), (7, 3)])).is_ok());
        // Unsorted and repeated indices.
        assert!(decode(&entries(&[(3, 4), (0, 2)])).is_err());
        assert!(decode(&entries(&[(3, 4), (3, 5)])).is_err());
        // Zero count, and a count above the total.
        assert!(decode(&entries(&[(3, 0)])).is_err());
        assert!(decode(&entries(&[(3, 10)])).is_err());
        // An entry count at or above the promotion point, encoded sparse.
        let full: Vec<(u64, u64)> = (0..8).map(|i| (i, 1)).collect();
        assert!(decode(&entries(&full)).is_err());
        assert!(decode(&entries(&full[..7])).is_ok());
        // A total beyond the count field, encoded sparse.
        let mut bad = entries(&[(3, 4)]);
        bad[3] = 1 << 59;
        assert!(decode(&bad).is_err());
        // A huge entry count fails on the buffer bound, before allocating.
        let mut bad = entries(&[(3, 4)]);
        bad[5] = SPARSE_FLAG | 7 << 32;
        assert!(decode(&bad).is_err());
        // An index beyond the matrix (12 × 1: 4 index bits, 12 counters).
        let mut words = vec![12, 1, 4, 9, 0, SPARSE_FLAG | 1 << 32];
        words.push(11 << 60 | 1);
        assert!(decode(&words).is_ok());
        *words.last_mut().unwrap() = 12 << 60 | 1;
        assert!(decode(&words).is_err());
    }
}

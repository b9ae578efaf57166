//! Sorted sparse lists of packed `index | value` entries — the "sparse"
//! half of the sparse-until-dense register file ([`DistinctSketch`]) and
//! count-min matrix ([`HeavyHitters`]).
//!
//! Both keep their non-zero slots as one machine word each, the slot index
//! in the high bits and the value in the low ones, ascending by index. A
//! batch of observations or another sketch's list arrives as a sorted *run*
//! of such entries and is merged in with one pass from the back, so it
//! costs O(list + run) with no search per entry and no allocation beyond
//! the list's own growth; a single observation's one-or-`depth` entries are
//! [`upsert`]ed, a binary search and a shift each. What "merging" two
//! entries of one index means (max of ranks, sum of counts) is the caller's
//! `combine`.
//!
//! [`DistinctSketch`]: crate::DistinctSketch
//! [`HeavyHitters`]: crate::HeavyHitters

/// Capacity of the stack buffer batch folds build their runs in; longer
/// batches are cut into pieces of this many entries.
pub(crate) const RUN_BUFFER: usize = 64;

/// Sort a run and fold entries of one index into one, in place; returns the
/// coalesced length. `index` extracts an entry's slot index and must be
/// monotone in the entry (the index sits in the high bits).
pub(crate) fn coalesce<T: Copy + Ord>(
    run: &mut [T],
    index: impl Fn(T) -> usize,
    combine: impl Fn(T, T) -> T,
) -> usize {
    if run.is_empty() {
        return 0;
    }
    run.sort_unstable();
    let mut last = 0;
    for i in 1..run.len() {
        if index(run[i]) == index(run[last]) {
            run[last] = combine(run[last], run[i]);
        } else {
            last += 1;
            run[last] = run[i];
        }
    }
    last + 1
}

/// Fold one entry into `entries` (ascending strictly by index): an entry of
/// its index already held becomes `combine(held, incoming)`, otherwise the
/// entry is inserted in place — a search and one shift, no pass over the list.
pub(crate) fn upsert<T: Copy>(
    entries: &mut Vec<T>,
    e: T,
    index: impl Fn(T) -> usize,
    combine: impl Fn(T, T) -> T,
) {
    let at = entries.partition_point(|&held| index(held) < index(e));
    match entries.get_mut(at) {
        Some(held) if index(*held) == index(e) => *held = combine(*held, e),
        _ => entries.insert(at, e),
    }
}

/// Merge `run` into `entries`; both ascend strictly by index. Entries of an
/// index present on both sides become `combine(held, incoming)`.
pub(crate) fn merge_run<T: Copy + Default>(
    entries: &mut Vec<T>,
    run: &[T],
    index: impl Fn(T) -> usize,
    combine: impl Fn(T, T) -> T,
) {
    let held = entries.len();
    if held == 0 {
        entries.extend_from_slice(run);
        return;
    }
    // How many of the run's indices are new decides the final length.
    let mut i = 0;
    let mut fresh = 0;
    for &r in run {
        while i < held && index(entries[i]) < index(r) {
            i += 1;
        }
        if i == held || index(entries[i]) != index(r) {
            fresh += 1;
        }
    }
    entries.resize(held + fresh, T::default());
    // Fill from the back: `read` walks the held entries, `write` the slots.
    let (mut read, mut write) = (held, held + fresh);
    for &r in run.iter().rev() {
        while read > 0 && index(entries[read - 1]) > index(r) {
            read -= 1;
            write -= 1;
            entries[write] = entries[read];
        }
        write -= 1;
        if read > 0 && index(entries[read - 1]) == index(r) {
            read -= 1;
            entries[write] = combine(entries[read], r);
        } else {
            entries[write] = r;
        }
    }
    debug_assert_eq!(read, write, "the untouched prefix is already in place");
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn e(idx: u32, value: u32) -> u32 {
        idx << 8 | value
    }
    fn index(x: u32) -> usize {
        (x >> 8) as usize
    }
    fn sum(a: u32, b: u32) -> u32 {
        a + (b & 0xFF)
    }

    #[test]
    fn coalesce_sorts_and_folds_repeats() {
        let mut run = [e(5, 1), e(2, 1), e(5, 2), e(9, 1), e(2, 4), e(5, 1)];
        let n = coalesce(&mut run, index, sum);
        assert_eq!(&run[..n], &[e(2, 5), e(5, 4), e(9, 1)]);
        assert_eq!(coalesce(&mut [] as &mut [u32], index, sum), 0);
    }

    #[test]
    fn upsert_matches_a_one_entry_merge() {
        for held_mask in 0u32..64 {
            for idx in 0..20 {
                let mut entries: Vec<u32> = (0..6)
                    .filter(|i| held_mask >> i & 1 == 1)
                    .map(|i| e(i * 3, 7))
                    .collect();
                let mut expect = entries.clone();
                merge_run(&mut expect, &[e(idx, 2)], index, sum);
                upsert(&mut entries, e(idx, 2), index, sum);
                assert_eq!(entries, expect);
            }
        }
    }

    #[test]
    fn merge_run_matches_a_map_fold() {
        // Every subset pairing of a small index space, checked against a
        // BTreeMap.
        for held_mask in 0u32..64 {
            for run_mask in 0u32..64 {
                let pick = |mask: u32, v: u32| -> Vec<u32> {
                    (0..6)
                        .filter(|i| mask >> i & 1 == 1)
                        .map(|i| e(i * 3, v))
                        .collect()
                };
                let mut entries = pick(held_mask, 7);
                let run = pick(run_mask, 2);
                let mut expect: std::collections::BTreeMap<usize, u32> =
                    entries.iter().map(|&x| (index(x), x & 0xFF)).collect();
                for &r in &run {
                    *expect.entry(index(r)).or_insert(0) += r & 0xFF;
                }
                merge_run(&mut entries, &run, index, sum);
                let got: Vec<(usize, u32)> =
                    entries.iter().map(|&x| (index(x), x & 0xFF)).collect();
                assert_eq!(got, expect.into_iter().collect::<Vec<_>>());
            }
        }
    }
}

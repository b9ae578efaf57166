//! The key-scoped ingest fence (DESIGN.md §13, "Epoch parity fence").
//!
//! An evaluation that overlaps an append may cache a summary fetched before
//! the rows landed, or one fetched after them and then delta-patched again.
//! The epoch says *that* an ingest event overlapped; the log beside it says
//! *which keys* the event could have changed, so only those are re-staled.
//!
//! * An **apply** bumps the epoch once before the storage append and once
//!   after its patch/stale pass — odd means an apply is in flight; applies
//!   are serialized by the node, so at most one is.
//! * A processed **`Invalidate`** bumps it by two.
//! * Every event is logged with the epoch value it found and the batch's
//!   distinct finest keys. Logging and the first bump happen under one lock,
//!   so whoever sees the bump finds the entry, and an entry's `at` orders it
//!   exactly against an evaluation's `epoch0`: `at >= epoch0` iff the event
//!   began after the evaluation did.
//!
//! A batch changes exactly the Cells containing one of its rows — the
//! ancestors-or-self of its finest keys — so a requested key that is no such
//! ancestor of any overlapping event was neither read half-appended nor
//! patched twice, and stays fresh.

use parking_lot::Mutex;
use stash_model::key::ancestors_at;
use stash_model::CellKey;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Events kept. Sized for an evaluation that waits out a modeled disk while
/// a full-rate stream lands on its node; an evaluation that outlives the log
/// falls back to re-staling every key it asked for.
pub(crate) const FENCE_LOG_LEN: usize = 256;

struct Event {
    /// The epoch before this event's first bump.
    at: u64,
    apply: bool,
    finest: Arc<[CellKey]>,
}

#[derive(Default)]
struct Log {
    events: VecDeque<Event>,
    /// Every event with `at >= floor` is still in `events`.
    floor: u64,
}

/// What an evaluation must undo because ingest events overlapped it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Overlap {
    /// The requested keys an overlapping event can have changed.
    pub restale: Vec<CellKey>,
    /// The log no longer reached back to the evaluation's start, so
    /// `restale` is every requested key.
    pub overflow: bool,
}

#[derive(Default)]
pub(crate) struct IngestFence {
    epoch: AtomicU64,
    log: Mutex<Log>,
}

impl IngestFence {
    /// Start of an evaluation (or of a Clique snapshot): the epoch to hand
    /// back to [`IngestFence::end`].
    pub(crate) fn begin(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Open an apply's window, before storage changes. The caller holds the
    /// node's apply lock until [`IngestFence::close_apply`].
    pub(crate) fn open_apply(&self, finest: Arc<[CellKey]>) {
        self.record(true, 1, finest);
    }

    /// Close the window [`IngestFence::open_apply`] opened, after the local
    /// patch/stale pass.
    pub(crate) fn close_apply(&self) {
        self.epoch.fetch_add(1, Ordering::SeqCst);
    }

    /// A peer's invalidation, before its stale marks: an evaluation that
    /// caches a Cell between the marks and its own final check must still
    /// see the bump.
    pub(crate) fn invalidate(&self, finest: Arc<[CellKey]>) {
        self.record(false, 2, finest);
    }

    fn record(&self, apply: bool, bump: u64, finest: Arc<[CellKey]>) {
        let mut log = self.log.lock();
        let at = self.epoch.fetch_add(bump, Ordering::SeqCst);
        if log.events.len() == FENCE_LOG_LEN {
            let dropped = log.events.pop_front().expect("log is full");
            log.floor = dropped.at + 1;
        }
        log.events.push_back(Event { at, apply, finest });
    }

    /// End of the evaluation that began at `epoch0` over `keys`: `None` when
    /// no ingest event overlapped it, otherwise which of `keys` to re-stale.
    /// An event overlapped when it began at or after `epoch0`, or — `epoch0`
    /// odd — when it is the apply that was in flight then.
    pub(crate) fn end(&self, epoch0: u64, keys: &[CellKey]) -> Option<Overlap> {
        let in_flight = epoch0 & 1 == 1;
        if self.epoch.load(Ordering::SeqCst) == epoch0 && !in_flight {
            return None;
        }
        let overlapping: Option<Vec<Arc<[CellKey]>>> = {
            let log = self.log.lock();
            let first_after = log.events.partition_point(|e| e.at < epoch0);
            let mut earlier = log.events.range(..first_after).rev();
            let open_apply = earlier.find(|e| in_flight && e.apply);
            let covered = epoch0 >= log.floor && open_apply.is_some() == in_flight;
            covered.then(|| {
                log.events
                    .range(first_after..)
                    .chain(open_apply)
                    .map(|e| Arc::clone(&e.finest))
                    .collect()
            })
        };
        let Some(overlapping) = overlapping else {
            return Some(Overlap {
                restale: keys.to_vec(),
                overflow: true,
            });
        };
        let mut levels: Vec<_> = keys.iter().map(CellKey::level).collect();
        levels.sort_unstable();
        levels.dedup();
        let mut restale = Vec::new();
        for level in levels {
            let touched = ancestors_at(overlapping.iter().flat_map(|f| f.iter()), level);
            restale.extend(
                keys.iter()
                    .filter(|k| k.level() == level && touched.binary_search(k).is_ok()),
            );
        }
        Some(Overlap {
            restale,
            overflow: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::time::epoch_seconds;
    use stash_geo::{Geohash, TemporalRes, TimeBin};
    use std::str::FromStr;

    fn key(gh: &str, res: TemporalRes) -> CellKey {
        CellKey::new(
            Geohash::from_str(gh).unwrap(),
            TimeBin::containing(res, epoch_seconds(2015, 2, 2, 0, 0, 0)),
        )
    }

    fn batch(ghs: &[&str]) -> Arc<[CellKey]> {
        ghs.iter().map(|g| key(g, TemporalRes::Hour)).collect()
    }

    #[test]
    fn a_quiet_evaluation_is_not_overlapped() {
        let fence = IngestFence::default();
        fence.invalidate(batch(&["9q8yyzzzzzzz"]));
        let e0 = fence.begin();
        assert_eq!(fence.end(e0, &[key("9q8y", TemporalRes::Day)]), None);
    }

    #[test]
    fn only_ancestors_of_an_overlapping_batch_are_restaled() {
        let fence = IngestFence::default();
        let asked = [
            key("9q8y", TemporalRes::Day),
            key("9q8z", TemporalRes::Day),
            key("9q", TemporalRes::Month),
        ];
        let e0 = fence.begin();
        fence.invalidate(batch(&["9q8yyzzzzzzz", "9q8yy0000000"]));
        let overlap = fence.end(e0, &asked).expect("epoch moved");
        assert!(!overlap.overflow);
        assert_eq!(overlap.restale, vec![asked[2], asked[0]]);
        // An unrelated batch overlaps and touches nothing.
        let e0 = fence.begin();
        fence.open_apply(batch(&["dr5ru0000000"]));
        fence.close_apply();
        assert_eq!(fence.end(e0, &asked).expect("epoch moved").restale, vec![]);
    }

    #[test]
    fn an_apply_in_flight_at_the_start_counts_and_a_finished_one_does_not() {
        let fence = IngestFence::default();
        let asked = [key("9q8y", TemporalRes::Day), key("dr5r", TemporalRes::Day)];
        // Finished before the evaluation began: not its business.
        fence.open_apply(batch(&["dr5ru0000000"]));
        fence.close_apply();
        fence.open_apply(batch(&["9q8yyzzzzzzz"]));
        // A peer's invalidation lands while the apply is still open.
        fence.invalidate(batch(&["c23nb0000000"]));
        let e0 = fence.begin();
        assert_eq!(e0 & 1, 1, "apply in flight");
        // Nothing moves during the evaluation, yet the open apply counts.
        let overlap = fence.end(e0, &asked).expect("odd epoch");
        assert_eq!(overlap.restale, vec![asked[0]]);
        fence.close_apply();
    }

    #[test]
    fn an_evaluation_that_outlives_the_log_restales_everything() {
        let fence = IngestFence::default();
        let asked = [key("9q8y", TemporalRes::Day), key("dr5r", TemporalRes::Day)];
        let e0 = fence.begin();
        for _ in 0..FENCE_LOG_LEN {
            fence.invalidate(batch(&["c23nb0000000"]));
        }
        assert!(!fence.end(e0, &asked).expect("epoch moved").overflow);
        fence.invalidate(batch(&["c23nb0000000"]));
        let overlap = fence.end(e0, &asked).expect("epoch moved");
        assert!(overlap.overflow);
        assert_eq!(overlap.restale, asked);
        // The apply that was in flight fell off the log: same fallback.
        let fence = IngestFence::default();
        fence.open_apply(batch(&["9q8yyzzzzzzz"]));
        for _ in 0..FENCE_LOG_LEN {
            fence.invalidate(batch(&["c23nb0000000"]));
        }
        let e0 = fence.begin();
        assert!(fence.end(e0, &asked).expect("odd epoch").overflow);
    }
}

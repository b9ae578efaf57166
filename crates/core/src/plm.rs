//! The Precision-Level Map (§IV-D).
//!
//! "Across multiple precision levels, STASH relies on a precision-level map
//! (PLM) to check for completeness of the in-memory data. The PLM is a
//! memory-resident bitmap that associates the Cells contained in-memory for
//! a given level to the actual data blocks in the distributed storage."
//!
//! Two bitmaps per level:
//!
//! * **cached** — which Cells of this level are in the local graph;
//! * **stale** — cached Cells whose backing blocks changed since they were
//!   aggregated ("the PLM can be adjusted during an update … so that stale
//!   data summaries are recomputed in case of future access").
//!
//! A Cell counts toward query completeness only when cached *and not*
//! stale; [`Plm::missing_of`] is the completeness check the evaluator runs
//! before deciding what to fetch. The PLM also vets replicas during
//! hotspot handling ("the PLM helps identify the stale replicas", §VII-A).

use crate::bitmap::SparseBitmap;
use stash_model::level::NUM_LEVELS;
use stash_model::{CellKey, Level};

/// One node's precision-level map.
#[derive(Debug, Default)]
pub struct Plm {
    cached: Vec<SparseBitmap>,
    stale: Vec<SparseBitmap>,
}

impl Plm {
    pub fn new() -> Self {
        Plm {
            cached: (0..NUM_LEVELS).map(|_| SparseBitmap::new()).collect(),
            stale: (0..NUM_LEVELS).map(|_| SparseBitmap::new()).collect(),
        }
    }

    #[inline]
    fn slot(key: &CellKey) -> usize {
        key.level().index() as usize
    }

    /// Record that a Cell is now held in-memory (fresh).
    pub fn mark_cached(&mut self, key: &CellKey) {
        let s = Self::slot(key);
        self.cached[s].insert(key.dense_id());
        self.stale[s].remove(key.dense_id());
    }

    /// Record eviction.
    pub fn mark_evicted(&mut self, key: &CellKey) {
        let s = Self::slot(key);
        self.cached[s].remove(key.dense_id());
        self.stale[s].remove(key.dense_id());
    }

    /// Is the Cell in memory (stale or not)?
    pub fn is_cached(&self, key: &CellKey) -> bool {
        self.cached[Self::slot(key)].contains(key.dense_id())
    }

    /// Mark a cached Cell's summary out of date after a storage update.
    /// No-op for uncached Cells (nothing to invalidate). Returns whether
    /// the stale bit was newly set (the Cell transitioned fresh → stale).
    pub fn mark_stale(&mut self, key: &CellKey) -> bool {
        let s = Self::slot(key);
        if self.cached[s].contains(key.dense_id()) {
            self.stale[s].insert(key.dense_id())
        } else {
            false
        }
    }

    /// Is a cached Cell stale?
    pub fn is_stale(&self, key: &CellKey) -> bool {
        self.stale[Self::slot(key)].contains(key.dense_id())
    }

    /// Cached, up-to-date — usable for query evaluation.
    pub fn is_fresh(&self, key: &CellKey) -> bool {
        self.is_cached(key) && !self.is_stale(key)
    }

    /// Completeness check: the subset of `keys` that cannot be served from
    /// memory (uncached or stale) and must be fetched/recomputed.
    pub fn missing_of<'a>(&self, keys: impl IntoIterator<Item = &'a CellKey>) -> Vec<CellKey> {
        keys.into_iter()
            .filter(|k| !self.is_fresh(k))
            .copied()
            .collect()
    }

    /// Cells cached at one level.
    pub fn cached_at_level(&self, level_index: usize) -> usize {
        self.cached.get(level_index).map_or(0, SparseBitmap::len)
    }

    /// The levels holding at least one cached Cell, ascending.
    pub fn occupied_levels(&self) -> Vec<Level> {
        (0..NUM_LEVELS)
            .filter(|&i| self.cached_at_level(i) > 0)
            .map(|i| Level::from_index(i as u8).expect("index below NUM_LEVELS"))
            .collect()
    }

    /// Total cached Cells across levels.
    pub fn total_cached(&self) -> usize {
        self.cached.iter().map(SparseBitmap::len).sum()
    }

    /// Total stale Cells across levels.
    pub fn total_stale(&self) -> usize {
        self.stale.iter().map(SparseBitmap::len).sum()
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

    #[test]
    fn cache_lifecycle() {
        let mut plm = Plm::new();
        let k = key("9q8y", TemporalRes::Day);
        assert!(!plm.is_cached(&k));
        plm.mark_cached(&k);
        assert!(plm.is_cached(&k));
        assert!(plm.is_fresh(&k));
        plm.mark_evicted(&k);
        assert!(!plm.is_cached(&k));
        assert!(!plm.is_fresh(&k));
    }

    #[test]
    fn staleness_blocks_freshness_until_recached() {
        let mut plm = Plm::new();
        let k = key("9q8y", TemporalRes::Day);
        plm.mark_cached(&k);
        plm.mark_stale(&k);
        assert!(plm.is_cached(&k), "stale cells are still in memory");
        assert!(plm.is_stale(&k));
        assert!(!plm.is_fresh(&k));
        // Re-caching (recomputation) clears staleness.
        plm.mark_cached(&k);
        assert!(plm.is_fresh(&k));
    }

    #[test]
    fn stale_on_uncached_is_noop() {
        let mut plm = Plm::new();
        let k = key("9q8y", TemporalRes::Day);
        plm.mark_stale(&k);
        assert!(!plm.is_stale(&k));
        assert_eq!(plm.total_stale(), 0);
    }

    #[test]
    fn levels_are_independent() {
        let mut plm = Plm::new();
        // Same geohash at two temporal resolutions = two different levels.
        let day = key("9q8y", TemporalRes::Day);
        let month = key("9q8y", TemporalRes::Month);
        plm.mark_cached(&day);
        assert!(plm.is_cached(&day));
        assert!(!plm.is_cached(&month));
        assert_eq!(plm.cached_at_level(day.level().index() as usize), 1);
        assert_eq!(plm.cached_at_level(month.level().index() as usize), 0);
        assert_eq!(plm.total_cached(), 1);
    }

    #[test]
    fn missing_of_is_the_completeness_check() {
        let mut plm = Plm::new();
        let a = key("9q8y", TemporalRes::Day);
        let b = key("9q8z", TemporalRes::Day);
        let c = key("9q8v", TemporalRes::Day);
        plm.mark_cached(&a);
        plm.mark_cached(&b);
        plm.mark_stale(&b); // cached but stale ⇒ missing
        let missing = plm.missing_of([&a, &b, &c]);
        assert_eq!(missing, vec![b, c]);
        // Fully fresh set ⇒ complete.
        plm.mark_cached(&b);
        plm.mark_cached(&c);
        assert!(plm.missing_of([&a, &b, &c]).is_empty());
    }

    #[test]
    fn mark_stale_reports_the_fresh_to_stale_transition() {
        let mut plm = Plm::new();
        let k = key("9q8y", TemporalRes::Day);
        assert!(!plm.mark_stale(&k), "uncached: nothing to invalidate");
        plm.mark_cached(&k);
        assert!(plm.mark_stale(&k), "first mark transitions fresh -> stale");
        assert!(!plm.mark_stale(&k), "re-marking an already-stale cell");
        // Recomputation clears the bit; the next mark transitions again.
        plm.mark_cached(&k);
        assert!(plm.mark_stale(&k));
    }

    #[test]
    fn stale_then_evicted_then_stale_is_a_noop_again() {
        // The ingest invalidation path can race eviction: a key marked
        // stale, then evicted, must not resurrect any bit when a later
        // invalidation arrives for the (now absent) cell.
        let mut plm = Plm::new();
        let k = key("9q8y", TemporalRes::Day);
        plm.mark_cached(&k);
        assert!(plm.mark_stale(&k));
        plm.mark_evicted(&k);
        assert!(!plm.mark_stale(&k));
        assert!(!plm.is_stale(&k));
        assert!(!plm.is_cached(&k));
        assert_eq!(plm.total_cached(), 0);
        assert_eq!(plm.total_stale(), 0);
        assert_eq!(plm.missing_of([&k]), vec![k]);
    }

    #[test]
    fn repeated_ingest_cycles_keep_bitmaps_consistent() {
        let mut plm = Plm::new();
        let keys: Vec<CellKey> = ["9q8y", "9q8z", "9q8v", "9q8w"]
            .iter()
            .map(|g| key(g, TemporalRes::Hour))
            .collect();
        for round in 0..3 {
            for k in &keys {
                plm.mark_cached(k);
            }
            assert_eq!(plm.total_cached(), keys.len());
            assert_eq!(plm.total_stale(), 0, "round {round}: recache cleans");
            // Invalidate half, evict one of the stale ones.
            assert!(plm.mark_stale(&keys[0]));
            assert!(plm.mark_stale(&keys[1]));
            plm.mark_evicted(&keys[1]);
            assert_eq!(plm.total_stale(), 1);
            assert_eq!(plm.total_cached(), keys.len() - 1);
            let missing = plm.missing_of(keys.iter());
            assert_eq!(missing, vec![keys[0], keys[1]]);
            assert!(plm.is_fresh(&keys[2]) && plm.is_fresh(&keys[3]));
        }
    }

    #[test]
    fn eviction_clears_staleness_bit() {
        let mut plm = Plm::new();
        let k = key("9q8y", TemporalRes::Day);
        plm.mark_cached(&k);
        plm.mark_stale(&k);
        plm.mark_evicted(&k);
        assert_eq!(plm.total_stale(), 0);
        // Re-inserting starts clean.
        plm.mark_cached(&k);
        assert!(plm.is_fresh(&k));
    }
}

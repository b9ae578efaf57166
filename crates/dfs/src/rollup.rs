//! Continuous rollups: materialized coarse aggregates maintained by ingest
//! (DESIGN.md §17; ROADMAP item 4).
//!
//! A [`RollupStore`] holds per-Cell summaries at a configured set of coarse
//! [`Level`]s. Unlike the STASH graph — a *cache* whose entries appear on
//! access and leave under replacement — rollup Cells are *always fresh*:
//! every applied append folds the batch's deltas into them (timescale-style
//! continuous aggregates), so a query at a rollup level can be answered
//! without touching the graph or the raw blocks.
//!
//! The store carries a **watermark**: the time below which its contents are
//! complete. A block contributes everything it will ever contribute once it
//! is *sealed* (its final streamed batch applied) or *static* (never
//! streamed — backfilled at boot), so the watermark is the earliest start of
//! any still-unsealed block's day, or the end of the data domain once all
//! live blocks have sealed. Sealing only removes blocks from the unsealed
//! set, so the watermark is monotonically non-decreasing. A query key is
//! answerable from the rollup iff its level is a rollup level *and* its
//! whole time bin ends at or before the watermark — which correctly
//! excludes, say, a Month cell spanning a still-streaming day.
//!
//! Exactness: summaries use the same dyadic value quantum and
//! order-invariant sketch merge laws as the rest of the system, so a
//! rollup folded incrementally in stream order is **bit-for-bit identical**
//! to a cold recompute over the final blocks (pinned by the rollup
//! equivalence proptests).

use crate::block::{plan_blocks, BlockKey};
use crate::frame::frame_spatial_res;
use crate::store::BlockSource;
use parking_lot::RwLock;
use stash_geo::{BBox, TimeRange};
use stash_model::fx::FxHashMap;
use stash_model::{AggQuery, CellKey, CellSummary, Level, SketchSpec};
use std::collections::HashSet;

/// Materialized rollup Cells at configured coarse levels, with the
/// watermark bookkeeping that makes them safely servable.
///
/// Shared (behind an `Arc`) by every node thread of an owner — the store
/// models the owner's durable rollup state, so it survives a simulated
/// crash/restart the same way the replicated block store does.
pub struct RollupStore {
    /// Rollup levels, sorted and deduplicated.
    levels: Vec<Level>,
    /// Bit `i` set iff level index `i` is a rollup level (48 levels fit).
    level_mask: u64,
    /// Watermark value once every live block has sealed: the end of the
    /// data time domain.
    horizon_end: i64,
    inner: RwLock<Inner>,
}

#[derive(Default)]
struct Inner {
    /// The rollup Cells. Empty summaries are not stored (matching the
    /// evaluator, which only returns non-empty cells).
    cells: FxHashMap<CellKey, CellSummary>,
    /// Next expected fold seq per streamed block — belt-and-suspenders
    /// idempotency on top of the block source's own version check.
    applied: FxHashMap<BlockKey, u64>,
    /// Live blocks whose final batch has not been applied yet.
    unsealed: HashSet<BlockKey>,
    /// Blocks whose base (pre-stream) rows have been folded.
    based: HashSet<BlockKey>,
    /// Cached watermark (recomputed on seal).
    watermark: i64,
}

impl RollupStore {
    /// A store rolling up at `levels`, with `live_blocks` initially
    /// unsealed and `horizon_end` (the data time domain's end) as the
    /// all-sealed watermark.
    pub fn new(
        levels: impl IntoIterator<Item = Level>,
        live_blocks: impl IntoIterator<Item = BlockKey>,
        horizon_end: i64,
    ) -> Self {
        let mut levels: Vec<Level> = levels.into_iter().collect();
        levels.sort_unstable();
        levels.dedup();
        let mut level_mask = 0u64;
        for l in &levels {
            level_mask |= 1 << l.index();
        }
        let unsealed: HashSet<BlockKey> = live_blocks.into_iter().collect();
        let watermark = Self::watermark_of(&unsealed, horizon_end);
        RollupStore {
            levels,
            level_mask,
            horizon_end,
            inner: RwLock::new(Inner {
                unsealed,
                watermark,
                ..Inner::default()
            }),
        }
    }

    fn watermark_of(unsealed: &HashSet<BlockKey>, horizon_end: i64) -> i64 {
        unsealed
            .iter()
            .map(|b| b.day.range().start)
            .min()
            .unwrap_or(horizon_end)
    }

    /// The configured rollup levels (sorted, deduplicated).
    pub fn levels(&self) -> &[Level] {
        &self.levels
    }

    /// Is this a level the store maintains?
    #[inline]
    pub fn is_rollup_level(&self, level: Level) -> bool {
        self.level_mask >> level.index() & 1 == 1
    }

    /// The time below which the rollup is complete: queries whose bins end
    /// at or before this answer identically to a cold recompute.
    pub fn watermark(&self) -> i64 {
        self.inner.read().watermark
    }

    /// Live blocks still awaiting their final batch.
    pub fn unsealed_blocks(&self) -> usize {
        self.inner.read().unsealed.len()
    }

    /// Can this single key be served from the rollup right now?
    pub fn covers(&self, key: &CellKey) -> bool {
        self.is_rollup_level(key.level()) && key.time.range().end <= self.watermark()
    }

    /// Fold one streamed batch's rollup-level deltas. Returns `true` iff
    /// the batch was applied; a seq at or below the last applied one is a
    /// retried duplicate and a gap is out of order — both are skipped, so
    /// folding is idempotent under retries.
    pub fn fold(&self, block: BlockKey, seq: u64, cells: &[(CellKey, CellSummary)]) -> bool {
        let mut inner = self.inner.write();
        let next = inner.applied.entry(block).or_insert(0);
        if seq != *next {
            return false;
        }
        *next += 1;
        self.merge_in(&mut inner, cells);
        true
    }

    /// Fold a block's base (pre-stream) rows, at boot or backfill. Guarded
    /// per block so a block's base contributes exactly once. Returns `true`
    /// iff this call folded it.
    pub fn fold_base(&self, block: BlockKey, cells: &[(CellKey, CellSummary)]) -> bool {
        let mut inner = self.inner.write();
        if !inner.based.insert(block) {
            return false;
        }
        self.merge_in(&mut inner, cells);
        true
    }

    fn merge_in(&self, inner: &mut Inner, cells: &[(CellKey, CellSummary)]) {
        for (key, summary) in cells {
            if !self.is_rollup_level(key.level()) || summary.is_empty() {
                continue;
            }
            match inner.cells.entry(*key) {
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(summary.clone());
                }
                std::collections::hash_map::Entry::Occupied(mut o) => o.get_mut().merge(summary),
            }
        }
    }

    /// Mark a block's stream complete (its final batch applied) and return
    /// the new watermark. Idempotent; never moves the watermark backwards.
    pub fn seal(&self, block: BlockKey) -> i64 {
        let mut inner = self.inner.write();
        if inner.unsealed.remove(&block) {
            let advanced = Self::watermark_of(&inner.unsealed, self.horizon_end);
            // Monotone by construction (seal only shrinks the unsealed
            // set); the max is a defensive floor.
            inner.watermark = inner.watermark.max(advanced);
        }
        inner.watermark
    }

    /// Serve a whole key set from the rollup, or decline. Returns `None`
    /// unless *every* key is at a rollup level with its bin fully under the
    /// watermark (partial eligibility falls back to the normal path so the
    /// caller never mixes authorities within one sub-query). The returned
    /// cells are the non-empty ones, sorted by key; each summary is a
    /// shared clone of the stored one (reference counts, not a copy), so a
    /// later fold un-shares the stored Cell and leaves the answer as
    /// served.
    pub fn serve(&self, keys: &[CellKey]) -> Option<Vec<(CellKey, CellSummary)>> {
        let inner = self.inner.read();
        if !keys
            .iter()
            .all(|k| self.is_rollup_level(k.level()) && k.time.range().end <= inner.watermark)
        {
            return None;
        }
        let mut out: Vec<(CellKey, CellSummary)> = keys
            .iter()
            .filter_map(|k| inner.cells.get(k).map(|s| (*k, s.clone())))
            .collect();
        out.sort_unstable_by_key(|(k, _)| *k);
        Some(out)
    }

    /// May this raw block be dropped under a retention horizon? True iff
    /// its whole day ends at or before both the horizon and the watermark —
    /// the watermark bound guarantees the rollup already holds everything
    /// the block would ever contribute.
    pub fn retirable(&self, block: &BlockKey, horizon: i64) -> bool {
        block.day.range().end <= horizon.min(self.watermark())
    }

    /// Every block the store has folded (base or streamed) or is still
    /// waiting on — the retention pass's candidate set, sorted for
    /// deterministic retirement order.
    pub fn known_blocks(&self) -> Vec<BlockKey> {
        let inner = self.inner.read();
        let mut blocks: Vec<BlockKey> = inner
            .based
            .iter()
            .chain(inner.unsealed.iter())
            .copied()
            .chain(inner.applied.keys().copied())
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }

    /// Number of materialized rollup Cells.
    pub fn len(&self) -> usize {
        self.inner.read().cells.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Estimated resident bytes of the rollup state — the bounded-memory
    /// measurement the retention benches report.
    pub fn estimated_bytes(&self) -> usize {
        let inner = self.inner.read();
        inner
            .cells
            .values()
            .map(|s| std::mem::size_of::<CellKey>() + s.estimated_bytes())
            .sum::<usize>()
            + (inner.applied.len() + inner.unsealed.len() + inner.based.len())
                * std::mem::size_of::<BlockKey>()
    }

    /// Backfill rollup Cells for every block of the domain from the block
    /// source — the boot path, run before any stream starts, so live
    /// blocks contribute exactly their base rows (appends then fold deltas
    /// on top). Returns the number of blocks folded.
    #[allow(clippy::too_many_arguments)] // the boot path threads every domain knob through once
    pub fn backfill(
        &self,
        source: &dyn BlockSource,
        block_len: u8,
        data_bbox: &BBox,
        data_time: &TimeRange,
        sketch: &SketchSpec,
        max_cells_per_level: usize,
        max_blocks: usize,
    ) -> Result<usize, String> {
        let mut keys: Vec<CellKey> = Vec::new();
        for level in &self.levels {
            let q = AggQuery::new(
                *data_bbox,
                *data_time,
                level.spatial_res(),
                level.temporal_res(),
            );
            keys.extend(
                q.target_keys(max_cells_per_level)
                    .map_err(|e| format!("rollup backfill targets at {level}: {e}"))?,
            );
        }
        keys.sort_unstable();
        keys.dedup();
        let plan = plan_blocks(&keys, block_len, data_bbox, data_time, max_blocks)
            .map_err(|e| format!("rollup backfill plan: {e}"))?;
        let entries: Vec<(BlockKey, Vec<CellKey>)> = plan.into_iter().collect();
        let scan = |(bk, wanted): &(BlockKey, Vec<CellKey>)| {
            let frame = source.read_frame(*bk, frame_spatial_res(block_len, wanted));
            (*bk, frame.aggregate_with(wanted, sketch).cells)
        };
        // One scoped thread per core, each scanning a contiguous run of the
        // plan; the runs are folded below in plan order.
        let threads = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(entries.len());
        let scans: Vec<(BlockKey, Vec<(CellKey, CellSummary)>)> = if threads <= 1 {
            entries.iter().map(scan).collect()
        } else {
            std::thread::scope(|s| {
                let runs: Vec<_> = entries
                    .chunks(entries.len().div_ceil(threads))
                    .map(|run| s.spawn(move || run.iter().map(scan).collect::<Vec<_>>()))
                    .collect();
                runs.into_iter()
                    .flat_map(|h| h.join().expect("rollup backfill scan panicked"))
                    .collect()
            })
        };
        let mut folded = 0;
        for (bk, cells) in scans {
            if self.fold_base(bk, &cells) {
                folded += 1;
            }
        }
        Ok(folded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::tests::GenSource;
    use stash_data::{GeneratorConfig, NamGenerator};
    use stash_geo::time::epoch_seconds;
    use stash_geo::{Geohash, TemporalRes, TimeBin};
    use stash_model::FlatPartials;
    use std::str::FromStr;

    fn day_bin(y: i64, m: u32, d: u32) -> TimeBin {
        TimeBin::containing(TemporalRes::Day, epoch_seconds(y, m, d, 0, 0, 0))
    }

    fn block(gh: &str, y: i64, m: u32, d: u32) -> BlockKey {
        BlockKey {
            geohash: Geohash::from_str(gh).unwrap(),
            day: day_bin(y, m, d),
        }
    }

    fn key(gh: &str, res: TemporalRes, y: i64, m: u32, d: u32) -> CellKey {
        CellKey::new(
            Geohash::from_str(gh).unwrap(),
            TimeBin::containing(res, epoch_seconds(y, m, d, 0, 0, 0)),
        )
    }

    fn summary(vals: &[f64]) -> CellSummary {
        let mut s = CellSummary::empty(vals.len());
        s.push_row(vals);
        s
    }

    fn levels() -> Vec<Level> {
        vec![
            Level::of(2, TemporalRes::Day).unwrap(),
            Level::of(1, TemporalRes::Month).unwrap(),
        ]
    }

    #[test]
    fn watermark_starts_at_earliest_unsealed_day_and_advances_on_seal() {
        let horizon = epoch_seconds(2016, 1, 1, 0, 0, 0);
        let b1 = block("9q8", 2015, 2, 2);
        let b2 = block("9q9", 2015, 3, 5);
        let store = RollupStore::new(levels(), [b1, b2], horizon);
        assert_eq!(store.watermark(), day_bin(2015, 2, 2).range().start);
        assert_eq!(store.unsealed_blocks(), 2);

        let after_b1 = store.seal(b1);
        assert_eq!(after_b1, day_bin(2015, 3, 5).range().start);
        // Idempotent, never regresses.
        assert_eq!(store.seal(b1), after_b1);
        assert_eq!(store.seal(b2), horizon);
        assert_eq!(store.unsealed_blocks(), 0);
    }

    #[test]
    fn no_live_blocks_means_watermark_at_horizon() {
        let horizon = epoch_seconds(2016, 1, 1, 0, 0, 0);
        let store = RollupStore::new(levels(), [], horizon);
        assert_eq!(store.watermark(), horizon);
    }

    #[test]
    fn fold_is_seq_idempotent_and_filters_levels() {
        let store = RollupStore::new(levels(), [], epoch_seconds(2016, 1, 1, 0, 0, 0));
        let b = block("9q8", 2015, 2, 2);
        let rollup_key = key("9q", TemporalRes::Day, 2015, 2, 2);
        let fine_key = key("9q8y", TemporalRes::Day, 2015, 2, 2);
        let cells = vec![
            (rollup_key, summary(&[1.0])),
            (fine_key, summary(&[9.0])), // not a rollup level — ignored
        ];
        assert!(store.fold(b, 0, &cells));
        assert!(!store.fold(b, 0, &cells), "duplicate seq skipped");
        assert!(!store.fold(b, 2, &cells), "gap skipped");
        assert!(store.fold(b, 1, &cells));
        assert_eq!(store.len(), 1, "only the rollup-level key materializes");

        let served = store.serve(&[rollup_key]).unwrap();
        assert_eq!(served.len(), 1);
        assert_eq!(served[0].1.count(), 2, "two applied folds of one row");
    }

    #[test]
    fn fold_base_applies_once_per_block() {
        let store = RollupStore::new(levels(), [], epoch_seconds(2016, 1, 1, 0, 0, 0));
        let b = block("9q8", 2015, 2, 2);
        let k = key("9q", TemporalRes::Day, 2015, 2, 2);
        assert!(store.fold_base(b, &[(k, summary(&[1.0]))]));
        assert!(!store.fold_base(b, &[(k, summary(&[1.0]))]));
        assert_eq!(store.serve(&[k]).unwrap()[0].1.count(), 1);
    }

    #[test]
    fn serve_declines_unless_every_key_is_under_the_watermark() {
        let b = block("9q8", 2015, 2, 2);
        let store = RollupStore::new(levels(), [b], epoch_seconds(2016, 1, 1, 0, 0, 0));
        let under = key("9q", TemporalRes::Day, 2015, 2, 1); // ends before 2015-02-02
        let month = key("9", TemporalRes::Month, 2015, 2, 1); // spans the live day
        assert!(store.covers(&under));
        assert!(!store.covers(&month));
        assert!(store.serve(&[under]).is_some());
        assert!(store.serve(&[under, month]).is_none(), "all-or-nothing");

        store.seal(b);
        assert!(store.serve(&[under, month]).is_some());
    }

    #[test]
    fn serve_drops_empty_cells_and_sorts() {
        let store = RollupStore::new(levels(), [], epoch_seconds(2016, 1, 1, 0, 0, 0));
        let k1 = key("9q", TemporalRes::Day, 2015, 2, 2);
        let k2 = key("9r", TemporalRes::Day, 2015, 2, 2);
        let empty = key("9m", TemporalRes::Day, 2015, 2, 2);
        store.fold_base(
            block("9q8", 2015, 2, 2),
            &[
                (k2, summary(&[2.0])),
                (empty, CellSummary::empty(1)),
                (k1, summary(&[1.0])),
            ],
        );
        let served = store.serve(&[k2, empty, k1]).unwrap();
        assert_eq!(
            served.iter().map(|(k, _)| *k).collect::<Vec<_>>(),
            vec![k1, k2]
        );
    }

    #[test]
    fn retirable_is_bounded_by_watermark_and_horizon() {
        let live = block("9q8", 2015, 3, 1);
        let store = RollupStore::new(levels(), [live], epoch_seconds(2016, 1, 1, 0, 0, 0));
        let old = block("9q9", 2015, 2, 2);
        let horizon = epoch_seconds(2015, 6, 1, 0, 0, 0);
        assert!(store.retirable(&old, horizon));
        assert!(
            !store.retirable(&live, horizon),
            "live block is above the watermark"
        );
        assert!(
            !store.retirable(&old, day_bin(2015, 2, 2).range().start),
            "horizon below the block's day end"
        );
    }

    #[test]
    fn estimated_bytes_grow_with_cells() {
        let store = RollupStore::new(levels(), [], epoch_seconds(2016, 1, 1, 0, 0, 0));
        let before = store.estimated_bytes();
        store.fold_base(
            block("9q8", 2015, 2, 2),
            &[(key("9q", TemporalRes::Day, 2015, 2, 2), summary(&[1.0]))],
        );
        assert!(store.estimated_bytes() > before);
    }

    #[test]
    fn backfill_equals_base_folds_in_plan_order() {
        let bbox = BBox::new(30.0, 40.0, -110.0, -90.0).unwrap();
        let time = TimeRange::new(
            epoch_seconds(2015, 2, 1, 0, 0, 0),
            epoch_seconds(2015, 2, 4, 0, 0, 0),
        )
        .unwrap();
        // Unquantized values: float sums depend on the order they are
        // folded in, so a reordered fold shows in the bits.
        let source = GenSource(NamGenerator::new(GeneratorConfig {
            seed: 7,
            obs_per_deg2_per_day: 20.0,
            max_obs_per_block: 10_000,
            value_quantum: 0.0,
        }));
        let spec = SketchSpec::disabled();
        let (block_len, max_cells, max_blocks) = (3, 100_000, 100_000);

        // The reference: each planned block's base folded on this thread,
        // in `plan_blocks` order.
        let mut keys: Vec<CellKey> = Vec::new();
        for level in levels() {
            let q = AggQuery::new(bbox, time, level.spatial_res(), level.temporal_res());
            keys.extend(q.target_keys(max_cells).unwrap());
        }
        keys.sort_unstable();
        keys.dedup();
        let plan = plan_blocks(&keys, block_len, &bbox, &time, max_blocks).unwrap();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert!(plan.len() > cores, "{} blocks on {cores} cores", plan.len());
        let horizon = epoch_seconds(2016, 1, 1, 0, 0, 0);
        let reference = RollupStore::new(levels(), [], horizon);
        for (bk, wanted) in &plan {
            let frame = source.read_frame(*bk, frame_spatial_res(block_len, wanted));
            assert!(reference.fold_base(*bk, &frame.aggregate_with(wanted, &spec).cells));
        }

        let store = RollupStore::new(levels(), [], horizon);
        let folded = store.backfill(
            &source, block_len, &bbox, &time, &spec, max_cells, max_blocks,
        );
        assert_eq!(folded, Ok(plan.len()));
        let want = reference.serve(&keys).unwrap();
        assert!(want.len() > 1);
        let got = store.serve(&keys).unwrap();
        assert!(
            FlatPartials::encode(&got).to_bytes() == FlatPartials::encode(&want).to_bytes(),
            "backfill differs from the base folds in plan order"
        );
    }
}

//! Equivalence of the columnar frame kernel against the seed's direct
//! per-level binning (ISSUE 4 satellite): `NodeStore::scan_block` (decode
//! once → aggregate flat → derive upward, DESIGN.md §12) must produce
//! bit-for-bit the same summaries as `NodeStore::scan_block_direct` (one
//! geohash encode per observation × resolution group) across random
//! blocks, resolution mixes, and wanted-cell subsets.
//!
//! Attribute values are dyadic (multiples of 0.25, |v| ≤ 1024) so every
//! intermediate sum and sum-of-squares is exactly representable in f64:
//! the two kernels merge in different orders, and with exact arithmetic
//! any bitwise difference is a real binning bug, not float reassociation.
//! The finest-resolution group needs no such care — the frame kernel
//! pushes those rows in block order, the same sequence the direct path
//! executes — but coarser derived groups merge finest partials, so the
//! dyadic restriction is what makes `==` a sound oracle for them.

use proptest::prelude::*;
use stash_dfs::{BlockKey, BlockSource, DiskModel, NodeStore, Partitioner};
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{CellKey, CellSummary, Observation, SketchSpec};
use std::str::FromStr;
use std::sync::Arc;

/// A literal in-memory block: every read yields these exact rows.
struct VecSource {
    rows: Vec<Observation>,
    n_attrs: usize,
}

impl BlockSource for VecSource {
    fn read_block(&self, _key: BlockKey) -> Vec<Observation> {
        self.rows.clone()
    }
    fn block_bytes(&self, _geohash: Geohash) -> usize {
        self.rows.len() * 64 + 1
    }
    fn n_attrs(&self) -> usize {
        self.n_attrs
    }
}

const TILES: [&str; 4] = ["9", "9x", "9xj", "dr5r"];
const DAY_SECS: i64 = 86_400;

/// The (spatial delta from tile, temporal res) mix a `level_mask` bit
/// enables. Deltas reach below the tile (coarser) and two levels above
/// (finer); every temporal resolution appears.
const COMBOS: [(i8, TemporalRes); 6] = [
    (-1, TemporalRes::Month),
    (0, TemporalRes::Year),
    (0, TemporalRes::Day),
    (1, TemporalRes::Day),
    (1, TemporalRes::Hour),
    (2, TemporalRes::Hour),
];

fn store_for(tile: Geohash, rows: Vec<Observation>, cache_bytes: usize) -> NodeStore {
    let bbox = BBox::new(-90.0, 90.0, -180.0, 180.0).unwrap();
    let time = TimeRange::new(
        epoch_seconds(2015, 1, 1, 0, 0, 0),
        epoch_seconds(2016, 1, 1, 0, 0, 0),
    )
    .unwrap();
    NodeStore::new(
        0,
        Partitioner::new(1, 1),
        tile.len(),
        bbox,
        time,
        DiskModel::free(),
        Arc::new(VecSource { rows, n_attrs: 2 }),
        10_000,
    )
    .with_scan_cost(std::time::Duration::ZERO)
    .with_frame_cache_bytes(cache_bytes)
}

fn sorted(mut cells: Vec<(CellKey, CellSummary)>) -> Vec<(CellKey, CellSummary)> {
    cells.sort_unstable_by_key(|&(k, _)| k);
    cells
}

proptest! {
    #[test]
    fn frame_kernel_matches_direct_binning(
        tile_idx in 0usize..TILES.len(),
        raw_rows in proptest::collection::vec(
            // (lat u, lon u, second of day, two dyadic attribute quarters)
            (0.0f64..1.0, 0.0f64..1.0, 0u32..86_400, -4096i32..=4096, -4096i32..=4096),
            1..120,
        ),
        level_mask in 1u8..64,
        subset_stride in 1usize..4,
        cache_bytes in prop_oneof![Just(0usize), Just(64usize << 20)],
    ) {
        let tile = Geohash::from_str(TILES[tile_idx]).unwrap();
        let tb = tile.bbox();
        let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0));
        let day_start = day.start();
        let rows: Vec<Observation> = raw_rows
            .iter()
            .map(|&(u, v, sec, q0, q1)| {
                Observation::new(
                    tb.min_lat + u * (tb.max_lat - tb.min_lat),
                    tb.min_lon + v * (tb.max_lon - tb.min_lon),
                    day_start + sec as i64 % DAY_SECS,
                    vec![q0 as f64 * 0.25, q1 as f64 * 0.25],
                )
            })
            .collect();
        let store = store_for(tile, rows.clone(), cache_bytes);
        let bk = BlockKey { geohash: tile, day };

        // Wanted cells: for each enabled resolution combo, the cells of a
        // strided subset of the rows (so most combos cover only part of
        // the block) — duplicates left in to exercise dedup.
        let mut wanted: Vec<CellKey> = Vec::new();
        for (bit, &(delta, t_res)) in COMBOS.iter().enumerate() {
            if level_mask & (1 << bit) == 0 {
                continue;
            }
            let s_res = (tile.len() as i8 + delta).clamp(1, 12) as u8;
            for obs in rows.iter().step_by(subset_stride) {
                if let Some(key) = obs.cell_key(s_res, t_res) {
                    wanted.push(key);
                }
            }
        }
        prop_assert!(!wanted.is_empty(), "mask {level_mask} selected no cells");

        let new = sorted(store.scan_block(bk, &wanted).cells);
        let old = store.scan_block_direct(bk, &wanted);
        prop_assert_eq!(&new, &old, "frame kernel diverged from direct binning");

        // A second scan — a cache hit when the budget allows — must be
        // byte-identical to the cold one.
        let warm = store.scan_block(bk, &wanted);
        prop_assert_eq!(warm.cache_hit, cache_bytes > 0);
        prop_assert_eq!(sorted(warm.cells), new, "warm scan diverged from cold");
    }

    /// Sketch-enabled scans must match a direct per-cell raw-row fold
    /// bit-for-bit at *every* level. The kernel derives exact stats for
    /// coarse groups by merging finest partials, but sketch state is fed
    /// raw rows per cell in ascending `(finest slot, row)` order — row
    /// order itself for finest cells, and a reordering that every sketch
    /// state except an over-cap heavy-hitter candidate list is invariant
    /// to. At ≤ 220 rows the candidate cap (256) is never approached, so
    /// `==` is sound for the sketch halves here; the dyadic attribute
    /// restriction keeps it sound for the exact halves too. A share of
    /// the rows crowds into one corner and one hour, so wanted Cells at
    /// every level straddle the raw cap (64 values): a few rows, and
    /// more than the cap.
    #[test]
    fn frame_kernel_sketches_match_direct_fold(
        tile_idx in 0usize..TILES.len(),
        raw_rows in proptest::collection::vec(
            (0.0f64..1.0, 0.0f64..1.0, 0u32..86_400, -4096i32..=4096, -4096i32..=4096, any::<bool>()),
            1..220,
        ),
        level_mask in 1u8..64,
        subset_stride in 1usize..4,
    ) {
        let tile = Geohash::from_str(TILES[tile_idx]).unwrap();
        let tb = tile.bbox();
        let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0));
        let day_start = day.start();
        let rows: Vec<Observation> = raw_rows
            .iter()
            .map(|&(u, v, sec, q0, q1, crowded)| {
                let (u, v, sec) = if crowded { (u * 1e-4, v * 1e-4, sec % 3600) } else { (u, v, sec) };
                Observation::new(
                    tb.min_lat + u * (tb.max_lat - tb.min_lat),
                    tb.min_lon + v * (tb.max_lon - tb.min_lon),
                    day_start + sec as i64 % DAY_SECS,
                    vec![q0 as f64 * 0.25, q1 as f64 * 0.25],
                )
            })
            .collect();
        let spec = SketchSpec::standard();
        let store = store_for(tile, rows.clone(), 0).with_sketches(spec.clone());
        let bk = BlockKey { geohash: tile, day };

        let mut wanted: Vec<CellKey> = Vec::new();
        for (bit, &(delta, t_res)) in COMBOS.iter().enumerate() {
            if level_mask & (1 << bit) == 0 {
                continue;
            }
            let s_res = (tile.len() as i8 + delta).clamp(1, 12) as u8;
            for obs in rows.iter().step_by(subset_stride) {
                if let Some(key) = obs.cell_key(s_res, t_res) {
                    wanted.push(key);
                }
            }
        }
        prop_assert!(!wanted.is_empty(), "mask {level_mask} selected no cells");

        let scanned = sorted(store.scan_block(bk, &wanted).cells);
        prop_assert!(
            scanned.iter().all(|(_, s)| s.has_sketches()),
            "sketch-enabled scan emitted exact-only cells"
        );

        // Reference: fold each wanted cell's raw rows directly.
        let mut keys: Vec<CellKey> = wanted.clone();
        keys.sort_unstable();
        keys.dedup();
        let reference: Vec<(CellKey, CellSummary)> = keys
            .iter()
            .map(|&key| {
                let level = key.level();
                let mut s = CellSummary::empty_with(2, &spec);
                for obs in &rows {
                    if obs.cell_key(level.spatial_res(), level.temporal_res()) == Some(key) {
                        s.push_row(&obs.values);
                    }
                }
                (key, s)
            })
            .collect();
        prop_assert_eq!(&scanned, &reference, "sketched scan diverged from direct fold");
        // The form follows the count: raw up to the cap, sketched past it.
        for (key, summary) in &scanned {
            for a in 0..2 {
                let sk = summary.attr_sketches(a).unwrap();
                prop_assert_eq!(sk.is_raw(), summary.count() <= spec.raw_cap() as u64, "{:?}", key);
            }
        }

        // Error-bound spot checks against the exact per-cell row sets.
        for (key, summary) in &scanned {
            let level = key.level();
            let mut exact: Vec<f64> = rows
                .iter()
                .filter(|o| o.cell_key(level.spatial_res(), level.temporal_res()) == Some(*key))
                .map(|o| o.values[0])
                .collect();
            if exact.is_empty() {
                continue;
            }
            exact.sort_by(f64::total_cmp);
            let sk = summary.attr_sketches(0).unwrap();
            let est = sk.quantile(0.5).unwrap();
            let true_median = exact[(exact.len() - 1) / 2];
            let tol = est.relative_error * true_median.abs() + 1e-9;
            prop_assert!(
                (est.value - true_median).abs() <= tol
                    || exact.iter().any(|&v| (est.value - v).abs() <= est.relative_error * v.abs() + 1e-9),
                "median estimate {} too far from exact {true_median}",
                est.value
            );
            let distinct: std::collections::HashSet<u64> =
                exact.iter().map(|v| v.to_bits()).collect();
            let d = sk.distinct();
            prop_assert!(
                (d.count - distinct.len() as f64).abs()
                    <= 6.0 * d.standard_error * distinct.len() as f64 + 3.0,
                "distinct estimate {} vs true {}",
                d.count,
                distinct.len()
            );
            // Count-min never undercounts and a single counter never
            // exceeds the total pushed; the tighter `+ error_bound`
            // overcount cap is probabilistic (1 − 2^−depth per lookup) and
            // is exercised statistically in the sketch crate's own tests.
            for entry in sk.top_k(4) {
                let true_count = exact.iter().filter(|&&v| v == entry.value).count() as u64;
                prop_assert!(
                    entry.count >= true_count && entry.count <= exact.len() as u64,
                    "heavy-hitter count {} outside [{true_count}, {}]",
                    entry.count,
                    exact.len()
                );
            }
        }
    }
}

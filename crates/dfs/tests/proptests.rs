//! Property tests for the storage substrate: block planning must cover
//! exactly the data a Cell needs, the partitioner must give every block
//! exactly one home, and a read plan must give every block exactly one
//! reader — checked here against references that do not share the rule:
//! the replica chain, a brute-force minimum and a direct scan.

use proptest::prelude::*;
use stash_data::{GeneratorConfig, NamGenerator};
use stash_dfs::{
    plan_blocks, plan_reads, BlockKey, BlockSource, DiskModel, NodeStore, Partitioner,
};
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{CellKey, CellSummary, Observation};
use std::collections::BTreeMap;
use std::sync::Arc;

fn domain() -> (BBox, TimeRange) {
    (
        BBox::new(20.0, 55.0, -130.0, -60.0).unwrap(),
        TimeRange::new(
            epoch_seconds(2015, 1, 1, 0, 0, 0),
            epoch_seconds(2016, 1, 1, 0, 0, 0),
        )
        .unwrap(),
    )
}

proptest! {
    /// Every planned block nests the cell spatially (or vice versa) and
    /// overlaps it temporally; and every in-domain portion of the cell is
    /// covered by some block.
    #[test]
    fn plan_blocks_covers_exactly(
        lat in 25.0f64..50.0,
        lon in -125.0f64..-65.0,
        s_res in 1u8..=5,
        month in 1u32..=12,
        day in 1u32..=28,
        t_idx in 1u8..4, // Month / Day / Hour
    ) {
        let (bbox, time) = domain();
        let t_res = TemporalRes::from_index(t_idx).unwrap();
        let cell = CellKey::new(
            Geohash::encode(lat, lon, s_res).unwrap(),
            TimeBin::containing(t_res, epoch_seconds(2015, month, day, 12, 0, 0)),
        );
        let plan = plan_blocks(&[cell], 3, &bbox, &time, 100_000).unwrap();
        for (bk, cells) in &plan {
            prop_assert_eq!(cells.as_slice(), &[cell]);
            // Spatial nesting one way or the other.
            prop_assert!(
                bk.geohash.is_within(&cell.geohash) || cell.geohash.is_within(&bk.geohash),
                "block {} unrelated to cell {}", bk.geohash, cell.geohash
            );
            // Temporal overlap with both the cell and the domain.
            prop_assert!(bk.day.range().intersects(&cell.time.range()));
            prop_assert!(bk.day.range().intersects(&time));
        }
        // Coverage: the cell's in-domain days are all planned.
        let clipped = TimeRange::new(
            cell.time.range().start.max(time.start),
            cell.time.range().end.min(time.end),
        );
        if let Some(r) = clipped {
            if r.duration_secs() > 0 && cell.geohash.bbox().intersects(&bbox) {
                let want_days = TimeBin::cover_range(TemporalRes::Day, r);
                for d in want_days {
                    prop_assert!(
                        plan.keys().any(|bk| bk.day == d),
                        "day {} of {} unplanned", d, cell
                    );
                }
            }
        }
    }

    /// A block has exactly one owner, and ownership is stable under
    /// repeated evaluation and consistent across equal partitioners.
    #[test]
    fn partitioner_is_a_function(
        lat in -85.0f64..85.0,
        lon in -179.0f64..179.0,
        len in 2u8..=6,
        n_nodes in 1usize..32,
    ) {
        let gh = Geohash::encode(lat, lon, len).unwrap();
        let p1 = Partitioner::new(n_nodes, 2);
        let p2 = Partitioner::new(n_nodes, 2);
        let o = p1.owner(gh);
        prop_assert!(o < n_nodes);
        prop_assert_eq!(o, p1.owner(gh));
        prop_assert_eq!(o, p2.owner(gh));
        // All descendants stay on the same node (colocation).
        if len < 6 {
            for child in gh.children().unwrap() {
                prop_assert_eq!(p1.owner(child), o);
            }
        }
    }

    /// The union of all nodes' owned blocks is the whole plan: no block is
    /// orphaned or double-owned.
    #[test]
    fn every_block_has_one_home(
        lat in 25.0f64..50.0,
        lon in -125.0f64..-70.0,
        n_nodes in 1usize..12,
    ) {
        let (bbox, time) = domain();
        let cell = CellKey::new(
            Geohash::encode(lat, lon, 2).unwrap(), // coarse: many blocks
            TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0)),
        );
        let plan = plan_blocks(&[cell], 3, &bbox, &time, 100_000).unwrap();
        let p = Partitioner::new(n_nodes, 2);
        for bk in plan.keys() {
            let owners: Vec<usize> = (0..n_nodes).filter(|&n| p.owner(bk.geohash) == n).collect();
            prop_assert_eq!(owners.len(), 1, "block {} owners: {:?}", bk, owners);
        }
    }
}

/// Day Cells at spatial resolutions 1–4 inside the domain, on the first
/// days of February 2015.
fn cell_keys(max: usize) -> impl Strategy<Value = Vec<CellKey>> {
    prop::collection::vec(
        (25.0f64..50.0, -125.0f64..-65.0, 1u8..=4, 1u32..=3),
        1..=max,
    )
    .prop_map(|cells| {
        cells
            .into_iter()
            .map(|(lat, lon, res, day)| {
                CellKey::new(
                    Geohash::encode(lat, lon, res).unwrap(),
                    TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, day, 0, 0, 0)),
                )
            })
            .collect()
    })
}

/// A ring of 1–`max` nodes and an exclusion set drawn from it, which
/// leaves at least one node live when `keep_one`.
fn ring(max: usize, keep_one: bool) -> impl Strategy<Value = (usize, Vec<usize>)> {
    (1..=max, any::<u16>(), 0..max).prop_map(move |(n, mask, keep)| {
        let down = |i: &usize| mask >> i & 1 == 1 && !(keep_one && *i == keep % n);
        (n, (0..n).filter(down).collect())
    })
}

/// Per-node block counts of `readers`.
fn loads(readers: impl IntoIterator<Item = usize>, n_nodes: usize) -> Vec<usize> {
    let mut load = vec![0; n_nodes];
    for r in readers {
        load[r] += 1;
    }
    load
}

/// The replica chain by walking the ring: the effective owner and its
/// first live successor (the owner itself when it is the only live node).
fn chain(n_nodes: usize, primary: usize, exclude: &[usize]) -> (usize, usize) {
    let live = |i: &usize| !exclude.contains(i);
    let walk = |from: usize| (1..=n_nodes).map(move |i| (from + i) % n_nodes);
    let owner = if live(&primary) {
        primary
    } else {
        walk(primary).find(live).unwrap_or(primary)
    };
    (owner, walk(owner).find(live).unwrap_or(owner))
}

/// NamGenerator as a block source.
struct GenSource(NamGenerator);

impl BlockSource for GenSource {
    fn read_block(&self, key: BlockKey) -> Vec<Observation> {
        self.0.block_for_day(key.geohash, key.day)
    }
    fn block_bytes(&self, geohash: Geohash) -> usize {
        self.0.block_bytes(geohash)
    }
    fn n_attrs(&self) -> usize {
        self.0.schema().len()
    }
}

/// Merge `(key, summary)` fragments per key.
fn merge_into(merged: &mut BTreeMap<CellKey, CellSummary>, parts: Vec<(CellKey, CellSummary)>) {
    for (key, summary) in parts {
        match merged.entry(key) {
            std::collections::btree_map::Entry::Vacant(v) => {
                v.insert(summary);
            }
            std::collections::btree_map::Entry::Occupied(mut o) => o.get_mut().merge(&summary),
        }
    }
}

proptest! {
    /// Every planned block has exactly one reader, inside its two-replica
    /// chain; a plan that does not span partitions is read by the
    /// effective owners; a spanning plan's busiest reader reads no more
    /// than the busiest owner and no less than an even split over the live
    /// nodes; and the readers do not depend on the order of the keys.
    #[test]
    fn plan_reads_stays_in_the_chain(
        keys in cell_keys(4),
        (n_nodes, exclude) in ring(12, false),
        rotate in 0usize..4,
    ) {
        let (bbox, time) = domain();
        let part = Partitioner::new(n_nodes, 2);
        let reads = plan_reads(&keys, 3, &bbox, &time, 100_000, &part, &exclude).unwrap();
        let plan = plan_blocks(&keys, 3, &bbox, &time, 100_000).unwrap();
        prop_assert_eq!(reads.len(), plan.len());
        let spans = keys.iter().any(|k| k.geohash.len() < 2);
        let all_down = exclude.len() == n_nodes;
        for ((bk, cells, reader), (pk, pcells)) in reads.iter().zip(&plan) {
            prop_assert_eq!((bk, cells), (pk, pcells));
            let (owner, next) = chain(n_nodes, part.owner(bk.geohash), &exclude);
            prop_assert_eq!(owner, part.owner_excluding(bk.geohash, &exclude));
            if spans && !all_down {
                prop_assert!(*reader == owner || *reader == next, "{} read by {}", bk, reader);
            } else {
                prop_assert_eq!(*reader, owner, "{} is not read where it lives", bk);
            }
        }
        if spans && !all_down && !plan.is_empty() {
            let owners = plan.keys().map(|bk| part.owner_excluding(bk.geohash, &exclude));
            let busiest = loads(reads.iter().map(|r| r.2), n_nodes).into_iter().max().unwrap();
            let even = plan.len().div_ceil(n_nodes - exclude.len());
            prop_assert!(busiest >= even);
            prop_assert!(busiest <= loads(owners, n_nodes).into_iter().max().unwrap());
        }
        let mut shuffled = keys.clone();
        shuffled.reverse();
        shuffled.rotate_left(rotate % keys.len());
        let again = plan_reads(&shuffled, 3, &bbox, &time, 100_000, &part, &exclude).unwrap();
        prop_assert_eq!(again.len(), reads.len());
        for ((bk, cells, reader), (bk2, cells2, reader2)) in reads.iter().zip(&again) {
            prop_assert_eq!((bk, reader), (bk2, reader2));
            let (mut a, mut b) = (cells.clone(), cells2.clone());
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }

    /// On small rings and plans the busiest reader reads exactly the
    /// minimum over all 2^blocks choices of owner or first live successor.
    #[test]
    fn balanced_reads_match_a_brute_force_minimum(
        (n_nodes, exclude) in ring(6, false),
        primaries in prop::collection::vec(0usize..6, 0..=12),
    ) {
        let part = Partitioner::new(n_nodes, 2);
        let pairs: Vec<(usize, usize)> =
            primaries.iter().map(|&p| chain(n_nodes, p % n_nodes, &exclude)).collect();
        let owners: Vec<usize> = pairs.iter().map(|&(o, _)| o).collect();
        let readers = part.balance_reads(&owners, &exclude);
        prop_assert_eq!(readers.len(), owners.len());
        for (&r, &(o, next)) in readers.iter().zip(&pairs) {
            prop_assert!(r == o || r == next, "block of {} read by {}", o, r);
        }
        let best = (0u32..1 << pairs.len())
            .map(|choice| {
                let pick = pairs.iter().enumerate().map(|(i, &(o, next))| {
                    if choice >> i & 1 == 1 { next } else { o }
                });
                loads(pick, n_nodes).into_iter().max().unwrap_or(0)
            })
            .min()
            .unwrap();
        prop_assert_eq!(loads(readers, n_nodes).into_iter().max().unwrap_or(0), best);
    }

    /// Over the stores of every live node, the fetched partials merge to
    /// the direct scan of every planned block, bit for bit (dyadic values
    /// keep every sum exact in any order), and each node reads exactly the
    /// blocks the plan gives it: the plan's blocks between them.
    #[test]
    fn live_stores_read_each_block_once_and_merge_to_direct_scans(
        keys in cell_keys(2),
        (n_nodes, exclude) in ring(12, true),
    ) {
        let (bbox, time) = domain();
        let source = Arc::new(GenSource(NamGenerator::new(GeneratorConfig {
            seed: 5,
            obs_per_deg2_per_day: 2.0,
            max_obs_per_block: 2_000,
            value_quantum: 1.0 / 64.0,
        })));
        let stores: Vec<NodeStore> = (0..n_nodes)
            .map(|i| {
                NodeStore::new(i, Partitioner::new(n_nodes, 2), 3, bbox, time, DiskModel::free(), source.clone(), 100_000)
            })
            .collect();
        let mut fetched = BTreeMap::new();
        for s in stores.iter().filter(|s| !exclude.contains(&s.node_idx())) {
            let parts = s.fetch_partials_excluding(&keys, &exclude).unwrap();
            merge_into(&mut fetched, parts);
        }
        let plan = plan_blocks(&keys, 3, &bbox, &time, 100_000).unwrap();
        let mut direct = BTreeMap::new();
        for (bk, wanted) in &plan {
            merge_into(&mut direct, stores[0].scan_block_direct(*bk, wanted));
        }
        prop_assert_eq!(fetched, direct);
        let reads: u64 = stores.iter().map(|s| s.disk_stats().reads()).sum();
        prop_assert_eq!(reads, plan.len() as u64);
        let readers = plan_reads(&keys, 3, &bbox, &time, 100_000, &Partitioner::new(n_nodes, 2), &exclude).unwrap();
        let given = loads(readers.into_iter().map(|r| r.2), n_nodes);
        for s in &stores {
            prop_assert_eq!(s.disk_stats().reads(), given[s.node_idx()] as u64, "node {}", s.node_idx());
        }
    }
}

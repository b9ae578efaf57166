//! Block identity and fetch planning.
//!
//! Galileo stores observations in blocks whose "granularity of coverage is
//! determined by the length of geohash code" (§VI-C); we key a block by a
//! geohash of fixed block length plus a UTC day. Planning maps the Cells a
//! query is missing onto the minimal set of blocks that contain their
//! observations, clipped to the dataset's domain so nothing is fetched for
//! regions/times where no data exists.

use crate::partitioner::Partitioner;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::CellKey;
use std::collections::BTreeMap;

/// Identity of one stored block: a geohash tile × a UTC day.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey {
    pub geohash: Geohash,
    /// Always a [`TemporalRes::Day`] bin.
    pub day: TimeBin,
}

impl std::fmt::Display for BlockKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.geohash, self.day)
    }
}

/// Why a fetch plan could not be produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockPlanError {
    /// The plan would touch more blocks than the budget allows.
    TooManyBlocks { needed: usize, budget: usize },
}

impl std::fmt::Display for BlockPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockPlanError::TooManyBlocks { needed, budget } => {
                write!(f, "fetch plan needs {needed} blocks, budget is {budget}")
            }
        }
    }
}

impl std::error::Error for BlockPlanError {}

/// Ceiling on blocks per fetch plan a cluster node uses: degenerate
/// queries fail fast instead of grinding the node.
pub const MAX_BLOCKS_PER_FETCH: usize = 20_000;

/// Map missing Cells onto the blocks containing their observations.
///
/// Returns `block → cells needing it`, sorted by block for deterministic
/// iteration. A Cell coarser than the block tiling expands to all nested
/// blocks intersecting the data domain; a finer Cell maps to the single
/// enclosing block. Each block appears once no matter how many cells need
/// it — that dedup is the whole point of planning before fetching.
pub fn plan_blocks(
    cells: &[CellKey],
    block_len: u8,
    data_bbox: &BBox,
    data_time: &TimeRange,
    max_blocks: usize,
) -> Result<BTreeMap<BlockKey, Vec<CellKey>>, BlockPlanError> {
    let mut plan: BTreeMap<BlockKey, Vec<CellKey>> = BTreeMap::new();
    let mut total = 0usize;
    for &cell in cells {
        // Temporal expansion: day bins of the cell clipped to the domain.
        let cr = cell.time.range();
        let clipped = TimeRange::new(cr.start.max(data_time.start), cr.end.min(data_time.end));
        let days = match clipped {
            Some(r) if r.duration_secs() > 0 => TimeBin::cover_range(TemporalRes::Day, r),
            _ => continue, // cell entirely outside the dataset's time domain
        };
        // Spatial expansion.
        let tiles: Vec<Geohash> = if cell.geohash.len() >= block_len {
            let tile = cell.geohash.prefix(block_len).expect("len checked");
            if tile.bbox().intersects(data_bbox) {
                vec![tile]
            } else {
                Vec::new()
            }
        } else {
            descend_to(cell.geohash, block_len)
                .into_iter()
                .filter(|g| g.bbox().intersects(data_bbox))
                .collect()
        };
        for tile in tiles {
            for &day in &days {
                let key = BlockKey { geohash: tile, day };
                let entry = plan.entry(key).or_insert_with(|| {
                    total += 1;
                    Vec::new()
                });
                entry.push(cell);
                if total > max_blocks {
                    return Err(BlockPlanError::TooManyBlocks {
                        needed: total,
                        budget: max_blocks,
                    });
                }
            }
        }
    }
    Ok(plan)
}

/// [`plan_blocks`] with the node that reads each block, in plan order:
/// `(block, cells needing it, reader)`.
///
/// A plan whose Cells are all at least as fine as the placement prefix is
/// read where it lives: every reader is the block's effective owner
/// ([`Partitioner::owner_excluding`]), the node that owns those Cells too.
/// A plan that spans partitions (some Cell coarser than the prefix, see
/// [`Partitioner::spans_partitions`]) is gathered from several nodes
/// anyway, so its reads are balanced over each block's first two live
/// replicas ([`Partitioner::balance_reads`]). Both the gathering party and
/// every block reader call this with the same `(cells, exclude)`, so they
/// agree on who reads what without a message about it.
pub fn plan_reads(
    cells: &[CellKey],
    block_len: u8,
    data_bbox: &BBox,
    data_time: &TimeRange,
    max_blocks: usize,
    partitioner: &Partitioner,
    exclude: &[usize],
) -> Result<Vec<(BlockKey, Vec<CellKey>, usize)>, BlockPlanError> {
    let plan = plan_blocks(cells, block_len, data_bbox, data_time, max_blocks)?;
    let owners: Vec<usize> = plan
        .keys()
        .map(|bk| partitioner.owner_excluding(bk.geohash, exclude))
        .collect();
    let readers = if cells
        .iter()
        .any(|c| partitioner.spans_partitions(c.geohash))
    {
        partitioner.balance_reads(&owners, exclude)
    } else {
        owners
    };
    Ok(plan
        .into_iter()
        .zip(readers)
        .map(|((bk, cells), reader)| (bk, cells, reader))
        .collect())
}

/// All descendants of `gh` at exactly `target_len`.
fn descend_to(gh: Geohash, target_len: u8) -> Vec<Geohash> {
    debug_assert!(target_len >= gh.len());
    let mut cur = vec![gh];
    while cur[0].len() < target_len {
        cur = cur
            .iter()
            .flat_map(|g| g.children().expect("below max length"))
            .collect();
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::time::epoch_seconds;
    use std::str::FromStr;

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

    fn day_key(gh: &str, y: i64, m: u32, d: u32) -> CellKey {
        CellKey::new(
            Geohash::from_str(gh).unwrap(),
            TimeBin::containing(TemporalRes::Day, epoch_seconds(y, m, d, 0, 0, 0)),
        )
    }

    #[test]
    fn fine_cell_maps_to_single_enclosing_block() {
        let (bbox, time) = domain();
        let cell = day_key("9xj64", 2015, 2, 2); // Colorado-ish, inside domain
        let plan = plan_blocks(&[cell], 3, &bbox, &time, 100).unwrap();
        assert_eq!(plan.len(), 1);
        let (bk, cells) = plan.iter().next().unwrap();
        assert_eq!(bk.geohash.to_string(), "9xj");
        assert_eq!(bk.day, cell.time);
        assert_eq!(cells, &vec![cell]);
    }

    #[test]
    fn coarse_cell_expands_to_nested_blocks() {
        let (bbox, time) = domain();
        let cell = day_key("9x", 2015, 2, 2); // coarser than block_len 3
        let plan = plan_blocks(&[cell], 3, &bbox, &time, 100).unwrap();
        // 9x has 32 children at length 3; all or most intersect the domain.
        assert!(plan.len() > 16 && plan.len() <= 32, "{} blocks", plan.len());
        for bk in plan.keys() {
            assert!(bk.geohash.is_within(&cell.geohash));
        }
    }

    #[test]
    fn month_cell_expands_to_days() {
        let (bbox, time) = domain();
        let cell = CellKey::new(
            Geohash::from_str("9xj").unwrap(),
            TimeBin::containing(TemporalRes::Month, epoch_seconds(2015, 2, 1, 0, 0, 0)),
        );
        let plan = plan_blocks(&[cell], 3, &bbox, &time, 100).unwrap();
        assert_eq!(plan.len(), 28, "Feb 2015 has 28 day blocks");
        for bk in plan.keys() {
            assert_eq!(bk.geohash, cell.geohash);
            assert!(cell.time.range().encloses(&bk.day.range()));
        }
    }

    #[test]
    fn shared_blocks_are_deduplicated() {
        let (bbox, time) = domain();
        // Two sibling res-5 cells share the same res-3 block.
        let a = day_key("9xj64", 2015, 2, 2);
        let b = day_key("9xj65", 2015, 2, 2);
        let plan = plan_blocks(&[a, b], 3, &bbox, &time, 100).unwrap();
        assert_eq!(plan.len(), 1);
        assert_eq!(plan.values().next().unwrap().len(), 2);
    }

    #[test]
    fn out_of_domain_cells_are_skipped() {
        let (bbox, time) = domain();
        // Spatially outside (Europe) — gcp is ~London.
        let europe = day_key("gcp64", 2015, 2, 2);
        let plan = plan_blocks(&[europe], 3, &bbox, &time, 100).unwrap();
        assert!(plan.is_empty());
        // Temporally outside (2020).
        let future = day_key("9xj64", 2020, 2, 2);
        let plan = plan_blocks(&[future], 3, &bbox, &time, 100).unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn partially_out_of_time_domain_is_clipped() {
        let (bbox, time) = domain();
        // A month straddling the domain start: Dec 2014 fully outside,
        // Jan 2015 fully inside.
        let jan = CellKey::new(
            Geohash::from_str("9xj").unwrap(),
            TimeBin::containing(TemporalRes::Month, epoch_seconds(2015, 1, 15, 0, 0, 0)),
        );
        let plan = plan_blocks(&[jan], 3, &bbox, &time, 100).unwrap();
        assert_eq!(plan.len(), 31);
        let year = CellKey::new(
            Geohash::from_str("9xj").unwrap(),
            TimeBin::containing(TemporalRes::Year, epoch_seconds(2015, 6, 1, 0, 0, 0)),
        );
        let plan = plan_blocks(&[year], 3, &bbox, &time, 1000).unwrap();
        assert_eq!(plan.len(), 365);
    }

    #[test]
    fn budget_is_enforced() {
        let (bbox, time) = domain();
        let year = CellKey::new(
            Geohash::from_str("9xj").unwrap(),
            TimeBin::containing(TemporalRes::Year, epoch_seconds(2015, 6, 1, 0, 0, 0)),
        );
        match plan_blocks(&[year], 3, &bbox, &time, 10) {
            Err(BlockPlanError::TooManyBlocks { needed, budget }) => {
                assert!(needed > 10);
                assert_eq!(budget, 10);
            }
            other => panic!("expected budget error, got {other:?}"),
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let (bbox, time) = domain();
        let cells = vec![day_key("9xj64", 2015, 2, 2), day_key("9x", 2015, 2, 3)];
        let a = plan_blocks(&cells, 3, &bbox, &time, 1000).unwrap();
        let b = plan_blocks(&cells, 3, &bbox, &time, 1000).unwrap();
        assert_eq!(a, b);
    }
}

//! The columnar block-scan kernel and the decoded-frame cache.
//!
//! `NodeStore::scan_block` used to re-encode a geohash from `lat/lon` for
//! every observation × every requested resolution group and probe a
//! `HashSet` per pair — `O(rows × level_groups)` hashing on the hottest
//! loop in the system. This module replaces that with a three-stage kernel
//! (DESIGN.md §12):
//!
//! 1. **decode once** — a block's observations become a [`BlockFrame`]:
//!    flat column-major `f64` attribute columns plus one packed `u64`
//!    row-slot per row ([`stash_model::slot`]), produced with a *single*
//!    geohash encode per row at the finest resolution any caller asked for;
//! 2. **aggregate flat** — rows fold into a slot-indexed accumulator array
//!    (plain indexed adds, no per-row hashing) at the finest requested
//!    `(spatial, temporal)` resolution pair;
//! 3. **derive upward** — every coarser requested group is produced by
//!    merging the finest-level partials after truncating their slots
//!    (`Geohash::prefix` on the sub-tile digits, [`TimeBin::coarsened`] on
//!    the calendar bin), exploiting the summary monoid exactly like the
//!    paper's §V derivation — `O(rows + cells)` instead of
//!    `O(rows × level_groups)`.
//!
//! Because block contents are a pure function of the block key and the
//! block's *version* (sealed blocks never change; appendable blocks bump
//! their version on every append — see [`crate::store::BlockSource`]), a
//! decoded frame is a pure function of `(block key, version, encode
//! resolution)`. Frames are cached in a bytes-budgeted LRU ([`FrameCache`])
//! tagged with the version they decoded, and a lookup only serves a frame
//! whose tag matches the block's *current* version — a frame decoded before
//! an append can never answer a post-append query. Hot blocks skip both the
//! disk model and the decode stage entirely.
//!
//! Since PR 7 a frame *is* its storage form: one contiguous little-endian
//! word buffer — magic, header words, the packed slot column, then the
//! column-major `f64` bit columns (DESIGN.md §15). Sources that can stream
//! rows write straight into a [`FrameBuilder`] (no intermediate
//! `Vec<Observation>`), the cache accounts the buffer's exact byte length,
//! and [`BlockFrame::to_bytes`]/[`BlockFrame::from_bytes`] make the same
//! buffer the persistence form, with decode reduced to validate-and-view.

use crate::block::BlockKey;
use parking_lot::Mutex;
use stash_flat::{bytes_to_words, magic, words_to_bytes, FlatError};
use stash_geo::{Geohash, TemporalRes, TimeBin};
use stash_model::fx::{FxHashMap, FxHashSet};
use stash_model::slot::{self, INVALID_SLOT};
use stash_model::{
    CellKey, CellSummary, FoldCtx, Observation, PreparedValue, SketchSpec, SummaryStats,
};
use std::sync::Arc;

/// Default byte budget of a node's decoded-frame cache (`StashConfig::
/// frame_cache_bytes` overrides it cluster-side).
pub const DEFAULT_FRAME_CACHE_BYTES: usize = 64 << 20;

/// Largest slot space the kernel services with a dense accumulator array;
/// deeper resolution gaps (a res-12 query over res-3 blocks) fall back to a
/// hashed accumulator keyed by the same packed slots.
const FLAT_SLOT_LIMIT: usize = 1 << 15;

/// Magic word of a flat block frame buffer (DESIGN.md §15).
pub const FRAME_MAGIC: u64 = magic(b"STSHBLK1");

/// Fixed words before the slot column: magic, packed header, tile bits,
/// day index, version.
const FRAME_HEADER_WORDS: usize = 5;

/// One block in flat columnar form: a single contiguous word buffer.
///
/// ```text
/// word 0               magic "STSHBLK1"
/// word 1               n_rows | n_attrs<<32 | spatial_res<<48 | tile_len<<56
/// word 2               block tile geohash bits
/// word 3               block day index (days since epoch)
/// word 4               block version the rows were read at
/// words 5..5+n         packed row slots (one per row)
/// then n_attrs × n     f64 bit columns, column-major
/// ```
///
/// Attribute `a` of row `r` is `f64::from_bits(col(a)[r])`, so the
/// aggregation stage streams each column sequentially. `row_slots()[r]`
/// packs the row's geohash digits *below* the block tile (at
/// `spatial_res`) with its hour of day; rows that cannot be binned
/// (invalid coordinates, or an observation leaking outside the block's
/// tile/day contrary to the [`crate::store::BlockSource`] contract) carry
/// [`INVALID_SLOT`] and are skipped by aggregation. Fixed header fields
/// are mirrored into struct fields so hot paths never re-parse word 1.
pub struct BlockFrame {
    block: BlockKey,
    n_rows: usize,
    n_attrs: usize,
    /// Geohash length the rows were encoded at (≥ the block tile length).
    spatial_res: u8,
    /// Block version the rows were read at (0 for sealed blocks).
    version: u64,
    buf: Vec<u64>,
}

/// Result of [`BlockFrame::aggregate`]: one summary per wanted cell plus
/// how many of those cells were answered by upward derivation rather than
/// direct finest-level binning.
pub struct FrameAggregation {
    pub cells: Vec<(CellKey, CellSummary)>,
    pub derived_cells: u64,
}

/// The geohash length a frame must be encoded at to serve `wanted`:
/// the finest requested spatial resolution, floored at the tile length.
pub fn frame_spatial_res(tile_len: u8, wanted: &[CellKey]) -> u8 {
    wanted
        .iter()
        .map(|c| c.spatial_res())
        .max()
        .unwrap_or(tile_len)
        .max(tile_len)
}

/// Streaming writer for a [`BlockFrame`]: rows go straight into the flat
/// buffer, so a source that can enumerate `(lat, lon, time, values)` tuples
/// builds a ready-to-scan frame without materializing `Vec<Observation>`.
/// Binning logic is identical to [`BlockFrame::decode`] — decode *is* a
/// builder fed from row structs.
pub struct FrameBuilder {
    block: BlockKey,
    n_rows: usize,
    n_attrs: usize,
    spatial_res: u8,
    day_start: i64,
    suffix_mask: u64,
    row: usize,
    buf: Vec<u64>,
}

impl FrameBuilder {
    /// Start a frame for `block` holding exactly `n_rows` rows encoded at
    /// `spatial_res`. Slots start [`INVALID_SLOT`], values start zero.
    pub fn new(block: BlockKey, n_rows: usize, n_attrs: usize, spatial_res: u8) -> Self {
        let tile_len = block.geohash.len();
        debug_assert!(spatial_res >= tile_len, "frame coarser than its tile");
        let delta = (spatial_res - tile_len) as u32;
        let suffix_mask = if delta == 0 {
            0
        } else {
            (1u64 << (5 * delta)) - 1
        };
        let mut buf = vec![0u64; FRAME_HEADER_WORDS + n_rows * (1 + n_attrs)];
        buf[0] = FRAME_MAGIC;
        buf[1] = n_rows as u64
            | (n_attrs as u64) << 32
            | (spatial_res as u64) << 48
            | (tile_len as u64) << 56;
        buf[2] = block.geohash.bits();
        buf[3] = block.day.idx as u64;
        // buf[4] (version) stays 0 until `with_version`.
        buf[FRAME_HEADER_WORDS..FRAME_HEADER_WORDS + n_rows].fill(INVALID_SLOT);
        FrameBuilder {
            block,
            n_rows,
            n_attrs,
            spatial_res,
            day_start: block.day.start(),
            suffix_mask,
            row: 0,
            buf,
        }
    }

    /// Append one row. Rows that cannot be binned — wrong value count,
    /// time outside the block's day, invalid coordinates, or a position
    /// outside the block's tile — keep [`INVALID_SLOT`] (values zero) and
    /// are skipped by aggregation, exactly like the historical decode.
    ///
    /// # Panics
    /// Panics when pushed more than the declared `n_rows` times.
    pub fn push_row(&mut self, lat: f64, lon: f64, time: i64, values: &[f64]) {
        let r = self.row;
        assert!(r < self.n_rows, "frame builder overflow");
        self.row += 1;
        if values.len() != self.n_attrs {
            return; // malformed row: stays invalid, values stay zero
        }
        let col0 = FRAME_HEADER_WORDS + self.n_rows;
        for (a, &v) in values.iter().enumerate() {
            self.buf[col0 + a * self.n_rows + r] = v.to_bits();
        }
        let hour = (time - self.day_start).div_euclid(3600);
        if !(0..24).contains(&hour) {
            return;
        }
        let Ok(gh) = Geohash::encode(lat, lon, self.spatial_res) else {
            return;
        };
        let tile = self.block.geohash;
        if gh.prefix(tile.len()) != Some(tile) {
            return;
        }
        self.buf[FRAME_HEADER_WORDS + r] = slot::pack(gh.bits() & self.suffix_mask, hour as u32);
    }

    /// Seal the buffer into a frame.
    ///
    /// # Panics
    /// Panics unless exactly `n_rows` rows were pushed.
    pub fn finish(self) -> BlockFrame {
        assert_eq!(self.row, self.n_rows, "frame builder underfilled");
        BlockFrame {
            block: self.block,
            n_rows: self.n_rows,
            n_attrs: self.n_attrs,
            spatial_res: self.spatial_res,
            version: 0,
            buf: self.buf,
        }
    }
}

impl BlockFrame {
    /// Stage 1: decode a block's observations. One geohash encode per row.
    /// This is the oracle route; streaming sources use [`FrameBuilder`]
    /// directly and skip the row structs.
    pub fn decode(
        block: BlockKey,
        observations: &[Observation],
        n_attrs: usize,
        spatial_res: u8,
    ) -> BlockFrame {
        let mut b = FrameBuilder::new(block, observations.len(), n_attrs, spatial_res);
        for obs in observations {
            b.push_row(obs.lat, obs.lon, obs.time, &obs.values);
        }
        b.finish()
    }

    /// Tag the frame with the block version its rows were read at.
    /// Sealed (immutable) blocks stay at the default version 0.
    pub fn with_version(mut self, version: u64) -> Self {
        self.version = version;
        self.buf[4] = version;
        self
    }

    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    #[inline]
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    #[inline]
    pub fn block(&self) -> BlockKey {
        self.block
    }

    #[inline]
    pub fn spatial_res(&self) -> u8 {
        self.spatial_res
    }

    /// The packed slot column.
    #[inline]
    pub fn row_slots(&self) -> &[u64] {
        &self.buf[FRAME_HEADER_WORDS..FRAME_HEADER_WORDS + self.n_rows]
    }

    /// Attribute `a`'s value column as raw `f64` bit patterns.
    #[inline]
    fn col(&self, a: usize) -> &[u64] {
        let start = FRAME_HEADER_WORDS + (1 + a) * self.n_rows;
        &self.buf[start..start + self.n_rows]
    }

    /// Exact byte length of the flat buffer — what the cache budget and
    /// `frame_cache` byte accounting charge.
    pub fn buffer_bytes(&self) -> usize {
        self.buf.len() * 8
    }

    /// Footprint for the cache byte budget: the buffer's exact length
    /// (the fixed struct mirror is negligible and excluded by design, so
    /// accounting can be audited against buffer lengths alone).
    pub fn estimated_bytes(&self) -> usize {
        self.buffer_bytes()
    }

    /// The buffer in little-endian byte form — the storage/persistence
    /// encoding (exactly [`BlockFrame::buffer_bytes`] long).
    pub fn to_bytes(&self) -> Vec<u8> {
        words_to_bytes(&self.buf)
    }

    /// Validate-and-adopt a stored flat buffer. The inverse of
    /// [`BlockFrame::to_bytes`]; every header field, the buffer length,
    /// and every row slot are checked. Never panics on corrupt input.
    pub fn from_bytes(bytes: &[u8]) -> Result<BlockFrame, FlatError> {
        Self::from_words(bytes_to_words(bytes)?)
    }

    /// [`BlockFrame::from_bytes`] over an already word-aligned buffer.
    pub fn from_words(buf: Vec<u64>) -> Result<BlockFrame, FlatError> {
        if buf.len() < FRAME_HEADER_WORDS {
            return Err(FlatError::Truncated {
                needed: FRAME_HEADER_WORDS,
                remaining: buf.len(),
            });
        }
        if buf[0] != FRAME_MAGIC {
            return Err(FlatError::BadMagic {
                expected: FRAME_MAGIC,
                found: buf[0],
            });
        }
        let header = buf[1];
        let n_rows = (header & u32::MAX as u64) as usize;
        let n_attrs = (header >> 32 & 0xFFFF) as usize;
        let spatial_res = (header >> 48 & 0xFF) as u8;
        let tile_len = (header >> 56) as u8;
        let tile = Geohash::from_bits(buf[2], tile_len)
            .map_err(|_| FlatError::Corrupt("invalid block tile geohash"))?;
        if tile_len == 0 || spatial_res < tile_len {
            return Err(FlatError::Corrupt("frame resolution below its tile"));
        }
        let Some(expected) = n_rows
            .checked_mul(1 + n_attrs)
            .and_then(|n| n.checked_add(FRAME_HEADER_WORDS))
        else {
            return Err(FlatError::Corrupt("frame dimensions overflow"));
        };
        if buf.len() < expected {
            return Err(FlatError::Truncated {
                needed: expected - buf.len(),
                remaining: 0,
            });
        }
        if buf.len() > expected {
            return Err(FlatError::TrailingWords(buf.len() - expected));
        }
        let delta = (spatial_res - tile_len) as u32;
        let suffix_limit = if delta == 0 { 1 } else { 1u64 << (5 * delta) };
        for &rs in &buf[FRAME_HEADER_WORDS..FRAME_HEADER_WORDS + n_rows] {
            if rs == INVALID_SLOT {
                continue;
            }
            if slot::hour(rs) >= 24 || slot::suffix(rs) >= suffix_limit {
                return Err(FlatError::Corrupt("row slot out of range"));
            }
        }
        let day = TimeBin::new(TemporalRes::Day, buf[3] as i64)
            .ok_or(FlatError::Corrupt("block day outside i64 seconds"))?;
        let block = BlockKey { geohash: tile, day };
        Ok(BlockFrame {
            block,
            n_rows,
            n_attrs,
            spatial_res,
            version: buf[4],
            buf,
        })
    }

    /// Stages 2+3: aggregate the frame into one summary per wanted cell
    /// (exact-only; see [`aggregate_with`](Self::aggregate_with)).
    pub fn aggregate(&self, wanted: &[CellKey]) -> FrameAggregation {
        self.aggregate_with(wanted, &SketchSpec::disabled())
    }

    /// Stages 2+3: aggregate the frame into one summary per wanted cell.
    ///
    /// Every wanted cell appears in the output (empty summary when no row
    /// matched — "computed, empty"), deduplicated, in first-occurrence
    /// order. Requires `spatial_res() ≥ frame_spatial_res(tile, wanted)`.
    ///
    /// When `sketch` enables sketch-valued Cells, every emitted summary
    /// additionally carries per-attribute sketch partials. Sketches are not
    /// derived from the slot accumulator (their per-slot state would dwarf
    /// the 40-byte exact partials); instead, after the exact stage maps
    /// slots to output cells, raw rows are folded into the output cells'
    /// bundles with a *batched, slot-major* column fold: rows are bucketed
    /// by finest slot, each slot's values are prepared once per
    /// `(row, attribute)` ([`FoldCtx::prepare`] — the `ln`, hash, and
    /// count-min column computations hoisted out of the per-group loop)
    /// and replayed into every covering cell back-to-back, quantile bucket
    /// counts apply as per-slot batches, and cells with identical slot
    /// coverage fold once and clone. Every cell sees its rows in ascending
    /// `(slot, row)` order; the result is bit-identical to folding the
    /// raw observations into each cell directly whenever heavy-hitter
    /// candidate sets stay within their cap (always for finest cells,
    /// whose slot order *is* row order; every other sketch state is
    /// fold-order invariant) — pinned by the
    /// `frame_kernel_sketches_match_direct_fold` proptest.
    pub fn aggregate_with(&self, wanted: &[CellKey], sketch: &SketchSpec) -> FrameAggregation {
        if wanted.is_empty() {
            return FrameAggregation {
                cells: Vec::new(),
                derived_cells: 0,
            };
        }
        let tile = self.block.geohash;
        let tile_len = tile.len();

        // Distinct resolution groups, plus the output table (dedup by key).
        // Output bundles are stamped from one template: constructing an
        // empty sketch bundle re-validates the spec every time, while a
        // clone shares the template's payload and a cell's first fold
        // copies a few words (an empty bundle holds no arrays) —
        // measurable across hundreds of wanted cells.
        let template = CellSummary::empty_with(self.n_attrs, sketch);
        let mut out: Vec<(CellKey, CellSummary)> = Vec::with_capacity(wanted.len());
        let mut index: FxHashMap<CellKey, usize> = FxHashMap::default();
        let mut group_set: FxHashSet<(u8, TemporalRes)> = FxHashSet::default();
        for &c in wanted {
            if let std::collections::hash_map::Entry::Vacant(v) = index.entry(c) {
                v.insert(out.len());
                out.push((c, template.clone()));
                group_set.insert((c.spatial_res(), c.temporal_res()));
            }
        }
        let mut groups: Vec<(u8, TemporalRes)> = group_set.into_iter().collect();
        groups.sort_unstable();

        let finest_s = frame_spatial_res(tile_len, wanted);
        let finest_t = groups.iter().map(|&(_, t)| t).max().expect("non-empty");
        assert!(
            self.spatial_res >= finest_s,
            "frame encoded at res {} cannot serve res {}",
            self.spatial_res,
            finest_s
        );
        let use_hour = finest_t == TemporalRes::Hour;
        let t_mult: u64 = if use_hour { 24 } else { 1 };
        let shift = 5 * (self.spatial_res - finest_s) as u32;
        let delta = finest_s - tile_len;

        // Stage 2: fold rows into the finest-level accumulator. Dense array
        // when the slot space is small (the common case), hashed otherwise.
        let n_rows = self.n_rows();
        let flat_slots = slot::spatial_slots(delta)
            .and_then(|s| s.checked_mul(t_mult as usize))
            .filter(|&n| n <= FLAT_SLOT_LIMIT);
        let combined = |rs: u64| -> u64 {
            let sfx = slot::suffix(rs) >> shift;
            if use_hour {
                sfx * 24 + slot::hour(rs) as u64
            } else {
                sfx
            }
        };
        let mut row_dense: Vec<u32> = Vec::with_capacity(n_rows);
        // `occupied`: (finest combined slot, dense index), ascending by slot
        // — the deterministic derivation order.
        let (dense_count, occupied): (usize, Vec<(u64, u32)>) = match flat_slots {
            Some(n_slots) => {
                let mut touched = vec![false; n_slots];
                for &rs in self.row_slots() {
                    if rs == INVALID_SLOT {
                        row_dense.push(u32::MAX);
                    } else {
                        let s = combined(rs);
                        touched[s as usize] = true;
                        row_dense.push(s as u32);
                    }
                }
                let occ = touched
                    .iter()
                    .enumerate()
                    .filter(|(_, &t)| t)
                    .map(|(s, _)| (s as u64, s as u32))
                    .collect();
                (n_slots, occ)
            }
            None => {
                let mut map: FxHashMap<u64, u32> = FxHashMap::default();
                let mut slots: Vec<u64> = Vec::new();
                for &rs in self.row_slots() {
                    if rs == INVALID_SLOT {
                        row_dense.push(u32::MAX);
                    } else {
                        let s = combined(rs);
                        let next = slots.len() as u32;
                        let d = *map.entry(s).or_insert_with(|| {
                            slots.push(s);
                            next
                        });
                        row_dense.push(d);
                    }
                }
                let mut occ: Vec<(u64, u32)> = slots
                    .iter()
                    .enumerate()
                    .map(|(d, &s)| (s, d as u32))
                    .collect();
                occ.sort_unstable();
                (slots.len(), occ)
            }
        };
        let mut acc = vec![SummaryStats::empty(); dense_count * self.n_attrs];
        for a in 0..self.n_attrs {
            let col = self.col(a);
            for (r, &d) in row_dense.iter().enumerate() {
                if d != u32::MAX {
                    acc[d as usize * self.n_attrs + a].push(f64::from_bits(col[r]));
                }
            }
        }

        // Stage 3: emit every group from the finest partials. The finest
        // group itself is the identity truncation, so one code path serves
        // both direct and derived cells; merges happen in ascending slot
        // order, which keeps the output deterministic.
        let mut derived_cells = 0u64;
        // Dense-slot → output-cell mapping for *every* group (row-major,
        // one row of `dense_count` per group), filled by the exact emission
        // loop and replayed by the sketch fold below.
        let mut slot_out_all: Vec<u32> = if sketch.enabled {
            vec![u32::MAX; groups.len() * dense_count]
        } else {
            Vec::new()
        };
        for (g, &(s_res, t_res)) in groups.iter().enumerate() {
            let is_finest = (s_res.max(tile_len), t_res) == (finest_s, finest_t);
            if !is_finest {
                derived_cells += out
                    .iter()
                    .filter(|(k, _)| (k.spatial_res(), k.temporal_res()) == (s_res, t_res))
                    .count() as u64;
            }
            let const_bin = if t_res == TemporalRes::Hour {
                None
            } else {
                Some(
                    self.block
                        .day
                        .coarsened(t_res)
                        .expect("day coarsens to any non-hour res"),
                )
            };
            // Consecutive slots usually truncate to the same cell; memoize
            // the last (discriminator → output index) to skip re-deriving.
            let mut last: Option<(u64, Option<usize>)> = None;
            for &(slot_f, dense) in &occupied {
                let (sfx_f, hr) = if use_hour {
                    (slot_f / 24, (slot_f % 24) as u32)
                } else {
                    (slot_f, 0)
                };
                let disc = if s_res >= tile_len {
                    let sfx = slot::truncate_suffix(sfx_f, finest_s, s_res);
                    if t_res == TemporalRes::Hour {
                        slot::pack(sfx, hr)
                    } else {
                        sfx << 5
                    }
                } else if t_res == TemporalRes::Hour {
                    hr as u64
                } else {
                    0
                };
                let out_idx = match last {
                    Some((d, idx)) if d == disc => idx,
                    _ => {
                        let gh = if s_res > tile_len {
                            let sfx = slot::truncate_suffix(sfx_f, finest_s, s_res);
                            let bits = (tile.bits() << (5 * (s_res - tile_len) as u32)) | sfx;
                            Geohash::from_bits(bits, s_res).expect("nested digits are valid")
                        } else {
                            tile.prefix(s_res).expect("1 <= s_res <= tile_len")
                        };
                        let bin = match const_bin {
                            Some(b) => b,
                            None => TimeBin {
                                res: TemporalRes::Hour,
                                idx: self.block.day.idx * 24 + hr as i64,
                            },
                        };
                        let idx = index.get(&CellKey::new(gh, bin)).copied();
                        last = Some((disc, idx));
                        idx
                    }
                };
                if let Some(i) = out_idx {
                    let base = dense as usize * self.n_attrs;
                    out[i].1.merge_attrs(&acc[base..base + self.n_attrs]);
                    if sketch.enabled {
                        slot_out_all[g * dense_count + dense as usize] = i as u32;
                    }
                }
            }
        }

        if sketch.enabled {
            self.sketch_fold_rows(
                &FoldCtx::new(sketch),
                &mut out,
                &row_dense,
                &slot_out_all,
                dense_count,
                groups.len(),
            );
        }
        FrameAggregation {
            cells: out,
            derived_cells,
        }
    }

    /// The batched sketch row fold behind [`aggregate_with`](Self::
    /// aggregate_with): fold every valid row into the bundles of the cells
    /// it maps to under any of the `n_groups` resolution groups.
    ///
    /// The fold is slot-major: rows are bucketed by finest slot once
    /// (stable counting sort), then each slot's rows are prepared once per
    /// attribute and replayed into every target cell back-to-back. Slot
    /// targets, value preparation (hash, count-min columns, quantile
    /// bucket key), and the per-bucket tally are all computed once per
    /// slot instead of once per `(row, group)` incidence. Each cell sees
    /// its rows in ascending `(slot, row)` order — for finest cells that
    /// *is* row order, and for coarser cells every sketch state except the
    /// heavy-hitter candidate list is fold-order invariant anyway; the
    /// candidate list matches a per-row fold bit-for-bit whenever a cell's
    /// distinct values stay within the candidate cap (the sketch crate's
    /// documented exactness regime). Quantile updates apply per
    /// `(cell, bucket)` in one batched pass, order-invariant by the
    /// quantile sketch's canonical compaction. A target whose bundle is
    /// still raw and has room for the slot's rows takes their values as
    /// they are (`AttrSketches::try_extend_raw`, DESIGN.md §14): a slot's
    /// values are prepared and tallied only when some target holds
    /// sketches or is promoted by them.
    fn sketch_fold_rows(
        &self,
        ctx: &FoldCtx,
        out: &mut [(CellKey, CellSummary)],
        row_dense: &[u32],
        slot_out_all: &[u32],
        dense_count: usize,
        n_groups: usize,
    ) {
        // starts[d]..starts[d+1] indexes slot d's rows, ascending row order.
        let mut starts: Vec<u32> = vec![0; dense_count + 1];
        for &d in row_dense {
            if d != u32::MAX {
                starts[d as usize + 1] += 1;
            }
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut cursor: Vec<u32> = starts[..dense_count].to_vec();
        let mut slot_rows: Vec<u32> = vec![0; starts[dense_count] as usize];
        for (r, &d) in row_dense.iter().enumerate() {
            if d != u32::MAX {
                let c = &mut cursor[d as usize];
                slot_rows[*c as usize] = r as u32;
                *c += 1;
            }
        }

        // Coverage dedup: two cells covering the *same* non-empty slots
        // receive the same fold sequence and therefore end with
        // bit-identical sketch state — fold one representative (lowest
        // out-index) per coverage class and clone its bundles into the
        // rest. Multi-level wanted sets hit this constantly: a tile at
        // Day and the same tile at Year cover the identical rows of a
        // one-day block. Only classes spanning at least `DEDUP_MIN_ROWS`
        // rows participate; below that, cloning costs more than folding.
        const DEDUP_MIN_ROWS: u32 = 64;
        let mut cov: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for g in 0..n_groups {
            for d in 0..dense_count {
                if starts[d] == starts[d + 1] {
                    continue;
                }
                let oi = slot_out_all[g * dense_count + d];
                if oi == u32::MAX {
                    continue;
                }
                cov.entry(oi).or_default().push(d as u32);
            }
        }
        let mut clone_from: Vec<(u32, u32)> = Vec::new();
        {
            let mut items: Vec<(u32, Vec<u32>)> = cov.into_iter().collect();
            items.sort_unstable_by_key(|&(oi, _)| oi);
            let mut classes: FxHashMap<Vec<u32>, u32> = FxHashMap::default();
            for (oi, c) in items {
                let row_span: u32 = c
                    .iter()
                    .map(|&d| starts[d as usize + 1] - starts[d as usize])
                    .sum();
                if row_span < DEDUP_MIN_ROWS {
                    continue;
                }
                match classes.entry(c) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        clone_from.push((oi, *e.get()));
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(oi);
                    }
                }
            }
        }
        let cloned: FxHashSet<u32> = clone_from.iter().map(|&(dup, _)| dup).collect();

        let mut targets: Vec<u32> = Vec::with_capacity(n_groups);
        let mut values: Vec<f64> = Vec::new();
        let mut prepared: Vec<PreparedValue> = Vec::new();
        // Per-(slot, attr) quantile-bucket tally. Small slots dedup by
        // linear scan; big slots go through the hash map once and drain
        // into the same dense vec, so the per-target apply loop never
        // walks hash-table capacity.
        let mut tally: Vec<(i64, u64)> = Vec::new();
        let mut tally_map: FxHashMap<i64, u64> = FxHashMap::default();
        for d in 0..dense_count {
            let rows = &slot_rows[starts[d] as usize..starts[d + 1] as usize];
            if rows.is_empty() {
                continue;
            }
            targets.clear();
            for g in 0..n_groups {
                let oi = slot_out_all[g * dense_count + d];
                if oi == u32::MAX {
                    continue;
                }
                if cloned.contains(&oi) {
                    continue;
                }
                targets.push(oi);
            }
            if targets.is_empty() {
                continue;
            }
            for a in 0..self.n_attrs {
                let col = self.col(a);
                values.clear();
                values.extend(rows.iter().map(|&r| f64::from_bits(col[r as usize])));
                // Prepared and tallied on the first target that holds
                // sketches (or that this slot promotes); raw targets that
                // still have room take the values themselves.
                let mut ready = false;
                for &oi in &targets {
                    let Some(sk) = out[oi as usize].1.attr_sketches_mut(a) else {
                        continue;
                    };
                    if sk.try_extend_raw(&values) {
                        continue;
                    }
                    if !ready {
                        ready = true;
                        prepared.clear();
                        tally.clear();
                        prepared.extend(values.iter().map(|&v| ctx.prepare(v)));
                        if rows.len() <= 32 {
                            for pv in &prepared {
                                let key = pv.quantile_key();
                                match tally.iter_mut().find(|e| e.0 == key) {
                                    Some(e) => e.1 += 1,
                                    None => tally.push((key, 1)),
                                }
                            }
                        } else {
                            tally_map.clear();
                            for pv in &prepared {
                                *tally_map.entry(pv.quantile_key()).or_insert(0) += 1;
                            }
                            tally.extend(tally_map.iter().map(|(&k, &c)| (k, c)));
                        }
                    }
                    sk.push_prepared_batch(&prepared, &tally);
                }
            }
        }

        for &(dup, rep) in &clone_from {
            for a in 0..self.n_attrs {
                if let Some(src) = out[rep as usize].1.attr_sketches(a).cloned() {
                    if let Some(dst) = out[dup as usize].1.attr_sketches_mut(a) {
                        *dst = src;
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Decoded-frame cache
// ---------------------------------------------------------------------------

struct CacheEntry {
    frame: Arc<BlockFrame>,
    stamp: u64,
}

struct CacheInner {
    stamp: u64,
    bytes: usize,
    map: FxHashMap<BlockKey, CacheEntry>,
}

/// A bytes-budgeted LRU of decoded frames, shared by a node's fetches.
///
/// Sibling of `stash-elastic`'s entry-count `LruCache` (same stamp-based
/// recency, same O(n) eviction scan — budgets are small enough that the
/// scan is noise next to the decode it avoids); it lives here because
/// `stash-elastic` depends on this crate. A `budget == 0` disables caching
/// — every lookup misses and inserts are dropped — which is the ablation
/// and equivalence-test configuration.
pub struct FrameCache {
    budget: usize,
    inner: Mutex<CacheInner>,
}

impl FrameCache {
    pub fn new(budget_bytes: usize) -> Self {
        FrameCache {
            budget: budget_bytes,
            inner: Mutex::new(CacheInner {
                stamp: 0,
                bytes: 0,
                map: FxHashMap::default(),
            }),
        }
    }

    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Resident bytes (the incrementally maintained counter).
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Audit: sum of the resident frames' actual flat-buffer lengths.
    /// Must always equal [`FrameCache::bytes`] — the accounting charges
    /// exact buffer lengths, nothing estimated (held across inserts and
    /// removals by `cache_byte_accounting_matches_buffer_lengths`).
    pub fn buffer_bytes(&self) -> usize {
        self.inner
            .lock()
            .map
            .values()
            .map(|e| e.frame.buffer_bytes())
            .sum()
    }

    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup, refreshing recency. A cached frame only serves queries whose
    /// finest spatial resolution it covers — a coarser frame is a miss (the
    /// caller re-decodes finer and replaces it) — and only when its version
    /// tag matches the block's current `version`: a frame decoded before an
    /// append is a miss, never a wrong answer.
    pub fn lookup(
        &self,
        key: &BlockKey,
        min_spatial_res: u8,
        version: u64,
    ) -> Option<Arc<BlockFrame>> {
        let mut inner = self.inner.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        let e = inner.map.get_mut(key)?;
        if e.frame.spatial_res() < min_spatial_res || e.frame.version() != version {
            return None;
        }
        e.stamp = stamp;
        Some(Arc::clone(&e.frame))
    }

    /// Presence check without refreshing recency, for inspection: a fetch
    /// decides hit or read with the one [`FrameCache::lookup`] it acts on.
    /// Applies the same resolution and version gates.
    pub fn contains(&self, key: &BlockKey, min_spatial_res: u8, version: u64) -> bool {
        self.inner.lock().map.get(key).is_some_and(|e| {
            e.frame.spatial_res() >= min_spatial_res && e.frame.version() == version
        })
    }

    /// Drop the frame cached for one block (eager invalidation after a
    /// local append; peers holding stale frames miss lazily through the
    /// version gate instead). Returns the bytes freed.
    pub fn remove(&self, key: &BlockKey) -> usize {
        let mut inner = self.inner.lock();
        match inner.map.remove(key) {
            Some(e) => {
                let bytes = e.frame.estimated_bytes();
                inner.bytes -= bytes;
                bytes
            }
            None => 0,
        }
    }

    /// Insert (replacing any previous frame for the block) and evict
    /// least-recently-used frames until the budget holds. Returns the bytes
    /// evicted. Frames larger than the whole budget are not cached.
    pub fn insert(&self, frame: Arc<BlockFrame>) -> usize {
        let bytes = frame.estimated_bytes();
        if bytes > self.budget {
            return 0;
        }
        let mut inner = self.inner.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        let key = frame.block();
        if let Some(old) = inner.map.insert(key, CacheEntry { frame, stamp }) {
            inner.bytes -= old.frame.estimated_bytes();
        }
        inner.bytes += bytes;
        let mut evicted = 0usize;
        while inner.bytes > self.budget {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("over budget implies non-empty");
            let gone = inner.map.remove(&victim).expect("victim present");
            let gone_bytes = gone.frame.estimated_bytes();
            inner.bytes -= gone_bytes;
            evicted += gone_bytes;
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::time::epoch_seconds;
    use std::str::FromStr;

    fn block(gh: &str, y: i64, m: u32, d: u32) -> BlockKey {
        BlockKey {
            geohash: Geohash::from_str(gh).unwrap(),
            day: TimeBin::containing(TemporalRes::Day, epoch_seconds(y, m, d, 0, 0, 0)),
        }
    }

    /// Observations spread over the tile "9xj" on 2015-02-02.
    fn rows() -> Vec<Observation> {
        let b = block("9xj", 2015, 2, 2);
        let bbox = b.geohash.bbox();
        let t0 = b.day.start();
        (0..200)
            .map(|i| {
                let f = (i as f64 + 0.5) / 200.0;
                Observation::new(
                    bbox.min_lat + f * (bbox.max_lat - bbox.min_lat),
                    bbox.min_lon + (1.0 - f) * (bbox.max_lon - bbox.min_lon),
                    t0 + (i as i64 * 431) % 86_400,
                    vec![i as f64, -(i as f64), 0.5 * i as f64, 1.0],
                )
            })
            .collect()
    }

    /// Reference: the seed's direct per-level binning.
    fn direct(
        bk: BlockKey,
        observations: &[Observation],
        wanted: &[CellKey],
        n_attrs: usize,
    ) -> Vec<(CellKey, CellSummary)> {
        let _ = bk;
        let mut out: std::collections::BTreeMap<CellKey, CellSummary> = wanted
            .iter()
            .map(|&c| (c, CellSummary::empty(n_attrs)))
            .collect();
        for obs in observations {
            let mut seen: FxHashSet<(u8, TemporalRes)> = FxHashSet::default();
            for &c in wanted {
                let lv = (c.spatial_res(), c.temporal_res());
                if !seen.insert(lv) {
                    continue;
                }
                let Some(key) = obs.cell_key(lv.0, lv.1) else {
                    continue;
                };
                if let Some(s) = out.get_mut(&key) {
                    s.push_row(&obs.values);
                }
            }
        }
        out.into_iter().collect()
    }

    #[test]
    fn kernel_matches_direct_binning_across_levels() {
        let bk = block("9xj", 2015, 2, 2);
        let obs = rows();
        let day = bk.day;
        // Wanted cells at four resolution pairs: coarser-than-tile, the
        // tile, finer, and hour-resolution.
        let mut wanted: Vec<CellKey> = vec![
            CellKey::new(bk.geohash.prefix(1).unwrap(), day),
            CellKey::new(bk.geohash, day),
        ];
        wanted.extend(bk.geohash.children().unwrap().map(|g| CellKey::new(g, day)));
        for h in 0..24 {
            wanted.push(CellKey::new(
                bk.geohash,
                TimeBin {
                    res: TemporalRes::Hour,
                    idx: day.idx * 24 + h,
                },
            ));
        }
        let frame = BlockFrame::decode(bk, &obs, 4, frame_spatial_res(3, &wanted));
        let agg = frame.aggregate(&wanted);
        let mut got = agg.cells.clone();
        got.sort_by_key(|(k, _)| *k);
        let want = direct(bk, &obs, &wanted, 4);
        assert_eq!(got.len(), want.len());
        for ((gk, gs), (wk, ws)) in got.iter().zip(&want) {
            assert_eq!(gk, wk);
            assert_eq!(gs, ws, "summary mismatch at {gk}");
        }
        // Groups coarser than (finest_s, finest_t) were derived, not binned.
        assert!(agg.derived_cells > 0);
    }

    #[test]
    fn hashed_fallback_matches_flat() {
        // A resolution gap deep enough to overflow the dense accumulator
        // (res 7 over a res-3 tile with hours: 32^4 * 24 slots).
        let bk = block("9xj", 2015, 2, 2);
        let obs = rows();
        let wanted: Vec<CellKey> = obs
            .iter()
            .take(32)
            .filter_map(|o| o.cell_key(7, TemporalRes::Hour))
            .collect();
        let frame = BlockFrame::decode(bk, &obs, 4, 7);
        let got = {
            let mut v = frame.aggregate(&wanted).cells;
            v.sort_by_key(|(k, _)| *k);
            v
        };
        let want = direct(bk, &obs, &wanted, 4);
        assert_eq!(got, want);
    }

    #[test]
    fn rows_outside_tile_or_day_are_invalid() {
        let bk = block("9xj", 2015, 2, 2);
        let mut obs = rows();
        obs.push(Observation::new(0.0, 0.0, bk.day.start(), vec![1.0; 4])); // wrong tile
        obs.push(Observation::new(
            40.0,
            -105.0,
            bk.day.start() - 1, // previous day
            vec![1.0; 4],
        ));
        obs.push(Observation::new(95.0, 0.0, bk.day.start(), vec![1.0; 4])); // bad coords
        let frame = BlockFrame::decode(bk, &obs, 4, 5);
        let invalid = frame
            .row_slots()
            .iter()
            .filter(|&&s| s == INVALID_SLOT)
            .count();
        assert_eq!(invalid, 3);
        // They contribute to no cell, including coarse ones.
        let wanted = [CellKey::new(bk.geohash.prefix(1).unwrap(), bk.day)];
        let agg = frame.aggregate(&wanted);
        assert_eq!(agg.cells[0].1.count(), rows().len() as u64);
    }

    #[test]
    fn cache_evicts_by_recency_within_budget() {
        let obs = rows();
        let frames: Vec<Arc<BlockFrame>> = ["9xj", "9xk", "9xm"]
            .iter()
            .map(|g| Arc::new(BlockFrame::decode(block(g, 2015, 2, 2), &obs, 4, 4)))
            .collect();
        let per = frames[0].estimated_bytes();
        let cache = FrameCache::new(per * 2 + per / 2); // fits two
        assert_eq!(cache.insert(Arc::clone(&frames[0])), 0);
        assert_eq!(cache.insert(Arc::clone(&frames[1])), 0);
        // Touch frame 0 so frame 1 is the LRU victim.
        assert!(cache.lookup(&frames[0].block(), 4, 0).is_some());
        let evicted = cache.insert(Arc::clone(&frames[2]));
        assert_eq!(evicted, per);
        assert!(cache.contains(&frames[0].block(), 4, 0));
        assert!(!cache.contains(&frames[1].block(), 4, 0));
        assert!(cache.contains(&frames[2].block(), 4, 0));
        assert_eq!(cache.len(), 2);
        assert!(cache.bytes() <= cache.budget());
    }

    #[test]
    fn coarser_cached_frame_is_a_miss_for_finer_queries() {
        let obs = rows();
        let bk = block("9xj", 2015, 2, 2);
        let cache = FrameCache::new(DEFAULT_FRAME_CACHE_BYTES);
        cache.insert(Arc::new(BlockFrame::decode(bk, &obs, 4, 4)));
        assert!(cache.lookup(&bk, 4, 0).is_some());
        assert!(cache.lookup(&bk, 6, 0).is_none());
        // Re-decoding finer replaces the entry, and then serves both.
        cache.insert(Arc::new(BlockFrame::decode(bk, &obs, 4, 6)));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&bk, 6, 0).is_some());
        assert!(cache.lookup(&bk, 4, 0).is_some());
    }

    #[test]
    fn zero_budget_disables_caching() {
        let obs = rows();
        let bk = block("9xj", 2015, 2, 2);
        let cache = FrameCache::new(0);
        assert_eq!(
            cache.insert(Arc::new(BlockFrame::decode(bk, &obs, 4, 4))),
            0
        );
        assert!(cache.is_empty());
        assert!(cache.lookup(&bk, 3, 0).is_none());
    }

    #[test]
    fn stale_version_is_a_miss_until_reinserted() {
        let obs = rows();
        let bk = block("9xj", 2015, 2, 2);
        let cache = FrameCache::new(DEFAULT_FRAME_CACHE_BYTES);
        cache.insert(Arc::new(BlockFrame::decode(bk, &obs, 4, 4).with_version(3)));
        assert!(cache.lookup(&bk, 4, 3).is_some());
        // The block advanced: the cached frame no longer serves.
        assert!(cache.lookup(&bk, 4, 4).is_none());
        assert!(!cache.contains(&bk, 4, 4));
        // Re-decoding at the new version replaces the entry.
        cache.insert(Arc::new(BlockFrame::decode(bk, &obs, 4, 4).with_version(4)));
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(&bk, 4, 4).is_some());
        assert!(cache.lookup(&bk, 4, 3).is_none());
    }

    #[test]
    fn flat_bytes_roundtrip_preserves_frame_and_aggregation() {
        let bk = block("9xj", 2015, 2, 2);
        let mut obs = rows();
        // Include rows the decoder marks invalid, plus awkward values.
        obs.push(Observation::new(0.0, 0.0, bk.day.start(), vec![1.0; 4]));
        obs[0].values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let frame = BlockFrame::decode(bk, &obs, 4, 5).with_version(7);
        let bytes = frame.to_bytes();
        assert_eq!(bytes.len(), frame.buffer_bytes());
        let back = BlockFrame::from_bytes(&bytes).unwrap();
        assert_eq!(back.block(), frame.block());
        assert_eq!(back.n_rows(), frame.n_rows());
        assert_eq!(back.n_attrs(), frame.n_attrs());
        assert_eq!(back.spatial_res(), frame.spatial_res());
        assert_eq!(back.version(), 7);
        assert_eq!(back.row_slots(), frame.row_slots());
        assert_eq!(back.to_bytes(), bytes);
        let wanted = [
            CellKey::new(bk.geohash.prefix(1).unwrap(), bk.day),
            CellKey::new(bk.geohash, bk.day),
        ];
        let a = frame.aggregate(&wanted);
        let b = back.aggregate(&wanted);
        // Debug form: NaN summaries (attr 0) must survive too, and NaN != NaN.
        assert_eq!(format!("{:?}", a.cells), format!("{:?}", b.cells));
    }

    #[test]
    fn corrupt_frame_bytes_error_without_panicking() {
        let bk = block("9xj", 2015, 2, 2);
        let frame = BlockFrame::decode(bk, &rows(), 4, 5);
        let bytes = frame.to_bytes();
        // Every 8-aligned truncation fails cleanly.
        for cut in (0..bytes.len()).step_by(8) {
            assert!(BlockFrame::from_bytes(&bytes[..cut]).is_err());
        }
        // Unaligned length.
        assert!(BlockFrame::from_bytes(&bytes[..9]).is_err());
        // Wrong magic.
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert!(BlockFrame::from_bytes(&b).is_err());
        // Trailing garbage.
        let mut b = bytes.clone();
        b.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            BlockFrame::from_bytes(&b),
            Err(FlatError::TrailingWords(1))
        ));
        // Row-slot hour out of range (raw word: suffix 0, hour 24).
        let mut words = bytes_to_words(&bytes).unwrap();
        words[FRAME_HEADER_WORDS] = 24;
        assert!(BlockFrame::from_words(words).is_err());
        // Suffix outside the tile→res slot space (raw word: suffix 2^10).
        let mut words = bytes_to_words(&bytes).unwrap();
        words[FRAME_HEADER_WORDS] = 1u64 << (5 * 2 + 5);
        assert!(BlockFrame::from_words(words).is_err());
        // Declared row count larger than the buffer.
        let mut words = bytes_to_words(&bytes).unwrap();
        words[1] = (words[1] & !(u32::MAX as u64)) | u32::MAX as u64;
        assert!(BlockFrame::from_words(words).is_err());
        // Spatial res below the tile length.
        let mut words = bytes_to_words(&bytes).unwrap();
        words[1] = (words[1] & !(0xFFu64 << 48)) | 2u64 << 48;
        assert!(BlockFrame::from_words(words).is_err());
        // A block day whose start second overflows i64.
        let mut words = bytes_to_words(&bytes).unwrap();
        words[3] = (i64::MAX / 1000) as u64;
        assert!(matches!(
            BlockFrame::from_words(words),
            Err(FlatError::Corrupt(_))
        ));
    }

    #[test]
    fn builder_matches_decode_bit_for_bit() {
        let bk = block("9xj", 2015, 2, 2);
        let obs = rows();
        let via_decode = BlockFrame::decode(bk, &obs, 4, 5).with_version(2);
        let mut b = FrameBuilder::new(bk, obs.len(), 4, 5);
        for o in &obs {
            b.push_row(o.lat, o.lon, o.time, &o.values);
        }
        let via_builder = b.finish().with_version(2);
        assert_eq!(via_decode.to_bytes(), via_builder.to_bytes());
    }

    #[test]
    fn cache_byte_accounting_matches_buffer_lengths() {
        let obs = rows();
        let cache = FrameCache::new(DEFAULT_FRAME_CACHE_BYTES);
        for g in ["9xj", "9xk", "9xm"] {
            cache.insert(Arc::new(BlockFrame::decode(
                block(g, 2015, 2, 2),
                &obs,
                4,
                4,
            )));
        }
        assert_eq!(cache.bytes(), cache.buffer_bytes());
        cache.remove(&block("9xk", 2015, 2, 2));
        assert_eq!(cache.bytes(), cache.buffer_bytes());
    }

    #[test]
    fn remove_frees_bytes_and_misses_afterwards() {
        let obs = rows();
        let bk = block("9xj", 2015, 2, 2);
        let cache = FrameCache::new(DEFAULT_FRAME_CACHE_BYTES);
        let frame = Arc::new(BlockFrame::decode(bk, &obs, 4, 4));
        let per = frame.estimated_bytes();
        cache.insert(frame);
        assert_eq!(cache.bytes(), per);
        assert_eq!(cache.remove(&bk), per);
        assert_eq!(cache.bytes(), 0);
        assert!(cache.lookup(&bk, 4, 0).is_none());
        // Removing an absent key is a no-op.
        assert_eq!(cache.remove(&bk), 0);
    }
}

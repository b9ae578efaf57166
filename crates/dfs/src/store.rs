//! Per-node block storage and local aggregation.
//!
//! A [`NodeStore`] is one Galileo node's view of the dataset: the blocks the
//! partitioner assigns to it. [`NodeStore::fetch_partials`] is the
//! distributed-aggregation workhorse — it plans the blocks needed by a set
//! of missing Cells, reads the ones the plan gives this node (charging the
//! disk model), scans each on the calling thread between its reads, and
//! returns per-Cell *partial* summaries. Partials from different nodes merge
//! exactly thanks to the summary monoid, so the coordinator never re-reads
//! anything.

use crate::block::{plan_reads, BlockKey, BlockPlanError};
use crate::disk::{DiskModel, DiskStats, Lanes};
use crate::frame::{frame_spatial_res, BlockFrame, FrameCache, DEFAULT_FRAME_CACHE_BYTES};
use crate::partitioner::Partitioner;
use stash_geo::{BBox, Geohash, TimeRange};
use stash_model::fx::FxHashMap;
use stash_model::{CellKey, CellSummary, Observation, SketchSpec};
use stash_obs::MetricsRegistry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

/// Result of appending rows to a block (see [`BlockSource::append`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendOutcome {
    /// Rows were appended; the block's version after the append.
    Applied { version: u64 },
    /// `seq` was already applied — a retried batch; storage is unchanged.
    Duplicate,
    /// `seq` skips ahead of the next expected batch; storage is unchanged
    /// and the producer must re-send in order.
    OutOfOrder,
    /// This source is immutable (the default for sealed datasets).
    Unsupported,
}

/// Where blocks come from. In production this would be files on disk; in
/// the reproduction it is the deterministic synthetic generator (every read
/// of a block yields identical observations — see DESIGN.md §2).
///
/// Contract: every observation of a block lies inside the block's geohash
/// tile and UTC day, and reads of the same key at the same *version* yield
/// identical rows — both properties the decoded-frame cache relies on.
/// Sealed sources never change, so their version is always 0; appendable
/// sources bump [`BlockSource::block_version`] on every successful
/// [`BlockSource::append`], which is what lets cached frames tagged with an
/// older version miss instead of serving truncated data.
pub trait BlockSource: Send + Sync {
    /// Materialize the observations of one block.
    fn read_block(&self, key: BlockKey) -> Vec<Observation>;
    /// Serialized size of a block, for the disk cost model.
    fn block_bytes(&self, geohash: Geohash) -> usize;
    /// Attribute count of the dataset schema.
    fn n_attrs(&self) -> usize;
    /// Current version of a block: 0 for sealed blocks, incremented by
    /// every applied append.
    fn block_version(&self, _key: BlockKey) -> u64 {
        0
    }
    /// Read a block together with the version the rows reflect. The
    /// default reads then asks for the version separately, which is safe
    /// under concurrent appends: at worst the returned tag is *newer* than
    /// the rows — never older — so a mistagged frame causes a wasted
    /// re-decode, not a wrong answer. Appendable sources should override
    /// this to read both under one lock.
    fn read_block_versioned(&self, key: BlockKey) -> (Vec<Observation>, u64) {
        let rows = self.read_block(key);
        (rows, self.block_version(key))
    }
    /// Append batch `seq` (0-based, per block, contiguous) to a block.
    /// Idempotent under retries: a `seq` at or below the last applied one
    /// is a [`AppendOutcome::Duplicate`]; a gap is
    /// [`AppendOutcome::OutOfOrder`]. Immutable sources keep the default.
    fn append(&self, _key: BlockKey, _seq: u64, _rows: &[Observation]) -> AppendOutcome {
        AppendOutcome::Unsupported
    }
    /// Drop a raw block under a retention policy (DESIGN.md §17): later
    /// reads of the key yield no observations and its version becomes
    /// `u64::MAX` so remote decoded-frame caches tagged with an older
    /// version lazily miss instead of serving dropped data. Returns `true`
    /// iff this call retired the block (idempotent). Immutable sources keep
    /// the default: nothing is dropped.
    fn retire(&self, _key: BlockKey) -> bool {
        false
    }
    /// Read one block as a ready-to-scan flat frame at `spatial_res`,
    /// tagged with the version its rows reflect. The default materializes
    /// `Vec<Observation>` and decodes — the oracle route. Sources that can
    /// stream rows should override it with a [`crate::frame::FrameBuilder`]
    /// fill, which
    /// skips the row structs entirely; equivalence is pinned by the
    /// `read_frame matches the row oracle` proptests.
    fn read_frame(&self, key: BlockKey, spatial_res: u8) -> BlockFrame {
        let (observations, version) = self.read_block_versioned(key);
        BlockFrame::decode(key, &observations, self.n_attrs(), spatial_res).with_version(version)
    }
}

/// One node's storage engine.
pub struct NodeStore {
    node_idx: usize,
    partitioner: Partitioner,
    block_len: u8,
    data_bbox: BBox,
    data_time: TimeRange,
    disk: DiskModel,
    stats: DiskStats,
    source: Arc<dyn BlockSource>,
    /// Ceiling on blocks per fetch plan; degenerate queries fail fast
    /// instead of grinding the node.
    max_blocks_per_fetch: usize,
    /// Modeled CPU cost of scanning/aggregating one observation. Charged
    /// as virtual (sleep) time so node capacity is defined by the cost
    /// model, not by the simulator host's core count (DESIGN.md §2).
    scan_cost_per_obs: std::time::Duration,
    /// Decoded frames of recently scanned blocks (DESIGN.md §12).
    frame_cache: FrameCache,
    /// Named counters for the scan kernel and frame cache (`dfs.*`).
    metrics: Arc<MetricsRegistry>,
    /// Sketch-valued Cell configuration; disabled keeps scans exact-only.
    sketches: SketchSpec,
}

/// Modeled cost ratio of aggregating a row from an already-decoded frame
/// vs. decoding it cold: the columnar fold skips the geohash encode and the
/// per-row hashing, so a warm row is charged `scan_cost_per_obs / 8`
/// (DESIGN.md §12; the microbenchmarks in `core_micro` back the ratio).
const FRAME_AGG_COST_DIVISOR: u32 = 8;

/// What [`NodeStore::scan_block`] produced for one block.
pub struct BlockScan {
    /// One summary per wanted cell, deduplicated, first-occurrence order.
    pub cells: Vec<(CellKey, CellSummary)>,
    /// Rows aggregated (the block's row count).
    pub rows: usize,
    /// Whether the decoded frame came from the cache.
    pub cache_hit: bool,
}

impl NodeStore {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        node_idx: usize,
        partitioner: Partitioner,
        block_len: u8,
        data_bbox: BBox,
        data_time: TimeRange,
        disk: DiskModel,
        source: Arc<dyn BlockSource>,
        max_blocks_per_fetch: usize,
    ) -> Self {
        assert!(node_idx < partitioner.n_nodes(), "node index outside ring");
        assert!(
            block_len >= partitioner.prefix_len(),
            "blocks must nest within partitions"
        );
        NodeStore {
            node_idx,
            partitioner,
            block_len,
            data_bbox,
            data_time,
            disk,
            stats: DiskStats::default(),
            source,
            max_blocks_per_fetch,
            scan_cost_per_obs: std::time::Duration::from_nanos(400),
            frame_cache: FrameCache::new(DEFAULT_FRAME_CACHE_BYTES),
            metrics: Arc::new(MetricsRegistry::new()),
            sketches: SketchSpec::disabled(),
        }
    }

    /// Override the modeled per-observation scan cost (default 400 ns,
    /// ~2.5 M observations/s per worker — a paper-era aggregation rate).
    pub fn with_scan_cost(mut self, per_obs: std::time::Duration) -> Self {
        self.scan_cost_per_obs = per_obs;
        self
    }

    /// Override the decoded-frame cache budget (`0` disables caching).
    pub fn with_frame_cache_bytes(mut self, bytes: usize) -> Self {
        self.frame_cache = FrameCache::new(bytes);
        self
    }

    /// Record scan-kernel counters into the given registry (a cluster node
    /// passes its own, so `dfs.*` shows up next to its other metrics).
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = metrics;
        self
    }

    /// Enable sketch-valued Cells: every scan emits per-attribute sketch
    /// partials alongside the exact summaries (no-op when disabled).
    pub fn with_sketches(mut self, sketches: SketchSpec) -> Self {
        self.sketches = sketches;
        self
    }

    /// The sketch configuration scans run with.
    pub fn sketch_spec(&self) -> &SketchSpec {
        &self.sketches
    }

    /// The registry holding this store's `dfs.*` counters.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The decoded-frame cache (hit/miss accounting lives in
    /// [`NodeStore::scan_block`]).
    pub fn frame_cache(&self) -> &FrameCache {
        &self.frame_cache
    }

    pub fn node_idx(&self) -> usize {
        self.node_idx
    }

    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    pub fn block_len(&self) -> u8 {
        self.block_len
    }

    pub fn data_bbox(&self) -> &BBox {
        &self.data_bbox
    }

    pub fn data_time(&self) -> &TimeRange {
        &self.data_time
    }

    /// Disk counters for this node.
    pub fn disk_stats(&self) -> &DiskStats {
        &self.stats
    }

    /// Does this node own the given block?
    pub fn owns_block(&self, block: &BlockKey) -> bool {
        self.partitioner.owner(block.geohash) == self.node_idx
    }

    /// Fetch partial summaries for `cells`, reading only the blocks
    /// [`plan_reads`] gives this node. Cells whose blocks are all read
    /// elsewhere produce no partial here;
    /// cells covered but with no matching observations produce an *empty*
    /// partial (so callers can distinguish "computed, empty region" from
    /// "not my data").
    pub fn fetch_partials(
        &self,
        cells: &[CellKey],
    ) -> Result<Vec<(CellKey, CellSummary)>, BlockPlanError> {
        self.fetch_partials_excluding(cells, &[])
    }

    /// [`NodeStore::fetch_partials`] under failover: blocks whose primary
    /// owner is in `exclude` (crashed / unreachable) are scanned by their
    /// replica instead — the first ring successor not excluded (see
    /// [`Partitioner::owner_excluding`]). This node scans the blocks
    /// [`plan_reads`] gives it: every node derives the same readers from
    /// the same `(cells, exclude)`, so there is one reader per plan block
    /// cluster-wide and merged answers stay exact.
    pub fn fetch_partials_excluding(
        &self,
        cells: &[CellKey],
        exclude: &[usize],
    ) -> Result<Vec<(CellKey, CellSummary)>, BlockPlanError> {
        let mine: Vec<(BlockKey, Vec<CellKey>)> = plan_reads(
            cells,
            self.block_len,
            &self.data_bbox,
            &self.data_time,
            self.max_blocks_per_fetch,
            &self.partitioner,
            exclude,
        )?
        .into_iter()
        .filter(|&(_, _, reader)| reader == self.node_idx)
        .map(|(bk, wanted, _)| (bk, wanted))
        .collect();
        if mine.is_empty() {
            return Ok(Vec::new());
        }

        // One schedule, two virtual-time lanes ([`Lanes`], DESIGN.md §2b).
        // This thread is both spindle and scanner: one disk per node, so
        // blocks become ready one after another in plan order, each decided
        // hit or read exactly once, here, and scanned right after. The scan
        // lane's charge only sleeps at the end, so the modeled aggregation of
        // block i runs behind the read of block i+1, as read-ahead does on a
        // real node. Rows aggregated from a cached frame skip the decode, so
        // they cost a fraction of a cold row.
        let mut lanes = Lanes::begin();
        let mut scans = Vec::with_capacity(mine.len());
        for (bk, wanted) in &mine {
            let cached = self.lookup_frame(*bk, wanted);
            if cached.is_none() {
                lanes.read(self.disk.read_cost(self.source.block_bytes(bk.geohash)));
            }
            let scan = self.scan_frame(*bk, wanted, cached);
            let per_row = if scan.cache_hit {
                self.scan_cost_per_obs / FRAME_AGG_COST_DIVISOR
            } else {
                self.scan_cost_per_obs
            };
            lanes.scan(Instant::now(), per_row * scan.rows as u32);
            scans.push(scan);
        }
        lanes.end().record(&self.metrics);

        // Merge fragments (same cell can appear in many blocks: months span
        // days, coarse cells span tiles). Accumulate in a hash map — one
        // probe per fragment entry — and sort once at the end, instead of
        // paying ordered-map entry churn per key.
        let mut merged: FxHashMap<CellKey, CellSummary> = FxHashMap::default();
        let mut sketch_merges = 0u64;
        for scan in scans {
            for (key, summary) in scan.cells {
                match merged.entry(key) {
                    std::collections::hash_map::Entry::Vacant(v) => {
                        v.insert(summary);
                    }
                    std::collections::hash_map::Entry::Occupied(mut o) => {
                        if o.get().has_sketches() && summary.has_sketches() {
                            sketch_merges += summary.n_attrs() as u64;
                        }
                        o.get_mut().merge(&summary);
                    }
                }
            }
        }
        if sketch_merges > 0 {
            self.metrics.counter("sketch.merges").add(sketch_merges);
        }
        let mut out: Vec<(CellKey, CellSummary)> = merged.into_iter().collect();
        out.sort_unstable_by_key(|&(key, _)| key);
        Ok(out)
    }

    /// Scan one block for the cells that need it, through the columnar
    /// frame kernel and the decoded-frame cache (DESIGN.md §12).
    pub fn scan_block(&self, bk: BlockKey, wanted: &[CellKey]) -> BlockScan {
        let cached = self.lookup_frame(bk, wanted);
        self.scan_frame(bk, wanted, cached)
    }

    /// The one hit-or-miss decision of a block scan: whoever calls this
    /// also charges the disk on `None` and hands the answer to
    /// [`NodeStore::scan_frame`], so a concurrent fetch or eviction can
    /// never make a node pay the disk for a hit or read for free.
    fn lookup_frame(&self, bk: BlockKey, wanted: &[CellKey]) -> Option<Arc<BlockFrame>> {
        let need_res = frame_spatial_res(self.block_len, wanted);
        let cached = self
            .frame_cache
            .lookup(&bk, need_res, self.source.block_version(bk));
        self.metrics.inc(if cached.is_some() {
            "dfs.frame_cache.hit"
        } else {
            "dfs.frame_cache.miss"
        });
        cached
    }

    /// Aggregate `wanted` from the block's frame: the cached one, or —
    /// `None` — a fresh read, which is counted as a disk read and cached.
    fn scan_frame(
        &self,
        bk: BlockKey,
        wanted: &[CellKey],
        cached: Option<Arc<BlockFrame>>,
    ) -> BlockScan {
        let cache_hit = cached.is_some();
        let frame = cached.unwrap_or_else(|| {
            let t0 = Instant::now();
            let f = Arc::new(
                self.source
                    .read_frame(bk, frame_spatial_res(self.block_len, wanted)),
            );
            self.metrics
                .counter("dfs.decode_ns")
                .add(t0.elapsed().as_nanos() as u64);
            self.stats.record_read(self.source.block_bytes(bk.geohash));
            self.metrics
                .counter("dfs.rows_decoded")
                .add(f.n_rows() as u64);
            let evicted = self.frame_cache.insert(Arc::clone(&f));
            if evicted > 0 {
                self.metrics
                    .counter("dfs.frame_cache.evicted_bytes")
                    .add(evicted as u64);
            }
            f
        });
        let agg = frame.aggregate_with(wanted, &self.sketches);
        if agg.derived_cells > 0 {
            self.metrics
                .counter("dfs.cells_derived")
                .add(agg.derived_cells);
        }
        if self.sketches.enabled {
            let bytes: usize = agg.cells.iter().map(|(_, s)| s.sketch_wire_bytes()).sum();
            self.metrics.counter("sketch.bytes").add(bytes as u64);
        }
        BlockScan {
            cells: agg.cells,
            rows: frame.n_rows(),
            cache_hit,
        }
    }

    /// Append batch `seq` of a live stream to a block and keep the decoded
    /// frame cache coherent: an applied append eagerly drops this node's
    /// cached frame (the next scan re-decodes at the new version). Remote
    /// nodes that replicated the frame go stale-safe lazily — their cached
    /// tag no longer matches the block version, so lookups miss.
    pub fn append_block(&self, key: BlockKey, seq: u64, rows: &[Observation]) -> AppendOutcome {
        let outcome = self.source.append(key, seq, rows);
        if let AppendOutcome::Applied { .. } = outcome {
            self.metrics
                .counter("dfs.append.rows")
                .add(rows.len() as u64);
            let freed = self.frame_cache.remove(&key);
            if freed > 0 {
                self.metrics.counter("dfs.append.frames_invalidated").inc();
            }
        }
        outcome
    }

    /// Retire a raw block under retention (see [`BlockSource::retire`]) and
    /// keep this node's decoded-frame cache coherent by dropping the cached
    /// frame eagerly. Returns `(retired, cache_bytes_freed)`; the caller
    /// accounts the raw bytes released via [`BlockSource::block_bytes`]
    /// before calling.
    pub fn retire_block(&self, key: BlockKey) -> (bool, usize) {
        let retired = self.source.retire(key);
        let freed = self.frame_cache.remove(&key);
        if retired {
            self.metrics.counter("dfs.retire.blocks").inc();
        }
        if freed > 0 {
            self.metrics
                .counter("dfs.retire.cache_bytes")
                .add(freed as u64);
        }
        (retired, freed)
    }

    /// The seed's direct per-level binning — one geohash encode per
    /// observation × resolution group. Kept as the reference
    /// implementation: the equivalence proptests and the `core_micro`
    /// old-vs-new benchmark compare [`NodeStore::scan_block`] against it.
    pub fn scan_block_direct(
        &self,
        bk: BlockKey,
        wanted: &[CellKey],
    ) -> Vec<(CellKey, CellSummary)> {
        let n_attrs = self.source.n_attrs();
        // Group the wanted cells by resolution pair so each observation is
        // binned once per distinct resolution, not once per cell.
        let mut by_level: HashMap<(u8, stash_geo::TemporalRes), HashSet<CellKey>> = HashMap::new();
        for &c in wanted {
            by_level
                .entry((c.spatial_res(), c.temporal_res()))
                .or_default()
                .insert(c);
        }
        // Every wanted cell starts with an empty summary: "computed, empty".
        let mut out: BTreeMap<CellKey, CellSummary> = wanted
            .iter()
            .map(|&c| (c, CellSummary::empty(n_attrs)))
            .collect();
        let observations = self.source.read_block(bk);
        for obs in &observations {
            for (&(s_res, t_res), members) in &by_level {
                let Some(key) = obs.cell_key(s_res, t_res) else {
                    continue;
                };
                if members.contains(&key) {
                    out.get_mut(&key)
                        .expect("members ⊆ out")
                        .push_row(&obs.values);
                }
            }
        }
        out.into_iter().collect()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::block::plan_blocks;
    use crate::disk::timing::{within, MS, SLACK};
    use stash_data::{GeneratorConfig, NamGenerator};
    use stash_geo::time::epoch_seconds;
    use stash_geo::{TemporalRes, TimeBin};
    use std::str::FromStr;
    use std::time::Duration;

    /// Adapter: NamGenerator as a BlockSource.
    pub(crate) struct GenSource(pub(crate) NamGenerator);

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

    fn store(node_idx: usize, n_nodes: usize) -> NodeStore {
        let (bbox, time) = domain();
        let source = Arc::new(GenSource(NamGenerator::new(GeneratorConfig {
            seed: 11,
            obs_per_deg2_per_day: 200.0,
            max_obs_per_block: 50_000,
            value_quantum: 0.0,
        })));
        NodeStore::new(
            node_idx,
            Partitioner::new(n_nodes, 2),
            3,
            bbox,
            time,
            DiskModel::free(),
            source,
            10_000,
        )
    }

    fn all_stores(n: usize) -> Vec<NodeStore> {
        (0..n).map(|i| store(i, n)).collect()
    }

    fn day_cell(gh: &str) -> CellKey {
        CellKey::new(
            Geohash::from_str(gh).unwrap(),
            TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0)),
        )
    }

    #[test]
    fn only_owner_returns_partials() {
        let stores = all_stores(4);
        let cell = day_cell("9xj6"); // finer than block_len, single block
        let owner = stores[0]
            .partitioner()
            .owner(Geohash::from_str("9xj").unwrap());
        for s in &stores {
            let partials = s.fetch_partials(&[cell]).unwrap();
            if s.node_idx() == owner {
                assert_eq!(partials.len(), 1);
                assert_eq!(partials[0].0, cell);
            } else {
                assert!(
                    partials.is_empty(),
                    "node {} is not the owner",
                    s.node_idx()
                );
            }
        }
    }

    #[test]
    fn replica_takes_over_excluded_primary_exactly() {
        let stores = all_stores(4);
        let cell = day_cell("9xj6");
        let primary = stores[0]
            .partitioner()
            .owner(Geohash::from_str("9xj").unwrap());
        let baseline = stores[primary].fetch_partials(&[cell]).unwrap();
        assert_eq!(baseline.len(), 1);

        // With the primary excluded, exactly one other node — its ring
        // successor — scans the block, and sees the very same data (the
        // generator-backed DFS is shared, like replicated storage).
        let replica = (primary + 1) % 4;
        let mut served_by = Vec::new();
        for s in &stores {
            let partials = s.fetch_partials_excluding(&[cell], &[primary]).unwrap();
            if !partials.is_empty() {
                assert_eq!(partials.len(), 1);
                assert_eq!(partials[0].1.count(), baseline[0].1.count());
                served_by.push(s.node_idx());
            }
        }
        assert_eq!(served_by, vec![replica]);
    }

    #[test]
    fn coarse_cell_partials_stay_exact_under_exclusion() {
        // Exclude one node; the surviving three must still jointly cover
        // every block exactly once, so the merged summary is unchanged.
        let stores = all_stores(4);
        let cell = day_cell("9");
        let merge_all = |exclude: &[usize]| {
            let mut merged = CellSummary::empty(4);
            for s in &stores {
                if exclude.contains(&s.node_idx()) {
                    continue;
                }
                for (_, summary) in s.fetch_partials_excluding(&[cell], exclude).unwrap() {
                    merged.merge(&summary);
                }
            }
            merged
        };
        let fault_free = merge_all(&[]);
        let failed_over = merge_all(&[2]);
        assert!(fault_free.count() > 0);
        assert_eq!(failed_over.count(), fault_free.count());
    }

    #[test]
    fn partials_merge_to_direct_aggregation() {
        // A coarse (len-1) cell spans many partitions; merging everyone's
        // partials must equal aggregating the raw observations directly.
        let stores = all_stores(4);
        let cell = day_cell("9"); // 1024 blocks at len 3, spread over nodes
        let mut merged = CellSummary::empty(4);
        let mut contributors = 0;
        for s in &stores {
            for (key, summary) in s.fetch_partials(&[cell]).unwrap() {
                assert_eq!(key, cell);
                merged.merge(&summary);
                contributors += 1;
            }
        }
        assert!(contributors > 1, "coarse cell should span nodes");

        // Ground truth: scan all blocks directly.
        let gen = NamGenerator::new(GeneratorConfig {
            seed: 11,
            obs_per_deg2_per_day: 200.0,
            max_obs_per_block: 50_000,
            value_quantum: 0.0,
        });
        let (bbox, time) = domain();
        let plan = plan_blocks(&[cell], 3, &bbox, &time, 10_000).unwrap();
        let mut truth = CellSummary::empty(4);
        for bk in plan.keys() {
            for obs in gen.block_for_day(bk.geohash, bk.day) {
                if obs.cell_key(1, TemporalRes::Day) == Some(cell) {
                    truth.push_row(&obs.values);
                }
            }
        }
        assert_eq!(merged.count(), truth.count());
        assert_eq!(merged.attr(0).unwrap().min(), truth.attr(0).unwrap().min());
        assert_eq!(merged.attr(0).unwrap().max(), truth.attr(0).unwrap().max());
        assert!(
            merged.count() > 0,
            "domain region must contain observations"
        );
    }

    #[test]
    fn empty_region_yields_empty_partial() {
        let stores = all_stores(2);
        // Inside the data bbox there is always data (generator is dense),
        // so use a cell whose day has data but whose observations cannot
        // match a *different* day bin: query the same geohash on a day at
        // the very edge — instead, verify the empty-partial path via a cell
        // finer than any observation spacing is impractical; rather check
        // that a covered cell returns a partial even if its summary is
        // empty by using an hour bin at 03:00 of a sparse block.
        let cell = CellKey::new(
            Geohash::from_str("9xj6k").unwrap(),
            TimeBin::containing(TemporalRes::Hour, epoch_seconds(2015, 2, 2, 3, 0, 0)),
        );
        let mut produced = 0;
        for s in &stores {
            for (key, _) in s.fetch_partials(&[cell]).unwrap() {
                assert_eq!(key, cell);
                produced += 1;
                // Summary may be empty or not; both are valid partials.
            }
        }
        assert_eq!(produced, 1, "exactly the owner produces the partial");
    }

    #[test]
    fn disk_stats_count_block_reads() {
        let s = store(0, 1); // single node owns everything
        let cell = day_cell("9x"); // 32 blocks
        let before = s.disk_stats().reads();
        s.fetch_partials(&[cell]).unwrap();
        let reads = s.disk_stats().reads() - before;
        assert!(
            reads > 16 && reads <= 32,
            "expected ~32 block reads, got {reads}"
        );
        assert!(s.disk_stats().bytes() > 0);
    }

    #[test]
    fn disk_cost_is_charged() {
        let (bbox, time) = domain();
        let source = Arc::new(GenSource(NamGenerator::new(GeneratorConfig::default())));
        let slow = NodeStore::new(
            0,
            Partitioner::new(1, 2),
            3,
            bbox,
            time,
            DiskModel {
                seek: std::time::Duration::from_millis(10),
                bytes_per_sec: f64::INFINITY,
            },
            source,
            10_000,
        );
        let t0 = std::time::Instant::now();
        slow.fetch_partials(&[day_cell("9xj6")]).unwrap();
        assert!(
            t0.elapsed() >= std::time::Duration::from_millis(9),
            "disk not charged"
        );
    }

    #[test]
    fn shared_block_scanned_once_for_many_cells() {
        let s = store(0, 1);
        // 32 sibling cells at res 4 inside one res-3 block.
        let parent = Geohash::from_str("9xj").unwrap();
        let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0));
        let cells: Vec<CellKey> = parent
            .children()
            .unwrap()
            .map(|g| CellKey::new(g, day))
            .collect();
        let before = s.disk_stats().reads();
        let partials = s.fetch_partials(&cells).unwrap();
        assert_eq!(
            s.disk_stats().reads() - before,
            1,
            "one block read for 32 cells"
        );
        assert_eq!(partials.len(), 32);
        // The union of children equals the parent's observations.
        let total: u64 = partials.iter().map(|(_, s)| s.count()).sum();
        let gen_count = s
            .source
            .read_block(BlockKey {
                geohash: parent,
                day,
            })
            .len();
        assert_eq!(total as usize, gen_count);
    }

    #[test]
    fn fetch_outside_domain_is_empty() {
        let s = store(0, 1);
        let cell = day_cell("gcp6"); // Europe, outside NAM domain
        assert!(s.fetch_partials(&[cell]).unwrap().is_empty());
    }

    #[test]
    fn budget_propagates() {
        let (bbox, time) = domain();
        let source = Arc::new(GenSource(NamGenerator::new(GeneratorConfig::default())));
        let s = NodeStore::new(
            0,
            Partitioner::new(1, 2),
            3,
            bbox,
            time,
            DiskModel::free(),
            source,
            4, // tiny budget
        );
        let cell = day_cell("9x"); // needs 32 blocks
        assert!(matches!(
            s.fetch_partials(&[cell]),
            Err(BlockPlanError::TooManyBlocks { .. })
        ));
    }

    #[test]
    fn partials_come_back_sorted_by_cell_key() {
        // Regression for the fragment merge: accumulation moved from an
        // ordered map to a hash map + final sort, and callers (coordinator
        // merge, snapshot diffing) rely on the sorted order.
        let s = store(0, 1);
        let parent = Geohash::from_str("9xj").unwrap();
        let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0));
        let mut cells: Vec<CellKey> = parent
            .children()
            .unwrap()
            .map(|g| CellKey::new(g, day))
            .collect();
        // Mix in coarser cells and present the input unsorted.
        cells.push(day_cell("9x"));
        cells.push(day_cell("9xj"));
        cells.reverse();
        let partials = s.fetch_partials(&cells).unwrap();
        assert_eq!(partials.len(), cells.len());
        assert!(
            partials.windows(2).all(|w| w[0].0 < w[1].0),
            "partials must be strictly sorted by CellKey"
        );
    }

    #[test]
    fn frame_cache_skips_repeat_reads_and_counts_hits() {
        let s = store(0, 1);
        let cell = day_cell("9xj6");
        s.fetch_partials(&[cell]).unwrap();
        let cold_reads = s.disk_stats().reads();
        assert_eq!(s.metrics().counter("dfs.frame_cache.miss").get(), 1);

        // Same block, different wanted cells: served from the cached frame.
        let warm = s.fetch_partials(&[day_cell("9xj7")]).unwrap();
        assert_eq!(warm.len(), 1);
        assert_eq!(s.disk_stats().reads(), cold_reads, "no second disk read");
        assert_eq!(s.metrics().counter("dfs.frame_cache.hit").get(), 1);
        assert!(s.metrics().counter("dfs.rows_decoded").get() > 0);
    }

    #[test]
    fn warm_and_cold_scans_agree() {
        let s = store(0, 1);
        let parent = Geohash::from_str("9xj").unwrap();
        let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0));
        let mut cells: Vec<CellKey> = parent
            .children()
            .unwrap()
            .map(|g| CellKey::new(g, day))
            .collect();
        cells.push(day_cell("9xj"));
        let cold = s.fetch_partials(&cells).unwrap();
        let warm = s.fetch_partials(&cells).unwrap();
        assert_eq!(cold, warm, "cache must not change results");
    }

    #[test]
    fn disabled_cache_still_answers_correctly() {
        let s = store(0, 1).with_frame_cache_bytes(0);
        let cell = day_cell("9xj6");
        let a = s.fetch_partials(&[cell]).unwrap();
        let b = s.fetch_partials(&[cell]).unwrap();
        assert_eq!(a, b);
        assert_eq!(s.metrics().counter("dfs.frame_cache.hit").get(), 0);
        assert_eq!(s.disk_stats().reads(), 2, "every fetch re-reads");
    }

    // -- The fetch schedule (DESIGN.md §2b) --------------------------------

    const FIXED_ROWS: usize = 64;

    /// Every block holds the same `FIXED_ROWS` rows at its tile's centre,
    /// so the modeled scan cost per block is known exactly.
    struct FixedSource;

    impl BlockSource for FixedSource {
        fn read_block(&self, key: BlockKey) -> Vec<Observation> {
            let b = key.geohash.bbox();
            let (lat, lon) = ((b.min_lat + b.max_lat) / 2.0, (b.min_lon + b.max_lon) / 2.0);
            (0..FIXED_ROWS)
                .map(|i| Observation::new(lat, lon, key.day.start() + i as i64, vec![i as f64]))
                .collect()
        }
        fn block_bytes(&self, _geohash: Geohash) -> usize {
            4096
        }
        fn n_attrs(&self) -> usize {
            1
        }
    }

    /// A one-node store over [`FixedSource`] charging `disk` per read and
    /// `scan` per cold block.
    fn charged_store(disk: Duration, scan: Duration) -> NodeStore {
        let (bbox, time) = domain();
        NodeStore::new(
            0,
            Partitioner::new(1, 2),
            3,
            bbox,
            time,
            DiskModel {
                seek: disk,
                bytes_per_sec: f64::INFINITY,
            },
            Arc::new(FixedSource),
            10_000,
        )
        .with_scan_cost(scan / FIXED_ROWS as u32)
    }

    /// `n` single-block day Cells (the first tiles of "9x"), in plan order.
    fn block_cells(n: usize) -> Vec<CellKey> {
        let day = day_cell("9x").time;
        let parent = Geohash::from_str("9x").unwrap();
        let cells: Vec<CellKey> = parent
            .children()
            .unwrap()
            .take(n)
            .map(|g| CellKey::new(g, day))
            .collect();
        assert_eq!(cells.len(), n);
        cells
    }

    fn timed_fetch(s: &NodeStore, cells: &[CellKey]) -> Duration {
        let t0 = Instant::now();
        let partials = s.fetch_partials(cells).unwrap();
        let wall = t0.elapsed();
        assert_eq!(partials.len(), cells.len());
        wall
    }

    fn counter(s: &NodeStore, name: &str) -> Duration {
        Duration::from_nanos(s.metrics().counter(name).get())
    }

    #[test]
    fn multi_block_fetch_reads_ahead_while_it_scans() {
        // Disk-bound: every scan charge but the last hides behind the next
        // read, so n blocks cost n reads + one scan, not n × (read + scan).
        let n = 8u32;
        let law = 5 * MS * n + 2 * MS;
        let wall = within(law + SLACK, || {
            let s = charged_store(5 * MS, 2 * MS);
            let wall = timed_fetch(&s, &block_cells(n as usize));
            assert!(wall >= law, "{wall:?} vs {law:?}");
            // What was *charged* is the serial bill, to the nanosecond:
            // disk_ns == Σ read_cost, one read per block. What the fetch
            // *took* is on the registry beside it.
            assert_eq!(s.disk_stats().reads(), n as u64);
            assert_eq!(
                counter(&s, "dfs.charge.disk_ns"),
                s.disk.read_cost(4096) * n
            );
            assert_eq!(counter(&s, "dfs.charge.scan_ns"), 2 * MS * n);
            assert!(counter(&s, "dfs.fetch.wall_ns") <= wall);
            wall
        });
        assert!(wall < 6 * MS * n, "the serial bill is {:?}", 7 * MS * n);
    }

    #[test]
    fn one_block_costs_disk_plus_scan() {
        within(7 * MS + SLACK, || {
            let s = charged_store(5 * MS, 2 * MS);
            let wall = timed_fetch(&s, &block_cells(1));
            assert!(wall >= 7 * MS, "{wall:?}");
            wall
        });
    }

    #[test]
    fn cached_blocks_behind_an_uncached_one_keep_plan_order() {
        // Warm rows cost 1/8 of a cold row: 8 ms cold, 1 ms warm per block.
        let cells = block_cells(5);
        for (cold, law) in [
            // Uncached first: the four cached blocks behind it are charged
            // after it — read 10 + cold scan 8 + 4 × 1.
            (0, 22 * MS),
            // Uncached last: its read overlaps the four warm charges.
            (4, 18 * MS),
        ] {
            within(law + 4 * MS, || {
                let s = charged_store(10 * MS, 8 * MS);
                let warm: Vec<CellKey> = (0..5).filter(|&i| i != cold).map(|i| cells[i]).collect();
                s.fetch_partials(&warm).unwrap();
                let reads = s.disk_stats().reads();
                let wall = timed_fetch(&s, &cells);
                assert_eq!(s.disk_stats().reads() - reads, 1, "one uncached block");
                assert!(wall >= law, "uncached at {cold}: {wall:?} vs {law:?}");
                wall
            });
        }
    }

    #[test]
    fn nothing_charged_means_nothing_slept() {
        let n = 32;
        let s = charged_store(Duration::ZERO, Duration::ZERO);
        let wall = timed_fetch(&s, &block_cells(n));
        assert!(wall < Duration::from_millis(50), "{wall:?}");
        assert_eq!(counter(&s, "dfs.charge.disk_ns"), Duration::ZERO);
        assert_eq!(counter(&s, "dfs.charge.scan_ns"), Duration::ZERO);
        // Every block scanned exactly once.
        assert_eq!(s.disk_stats().reads(), n as u64);
        assert_eq!(s.metrics().counter("dfs.frame_cache.miss").get(), n as u64);
        assert_eq!(s.metrics().counter("dfs.frame_cache.hit").get(), 0);
        assert_eq!(
            s.metrics().counter("dfs.rows_decoded").get(),
            (n * FIXED_ROWS) as u64
        );
    }

    #[test]
    fn fetch_equals_direct_scans_merged_in_plan_order() {
        // Dyadic values make every sum exact, so `==` is bit for bit even
        // where the frame kernel and the direct binning add in another
        // order (see tests/frame_equivalence.rs).
        let (bbox, time) = domain();
        let source = Arc::new(GenSource(NamGenerator::new(GeneratorConfig {
            seed: 11,
            obs_per_deg2_per_day: 50.0,
            max_obs_per_block: 50_000,
            value_quantum: 1.0 / 64.0,
        })));
        let s = NodeStore::new(
            0,
            Partitioner::new(1, 2),
            3,
            bbox,
            time,
            DiskModel::free(),
            source,
            10_000,
        );
        let mut cells = vec![
            day_cell("9x"),
            day_cell("9w"),
            day_cell("9xj"),
            day_cell("9w3"),
        ];
        cells.extend(block_cells(4).iter().flat_map(|c| {
            c.geohash
                .children()
                .unwrap()
                .map(|g| CellKey::new(g, c.time))
        }));
        let plan = plan_blocks(&cells, 3, &bbox, &time, 10_000).unwrap();
        assert!(plan.len() >= 64, "{} blocks", plan.len());
        let mut merged: BTreeMap<CellKey, CellSummary> = BTreeMap::new();
        for (bk, wanted) in &plan {
            for (key, summary) in s.scan_block_direct(*bk, wanted) {
                match merged.entry(key) {
                    std::collections::btree_map::Entry::Vacant(v) => {
                        v.insert(summary);
                    }
                    std::collections::btree_map::Entry::Occupied(mut o) => {
                        o.get_mut().merge(&summary)
                    }
                }
            }
        }
        let direct: Vec<(CellKey, CellSummary)> = merged.into_iter().collect();
        assert!(direct.iter().any(|(_, s)| s.count() > 0));
        assert_eq!(s.fetch_partials(&cells).unwrap(), direct);
    }

    #[test]
    fn concurrent_fetches_are_charged_for_exactly_the_blocks_they_read() {
        // Two fetches race over the same cold blocks: whichever inserts a
        // frame first turns the other's later blocks into hits. Each block
        // is decided hit or read once, so charged reads == disk reads.
        let s = charged_store(MS, Duration::ZERO);
        let cells = block_cells(16);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    barrier.wait();
                    s.fetch_partials(&cells).unwrap();
                });
            }
        });
        let reads = s.disk_stats().reads();
        assert!((16..=32).contains(&reads), "{reads} reads");
        assert_eq!(counter(&s, "dfs.charge.disk_ns"), MS * reads as u32);
        assert_eq!(
            s.metrics().counter("dfs.frame_cache.miss").get(),
            reads,
            "every miss is a read"
        );
    }

    /// [`FixedSource`] that records the thread of every frame read.
    #[derive(Default)]
    struct ThreadRecordingSource {
        readers: std::sync::Mutex<Vec<std::thread::ThreadId>>,
    }

    impl BlockSource for ThreadRecordingSource {
        fn read_block(&self, key: BlockKey) -> Vec<Observation> {
            FixedSource.read_block(key)
        }
        fn block_bytes(&self, geohash: Geohash) -> usize {
            FixedSource.block_bytes(geohash)
        }
        fn n_attrs(&self) -> usize {
            FixedSource.n_attrs()
        }
        fn read_frame(&self, key: BlockKey, spatial_res: u8) -> BlockFrame {
            self.readers
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            FixedSource.read_frame(key, spatial_res)
        }
    }

    #[test]
    fn multi_block_fetch_reads_on_the_calling_thread() {
        // The fetch's own thread is spindle and scanner: no block of a
        // multi-block fetch is read anywhere else, whether every block is
        // cold or some are already cached.
        let (bbox, time) = domain();
        let source = Arc::new(ThreadRecordingSource::default());
        let s = NodeStore::new(
            0,
            Partitioner::new(1, 2),
            3,
            bbox,
            time,
            DiskModel::free(),
            source.clone(),
            10_000,
        );
        let cells = block_cells(8);
        let me = std::thread::current().id();
        // Cold: all eight blocks are read.
        s.fetch_partials(&cells).unwrap();
        assert_eq!(source.readers.lock().unwrap().len(), 8);
        // Warm: the cached blocks are hits, the four dropped ones re-read.
        for cell in &cells[..4] {
            let block = BlockKey {
                geohash: cell.geohash,
                day: cell.time,
            };
            assert!(s.frame_cache().remove(&block) > 0);
        }
        s.fetch_partials(&cells).unwrap();
        let readers = source.readers.lock().unwrap();
        assert_eq!(readers.len(), 12);
        assert!(readers.iter().all(|&t| t == me), "{readers:?}");
    }

    /// Appendable source for the append-path tests: each block starts with
    /// the first half of its generated rows and grows by appended batches.
    struct AppendableSource {
        gen: NamGenerator,
        overlay: std::sync::Mutex<HashMap<BlockKey, (u64, Vec<Observation>)>>,
    }

    impl AppendableSource {
        fn new(gen: NamGenerator) -> Self {
            AppendableSource {
                gen,
                overlay: std::sync::Mutex::new(HashMap::new()),
            }
        }
    }

    impl BlockSource for AppendableSource {
        fn read_block(&self, key: BlockKey) -> Vec<Observation> {
            let mut rows = self.gen.base_rows(key.geohash, key.day, 0.5);
            if let Some((_, appended)) = self.overlay.lock().unwrap().get(&key) {
                rows.extend(appended.iter().cloned());
            }
            rows
        }
        fn block_bytes(&self, geohash: Geohash) -> usize {
            self.gen.block_bytes(geohash)
        }
        fn n_attrs(&self) -> usize {
            self.gen.schema().len()
        }
        fn block_version(&self, key: BlockKey) -> u64 {
            self.overlay
                .lock()
                .unwrap()
                .get(&key)
                .map_or(0, |(v, _)| *v)
        }
        fn append(&self, key: BlockKey, seq: u64, rows: &[Observation]) -> AppendOutcome {
            let mut overlay = self.overlay.lock().unwrap();
            let entry = overlay.entry(key).or_insert_with(|| (0, Vec::new()));
            match seq.cmp(&entry.0) {
                std::cmp::Ordering::Less => AppendOutcome::Duplicate,
                std::cmp::Ordering::Greater => AppendOutcome::OutOfOrder,
                std::cmp::Ordering::Equal => {
                    entry.1.extend(rows.iter().cloned());
                    entry.0 += 1;
                    AppendOutcome::Applied { version: entry.0 }
                }
            }
        }
    }

    #[test]
    fn append_invalidates_cached_frame_and_serves_new_rows() {
        let (bbox, time) = domain();
        let cfg = GeneratorConfig {
            seed: 11,
            obs_per_deg2_per_day: 200.0,
            max_obs_per_block: 50_000,
            value_quantum: 0.0,
        };
        let src = Arc::new(AppendableSource::new(NamGenerator::new(cfg)));
        let s = NodeStore::new(
            0,
            Partitioner::new(1, 2),
            3,
            bbox,
            time,
            DiskModel::free(),
            Arc::clone(&src) as Arc<dyn BlockSource>,
            10_000,
        );
        let cell = day_cell("9xj6");
        let bk = BlockKey {
            geohash: Geohash::from_str("9xj").unwrap(),
            day: cell.time,
        };
        let cold = s.fetch_partials(&[cell]).unwrap();
        assert!(s.frame_cache().contains(&bk, 4, 0));

        let tail = src.gen.tail_rows(bk.geohash, bk.day, 0.5);
        assert!(!tail.is_empty());
        assert_eq!(
            s.append_block(bk, 0, &tail),
            AppendOutcome::Applied { version: 1 }
        );
        assert_eq!(
            s.metrics().counter("dfs.append.rows").get(),
            tail.len() as u64
        );
        assert_eq!(
            s.metrics().counter("dfs.append.frames_invalidated").get(),
            1
        );
        assert!(
            !s.frame_cache().contains(&bk, 4, 1),
            "frame dropped eagerly"
        );

        // The next fetch re-decodes at version 1 and sees the full block:
        // the result matches a sealed store over the complete dataset.
        let fresh = s.fetch_partials(&[cell]).unwrap();
        let full = store(0, 1).fetch_partials(&[cell]).unwrap();
        assert!(cold[0].1.count() < fresh[0].1.count());
        assert_eq!(fresh, full);
        assert!(s.frame_cache().contains(&bk, 4, 1));
    }

    #[test]
    fn duplicate_and_out_of_order_appends_leave_storage_unchanged() {
        let (bbox, time) = domain();
        let src = Arc::new(AppendableSource::new(NamGenerator::new(
            GeneratorConfig::default(),
        )));
        let s = NodeStore::new(
            0,
            Partitioner::new(1, 2),
            3,
            bbox,
            time,
            DiskModel::free(),
            Arc::clone(&src) as Arc<dyn BlockSource>,
            10_000,
        );
        let cell = day_cell("9xj6");
        let bk = BlockKey {
            geohash: Geohash::from_str("9xj").unwrap(),
            day: cell.time,
        };
        let tail = src.gen.tail_rows(bk.geohash, bk.day, 0.5);
        let half = tail.len() / 2;
        assert_eq!(
            s.append_block(bk, 0, &tail[..half]),
            AppendOutcome::Applied { version: 1 }
        );
        let rows_after_first = src.read_block(bk).len();
        // A retried batch and a gap both leave rows and version alone.
        assert_eq!(
            s.append_block(bk, 0, &tail[..half]),
            AppendOutcome::Duplicate
        );
        assert_eq!(
            s.append_block(bk, 2, &tail[half..]),
            AppendOutcome::OutOfOrder
        );
        assert_eq!(src.read_block(bk).len(), rows_after_first);
        assert_eq!(src.block_version(bk), 1);
        assert_eq!(
            s.append_block(bk, 1, &tail[half..]),
            AppendOutcome::Applied { version: 2 }
        );
        assert_eq!(
            src.read_block(bk).len(),
            src.gen.block_for_day(bk.geohash, bk.day).len()
        );
    }

    #[test]
    fn sealed_source_rejects_appends() {
        let s = store(0, 1);
        let cell = day_cell("9xj6");
        let bk = BlockKey {
            geohash: Geohash::from_str("9xj").unwrap(),
            day: cell.time,
        };
        assert_eq!(s.append_block(bk, 0, &[]), AppendOutcome::Unsupported);
        assert_eq!(s.metrics().counter("dfs.append.rows").get(), 0);
    }

    #[test]
    #[should_panic(expected = "nest within partitions")]
    fn block_len_must_cover_partition_prefix() {
        let (bbox, time) = domain();
        let source = Arc::new(GenSource(NamGenerator::new(GeneratorConfig::default())));
        NodeStore::new(
            0,
            Partitioner::new(2, 3),
            2,
            bbox,
            time,
            DiskModel::free(),
            source,
            10,
        );
    }
}

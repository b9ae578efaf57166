//! The per-node STASH graph: levels of Cells, freshness, and replacement.
//!
//! One `StashGraph` is a node's shard of the logical graph `G_STASH =
//! (V, {E_H, E_L})` (§IV). Vertices live in per-level hash maps ("a map of
//! distributed hash tables instead of a conventional graph storage system",
//! §I-B); edges are never stored — parent/children/neighbor Cells are found
//! by key arithmetic, the paper's "composable vertex discovery schemes"
//! (§IV-D). The graph owns:
//!
//! * the **PLM** ([`crate::plm::Plm`]) kept in lock-step with the maps;
//! * **freshness** scores and their dispersion to the spatiotemporal
//!   neighborhood of accessed regions (§V-C2, Fig. 3);
//! * **replacement**: when the Cell count crosses the configured threshold,
//!   lowest-freshness Cells are evicted until the safe limit (§V-C) — one
//!   pass per evaluation, in its [`StashGraph::upkeep`].
//!
//! Locking: one `RwLock` per level keeps cross-level operations (a query
//! touches one level; derivation touches two) from contending, and
//! freshness bumps use atomics so the cache-hit path only takes read locks.
//! Each level's lock also guards a count of its Cells per time bin, changed
//! with the map, which dispersal reads to skip bins that hold nothing.

use crate::clock::LogicalClock;
use crate::config::StashConfig;
use crate::freshness::Freshness;
use crate::fx::{FxHashMap, FxHashSet};
use crate::plm::Plm;
use parking_lot::RwLock;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::key::ancestors_at;
use stash_model::level::NUM_LEVELS;
use stash_model::{Cell, CellKey, CellSummary, Level};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

struct Entry {
    cell: Cell,
    fresh: Freshness,
}

/// One level's Cells and how many of them sit in each time bin
/// (`TimeBin::idx`; a bin that holds none has no entry). Both change
/// together, under the level's write lock.
#[derive(Default)]
struct LevelCells {
    cells: FxHashMap<CellKey, Entry>,
    per_bin: FxHashMap<i64, usize>,
}

impl LevelCells {
    fn holds_bin(&self, idx: i64) -> bool {
        self.per_bin.contains_key(&idx)
    }

    /// Insert or replace; returns whether `key` is new to the level.
    fn insert(&mut self, key: CellKey, entry: Entry) -> bool {
        let added = self.cells.insert(key, entry).is_none();
        if added {
            *self.per_bin.entry(key.time.idx).or_insert(0) += 1;
        }
        added
    }

    /// Remove; returns whether `key` was held.
    fn remove(&mut self, key: &CellKey) -> bool {
        if self.cells.remove(key).is_none() {
            return false;
        }
        let n = self
            .per_bin
            .get_mut(&key.time.idx)
            .expect("a held Cell's bin is counted");
        *n -= 1;
        if *n == 0 {
            self.per_bin.remove(&key.time.idx);
        }
        true
    }

    fn clear(&mut self) {
        self.cells.clear();
        self.per_bin.clear();
    }
}

/// One distinct time bin of a dispersal region and the (level, bin) pairs
/// its keys can disperse to that hold a Cell: the key's own bin at the
/// region's level (the spatial ring), the bins before and after it, the own
/// bin one geohash digit up, and the temporal parent bin at the two coarser
/// levels.
#[derive(Clone, Copy)]
struct BinReach {
    bin: TimeBin,
    ring: bool,
    prev: bool,
    next: bool,
    spatial: bool,
    parent: Option<TimeBin>,
    temporal: bool,
    both: bool,
}

impl BinReach {
    fn new(bin: TimeBin) -> Self {
        BinReach {
            bin,
            ring: false,
            prev: false,
            next: false,
            spatial: false,
            parent: None,
            temporal: false,
            both: false,
        }
    }
}

/// Per-level monitoring counters (relaxed atomics).
#[derive(Debug, Default)]
pub struct LevelStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub insertions: AtomicU64,
    pub evictions: AtomicU64,
    /// Freshness dispersal bumps applied to cached neighbors (§V-C2).
    pub dispersals: AtomicU64,
    /// Neighborhood keys looked up to apply them: `dispersals` over this is
    /// the useful share of dispersal work.
    pub dispersal_probes: AtomicU64,
}

/// Monitoring counters (relaxed atomics).
///
/// Totals plus a per-level breakdown ([`GraphStats::level`]) and the PLM's
/// completeness outcomes: every lookup lands in exactly one of
/// `plm_fresh` (cached, servable), `plm_stale` (cached but invalidated),
/// or `plm_absent` (not cached).
#[derive(Debug)]
pub struct GraphStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub derived: AtomicU64,
    pub insertions: AtomicU64,
    pub evictions: AtomicU64,
    /// Full replacement passes triggered by a threshold breach (each pass
    /// scores every cached Cell; see [`StashGraph::evict_if_needed`]).
    pub evict_passes: AtomicU64,
    /// Neighborhood freshness bumps applied by [`StashGraph::touch_region`].
    pub dispersals: AtomicU64,
    /// Neighborhood keys [`StashGraph::touch_region`] looked up (attempted;
    /// `dispersals` is the useful part).
    pub dispersal_probes: AtomicU64,
    pub plm_fresh: AtomicU64,
    pub plm_stale: AtomicU64,
    pub plm_absent: AtomicU64,
    levels: Vec<LevelStats>,
}

impl Default for GraphStats {
    fn default() -> Self {
        GraphStats {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            derived: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            evict_passes: AtomicU64::new(0),
            dispersals: AtomicU64::new(0),
            dispersal_probes: AtomicU64::new(0),
            plm_fresh: AtomicU64::new(0),
            plm_stale: AtomicU64::new(0),
            plm_absent: AtomicU64::new(0),
            levels: (0..NUM_LEVELS).map(|_| LevelStats::default()).collect(),
        }
    }
}

impl GraphStats {
    /// This level's slice of the counters.
    pub fn level(&self, level: Level) -> &LevelStats {
        &self.levels[level.index() as usize]
    }

    fn plm_outcome(&self, fresh: u64, stale: u64, absent: u64) {
        self.plm_fresh.fetch_add(fresh, Ordering::Relaxed);
        self.plm_stale.fetch_add(stale, Ordering::Relaxed);
        self.plm_absent.fetch_add(absent, Ordering::Relaxed);
    }
}

/// One node's in-memory STASH graph.
pub struct StashGraph {
    config: StashConfig,
    levels: Vec<RwLock<LevelCells>>,
    plm: RwLock<Plm>,
    count: AtomicUsize,
    clock: Arc<LogicalClock>,
    stats: GraphStats,
}

impl StashGraph {
    pub fn new(config: StashConfig, clock: Arc<LogicalClock>) -> Self {
        config.validate();
        StashGraph {
            config,
            levels: (0..NUM_LEVELS)
                .map(|_| RwLock::new(LevelCells::default()))
                .collect(),
            plm: RwLock::new(Plm::new()),
            count: AtomicUsize::new(0),
            clock,
            stats: GraphStats::default(),
        }
    }

    pub fn config(&self) -> &StashConfig {
        &self.config
    }

    pub fn clock(&self) -> &Arc<LogicalClock> {
        &self.clock
    }

    pub fn stats(&self) -> &GraphStats {
        &self.stats
    }

    /// Cells currently held.
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn level_map(&self, key: &CellKey) -> &RwLock<LevelCells> {
        &self.levels[key.level().index() as usize]
    }

    /// Is the Cell cached and fresh (PLM check)?
    pub fn contains_fresh(&self, key: &CellKey) -> bool {
        self.plm.read().is_fresh(key)
    }

    /// Completeness check for a set of target keys (§IV-D): which must be
    /// fetched or derived.
    pub fn missing_of(&self, keys: &[CellKey]) -> Vec<CellKey> {
        let plm = self.plm.read();
        keys.iter().filter(|k| !plm.is_fresh(k)).copied().collect()
    }

    /// Cache lookup. Bumps the Cell's freshness by `f_inc` (direct access)
    /// and counts a hit/miss. Stale Cells miss (their summaries may no
    /// longer match storage).
    pub fn get(&self, key: &CellKey) -> Option<Cell> {
        let lstats = self.stats.level(key.level());
        {
            let plm = self.plm.read();
            if !plm.is_fresh(key) {
                if plm.is_stale(key) {
                    self.stats.plm_outcome(0, 1, 0);
                } else {
                    self.stats.plm_outcome(0, 0, 1);
                }
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                lstats.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        }
        let map = self.level_map(key).read();
        match map.cells.get(key) {
            Some(entry) => {
                entry
                    .fresh
                    .bump(StashConfig::F_INC, self.clock.now(), self.config.decay_tau);
                self.stats.plm_outcome(1, 0, 0);
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                lstats.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.cell.clone())
            }
            None => {
                // PLM said fresh but the Cell vanished between locks
                // (concurrent eviction): a miss, absent by the time we read.
                self.stats.plm_outcome(0, 0, 1);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                lstats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Batched cache lookup for one query's keys: one lock acquisition and
    /// one PLM pass per level instead of one per key — the difference
    /// between ~10 and ~10 000 atomic RMWs per evaluation. Returns hit
    /// Cells and the missing keys, preserving key order within each group.
    pub fn get_many(&self, keys: &[CellKey]) -> (Vec<Cell>, Vec<CellKey>) {
        let now = self.clock.now();
        let tau = self.config.decay_tau;
        let mut hits = Vec::with_capacity(keys.len());
        let mut missing = Vec::new();
        // Group contiguous runs by level (queries are single-level, so this
        // loop body usually runs once).
        let mut i = 0;
        while i < keys.len() {
            let level = keys[i].level();
            let mut j = i;
            while j < keys.len() && keys[j].level() == level {
                j += 1;
            }
            let group = &keys[i..j];
            let (mut fresh_n, mut stale_n, mut absent_n) = (0u64, 0u64, 0u64);
            {
                let plm = self.plm.read();
                let map = self.levels[level.index() as usize].read();
                for key in group {
                    match map.cells.get(key) {
                        Some(entry) if !plm.is_stale(key) => {
                            entry.fresh.bump(StashConfig::F_INC, now, tau);
                            hits.push(entry.cell.clone());
                            fresh_n += 1;
                        }
                        Some(_) => {
                            missing.push(*key);
                            stale_n += 1;
                        }
                        None => {
                            missing.push(*key);
                            absent_n += 1;
                        }
                    }
                }
            }
            self.stats.plm_outcome(fresh_n, stale_n, absent_n);
            let lstats = self.stats.level(level);
            lstats.hits.fetch_add(fresh_n, Ordering::Relaxed);
            lstats
                .misses
                .fetch_add(stale_n + absent_n, Ordering::Relaxed);
            i = j;
        }
        self.stats
            .hits
            .fetch_add(hits.len() as u64, Ordering::Relaxed);
        self.stats
            .misses
            .fetch_add(missing.len() as u64, Ordering::Relaxed);
        (hits, missing)
    }

    /// Lookup without touching freshness or counters (replication snapshots,
    /// tests).
    pub fn peek(&self, key: &CellKey) -> Option<Cell> {
        let map = self.level_map(key).read();
        map.cells.get(key).map(|e| e.cell.clone())
    }

    /// Effective freshness of a cached Cell at the current tick.
    pub fn freshness_of(&self, key: &CellKey) -> Option<f64> {
        let map = self.level_map(key).read();
        map.cells
            .get(key)
            .map(|e| e.fresh.effective(self.clock.now(), self.config.decay_tau))
    }

    /// Insert (or replace) one Cell with initial freshness `f_inc`.
    /// Triggers replacement when the budget is exceeded.
    pub fn insert(&self, cell: Cell) {
        self.insert_with_freshness(cell, StashConfig::F_INC);
        self.evict_if_needed();
    }

    /// Bulk insert — the post-fetch population path ("the population of
    /// Cells fetched from disk to memory", §VIII-C2). Runs no replacement
    /// pass: the evaluation's [`StashGraph::upkeep`] does, once per share.
    pub fn insert_many(&self, cells: impl IntoIterator<Item = Cell>) {
        for cell in cells {
            self.insert_with_freshness(cell, StashConfig::F_INC);
        }
    }

    /// Insert preserving an explicit freshness score (guest-graph
    /// replication ships scores along with Cells).
    pub fn insert_with_freshness(&self, cell: Cell, score: f64) {
        let key = cell.key;
        let now = self.clock.now();
        let mut map = self.level_map(&key).write();
        let added = map.insert(
            key,
            Entry {
                cell,
                fresh: Freshness::new(score, now),
            },
        );
        drop(map);
        if added {
            self.count.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.insertions.fetch_add(1, Ordering::Relaxed);
        self.stats
            .level(key.level())
            .insertions
            .fetch_add(1, Ordering::Relaxed);
        self.plm.write().mark_cached(&key);
    }

    /// Try to *derive* a missing coarse Cell by merging cached children
    /// (§V-B condition (b): disk is only touched when the value cannot be
    /// computed "from the existing cached values"). Spatial children are
    /// tried first (fixed fan-out 32), then temporal children. The derived
    /// Cell is inserted so later queries hit directly; like
    /// [`StashGraph::insert_many`], without a replacement pass.
    pub fn try_derive(&self, key: &CellKey) -> Option<Cell> {
        let derived = self
            .try_derive_from(key, key.spatial_children()?)
            .or_else(|| self.try_derive_from(key, key.temporal_children()?))?;
        self.stats.derived.fetch_add(1, Ordering::Relaxed);
        self.insert_with_freshness(derived.clone(), StashConfig::F_INC);
        Some(derived)
    }

    fn try_derive_from(&self, key: &CellKey, children: Vec<CellKey>) -> Option<Cell> {
        {
            let plm = self.plm.read();
            if !children.iter().all(|c| plm.is_fresh(c)) {
                return None;
            }
        }
        // All children are one level below `key`, same map.
        let map = self.level_map(&children[0]).read();
        let mut cells = Vec::with_capacity(children.len());
        for c in &children {
            // A child may have been evicted between the PLM check and here;
            // bail out rather than derive from an incomplete set.
            cells.push(&map.cells.get(c)?.cell);
        }
        let n_attrs = cells[0].summary.n_attrs();
        Some(Cell::from_children(*key, n_attrs, cells))
    }

    /// Region-level freshness update (§V-C2): every cached Cell in the
    /// immediate spatiotemporal neighborhood of the accessed region — the
    /// lateral neighbors that are not themselves region Cells, plus every
    /// region Cell's parents; the grey cells of Fig. 3 — gets
    /// `+f_inc * neighbor_fraction`, **exactly once per call** however many
    /// region Cells it borders. Cells of the region itself got their direct
    /// bump in [`StashGraph::get`] / [`StashGraph::get_many`] or were just
    /// inserted.
    ///
    /// The neighborhood is planned once per call in grid coordinates, not
    /// Cell by Cell, and only where Cells live: no candidate is generated
    /// for a (level, time bin) that holds no Cell (DESIGN.md §5). Any key
    /// order is correct; the order [`stash_model::AggQuery::target_keys`]
    /// produces (bin by bin, geohash ordered) is the fast one.
    pub fn touch_region(&self, region: &[CellKey]) {
        self.touch_region_at(region, self.clock.now());
    }

    /// What an evaluation leaves to do once its answer is out (§V-C): the
    /// replacement pass, then the accessed region's freshness dispersal,
    /// both at `tick`, the tick the evaluation ran at. Neither changes the
    /// answer, so an owner replies first and runs this after; it must run
    /// before any later evaluation of this graph advances the clock for
    /// freshness to come out as if it had run inside the evaluation.
    pub fn upkeep(&self, region: &[CellKey], tick: u64) {
        self.evict_at(tick);
        self.touch_region_at(region, tick);
    }

    fn touch_region_at(&self, region: &[CellKey], now: u64) {
        if region.is_empty() || self.config.neighbor_fraction == 0.0 {
            return;
        }
        // Candidate keys by the level they live at. A query's region is one
        // level; each level of a mixed region adds to at most four.
        let mut plan: Vec<(Level, Vec<CellKey>)> = Vec::new();
        let mut planned: Vec<Level> = Vec::new();
        for key in region {
            let level = key.level();
            if !planned.contains(&level) {
                planned.push(level);
                self.plan_dispersal(level, region, &mut plan);
            }
        }

        let tau = self.config.decay_tau;
        let frac = StashConfig::F_INC * self.config.neighbor_fraction;
        for (level, mut candidates) in plan {
            // One sort makes "once each" hold across region Cells sharing a
            // neighbor and across the levels of a mixed region.
            candidates.sort_unstable();
            candidates.dedup();
            let mut dispersed = 0u64;
            {
                let map = self.levels[level.index() as usize].read();
                for n in &candidates {
                    if let Some(e) = map.cells.get(n) {
                        e.fresh.bump(frac, now, tau);
                        dispersed += 1;
                    }
                }
            }
            let probes = candidates.len() as u64;
            let lstats = self.stats.level(level);
            self.stats
                .dispersal_probes
                .fetch_add(probes, Ordering::Relaxed);
            lstats.dispersal_probes.fetch_add(probes, Ordering::Relaxed);
            if dispersed > 0 {
                self.stats
                    .dispersals
                    .fetch_add(dispersed, Ordering::Relaxed);
                lstats.dispersals.fetch_add(dispersed, Ordering::Relaxed);
            }
        }
    }

    /// The dispersal candidates contributed by the region keys of one
    /// `level`, appended to `plan` under each candidate's own level:
    /// lateral neighbors that are not region keys, then the three parents.
    ///
    /// Nothing is generated for a (level, time bin) that holds no Cell. The
    /// per-bin counts are read once per distinct bin of the region, each
    /// target level under one short read lock at plan time — the lookups
    /// take it again — so a Cell inserted into an empty bin meanwhile is
    /// not bumped, as it never was under a whole-level emptiness check.
    fn plan_dispersal(
        &self,
        level: Level,
        region: &[CellKey],
        plan: &mut Vec<(Level, Vec<CellKey>)>,
    ) {
        let (len, res) = (level.spatial_res(), level.temporal_res());
        let keys = || {
            region
                .iter()
                .filter(|k| k.geohash.len() == len && k.time.res == res)
        };
        let at = |spatial_res: u8, temporal_res: Option<TemporalRes>| {
            Level::of(spatial_res, temporal_res?).ok()
        };
        let spatial_level = at(len - 1, Some(res));
        let temporal_level = at(len, res.coarser());
        let both_level = at(len - 1, res.coarser());

        // The region's distinct bins (runs first: keys come bin by bin),
        // each with the (level, bin) pairs it can reach that hold a Cell.
        let mut bins: Vec<BinReach> = Vec::new();
        for k in keys() {
            if bins.last().map(|b| b.bin) != Some(k.time) {
                bins.push(BinReach::new(k.time));
            }
        }
        bins.sort_unstable_by_key(|b| b.bin.idx);
        bins.dedup_by_key(|b| b.bin.idx);
        self.mark_bins(Some(level), &mut bins, |cells, b| {
            b.ring = cells.holds_bin(b.bin.idx);
            b.prev = cells.holds_bin(b.bin.idx - 1);
            b.next = cells.holds_bin(b.bin.idx + 1);
        });
        self.mark_bins(spatial_level, &mut bins, |cells, b| {
            b.spatial = cells.holds_bin(b.bin.idx);
        });
        if temporal_level.is_some() {
            // One calendar conversion per distinct bin of the share.
            for b in &mut bins {
                b.parent = b.bin.parent();
            }
            let parent_held =
                |cells: &LevelCells, b: &BinReach| b.parent.is_some_and(|p| cells.holds_bin(p.idx));
            self.mark_bins(temporal_level, &mut bins, |cells, b| {
                b.temporal = parent_held(cells, b);
            });
            self.mark_bins(both_level, &mut bins, |cells, b| {
                b.both = parent_held(cells, b);
            });
        }
        let mut cursor = 0;
        let mut reach = |k: &CellKey| {
            if bins[cursor].bin.idx != k.time.idx {
                cursor = bins
                    .binary_search_by_key(&k.time.idx, |b| b.bin.idx)
                    .expect("every region bin is listed");
            }
            bins[cursor]
        };

        let mut lateral = Vec::new();
        if bins.iter().any(|b| b.ring || b.prev || b.next) {
            // Region membership in grid coordinates: (time index, row and
            // column packed — an axis has at most 30 bits). A ring is walked
            // by integer arithmetic and only the boxes outside the region
            // are interleaved back into geohashes.
            let pack = |lat: u64, lon: u64| lat << 32 | lon;
            let members: FxHashSet<(i64, u64)> = keys()
                .map(|k| {
                    let (lat, lon) = k.geohash.grid_index();
                    (k.time.idx, pack(lat, lon))
                })
                .collect();
            let (lat_bits, lon_bits) = Geohash::axis_bits(len);
            let (lat_end, lon_mask) = (1u64 << lat_bits, (1u64 << lon_bits) - 1);
            for k in keys() {
                let b = reach(k);
                let (lat, lon) = k.geohash.grid_index();
                if b.ring {
                    for nlat in [lat.wrapping_sub(1), lat, lat + 1] {
                        if nlat >= lat_end {
                            continue; // no neighbor beyond the poles
                        }
                        // Columns wrap across the antimeridian.
                        for nlon in [lon.wrapping_sub(1) & lon_mask, lon, (lon + 1) & lon_mask] {
                            let own = nlat == lat && nlon == lon;
                            if !own && !members.contains(&(k.time.idx, pack(nlat, nlon))) {
                                let geohash = Geohash::from_grid_index(nlat, nlon, len)
                                    .expect("row range-checked, column masked");
                                lateral.push(CellKey::new(geohash, k.time));
                            }
                        }
                    }
                }
                for (t, held) in [(k.time.prev(), b.prev), (k.time.next(), b.next)] {
                    if held && !members.contains(&(t.idx, pack(lat, lon))) {
                        lateral.push(CellKey::new(k.geohash, t));
                    }
                }
            }
        }

        let (mut spatial, mut temporal, mut both) = (Vec::new(), Vec::new(), Vec::new());
        if bins.iter().any(|b| b.spatial || b.temporal || b.both) {
            // Runs of siblings push one parent; the sort catches the rest.
            let push_run = |out: &mut Vec<CellKey>, key: CellKey| {
                if out.last() != Some(&key) {
                    out.push(key);
                }
            };
            for k in keys() {
                let b = reach(k);
                if b.spatial {
                    let geohash = k.geohash.parent().expect("a spatial parent level: len > 1");
                    push_run(&mut spatial, CellKey::new(geohash, k.time));
                }
                let Some(bin) = b.parent else { continue };
                if b.temporal {
                    push_run(&mut temporal, CellKey::new(k.geohash, bin));
                }
                if b.both {
                    let geohash = k.geohash.parent().expect("a parent level: len > 1");
                    push_run(&mut both, CellKey::new(geohash, bin));
                }
            }
        }

        let targets = [
            (Some(level), lateral),
            (spatial_level, spatial),
            (temporal_level, temporal),
            (both_level, both),
        ];
        for (level, mut keys) in targets {
            let Some(level) = level.filter(|_| !keys.is_empty()) else {
                continue;
            };
            match plan.iter_mut().find(|(l, _)| *l == level) {
                Some((_, planned)) => planned.append(&mut keys),
                None => plan.push((level, keys)),
            }
        }
    }

    /// Sets `bins`' flags for one target level from its per-bin counts,
    /// under one read lock; `None` (beyond a hierarchy's top) sets none.
    fn mark_bins(
        &self,
        level: Option<Level>,
        bins: &mut [BinReach],
        mark: impl Fn(&LevelCells, &mut BinReach),
    ) {
        if let Some(level) = level {
            let cells = self.levels[level.index() as usize].read();
            bins.iter_mut().for_each(|b| mark(&cells, b));
        }
    }

    /// Replacement (§V-C): evict lowest-freshness Cells until the count is
    /// at the safe limit. Stale Cells rank below everything (their data is
    /// wrong anyway).
    pub fn evict_if_needed(&self) -> usize {
        self.evict_at(self.clock.now())
    }

    /// [`StashGraph::evict_if_needed`], scoring freshness at tick `now`.
    fn evict_at(&self, now: u64) -> usize {
        if self.len() <= self.config.max_cells {
            return 0;
        }
        let target = self.config.safe_limit();
        self.stats.evict_passes.fetch_add(1, Ordering::Relaxed);
        let tau = self.config.decay_tau;
        // Score every cached cell. Eviction is rare and O(n log n) here;
        // the paper accepts a full replacement pass on threshold breach.
        let mut scored: Vec<(f64, CellKey)> = Vec::with_capacity(self.len());
        {
            let plm = self.plm.read();
            for level in &self.levels {
                let map = level.read();
                for (key, entry) in map.cells.iter() {
                    let mut score = entry.fresh.effective(now, tau);
                    if plm.is_stale(key) {
                        score = -1.0; // stale cells leave first
                    }
                    scored.push((score, *key));
                }
            }
        }
        let excess = scored.len().saturating_sub(target);
        if excess == 0 {
            return 0;
        }
        scored.select_nth_unstable_by(excess - 1, |a, b| a.0.total_cmp(&b.0));
        let victims: Vec<CellKey> = scored[..excess].iter().map(|(_, k)| *k).collect();
        self.remove_many(&victims);
        self.stats
            .evictions
            .fetch_add(victims.len() as u64, Ordering::Relaxed);
        for v in &victims {
            self.stats
                .level(v.level())
                .evictions
                .fetch_add(1, Ordering::Relaxed);
        }
        victims.len()
    }

    /// Remove specific Cells (used by eviction and guest purging).
    pub fn remove_many(&self, keys: &[CellKey]) {
        let mut plm = self.plm.write();
        for key in keys {
            let mut map = self.level_map(key).write();
            if map.remove(key) {
                self.count.fetch_sub(1, Ordering::Relaxed);
                plm.mark_evicted(key);
            }
        }
    }

    /// Mark cached Cells intersecting an updated storage region as stale
    /// (real-time ingest support, §IV-D). Returns how many were marked.
    pub fn invalidate_region(&self, bbox: &BBox, time: &TimeRange) -> usize {
        let keys = self.keys_intersecting(bbox, time);
        let mut plm = self.plm.write();
        for k in &keys {
            plm.mark_stale(k);
        }
        keys.len()
    }

    /// Delta-patch one cached Cell: merge `delta` (the summary of freshly
    /// ingested rows) into the resident summary. Patching applies only to
    /// *fresh* Cells — the summary monoid makes the merge exact, so the
    /// Cell stays fresh and the PLM is untouched. Stale or absent Cells
    /// return `false`: the caller marks them stale (or leaves them so) and
    /// lets the next query refetch from storage. Returns whether the
    /// resident Cell was patched.
    pub fn patch(&self, key: &CellKey, delta: &CellSummary) -> bool {
        let plm = self.plm.read();
        if !plm.is_fresh(key) {
            return false;
        }
        let mut map = self.level_map(key).write();
        match map.cells.get_mut(key) {
            Some(entry) => {
                entry.cell.summary.merge(delta);
                true
            }
            // PLM said cached but the entry is gone (racing eviction):
            // nothing resident to patch.
            None => false,
        }
    }

    /// Mark an explicit set of keys stale in the PLM (ingest invalidation:
    /// Cells affected by an append that cannot be patched in place).
    /// Absent keys are ignored. Returns how many were marked.
    pub fn mark_stale_keys(&self, keys: &[CellKey]) -> usize {
        let mut plm = self.plm.write();
        let mut marked = 0;
        for k in keys {
            if plm.mark_stale(k) {
                marked += 1;
            }
        }
        marked
    }

    /// The levels at which the PLM holds at least one Cell, ascending —
    /// where an append can find anything to patch or invalidate.
    pub fn occupied_levels(&self) -> Vec<Level> {
        self.plm.read().occupied_levels()
    }

    /// Mark stale every cached Cell that contains one of `fine` (itself
    /// included): each key is projected onto the levels that hold Cells and
    /// only those are probed. Occupancy is read under the same PLM lock the
    /// marks are made under, so a Cell cached before this call is never
    /// skipped. Equal, in bits set and in the count returned, to
    /// [`StashGraph::mark_stale_keys`] over the keys' ancestors at all 48
    /// levels — absent keys were always no-ops.
    pub fn mark_stale_covering(&self, fine: &[CellKey]) -> usize {
        let mut plm = self.plm.write();
        let mut marked = 0;
        for level in plm.occupied_levels() {
            for k in ancestors_at(fine, level) {
                if plm.mark_stale(&k) {
                    marked += 1;
                }
            }
        }
        marked
    }

    /// All cached keys whose Cell bounds intersect the given region.
    pub fn keys_intersecting(&self, bbox: &BBox, time: &TimeRange) -> Vec<CellKey> {
        let mut out = Vec::new();
        for level in &self.levels {
            let map = level.read();
            for key in map.cells.keys() {
                if key.geohash.bbox().intersects(bbox) && key.time.range().intersects(time) {
                    out.push(*key);
                }
            }
        }
        out
    }

    /// `(key, effective freshness)` of every Cell at one level — input to
    /// the Clique finder (§VII-B2).
    pub fn level_scores(&self, level: Level) -> Vec<(CellKey, f64)> {
        let now = self.clock.now();
        let tau = self.config.decay_tau;
        let map = self.levels[level.index() as usize].read();
        map.cells
            .iter()
            .map(|(k, e)| (*k, e.fresh.effective(now, tau)))
            .collect()
    }

    /// Snapshot Cells with their freshness scores for replication. Only
    /// PLM-fresh Cells are taken: the receiving graph caches what it is
    /// handed as fresh, so a stale Cell must not travel ("the PLM helps
    /// identify the stale replicas", §VII-A).
    pub fn snapshot(&self, keys: &[CellKey]) -> Vec<(Cell, f64)> {
        let now = self.clock.now();
        let tau = self.config.decay_tau;
        let mut out = Vec::with_capacity(keys.len());
        let plm = self.plm.read();
        for key in keys.iter().filter(|k| plm.is_fresh(k)) {
            let map = self.level_map(key).read();
            if let Some(e) = map.cells.get(key) {
                out.push((e.cell.clone(), e.fresh.effective(now, tau)));
            }
        }
        out
    }

    /// Drop every Cell (tests, node resets).
    pub fn clear(&self) {
        let mut plm = self.plm.write();
        for level in &self.levels {
            let mut map = level.write();
            for key in map.cells.keys() {
                plm.mark_evicted(key);
            }
            map.clear();
        }
        *plm = Plm::new();
        self.count.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::time::epoch_seconds;
    use std::str::FromStr;

    fn key(gh: &str, res: TemporalRes) -> CellKey {
        CellKey::new(
            Geohash::from_str(gh).unwrap(),
            TimeBin::containing(res, epoch_seconds(2015, 2, 2, 0, 0, 0)),
        )
    }

    fn cell(gh: &str, res: TemporalRes, value: f64) -> Cell {
        let mut c = Cell::empty(key(gh, res), 1);
        c.summary.push_row(&[value]);
        c
    }

    fn graph(config: StashConfig) -> StashGraph {
        StashGraph::new(config, Arc::new(LogicalClock::new()))
    }

    fn small_graph() -> StashGraph {
        graph(StashConfig {
            max_cells: 1000,
            ..Default::default()
        })
    }

    #[test]
    fn insert_get_roundtrip() {
        let g = small_graph();
        let c = cell("9q8y", TemporalRes::Day, 21.5);
        g.insert(c.clone());
        assert_eq!(g.len(), 1);
        assert!(g.contains_fresh(&c.key));
        let got = g.get(&c.key).unwrap();
        assert_eq!(got.summary, c.summary);
        assert_eq!(g.stats().hits.load(Ordering::Relaxed), 1);
        assert!(g.get(&key("9q8z", TemporalRes::Day)).is_none());
        assert_eq!(g.stats().misses.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn reinsert_does_not_double_count() {
        let g = small_graph();
        g.insert(cell("9q8y", TemporalRes::Day, 1.0));
        g.insert(cell("9q8y", TemporalRes::Day, 2.0));
        assert_eq!(g.len(), 1);
        // Latest summary wins.
        let got = g.peek(&key("9q8y", TemporalRes::Day)).unwrap();
        assert_eq!(got.summary.attr(0).unwrap().max(), Some(2.0));
    }

    #[test]
    fn patch_merges_delta_into_fresh_cell_only() {
        let g = small_graph();
        let k = key("9q8y", TemporalRes::Day);
        g.insert(cell("9q8y", TemporalRes::Day, 10.0));
        // Delta = one freshly ingested row.
        let mut delta = CellSummary::empty(1);
        delta.push_row(&[30.0]);
        assert!(g.patch(&k, &delta));
        let got = g.peek(&k).unwrap();
        assert_eq!(got.summary.count(), 2);
        assert_eq!(got.summary.attr(0).unwrap().max(), Some(30.0));
        // Patching keeps the cell fresh: no refetch needed.
        assert!(g.contains_fresh(&k));

        // A stale cell must not be patched (its base is out of date).
        g.mark_stale_keys(&[k]);
        assert!(!g.patch(&k, &delta));
        assert_eq!(g.peek(&k).unwrap().summary.count(), 2, "unchanged");

        // Absent cells cannot be patched either.
        let absent = key("9q8z", TemporalRes::Day);
        assert!(!g.patch(&absent, &delta));
    }

    #[test]
    fn a_served_cell_is_a_snapshot_a_later_patch_cannot_reach() {
        use stash_model::SketchSpec;
        let spec = SketchSpec::standard();
        let k = key("9q8y", TemporalRes::Day);
        let rows = |lo: u32, hi: u32| (lo..hi).map(|i| [i as f64 * 0.5, (i % 7) as f64]);
        let built = |lo: u32, hi: u32| {
            let mut s = CellSummary::empty_with(2, &spec);
            rows(lo, hi).for_each(|r| s.push_row(&r));
            s
        };
        let g = small_graph();
        g.insert(Cell::new(k, built(0, 150)));

        // A reply in flight: what get_many handed out, sketches shared
        // with the resident Cell.
        let (served, missing) = g.get_many(&[k]);
        assert!(missing.is_empty());
        assert!(served[0].summary.has_sketches());

        // Live ingest patches the resident Cell while the reply is held.
        assert!(g.patch(&k, &built(150, 190)));
        assert_eq!(served[0], Cell::new(k, built(0, 150)), "reply changed");

        // The patched resident is what a cold build over all rows gives.
        let mut cold = built(0, 150);
        cold.merge(&built(150, 190));
        assert_eq!(g.peek(&k).unwrap().summary, cold);
    }

    #[test]
    fn mark_stale_keys_counts_transitions_and_skips_absent() {
        let g = small_graph();
        let a = key("9q8y", TemporalRes::Day);
        let b = key("9q8z", TemporalRes::Day);
        let absent = key("9q8v", TemporalRes::Day);
        g.insert(cell("9q8y", TemporalRes::Day, 1.0));
        g.insert(cell("9q8z", TemporalRes::Day, 2.0));
        assert_eq!(g.mark_stale_keys(&[a, b, absent]), 2);
        assert!(!g.contains_fresh(&a));
        assert!(!g.contains_fresh(&b));
        // Idempotent: already-stale cells are not transitions.
        assert_eq!(g.mark_stale_keys(&[a, b, absent]), 0);
        // A stale cell refetched (re-inserted) is fresh and patchable again.
        g.insert(cell("9q8y", TemporalRes::Day, 5.0));
        let mut delta = CellSummary::empty(1);
        delta.push_row(&[7.0]);
        assert!(g.patch(&a, &delta));
    }

    #[test]
    fn mark_stale_covering_equals_marking_every_ancestor() {
        // Twin graphs holding Cells at three levels, one of them unrelated
        // to the appended rows; the reference marks the fine keys' ancestors
        // at all 48 levels.
        let resident = [
            cell("9q8y", TemporalRes::Day, 1.0),
            cell("9q8z", TemporalRes::Day, 2.0),
            cell("9q", TemporalRes::Month, 3.0),
            cell("9q8yy", TemporalRes::Hour, 4.0),
            cell("dr5r", TemporalRes::Day, 5.0),
        ];
        let (g, reference) = (small_graph(), small_graph());
        for c in &resident {
            g.insert(c.clone());
            reference.insert(c.clone());
        }
        assert_eq!(
            g.occupied_levels(),
            vec![
                key("9q", TemporalRes::Month).level(),
                key("9q8y", TemporalRes::Day).level(),
                key("9q8yy", TemporalRes::Hour).level(),
            ]
        );
        let fine = [
            key("9q8yyzzzzzzz", TemporalRes::Hour),
            key("9q8yy0000000", TemporalRes::Hour),
        ];
        let every_level: Vec<CellKey> = (0..NUM_LEVELS as u8)
            .flat_map(|i| ancestors_at(&fine, Level::from_index(i).unwrap()))
            .collect();
        // The two share their first five digits: 7 finer lengths x 4 bins.
        assert_eq!(every_level.len(), NUM_LEVELS + 28);
        assert_eq!(
            g.mark_stale_covering(&fine),
            reference.mark_stale_keys(&every_level)
        );
        for c in &resident {
            assert_eq!(
                g.contains_fresh(&c.key),
                reference.contains_fresh(&c.key),
                "{}",
                c.key
            );
        }
        assert!(g.contains_fresh(&key("9q8z", TemporalRes::Day)));
        assert!(g.contains_fresh(&key("dr5r", TemporalRes::Day)));
        assert!(!g.contains_fresh(&key("9q", TemporalRes::Month)));
        assert_eq!(g.mark_stale_covering(&fine), 0, "no second transition");
    }

    #[test]
    fn missing_of_reports_gaps() {
        let g = small_graph();
        let a = key("9q8y", TemporalRes::Day);
        let b = key("9q8z", TemporalRes::Day);
        g.insert(cell("9q8y", TemporalRes::Day, 1.0));
        assert_eq!(g.missing_of(&[a, b]), vec![b]);
    }

    #[test]
    fn derive_from_complete_spatial_children() {
        let g = small_graph();
        let parent = key("9q8", TemporalRes::Day);
        for (i, ck) in parent.spatial_children().unwrap().into_iter().enumerate() {
            let mut c = Cell::empty(ck, 1);
            c.summary.push_row(&[i as f64]);
            g.insert(c);
        }
        let derived = g.try_derive(&parent).expect("children complete");
        assert_eq!(derived.summary.count(), 32);
        assert_eq!(derived.summary.attr(0).unwrap().min(), Some(0.0));
        assert_eq!(derived.summary.attr(0).unwrap().max(), Some(31.0));
        // Derived cell is now cached for direct hits.
        assert!(g.contains_fresh(&parent));
        assert_eq!(g.stats().derived.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn derive_fails_on_incomplete_children() {
        let g = small_graph();
        let parent = key("9q8", TemporalRes::Day);
        let children = parent.spatial_children().unwrap();
        for ck in children.iter().take(31) {
            g.insert(Cell::empty(*ck, 1));
        }
        assert!(
            g.try_derive(&parent).is_none(),
            "31/32 children must not derive"
        );
    }

    #[test]
    fn derive_from_temporal_children() {
        let g = small_graph();
        let day = key("9q8y", TemporalRes::Day);
        for ck in day.temporal_children().unwrap() {
            let mut c = Cell::empty(ck, 1);
            c.summary.push_row(&[1.0]);
            g.insert(c);
        }
        let derived = g.try_derive(&day).expect("24 hour children present");
        assert_eq!(derived.summary.count(), 24);
    }

    #[test]
    fn eviction_keeps_freshest() {
        let clock = Arc::new(LogicalClock::new());
        let g = StashGraph::new(
            StashConfig {
                max_cells: 64,
                safe_fraction: 0.5,
                decay_tau: 4.0,
                ..Default::default()
            },
            Arc::clone(&clock),
        );
        // Insert 64 cells at tick 0 (fills to the limit).
        let parent = key("9q", TemporalRes::Day);
        let children: Vec<CellKey> = parent.spatial_children().unwrap();
        let grand: Vec<CellKey> = children[0].spatial_children().unwrap();
        for ck in children.iter().chain(grand.iter()) {
            g.insert(Cell::empty(*ck, 1));
        }
        assert_eq!(g.len(), 64);
        // Age everything, then touch the grandchildren to refresh them.
        clock.advance_by(50);
        for ck in &grand {
            g.get(ck);
        }
        // One more insert breaches the budget and triggers replacement.
        g.insert(Cell::empty(key("9r", TemporalRes::Day), 1));
        assert!(g.len() <= 32, "evicted to safe limit, got {}", g.len());
        // The recently-touched grandchildren survived; the stale children
        // are gone.
        let surviving_grand = grand.iter().filter(|k| g.contains_fresh(k)).count();
        let surviving_children = children.iter().filter(|k| g.contains_fresh(k)).count();
        assert!(
            surviving_grand >= 30,
            "fresh cells evicted: {surviving_grand}/32"
        );
        assert_eq!(surviving_children, 0, "stale cells survived eviction");
    }

    #[test]
    fn stale_cells_evicted_first() {
        let g = graph(StashConfig {
            max_cells: 32,
            safe_fraction: 0.5,
            ..Default::default()
        });
        let parent = key("9q", TemporalRes::Day);
        let children: Vec<CellKey> = parent.spatial_children().unwrap();
        for ck in &children {
            g.insert(Cell::empty(*ck, 1));
        }
        // Invalidate half the region.
        let west = children[0].geohash.bbox();
        let mut region = west;
        for ck in children.iter().take(16) {
            region = BBox {
                min_lat: region.min_lat.min(ck.geohash.bbox().min_lat),
                max_lat: region.max_lat.max(ck.geohash.bbox().max_lat),
                min_lon: region.min_lon.min(ck.geohash.bbox().min_lon),
                max_lon: region.max_lon.max(ck.geohash.bbox().max_lon),
            };
        }
        let marked = g.invalidate_region(&region, &parent.time.range());
        assert!(marked >= 16);
        g.insert(Cell::empty(key("9r", TemporalRes::Day), 1));
        // After replacement, no stale cell should remain while fresh ones
        // were evicted unnecessarily.
        let plm_stale: Vec<&CellKey> = children.iter().filter(|k| g.contains_fresh(k)).collect();
        let _ = plm_stale;
        let fresh_remaining = children.iter().filter(|k| g.contains_fresh(k)).count();
        assert!(fresh_remaining > 0, "some fresh cells must survive");
    }

    #[test]
    fn touch_region_disperses_to_neighbors() {
        let g = small_graph();
        // A 3x3 patch of cells: center region = middle cell, neighbors cached.
        let center = key("9q8y7", TemporalRes::Day);
        g.insert(Cell::empty(center, 1));
        for n in center.lateral_neighbors() {
            g.insert(Cell::empty(n, 1));
        }
        let before: Vec<f64> = center
            .lateral_neighbors()
            .iter()
            .map(|n| g.freshness_of(n).unwrap())
            .collect();
        g.touch_region(&[center]);
        for (n, b) in center.lateral_neighbors().iter().zip(before) {
            let after = g.freshness_of(n).unwrap();
            assert!(after > b, "neighbor {n} not boosted: {b} -> {after}");
            // Neighbor boost is the configured fraction of f_inc.
            assert!((after - b - StashConfig::F_INC * g.config().neighbor_fraction).abs() < 1e-9);
        }
    }

    #[test]
    fn touch_region_does_not_create_cells() {
        let g = small_graph();
        let center = key("9q8y7", TemporalRes::Day);
        g.insert(Cell::empty(center, 1));
        g.touch_region(&[center]);
        // Only the center is cached; dispersion must not materialize ghosts.
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn invalidation_marks_stale_and_get_misses() {
        let g = small_graph();
        let c = cell("9q8y", TemporalRes::Day, 5.0);
        g.insert(c.clone());
        let n = g.invalidate_region(&c.key.geohash.bbox(), &c.key.time.range());
        assert_eq!(n, 1);
        assert!(!g.contains_fresh(&c.key));
        assert!(g.get(&c.key).is_none(), "stale cell served");
        // Recomputation (re-insert) restores freshness.
        g.insert(c.clone());
        assert!(g.contains_fresh(&c.key));
    }

    #[test]
    fn snapshot_carries_freshness() {
        let g = small_graph();
        let c = cell("9q8y", TemporalRes::Day, 1.0);
        g.insert(c.clone());
        g.get(&c.key); // bump
        let snap = g.snapshot(&[c.key, key("9q8z", TemporalRes::Day)]);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].0.key, c.key);
        assert!(snap[0].1 > StashConfig::F_INC * 0.9);
    }

    #[test]
    fn snapshot_skips_stale_cells() {
        let g = small_graph();
        let fresh = cell("9q8y", TemporalRes::Day, 1.0);
        let stale = cell("9q8z", TemporalRes::Day, 2.0);
        g.insert(fresh.clone());
        g.insert(stale.clone());
        g.mark_stale_keys(&[stale.key]);
        let snap = g.snapshot(&[fresh.key, stale.key]);
        assert_eq!(snap.len(), 1, "a stale Cell must not be replicated");
        assert_eq!(snap[0].0.key, fresh.key);
    }

    #[test]
    fn clear_resets_everything() {
        let g = small_graph();
        g.insert(cell("9q8y", TemporalRes::Day, 1.0));
        g.clear();
        assert!(g.is_empty());
        assert!(!g.contains_fresh(&key("9q8y", TemporalRes::Day)));
    }

    #[test]
    fn level_scores_lists_level_population() {
        let g = small_graph();
        g.insert(cell("9q8y", TemporalRes::Day, 1.0)); // level (4, Day)
        g.insert(cell("9q8", TemporalRes::Day, 1.0)); // level (3, Day)
        let l4 = Level::of(4, TemporalRes::Day).unwrap();
        let scores = g.level_scores(l4);
        assert_eq!(scores.len(), 1);
        assert_eq!(scores[0].0, key("9q8y", TemporalRes::Day));
        assert!(scores[0].1 > 0.0);
    }

    #[test]
    fn stats_break_down_per_level_and_plm_outcome() {
        let g = small_graph();
        let l4 = Level::of(4, TemporalRes::Day).unwrap();
        let l3 = Level::of(3, TemporalRes::Day).unwrap();
        let c = cell("9q8y", TemporalRes::Day, 1.0);
        g.insert(c.clone()); // level (4, Day)
        g.insert(cell("9q8", TemporalRes::Day, 1.0)); // level (3, Day)
        assert_eq!(g.stats().level(l4).insertions.load(Ordering::Relaxed), 1);
        assert_eq!(g.stats().level(l3).insertions.load(Ordering::Relaxed), 1);

        g.get(&c.key); // fresh hit
        g.get(&key("9q8z", TemporalRes::Day)); // absent
        g.invalidate_region(&c.key.geohash.bbox(), &c.key.time.range());
        g.get(&c.key); // stale
        assert_eq!(g.stats().level(l4).hits.load(Ordering::Relaxed), 1);
        assert_eq!(g.stats().level(l4).misses.load(Ordering::Relaxed), 2);
        assert_eq!(g.stats().level(l3).hits.load(Ordering::Relaxed), 0);
        assert_eq!(g.stats().plm_fresh.load(Ordering::Relaxed), 1);
        assert_eq!(g.stats().plm_absent.load(Ordering::Relaxed), 1);
        assert!(g.stats().plm_stale.load(Ordering::Relaxed) >= 1);

        // Batched lookups classify the same way.
        let (hits, missing) = g.get_many(&[c.key, key("9q8z", TemporalRes::Day)]);
        assert_eq!((hits.len(), missing.len()), (0, 2));
        assert_eq!(g.stats().plm_absent.load(Ordering::Relaxed), 2);
        assert!(g.stats().plm_stale.load(Ordering::Relaxed) >= 2);
    }

    #[test]
    fn dispersal_and_eviction_passes_are_counted() {
        let g = small_graph();
        let center = key("9q8y7", TemporalRes::Day);
        g.insert(Cell::empty(center, 1));
        for n in center.lateral_neighbors() {
            g.insert(Cell::empty(n, 1));
        }
        assert_eq!(g.stats().dispersals.load(Ordering::Relaxed), 0);
        g.touch_region(&[center]);
        let dispersed = g.stats().dispersals.load(Ordering::Relaxed);
        assert_eq!(dispersed, center.lateral_neighbors().len() as u64);
        assert_eq!(
            g.stats()
                .level(center.level())
                .dispersals
                .load(Ordering::Relaxed),
            dispersed
        );

        let g = graph(StashConfig {
            max_cells: 32,
            safe_fraction: 0.5,
            ..Default::default()
        });
        for ck in key("9q", TemporalRes::Day).spatial_children().unwrap() {
            g.insert(Cell::empty(ck, 1));
        }
        assert_eq!(g.stats().evict_passes.load(Ordering::Relaxed), 0);
        g.insert(Cell::empty(key("9r", TemporalRes::Day), 1));
        assert_eq!(g.stats().evict_passes.load(Ordering::Relaxed), 1);
        let evicted = g.stats().evictions.load(Ordering::Relaxed);
        assert!(evicted > 0);
        // All victims are the res-3 children except possibly the lone res-2
        // cell; the per-level split must cover the total.
        let l3 = g.stats().level(Level::of(3, TemporalRes::Day).unwrap());
        let l2 = g.stats().level(Level::of(2, TemporalRes::Day).unwrap());
        let (e3, e2) = (
            l3.evictions.load(Ordering::Relaxed),
            l2.evictions.load(Ordering::Relaxed),
        );
        assert!(
            e3 >= evicted - 1,
            "res-3 victims under-counted: {e3}/{evicted}"
        );
        assert_eq!(e3 + e2, evicted);
    }

    #[test]
    fn concurrent_inserts_and_gets() {
        let g = Arc::new(graph(StashConfig {
            max_cells: 100_000,
            ..Default::default()
        }));
        let parent = key("9q", TemporalRes::Day);
        let children: Vec<CellKey> = parent.spatial_children().unwrap();
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let g = Arc::clone(&g);
                let children = children.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let ck = children[(t * 200 + i) % 32];
                        let mut c = Cell::empty(ck, 1);
                        c.summary.push_row(&[i as f64]);
                        g.insert(c);
                        g.get(&ck);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(g.len(), 32);
        for ck in &children {
            assert!(g.contains_fresh(ck));
        }
    }

    /// The per-Cell dispersal `touch_region` replaced, kept verbatim as the
    /// reference the proptest below pins the planned one to: build every
    /// key's lateral neighbors and parents, drop the laterals that are
    /// region keys, dedup through per-level sets, bump what is cached.
    fn touch_region_reference(g: &StashGraph, region: &[CellKey]) {
        if region.is_empty() || g.config.neighbor_fraction == 0.0 {
            return;
        }
        let now = g.clock.now();
        let tau = g.config.decay_tau;
        let region_set: FxHashSet<&CellKey> = region.iter().collect();
        let mut by_level: FxHashMap<Level, FxHashSet<CellKey>> = FxHashMap::default();
        for key in region {
            for n in key.lateral_neighbors() {
                if !region_set.contains(&n) {
                    by_level.entry(n.level()).or_default().insert(n);
                }
            }
            for p in key.parents() {
                by_level.entry(p.level()).or_default().insert(p);
            }
        }
        let frac = StashConfig::F_INC * g.config.neighbor_fraction;
        for (level, neighbors) in by_level {
            let mut dispersed = 0u64;
            {
                let map = g.levels[level.index() as usize].read();
                for n in &neighbors {
                    if let Some(e) = map.cells.get(n) {
                        e.fresh.bump(frac, now, tau);
                        dispersed += 1;
                    }
                }
            }
            if dispersed > 0 {
                g.stats.dispersals.fetch_add(dispersed, Ordering::Relaxed);
                g.stats
                    .level(level)
                    .dispersals
                    .fetch_add(dispersed, Ordering::Relaxed);
            }
        }
    }

    /// 5x5 blocks of keys (row-major, boxes beyond a pole left out) around
    /// three anchors — mid-latitude, touching the north pole, straddling
    /// the antimeridian — at two geohash lengths, over days with a hole
    /// across a month boundary, the hours around a midnight, and the
    /// months and year above them: every block's parents at all three
    /// precisions are themselves in some block.
    fn dispersal_pool() -> Vec<Vec<CellKey>> {
        let at = |res, (y, m, d, h)| TimeBin::containing(res, epoch_seconds(y, m, d, h, 0, 0));
        let mut bins: Vec<TimeBin> = [(1, 30), (1, 31), (2, 2), (2, 3)]
            .map(|(m, d)| at(TemporalRes::Day, (2015, m, d, 0)))
            .to_vec();
        bins.extend(
            [(1, 31, 22), (1, 31, 23), (2, 1, 0)]
                .map(|(m, d, h)| at(TemporalRes::Hour, (2015, m, d, h))),
        );
        bins.extend([1, 2].map(|m| at(TemporalRes::Month, (2015, m, 1, 0))));
        bins.push(at(TemporalRes::Year, (2015, 1, 1, 0)));
        let mut blocks = Vec::new();
        for (lat, lon) in [(40.0, -100.0), (89.9, 10.0), (0.0, 179.9)] {
            for len in [2u8, 3] {
                let anchor = Geohash::encode(lat, lon, len).unwrap();
                let boxes: Vec<Geohash> = (-2i64..=2)
                    .flat_map(|dy| (-2i64..=2).filter_map(move |dx| anchor.offset(dy, dx)))
                    .collect();
                for &bin in &bins {
                    blocks.push(boxes.iter().map(|&g| CellKey::new(g, bin)).collect());
                }
            }
        }
        blocks
    }

    /// Recounts every level's map and checks it against its per-bin counts
    /// (a bin that holds nothing has no entry) and the graph's total.
    fn audit_bin_counts(g: &StashGraph) {
        let mut total = 0;
        for (i, level) in g.levels.iter().enumerate() {
            let level = level.read();
            let mut recount: FxHashMap<i64, usize> = FxHashMap::default();
            for key in level.cells.keys() {
                *recount.entry(key.time.idx).or_insert(0) += 1;
            }
            assert_eq!(recount, level.per_bin, "per-bin counts of level {i}");
            total += level.cells.len();
        }
        assert_eq!(total, g.len(), "Cells held");
    }

    #[test]
    fn dispersal_probes_only_bins_that_hold_cells() {
        // One day of (4, Day) Cells: a 5x5 block; the region is its middle
        // 3x3, so the lateral ring is the 16 boxes around it. No other level
        // or day holds a Cell, so parents and temporal neighbors are never
        // generated.
        let anchor = key("9q8y", TemporalRes::Day);
        let block = |r: i64| -> Vec<CellKey> {
            (-r..=r)
                .flat_map(|dy| (-r..=r).map(move |dx| (dy, dx)))
                .map(|(dy, dx)| CellKey::new(anchor.geohash.offset(dy, dx).unwrap(), anchor.time))
                .collect()
        };
        let g = small_graph();
        g.insert_many(block(2).into_iter().map(|k| Cell::empty(k, 1)));
        let region = block(1);
        let ring = 16;
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let touch = |g: &StashGraph| {
            let (probes, bumps) = (count(&g.stats.dispersal_probes), count(&g.stats.dispersals));
            g.touch_region(&region);
            audit_bin_counts(g);
            (
                count(&g.stats.dispersal_probes) - probes,
                count(&g.stats.dispersals) - bumps,
            )
        };
        assert_eq!(touch(&g), (ring, ring));

        // A Cell on the next day opens that day's bin: each region key's
        // next-day neighbor is probed, and the one cached is bumped.
        let next_day = CellKey::new(anchor.geohash, anchor.time.next());
        g.insert_many([Cell::empty(next_day, 1)]);
        let before = g.freshness_of(&next_day).unwrap();
        assert_eq!(touch(&g), (ring + region.len() as u64, ring + 1));
        let bumped = g.freshness_of(&next_day).unwrap() - before;
        assert!((bumped - StashConfig::F_INC * g.config.neighbor_fraction).abs() < 1e-9);

        // Removing it closes the bin again.
        g.remove_many(&[next_day]);
        assert_eq!(touch(&g), (ring, ring));
    }

    proptest::proptest! {
        /// Planned dispersal == per-Cell dispersal: the same entries bumped
        /// once each with the same amount at the same tick, over regions of
        /// mixed levels, several days with a hole, pole rows, antimeridian
        /// columns, repeated keys, regions holding their own neighbors'
        /// parents, and keys in bins their level does not hold — while the
        /// graph churns between rounds (removals, refills, replacement
        /// passes, clears) and its per-bin counts are audited after each.
        #[test]
        fn planned_dispersal_equals_per_cell_reference(
            (cached, rounds) in (
                proptest::collection::vec(proptest::prelude::any::<bool>(), 1500..=1500),
                proptest::collection::vec(
                    (
                        (
                            // Contiguous rectangles of blocks (overlapping
                            // draws repeat keys), then single keys, then
                            // single keys moved a few bins in time.
                            proptest::collection::vec((0usize..60, 0usize..25, 1usize..=25), 0..5),
                            proptest::collection::vec((0usize..60, 0usize..25), 0..12),
                            proptest::collection::vec((0usize..60, 0usize..25, -6i64..=6), 0..8),
                            0u64..4,
                        ),
                        // Churn after the round: keys removed, keys
                        // (re)inserted, a replacement pass, a clear.
                        (
                            proptest::collection::vec(0usize..1500, 0..200),
                            proptest::collection::vec(0usize..1500, 0..300),
                            proptest::prelude::any::<bool>(),
                            0u8..8,
                        ),
                    ),
                    1..5,
                ),
            ),
        ) {
            let pool = dispersal_pool();
            proptest::prop_assert_eq!(pool.len(), 60);
            let all: Vec<CellKey> = pool.iter().flatten().copied().collect();
            let refill = |g: &StashGraph| {
                let keys = all.iter().zip(&cached).filter(|(_, &c)| c).map(|(k, _)| *k);
                g.insert_many(keys.map(|k| Cell::empty(k, 1)));
            };
            // A budget below the initial fill, so a replacement pass evicts.
            let config = StashConfig {
                max_cells: 500,
                ..Default::default()
            };
            let twins = [(); 2].map(|_| graph(config.clone()));
            for g in &twins {
                refill(g);
                audit_bin_counts(g);
            }
            for ((spans, singles, moved, ticks), (removed, inserted, evict, clear)) in rounds {
                let mut region: Vec<CellKey> = Vec::new();
                for (b, start, n) in spans {
                    region.extend(pool[b].iter().skip(start).take(n));
                }
                for (b, i) in singles {
                    region.extend(pool[b].get(i));
                }
                for (b, i, shift) in moved {
                    region.extend(pool[b].get(i).map(|k| {
                        CellKey::new(k.geohash, TimeBin { res: k.time.res, idx: k.time.idx + shift })
                    }));
                }
                for g in &twins {
                    g.clock.advance_by(ticks);
                }
                twins[0].touch_region(&region);
                touch_region_reference(&twins[1], &region);
                for k in &all {
                    proptest::prop_assert_eq!(
                        twins[0].freshness_of(k).map(f64::to_bits),
                        twins[1].freshness_of(k).map(f64::to_bits),
                        "freshness of {} after touching {:?}", k, region
                    );
                }
                let [new, old] = [twins[0].stats(), twins[1].stats()];
                let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
                proptest::prop_assert_eq!(count(&new.dispersals), count(&old.dispersals));
                for i in 0..NUM_LEVELS as u8 {
                    let level = Level::from_index(i).unwrap();
                    let (new, old) = (new.level(level), old.level(level));
                    proptest::prop_assert_eq!(count(&new.dispersals), count(&old.dispersals));
                    proptest::prop_assert!(count(&new.dispersal_probes) >= count(&new.dispersals));
                }

                // The same churn on both twins; their maps stay identical,
                // so a replacement pass picks the same victims.
                let removed: Vec<CellKey> = removed.iter().map(|&i| all[i % all.len()]).collect();
                for g in &twins {
                    g.remove_many(&removed);
                    g.insert_many(inserted.iter().map(|&i| Cell::empty(all[i % all.len()], 1)));
                    if evict {
                        g.evict_if_needed();
                    }
                    if clear == 0 {
                        g.clear();
                        refill(g);
                    }
                    audit_bin_counts(g);
                }
                proptest::prop_assert_eq!(twins[0].len(), twins[1].len());
            }
        }
    }
}

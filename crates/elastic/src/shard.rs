//! Per-node shard engine: hash routing, request cache, field-data cache.

use crate::lru::LruCache;
use parking_lot::Mutex;
use stash_cluster::ClusterConfig;
use stash_dfs::{plan_blocks, BlockKey, BlockSource, DiskStats, Lanes, MAX_BLOCKS_PER_FETCH};
use stash_model::{AggQuery, CellKey, CellSummary, Observation, SummaryStats};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Stable fingerprint of a query — the request-cache key. Two queries
/// collide only when byte-identical in extent, time, and resolutions,
/// mirroring ES's request cache keyed on the serialized search body.
pub fn query_fingerprint(q: &AggQuery) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a
    let mut eat = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x1000_0000_01b3);
    };
    eat(q.bbox.min_lat.to_bits());
    eat(q.bbox.max_lat.to_bits());
    eat(q.bbox.min_lon.to_bits());
    eat(q.bbox.max_lon.to_bits());
    eat(q.time.start as u64);
    eat(q.time.end as u64);
    eat(q.spatial_res as u64);
    eat(q.temporal_res.index() as u64);
    h
}

/// Cache counters (relaxed atomics).
#[derive(Debug, Default)]
pub struct ShardStats {
    pub request_cache_hits: AtomicU64,
    pub request_cache_misses: AtomicU64,
    pub field_cache_hits: AtomicU64,
    pub field_cache_misses: AtomicU64,
}

/// Shards per data node: the paper split its index into 600 shards over
/// 120 data nodes.
pub(crate) const SHARDS_PER_NODE: usize = 5;

/// Request-cache entries per node.
pub(crate) const REQUEST_CACHE_ENTRIES: usize = 256;

/// Field-data cache capacity per node, in blocks. Sized to the paper's
/// cache:dataset ratio (~1-2% of blocks fit in memory): repeated
/// *overlapping* searches keep paying disk, which is what keeps ES's
/// panning latency flat in Fig. 8a.
pub(crate) const FIELD_CACHE_BLOCKS: usize = 4;

/// A cached per-shard aggregation output, shared between cache and callers.
type CachedPartials = Arc<Vec<(CellKey, CellSummary)>>;

/// One node's slice of the hash-sharded index plus its caches. Geometry,
/// disk and scan cost come from the same [`ClusterConfig`] a STASH
/// deployment boots from.
pub struct NodeShards {
    node_idx: usize,
    config: Arc<ClusterConfig>,
    disk_stats: DiskStats,
    source: Arc<dyn BlockSource>,
    /// Shard request cache: exact-query → this node's aggregation output.
    request_cache: Mutex<LruCache<u64, CachedPartials>>,
    /// Field-data cache: block → resident column values.
    field_cache: Mutex<LruCache<BlockKey, Arc<Vec<Observation>>>>,
    pub stats: ShardStats,
}

impl NodeShards {
    pub fn new(node_idx: usize, config: Arc<ClusterConfig>, source: Arc<dyn BlockSource>) -> Self {
        NodeShards {
            node_idx,
            config,
            disk_stats: DiskStats::default(),
            source,
            request_cache: Mutex::new(LruCache::new(REQUEST_CACHE_ENTRIES)),
            field_cache: Mutex::new(LruCache::new(FIELD_CACHE_BLOCKS)),
            stats: ShardStats::default(),
        }
    }

    /// Hash routing: block → shard (ES `_id`-hash routing — geography-blind).
    pub fn shard_of(&self, block: &BlockKey) -> usize {
        let mut x = block
            .geohash
            .bits()
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add(block.day.idx as u64)
            .wrapping_mul(0xE703_7ED1_A0B4_28DB);
        x ^= x >> 32;
        (x % (SHARDS_PER_NODE * self.config.n_nodes) as u64) as usize
    }

    /// Shards are spread round-robin over data nodes.
    pub fn node_of_shard(&self, shard: usize) -> usize {
        shard % self.config.n_nodes
    }

    fn owns_block(&self, block: &BlockKey) -> bool {
        self.node_of_shard(self.shard_of(block)) == self.node_idx
    }

    pub fn disk_stats(&self) -> &DiskStats {
        &self.disk_stats
    }

    /// Execute a search on this node's shards: request cache first, then
    /// scan (through the field-data cache) and aggregate.
    pub fn search(
        &self,
        query: &AggQuery,
        keys: &[CellKey],
    ) -> Result<Vec<(CellKey, CellSummary)>, String> {
        let fp = query_fingerprint(query);
        if let Some(hit) = self.request_cache.lock().get(&fp).cloned() {
            self.stats
                .request_cache_hits
                .fetch_add(1, Ordering::Relaxed);
            return Ok(hit.as_ref().clone());
        }
        self.stats
            .request_cache_misses
            .fetch_add(1, Ordering::Relaxed);

        let c = &*self.config;
        let plan = plan_blocks(
            keys,
            c.block_len,
            &c.data_bbox,
            &c.data_time,
            MAX_BLOCKS_PER_FETCH,
        )
        .map_err(|e| e.to_string())?;
        let mine: Vec<(BlockKey, Vec<CellKey>)> = plan
            .into_iter()
            .filter(|(bk, _)| self.owns_block(bk))
            .collect();

        let n_attrs = c.n_attrs;
        // Exact summaries accumulate unshared, one vector per Cell, and
        // become Cells once every row is in: no per-row un-share check.
        let mut out: HashMap<CellKey, Vec<SummaryStats>> = HashMap::new();
        // The same two-lane schedule the STASH and Basic stores bill
        // through (DESIGN.md §2b): the disk reads block i+1 while this
        // thread collects block i.
        let mut lanes = Lanes::begin();
        for (bk, wanted) in &mine {
            let observations = self.load_block(*bk, &mut lanes);
            let mut by_level: HashMap<(u8, stash_geo::TemporalRes), HashSet<CellKey>> =
                HashMap::new();
            for &c in wanted {
                by_level
                    .entry((c.spatial_res(), c.temporal_res()))
                    .or_default()
                    .insert(c);
            }
            for obs in observations.iter() {
                for (&(s_res, t_res), members) in &by_level {
                    let Some(key) = obs.cell_key(s_res, t_res) else {
                        continue;
                    };
                    if members.contains(&key) {
                        assert_eq!(obs.values.len(), n_attrs, "row width mismatch");
                        let acc = out
                            .entry(key)
                            .or_insert_with(|| vec![SummaryStats::empty(); n_attrs]);
                        for (s, &v) in acc.iter_mut().zip(&obs.values) {
                            s.push(v);
                        }
                    }
                }
            }
            // Charge the modeled collection cost (virtual time — the
            // paper's shards re-aggregate raw documents on every
            // request-cache miss).
            lanes.scan(
                std::time::Instant::now(),
                c.scan_cost_per_obs * observations.len() as u32,
            );
        }
        lanes.end();
        let mut result: Vec<(CellKey, CellSummary)> = out
            .into_iter()
            .map(|(k, acc)| (k, CellSummary::from_parts(acc)))
            .collect();
        result.sort_by_key(|(k, _)| *k);
        let shared = Arc::new(result);
        self.request_cache.lock().put(fp, Arc::clone(&shared));
        Ok(shared.as_ref().clone())
    }

    /// Read a block through the field-data cache; a miss is charged on the
    /// fetch's spindle lane.
    fn load_block(&self, bk: BlockKey, lanes: &mut Lanes) -> Arc<Vec<Observation>> {
        if let Some(hit) = self.field_cache.lock().get(&bk).cloned() {
            self.stats.field_cache_hits.fetch_add(1, Ordering::Relaxed);
            return hit;
        }
        self.stats
            .field_cache_misses
            .fetch_add(1, Ordering::Relaxed);
        let bytes = self.source.block_bytes(bk.geohash);
        self.disk_stats.record_read(bytes);
        lanes.read(self.config.disk.read_cost(bytes));
        let obs = Arc::new(self.source.read_block(bk));
        self.field_cache.lock().put(bk, Arc::clone(&obs));
        obs
    }

    /// Drop both caches (cold-start experiments).
    pub fn clear_caches(&self) {
        self.request_cache.lock().clear();
        self.field_cache.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_cluster::GenBlockSource;
    use stash_data::{GeneratorConfig, NamGenerator};
    use stash_dfs::DiskModel;
    use stash_geo::{BBox, TemporalRes, TimeRange};

    fn shards(node_idx: usize, n_nodes: usize) -> NodeShards {
        shards_on(node_idx, n_nodes, |_| {})
    }

    fn shards_on(
        node_idx: usize,
        n_nodes: usize,
        f: impl FnOnce(&mut ClusterConfig),
    ) -> NodeShards {
        let mut config = ClusterConfig {
            n_nodes,
            disk: DiskModel::free(),
            generator: GeneratorConfig {
                seed: 11,
                obs_per_deg2_per_day: 100.0,
                max_obs_per_block: 20_000,
                value_quantum: 0.0,
            },
            ..ClusterConfig::default()
        };
        f(&mut config);
        let source = GenBlockSource::new(NamGenerator::new(config.generator.clone()));
        NodeShards::new(node_idx, Arc::new(config), Arc::new(source))
    }

    fn county_query() -> AggQuery {
        AggQuery::new(
            BBox::from_corner_extent(38.0, -105.0, 0.6, 1.2),
            TimeRange::whole_day(2015, 2, 2),
            4,
            TemporalRes::Day,
        )
    }

    #[test]
    fn fingerprint_distinguishes_overlapping_queries() {
        let q = county_query();
        assert_eq!(query_fingerprint(&q), query_fingerprint(&q.clone()));
        let panned = q.panned(0.1, 0.0, 1.0);
        assert_ne!(query_fingerprint(&q), query_fingerprint(&panned));
        let zoomed = q.drilled_down().unwrap();
        assert_ne!(query_fingerprint(&q), query_fingerprint(&zoomed));
    }

    #[test]
    fn union_of_nodes_equals_full_scan() {
        // Every block belongs to exactly one node: merging all nodes'
        // search outputs must equal a single-node full deployment.
        let q = county_query();
        let keys = q.target_keys(100_000).unwrap();
        let whole = shards(0, 1).search(&q, &keys).unwrap();
        let mut merged: HashMap<CellKey, CellSummary> = HashMap::new();
        for i in 0..4 {
            for (k, s) in shards(i, 4).search(&q, &keys).unwrap() {
                merged.entry(k).and_modify(|m| m.merge(&s)).or_insert(s);
            }
        }
        assert_eq!(merged.len(), whole.len());
        for (k, s) in whole {
            assert_eq!(merged[&k].count(), s.count(), "mismatch at {k}");
        }
    }

    #[test]
    fn request_cache_hits_identical_query_only() {
        let s = shards(0, 1);
        let q = county_query();
        let keys = q.target_keys(100_000).unwrap();
        let a = s.search(&q, &keys).unwrap();
        assert_eq!(s.stats.request_cache_misses.load(Ordering::Relaxed), 1);
        let b = s.search(&q, &keys).unwrap();
        assert_eq!(s.stats.request_cache_hits.load(Ordering::Relaxed), 1);
        assert_eq!(a, b);
        // A panned (overlapping!) query misses the request cache.
        let panned = q.panned(0.1, 0.0, 1.0);
        let pkeys = panned.target_keys(100_000).unwrap();
        s.search(&panned, &pkeys).unwrap();
        assert_eq!(s.stats.request_cache_misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn field_cache_absorbs_repeat_disk_reads() {
        let s = shards(0, 1);
        let q = county_query();
        let keys = q.target_keys(100_000).unwrap();
        s.search(&q, &keys).unwrap();
        let reads_after_first = s.disk_stats().reads();
        assert!(reads_after_first > 0);
        // Different (panned) query over overlapping blocks: request cache
        // misses but most blocks come from the field cache.
        let panned = q.panned(0.1, 0.0, 1.0);
        let pkeys = panned.target_keys(100_000).unwrap();
        s.search(&panned, &pkeys).unwrap();
        let new_reads = s.disk_stats().reads() - reads_after_first;
        assert!(
            new_reads < reads_after_first,
            "field cache should absorb most repeat reads: {new_reads} vs {reads_after_first}"
        );
        assert!(s.stats.field_cache_hits.load(Ordering::Relaxed) > 0);
    }

    #[test]
    fn cold_search_is_billed_on_the_stores_lanes() {
        // The baseline pays the same schedule as the STASH and Basic stores
        // (DESIGN.md §2b): the disk reads ahead while a block is collected,
        // so a cold search costs Σ disk + the last block's collection, not
        // Σ disk + Σ collection.
        use std::time::{Duration, Instant};
        let read = Duration::from_millis(3);
        let per_doc = Duration::from_micros(10);
        let s = shards_on(0, 1, |c| {
            c.disk = DiskModel {
                seek: read,
                bytes_per_sec: f64::INFINITY,
            };
            c.scan_cost_per_obs = per_doc;
        });
        let q = AggQuery::new(
            BBox::from_corner_extent(36.0, -108.0, 4.0, 8.0),
            TimeRange::whole_day(2015, 2, 2),
            4,
            TemporalRes::Day,
        );
        let keys = q.target_keys(100_000).unwrap();
        let plan = plan_blocks(&keys, 3, &s.config.data_bbox, &s.config.data_time, 10_000).unwrap();
        let docs: Vec<u32> = plan
            .keys()
            .map(|bk| s.source.read_block(*bk).len() as u32)
            .collect();
        let disk = read * docs.len() as u32;
        let collect = per_doc * docs.iter().sum::<u32>();
        let last = per_doc * *docs.last().unwrap();
        assert!(docs.len() >= 8 && collect > last * 4, "{docs:?}");

        let t0 = Instant::now();
        s.search(&q, &keys).unwrap();
        let wall = t0.elapsed();
        assert_eq!(s.disk_stats().reads(), docs.len() as u64);
        assert!(wall >= disk + last, "{wall:?} < {:?}", disk + last);
        assert!(
            wall < disk + collect / 2,
            "{wall:?}: the serial bill is {:?}",
            disk + collect
        );
    }

    #[test]
    fn clear_caches_forces_recompute() {
        let s = shards(0, 1);
        let q = county_query();
        let keys = q.target_keys(100_000).unwrap();
        s.search(&q, &keys).unwrap();
        s.clear_caches();
        s.search(&q, &keys).unwrap();
        assert_eq!(s.stats.request_cache_hits.load(Ordering::Relaxed), 0);
        assert_eq!(s.stats.request_cache_misses.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn shard_routing_is_stable_and_spread() {
        let s = shards(0, 4);
        let q = AggQuery::new(
            BBox::from_corner_extent(30.0, -110.0, 8.0, 16.0),
            TimeRange::whole_day(2015, 2, 2),
            4,
            TemporalRes::Day,
        );
        let keys = q.target_keys(100_000).unwrap();
        let plan = plan_blocks(&keys, 3, &s.config.data_bbox, &s.config.data_time, 10_000).unwrap();
        let mut nodes_used: HashSet<usize> = HashSet::new();
        for bk in plan.keys() {
            let shard = s.shard_of(bk);
            assert_eq!(shard, s.shard_of(bk), "routing must be stable");
            assert!(shard < SHARDS_PER_NODE * 4);
            nodes_used.insert(s.node_of_shard(shard));
        }
        assert_eq!(
            nodes_used.len(),
            4,
            "hash routing should spread over all nodes"
        );
    }
}

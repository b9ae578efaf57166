//! The simulated ElasticSearch deployment: coordinator scatter/gather over
//! hash-routed shards, on the same fabric and dataset as the STASH cluster.

use crate::shard::NodeShards;
use crossbeam::channel::{unbounded, Receiver, Sender};
use stash_dfs::{BlockKey, BlockSource, DiskModel};
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TimeRange};
use stash_model::{AggQuery, Cell, CellKey, CellSummary, Observation, QueryResult};
use stash_net::{Envelope, NetConfig, NodeId, Router, RpcTable};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Wire protocol of the baseline. `Clone` is required by the fabric's
/// duplication faults.
#[derive(Debug, Clone)]
pub enum EsMsg {
    /// Client search at a coordinating node.
    Search {
        rpc: u64,
        reply_to: NodeId,
        query: AggQuery,
    },
    SearchResponse {
        rpc: u64,
        result: Result<QueryResult, String>,
    },
    /// Coordinator → data node: run the query on your shards.
    ShardSearch {
        rpc: u64,
        reply_to: NodeId,
        query: AggQuery,
    },
    ShardResponse {
        rpc: u64,
        partials: Result<Vec<(CellKey, CellSummary)>, String>,
    },
    Shutdown,
}

impl EsMsg {
    fn wire_size(&self) -> usize {
        match self {
            EsMsg::Search { .. } | EsMsg::ShardSearch { .. } => 256,
            EsMsg::SearchResponse { result, .. } => match result {
                Ok(r) => {
                    r.cells
                        .iter()
                        .map(|c| 24 + 40 * c.summary.n_attrs())
                        .sum::<usize>()
                        + 64
                }
                Err(e) => e.len() + 32,
            },
            EsMsg::ShardResponse { partials, .. } => match partials {
                Ok(v) => v.iter().map(|(_, s)| 24 + 40 * s.n_attrs()).sum::<usize>() + 64,
                Err(e) => e.len() + 32,
            },
            EsMsg::Shutdown => 16,
        }
    }
}

/// Configuration of the baseline deployment.
#[derive(Debug, Clone)]
pub struct EsClusterConfig {
    pub n_nodes: usize,
    /// Total shards (paper: 600 over 120 nodes ⇒ 5× nodes).
    pub n_shards: usize,
    /// Coordination workers per node (`Search`; block on shard fan-out).
    pub coord_workers: usize,
    /// Shard-search workers per node (local scans; never block on peers).
    pub shard_workers: usize,
    pub net: NetConfig,
    pub disk: DiskModel,
    pub block_len: u8,
    pub data_bbox: BBox,
    pub data_time: TimeRange,
    pub generator: stash_data::GeneratorConfig,
    pub n_attrs: usize,
    /// Request-cache entries per node.
    pub request_cache_entries: usize,
    /// Field-data cache capacity per node, in blocks.
    pub field_cache_blocks: usize,
    pub max_cells_per_query: usize,
    pub max_blocks_per_fetch: usize,
    /// Modeled CPU cost per document collected during shard aggregation
    /// (virtual time; DESIGN.md §2).
    pub scan_cost_per_obs: Duration,
    pub shard_rpc_timeout: Duration,
    pub client_timeout: Duration,
}

impl Default for EsClusterConfig {
    fn default() -> Self {
        EsClusterConfig {
            n_nodes: 8,
            n_shards: 40,
            coord_workers: 3,
            shard_workers: 3,
            net: NetConfig::default(),
            disk: DiskModel::default(),
            block_len: 3,
            data_bbox: BBox {
                min_lat: 20.0,
                max_lat: 55.0,
                min_lon: -130.0,
                max_lon: -60.0,
            },
            data_time: TimeRange::new(
                epoch_seconds(2015, 1, 1, 0, 0, 0),
                epoch_seconds(2016, 1, 1, 0, 0, 0),
            )
            .expect("static range"),
            generator: stash_data::GeneratorConfig::default(),
            n_attrs: 4,
            request_cache_entries: 256,
            // Sized to the paper's cache:dataset ratio (~1-2% of blocks fit
            // in memory): repeated *overlapping* searches keep paying disk,
            // which is what keeps ES's panning latency flat in Fig. 8a.
            field_cache_blocks: 4,
            max_cells_per_query: 200_000,
            max_blocks_per_fetch: 20_000,
            scan_cost_per_obs: Duration::from_nanos(400),
            shard_rpc_timeout: Duration::from_secs(30),
            client_timeout: Duration::from_secs(120),
        }
    }
}

struct EsNode {
    idx: usize,
    id: NodeId,
    shards: NodeShards,
    router: Router<EsMsg>,
    rpc: RpcTable<Result<Vec<(CellKey, CellSummary)>, String>>,
    config: Arc<EsClusterConfig>,
    coord_tx: Sender<Envelope<EsMsg>>,
    shard_tx: Sender<Envelope<EsMsg>>,
}

impl EsNode {
    fn send(&self, dst: NodeId, msg: EsMsg) {
        let bytes = msg.wire_size();
        self.router.send(self.id, dst, msg, bytes);
    }

    fn run_main(self: &Arc<Self>, inbox: stash_net::Inbox<EsMsg>) {
        while let Ok(env) = inbox.recv() {
            match env.payload {
                EsMsg::Shutdown => {
                    let poisons = [
                        (&self.coord_tx, self.config.coord_workers),
                        (&self.shard_tx, self.config.shard_workers),
                    ];
                    for (tx, n) in poisons {
                        for _ in 0..n {
                            let _ = tx.send(Envelope::local(self.id, EsMsg::Shutdown));
                        }
                    }
                    return;
                }
                EsMsg::ShardResponse { rpc, partials } => {
                    self.rpc.complete(rpc, partials);
                }
                // Shard searches never block on peers, so they get their
                // own tier; coordinations may block waiting for them.
                payload @ EsMsg::ShardSearch { .. } => {
                    let _ = self.shard_tx.send(Envelope { payload, ..env });
                }
                payload => {
                    let _ = self.coord_tx.send(Envelope { payload, ..env });
                }
            }
        }
    }

    fn run_worker(self: &Arc<Self>, work_rx: Receiver<Envelope<EsMsg>>) {
        while let Ok(env) = work_rx.recv() {
            match env.payload {
                EsMsg::Shutdown => return,
                EsMsg::Search {
                    rpc,
                    reply_to,
                    query,
                } => {
                    let result = self.coordinate(&query);
                    self.send(reply_to, EsMsg::SearchResponse { rpc, result });
                }
                EsMsg::ShardSearch {
                    rpc,
                    reply_to,
                    query,
                } => {
                    let partials = query
                        .target_keys(self.config.max_cells_per_query)
                        .map_err(|e| e.to_string())
                        .and_then(|keys| self.shards.search(&query, &keys));
                    self.send(reply_to, EsMsg::ShardResponse { rpc, partials });
                }
                other => unreachable!("worker received {other:?}"),
            }
        }
    }

    /// Scatter to every data node (hash sharding has no locality), gather,
    /// merge per-cell partials.
    fn coordinate(self: &Arc<Self>, query: &AggQuery) -> Result<QueryResult, String> {
        let keys = query
            .target_keys(self.config.max_cells_per_query)
            .map_err(|e| e.to_string())?;
        if keys.is_empty() {
            return Ok(QueryResult::default());
        }
        let mut waits = Vec::new();
        for node in 0..self.config.n_nodes {
            if node == self.idx {
                continue;
            }
            let (rpc, rx) = self.rpc.register();
            self.send(
                NodeId(node),
                EsMsg::ShardSearch {
                    rpc,
                    reply_to: self.id,
                    query: query.clone(),
                },
            );
            waits.push((rpc, rx));
        }
        let own = self.shards.search(query, &keys)?;

        let mut merged: HashMap<CellKey, CellSummary> = HashMap::new();
        let mut absorb = |parts: Vec<(CellKey, CellSummary)>| {
            for (k, s) in parts {
                merged.entry(k).and_modify(|m| m.merge(&s)).or_insert(s);
            }
        };
        absorb(own);
        for (rpc, rx) in waits {
            match self.rpc.wait(rpc, &rx, self.config.shard_rpc_timeout) {
                Some(arrived) => absorb(arrived.response?),
                None => return Err("shard rpc timed out".into()),
            }
        }
        let mut cells: Vec<Cell> = merged
            .into_iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(key, summary)| Cell { key, summary })
            .collect();
        cells.sort_by_key(|c| c.key);
        Ok(QueryResult {
            cells,
            misses: keys.len(),
            ..Default::default()
        })
    }
}

/// Client handle for the baseline.
#[derive(Clone)]
pub struct EsClient {
    router: Router<EsMsg>,
    gateway: NodeId,
    rpc: Arc<RpcTable<Result<QueryResult, String>>>,
    n_nodes: usize,
    next: Arc<AtomicUsize>,
    timeout: Duration,
}

impl EsClient {
    /// Issue one search; blocks for the merged result.
    pub fn query(&self, query: &AggQuery) -> Result<QueryResult, String> {
        let coord = self.next.fetch_add(1, Ordering::Relaxed) % self.n_nodes;
        let (rpc_id, rx) = self.rpc.register();
        let msg = EsMsg::Search {
            rpc: rpc_id,
            reply_to: self.gateway,
            query: query.clone(),
        };
        let bytes = msg.wire_size();
        if !self.router.send(self.gateway, NodeId(coord), msg, bytes) {
            self.rpc.cancel(rpc_id);
            return Err("cluster disconnected".into());
        }
        match self.rpc.wait(rpc_id, &rx, self.timeout) {
            Some(arrived) => arrived.response,
            None => Err("search timed out".into()),
        }
    }
}

/// The running baseline deployment.
pub struct EsSimCluster {
    config: Arc<EsClusterConfig>,
    router: Router<EsMsg>,
    nodes: Vec<Arc<EsNode>>,
    client_rpc: Arc<RpcTable<Result<QueryResult, String>>>,
    gateway: NodeId,
    threads: Vec<std::thread::JoinHandle<()>>,
    shut: AtomicBool,
}

struct GenSource(stash_data::NamGenerator);

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

impl EsSimCluster {
    pub fn new(config: EsClusterConfig) -> Self {
        assert!(config.n_nodes > 0, "cluster needs nodes");
        assert!(
            config.coord_workers >= 1 && config.shard_workers >= 1,
            "both worker tiers need at least one thread"
        );
        let config = Arc::new(config);
        let (router, mut endpoints) = Router::<EsMsg>::new(config.n_nodes + 1, config.net.clone());
        let gateway_ep = endpoints.pop().expect("gateway endpoint");
        let gateway = gateway_ep.id;
        let source: Arc<dyn BlockSource> = Arc::new(GenSource(stash_data::NamGenerator::new(
            config.generator.clone(),
        )));

        let mut nodes = Vec::new();
        let mut threads = Vec::new();
        for ep in endpoints {
            let idx = ep.id.0;
            let shards = NodeShards::new(
                idx,
                config.n_nodes,
                config.n_shards,
                config.block_len,
                config.data_bbox,
                config.data_time,
                config.disk.clone(),
                Arc::clone(&source),
                config.max_blocks_per_fetch,
                config.request_cache_entries,
                config.field_cache_blocks,
            )
            .with_scan_cost(config.scan_cost_per_obs);
            let (coord_tx, coord_rx) = unbounded();
            let (shard_tx, shard_rx) = unbounded();
            let node = Arc::new(EsNode {
                idx,
                id: ep.id,
                shards,
                router: router.clone(),
                rpc: RpcTable::default(),
                config: Arc::clone(&config),
                coord_tx,
                shard_tx,
            });
            let main = Arc::clone(&node);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("es-node-{idx}"))
                    .spawn(move || main.run_main(ep.inbox))
                    .expect("spawn es node"),
            );
            for (tier, count, rx) in [
                ("coord", config.coord_workers, coord_rx),
                ("shard", config.shard_workers, shard_rx),
            ] {
                for w in 0..count {
                    let worker = Arc::clone(&node);
                    let rx = rx.clone();
                    threads.push(
                        std::thread::Builder::new()
                            .name(format!("es-{tier}-{idx}-{w}"))
                            .spawn(move || worker.run_worker(rx))
                            .expect("spawn es worker"),
                    );
                }
            }
            nodes.push(node);
        }

        let client_rpc: Arc<RpcTable<Result<QueryResult, String>>> = Arc::new(RpcTable::default());
        let pump = Arc::clone(&client_rpc);
        threads.push(
            std::thread::Builder::new()
                .name("es-gateway".into())
                .spawn(move || {
                    while let Ok(env) = gateway_ep.inbox.recv() {
                        match env.payload {
                            EsMsg::SearchResponse { rpc, result } => {
                                pump.complete(rpc, result);
                            }
                            EsMsg::Shutdown => return,
                            other => debug_assert!(false, "gateway got {other:?}"),
                        }
                    }
                })
                .expect("spawn es gateway"),
        );

        EsSimCluster {
            config,
            router,
            nodes,
            client_rpc,
            gateway,
            threads,
            shut: AtomicBool::new(false),
        }
    }

    pub fn config(&self) -> &EsClusterConfig {
        &self.config
    }

    pub fn client(&self) -> EsClient {
        EsClient {
            router: self.router.clone(),
            gateway: self.gateway,
            rpc: Arc::clone(&self.client_rpc),
            n_nodes: self.config.n_nodes,
            next: Arc::new(AtomicUsize::new(0)),
            timeout: self.config.client_timeout,
        }
    }

    /// Aggregate request-cache hit count across nodes.
    pub fn request_cache_hits(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.shards.stats.request_cache_hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Aggregate disk reads across nodes.
    pub fn disk_reads(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.shards.disk_stats().reads())
            .sum()
    }

    /// Drop all caches on all nodes.
    pub fn clear_caches(&self) {
        for n in &self.nodes {
            n.shards.clear_caches();
        }
    }

    pub fn shutdown(&self) {
        if self.shut.swap(true, Ordering::AcqRel) {
            return;
        }
        for n in &self.nodes {
            self.router.send(self.gateway, n.id, EsMsg::Shutdown, 16);
        }
        self.router
            .send(self.gateway, self.gateway, EsMsg::Shutdown, 16);
    }
}

impl Drop for EsSimCluster {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.router.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::TemporalRes;

    fn small_config() -> EsClusterConfig {
        EsClusterConfig {
            n_nodes: 4,
            n_shards: 16,
            coord_workers: 2,
            shard_workers: 2,
            disk: DiskModel::free(),
            generator: stash_data::GeneratorConfig {
                seed: 3,
                obs_per_deg2_per_day: 30.0,
                max_obs_per_block: 10_000,
                value_quantum: 0.0,
            },
            ..Default::default()
        }
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
    fn search_returns_aggregations() {
        let es = EsSimCluster::new(small_config());
        let client = es.client();
        let r = client.query(&county_query()).expect("search");
        assert!(r.total_count() > 0);
        assert!(!r.cells.is_empty());
        es.shutdown();
    }

    #[test]
    fn identical_search_hits_request_cache() {
        let es = EsSimCluster::new(small_config());
        let client = es.client();
        let q = county_query();
        let a = client.query(&q).unwrap();
        let hits0 = es.request_cache_hits();
        let b = client.query(&q).unwrap();
        assert!(es.request_cache_hits() > hits0, "request cache must hit");
        assert_eq!(a.total_count(), b.total_count());
        es.shutdown();
    }

    #[test]
    fn overlapping_search_misses_request_cache() {
        let es = EsSimCluster::new(small_config());
        let client = es.client();
        let q = county_query();
        client.query(&q).unwrap();
        let hits0 = es.request_cache_hits();
        client.query(&q.panned(0.1, 0.0, 1.0)).unwrap();
        assert_eq!(
            es.request_cache_hits(),
            hits0,
            "panned query must not hit request cache"
        );
        es.shutdown();
    }

    #[test]
    fn es_agrees_with_ground_truth_volume() {
        // ES and a single-node full scan must count the same observations.
        let es = EsSimCluster::new(small_config());
        let q = county_query();
        let r = es.client().query(&q).unwrap();
        let gen = stash_data::NamGenerator::new(es.config().generator.clone());
        let keys = q.target_keys(100_000).unwrap();
        let plan = stash_dfs::plan_blocks(
            &keys,
            3,
            &es.config().data_bbox,
            &es.config().data_time,
            10_000,
        )
        .unwrap();
        let mut truth = 0u64;
        for bk in plan.keys() {
            for obs in gen.block_for_day(bk.geohash, bk.day) {
                if let Some(k) = obs.cell_key(4, TemporalRes::Day) {
                    if keys.contains(&k) {
                        truth += 1;
                    }
                }
            }
        }
        assert_eq!(r.total_count(), truth);
        es.shutdown();
    }

    #[test]
    fn concurrent_searches() {
        let es = EsSimCluster::new(small_config());
        let q = county_query();
        let expected = es.client().query(&q).unwrap().total_count();
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let c = es.client();
                let q = q.clone();
                std::thread::spawn(move || c.query(&q).unwrap().total_count())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
        es.shutdown();
    }
}

//! The simulated ElasticSearch deployment: coordinator scatter/gather over
//! hash-routed shards, booted from the same [`ClusterConfig`] as the STASH
//! cluster it is compared with, on the same fabric machinery.

use crate::shard::NodeShards;
use stash_cluster::config::ConfigError;
use stash_cluster::protocol::cell_list_bytes;
use stash_cluster::{ClusterConfig, GenBlockSource};
use stash_data::NamGenerator;
use stash_dfs::BlockSource;
use stash_model::{AggQuery, Cell, CellKey, CellSummary, QueryResult, MAX_CELLS_PER_QUERY};
use stash_net::{DelayQueue, Handover, NodeId, Parked, Router, RpcTable};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Partials = Result<Vec<(CellKey, CellSummary)>, String>;

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
        partials: Partials,
    },
}

impl EsMsg {
    /// Wire size for the fabric's bandwidth model. Cell lists are priced
    /// exactly as the STASH protocol prices its own ([`cell_list_bytes`]);
    /// an error as one discriminant and one length word plus its text.
    fn wire_size(&self) -> usize {
        let priced = |cells: Result<usize, &String>| cells.unwrap_or_else(|e| 16 + e.len());
        match self {
            EsMsg::Search { .. } | EsMsg::ShardSearch { .. } => 256,
            EsMsg::SearchResponse { result, .. } => priced(
                result
                    .as_ref()
                    .map(|r| cell_list_bytes(r.cells.iter().map(|c| &c.summary))),
            ),
            EsMsg::ShardResponse { partials, .. } => priced(
                partials
                    .as_ref()
                    .map(|v| cell_list_bytes(v.iter().map(|(_, s)| s))),
            ),
        }
    }
}

/// Can the baseline serve this deployment? It reads sealed blocks only:
/// with live blocks it would read their full contents while STASH reads
/// them truncated, and it has no rollup authority to answer from.
fn check_servable(config: &ClusterConfig) -> Result<(), ConfigError> {
    config.check()?;
    if !config.live_blocks.is_empty() {
        return Err(ConfigError::LiveSet(
            "the ES-like baseline serves sealed blocks only".into(),
        ));
    }
    if config.rollup.is_enabled() {
        return Err(ConfigError::Rollup(
            "the ES-like baseline has no rollup levels to serve".into(),
        ));
    }
    Ok(())
}

struct EsNode {
    id: NodeId,
    shards: NodeShards,
    router: Router<EsMsg>,
    rpc: RpcTable<Partials>,
    config: Arc<ClusterConfig>,
    /// `Search`: coordinations, which block on the shard fan-out.
    coord: DelayQueue<EsMsg>,
    /// `ShardSearch`: local scans, which never block on peers.
    shard: DelayQueue<EsMsg>,
}

impl EsNode {
    /// Send over the fabric; `false` when it refuses (shutdown).
    fn send(&self, dst: NodeId, msg: EsMsg) -> bool {
        let bytes = msg.wire_size();
        self.router.send(self.id, dst, msg, bytes)
    }

    /// This node's port (see [`stash_net::Port`]): a shard reply completes
    /// its slot, due when the wire says; a search is parked on the tier that
    /// serves it. Every message is placed, so no thread drains an inbox.
    fn accept(&self, parked: Parked<EsMsg>) -> Handover {
        let tier = match parked.env.payload {
            EsMsg::Search { .. } => &self.coord,
            EsMsg::ShardSearch { .. } => &self.shard,
            EsMsg::ShardResponse { rpc, partials } => {
                let due = parked.due;
                self.rpc
                    .complete_at(rpc, partials, parked.sent_at.unwrap_or(due), due);
                return Handover::Taken;
            }
            // Only the client gateway asks for searches.
            EsMsg::SearchResponse { .. } => return Handover::Taken,
        };
        tier.push(parked);
        Handover::Queued
    }

    /// Worker loop of one tier: take work as it comes due, until the fabric
    /// shuts down and closes the queue.
    fn run_worker(&self, work: DelayQueue<EsMsg>) {
        while let Ok(env) = work.recv() {
            match env.payload {
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
                        .target_keys(MAX_CELLS_PER_QUERY)
                        .map_err(|e| e.to_string())
                        .and_then(|keys| self.shards.search(&query, &keys));
                    self.send(reply_to, EsMsg::ShardResponse { rpc, partials });
                }
                other => unreachable!("the port queues searches only: {other:?}"),
            }
        }
    }

    /// Scatter to every data node (hash sharding has no locality), gather,
    /// merge per-cell partials.
    fn coordinate(&self, query: &AggQuery) -> Result<QueryResult, String> {
        let keys = query
            .target_keys(MAX_CELLS_PER_QUERY)
            .map_err(|e| e.to_string())?;
        if keys.is_empty() {
            return Ok(QueryResult::default());
        }
        let mut waits = Vec::new();
        for node in (0..self.config.n_nodes).filter(|&n| n != self.id.0) {
            let (rpc, slot) = self.rpc.register();
            let msg = EsMsg::ShardSearch {
                rpc,
                reply_to: self.id,
                query: query.clone(),
            };
            if !self.send(NodeId(node), msg) {
                for (rpc, _) in waits.into_iter().chain([(rpc, slot)]) {
                    self.rpc.cancel(rpc);
                }
                return Err(format!("data node {node} unreachable"));
            }
            waits.push((rpc, slot));
        }
        let own = self.shards.search(query, &keys)?;

        let mut merged: HashMap<CellKey, CellSummary> = HashMap::new();
        let mut absorb = |parts: Vec<(CellKey, CellSummary)>| {
            for (k, s) in parts {
                merged.entry(k).and_modify(|m| m.merge(&s)).or_insert(s);
            }
        };
        absorb(own);
        for (rpc, slot) in waits {
            match self.rpc.wait(rpc, &slot, self.config.sub_rpc_timeout) {
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
        let (rpc_id, slot) = self.rpc.register();
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
        match self.rpc.wait(rpc_id, &slot, self.timeout) {
            Some(arrived) => arrived.response,
            None => Err("search timed out".into()),
        }
    }
}

/// The running baseline deployment.
pub struct EsSimCluster {
    config: Arc<ClusterConfig>,
    router: Router<EsMsg>,
    nodes: Vec<Arc<EsNode>>,
    client_rpc: Arc<RpcTable<Result<QueryResult, String>>>,
    gateway: NodeId,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl EsSimCluster {
    /// Boot the baseline on the deployment `config` describes: the same
    /// nodes, fabric, disk, scan cost and dataset a STASH cluster booted
    /// from it has, with `5 × n_nodes` shards (the paper's 600 over 120).
    /// Each node runs `service_workers` coordination and `fetch_workers`
    /// shard-search threads, fed by its port; the fabric and the client
    /// gateway have none. Refuses a config [`ClusterConfig::check`]
    /// rejects, and one with live blocks or rollups.
    pub fn new(config: ClusterConfig) -> Result<Self, ConfigError> {
        check_servable(&config)?;
        let config = Arc::new(config);
        let (router, mut endpoints) = Router::<EsMsg>::new(config.n_nodes + 1, config.net.clone());
        let gateway = endpoints.pop().expect("gateway endpoint").id;
        let client_rpc: Arc<RpcTable<Result<QueryResult, String>>> = Arc::new(RpcTable::default());
        let replies = Arc::clone(&client_rpc);
        router.install_port(
            gateway,
            Arc::new(move |parked: Parked<EsMsg>| {
                if let EsMsg::SearchResponse { rpc, result } = parked.env.payload {
                    let due = parked.due;
                    replies.complete_at(rpc, result, parked.sent_at.unwrap_or(due), due);
                }
                Handover::Taken
            }),
        );
        let source: Arc<dyn BlockSource> = Arc::new(GenBlockSource::new(NamGenerator::new(
            config.generator.clone(),
        )));

        let mut nodes = Vec::new();
        let mut threads = Vec::new();
        for ep in endpoints {
            let idx = ep.id.0;
            let node = Arc::new(EsNode {
                id: ep.id,
                shards: NodeShards::new(idx, Arc::clone(&config), Arc::clone(&source)),
                router: router.clone(),
                rpc: RpcTable::default(),
                config: Arc::clone(&config),
                coord: router.delay_queue(ep.id),
                shard: router.delay_queue(ep.id),
            });
            let port = Arc::clone(&node);
            router.install_port(ep.id, Arc::new(move |parked| port.accept(parked)));
            let tiers = [
                ("coord", config.service_workers, &node.coord),
                ("shard", config.fetch_workers, &node.shard),
            ];
            for (tier, count, queue) in tiers {
                for w in 0..count {
                    let worker = Arc::clone(&node);
                    let queue = queue.clone();
                    threads.push(
                        std::thread::Builder::new()
                            .name(format!("es-{tier}-{idx}-{w}"))
                            .spawn(move || worker.run_worker(queue))
                            .expect("spawn es worker"),
                    );
                }
            }
            nodes.push(node);
        }

        Ok(EsSimCluster {
            config,
            router,
            nodes,
            client_rpc,
            gateway,
            threads,
        })
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn client(&self) -> EsClient {
        EsClient {
            router: self.router.clone(),
            gateway: self.gateway,
            rpc: Arc::clone(&self.client_rpc),
            n_nodes: self.config.n_nodes,
            next: Arc::new(AtomicUsize::new(0)),
            // A search's own shard fan-out waits up to one sub-RPC deadline.
            timeout: self.config.sub_rpc_timeout * 2,
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

    /// Stop the deployment; also runs on drop. The fabric refuses later
    /// searches and closes every tier queue, so each worker finishes what
    /// is already due and exits.
    pub fn shutdown(&self) {
        self.router.shutdown();
    }
}

impl Drop for EsSimCluster {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_cluster::protocol::{Msg, KEY_BYTES, LIST_ENVELOPE_BYTES};
    use stash_cluster::RollupPolicy;
    use stash_dfs::DiskModel;
    use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
    use stash_model::{FlatPartials, Level};
    use stash_net::NetConfig;
    use stash_obs::StageTimes;
    use std::str::FromStr;
    use std::time::Instant;

    fn small_config() -> ClusterConfig {
        ClusterConfig {
            n_nodes: 4,
            service_workers: 2,
            fetch_workers: 2,
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

    fn boot(config: ClusterConfig) -> EsSimCluster {
        EsSimCluster::new(config).expect("servable test config")
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
        let es = boot(small_config());
        let client = es.client();
        let r = client.query(&county_query()).expect("search");
        assert!(r.total_count() > 0);
        assert!(!r.cells.is_empty());
        es.shutdown();
    }

    #[test]
    fn identical_search_hits_request_cache() {
        let es = boot(small_config());
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
        let es = boot(small_config());
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
        let es = boot(small_config());
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
        let es = boot(small_config());
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

    #[test]
    fn configs_the_baseline_cannot_serve_are_refused() {
        let live = ClusterConfig {
            live_blocks: vec![(
                Geohash::from_str("9xj").unwrap(),
                TimeBin::containing(TemporalRes::Day, county_query().time.start),
            )],
            ..small_config()
        };
        assert!(live.check().is_ok(), "STASH serves it");
        assert!(matches!(
            EsSimCluster::new(live).err(),
            Some(ConfigError::LiveSet(_))
        ));
        let rollup = ClusterConfig {
            rollup: RollupPolicy::new(vec![Level::of(2, TemporalRes::Month).unwrap()]).unwrap(),
            ..small_config()
        };
        assert!(rollup.check().is_ok(), "STASH serves it");
        assert!(matches!(
            EsSimCluster::new(rollup).err(),
            Some(ConfigError::Rollup(_))
        ));
        // What `check` rejects is refused too.
        let idle = ClusterConfig {
            fetch_workers: 0,
            ..small_config()
        };
        assert!(matches!(
            EsSimCluster::new(idle).err(),
            Some(ConfigError::Workers(_))
        ));
    }

    #[test]
    fn a_search_waits_out_four_hops() {
        // Client → coordinator → the other node's shards → coordinator →
        // client: four wire hops, each waited out on the thread that takes
        // the message — the tier worker or the reply slot's waiter.
        let hop = Duration::from_millis(5);
        let es = boot(ClusterConfig {
            n_nodes: 2,
            net: NetConfig {
                base_latency: hop,
                ..NetConfig::default()
            },
            scan_cost_per_obs: Duration::ZERO,
            ..small_config()
        });
        let client = es.client();
        let q = county_query();
        let mut best = Duration::MAX;
        for _ in 0..5 {
            let t0 = Instant::now();
            client.query(&q).expect("search");
            let wall = t0.elapsed();
            assert!(wall >= hop * 4, "{wall:?} < 4 hops");
            best = best.min(wall);
        }
        // No relay adds a fifth hop.
        assert!(best < hop * 5, "best of five {best:?}");
    }

    #[test]
    fn cell_lists_cost_the_same_on_both_engines() {
        let key = county_query().target_keys(100).unwrap()[0];
        let mut summary = CellSummary::empty(4);
        summary.push_row(&[1.0, 2.0, 3.0, 4.0]);
        let parts = vec![(key, summary.clone()); 3];
        let result = QueryResult {
            cells: vec![Cell { key, summary }; 3],
            ..Default::default()
        };
        // Three Cells of four exact 40-byte summaries behind a header word.
        let bytes = LIST_ENVELOPE_BYTES + 3 * (KEY_BYTES + 8 + 4 * 40);
        let es = [
            EsMsg::ShardResponse {
                rpc: 1,
                partials: Ok(parts.clone()),
            },
            EsMsg::SearchResponse {
                rpc: 1,
                result: Ok(result.clone()),
            },
        ];
        let stash = [
            Msg::PartialsResponse {
                rpc: 1,
                partials: Ok(FlatPartials::encode(&parts)),
                trace: StageTimes::default(),
            },
            Msg::SubQueryResponse {
                rpc: 1,
                result: Ok(result),
                trace: StageTimes::default(),
            },
        ];
        for (e, s) in es.iter().zip(&stash) {
            assert_eq!(e.wire_size(), bytes);
            assert_eq!(s.wire_size(), bytes);
        }
    }
}

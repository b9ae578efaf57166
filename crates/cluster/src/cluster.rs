//! Cluster assembly: configuration, node spawning, stats, teardown.

use crate::caller::Caller;
use crate::client::{by_owner, ClusterClient};
use crate::config::RollupPolicy;
use crate::ingest::IngestClient;
use crate::node::{NodeCtx, WorkTiers};
use crate::protocol::Msg;
use crate::source::{GenBlockSource, LiveSource};
use stash_core::LogicalClock;
use stash_core::StashConfig;
use stash_data::{GeneratorConfig, NamGenerator, StreamConfig, StreamSource};
use stash_dfs::{
    BlockKey, BlockSource, DiskModel, NodeStore, Partitioner, RollupStore, MAX_BLOCKS_PER_FETCH,
};
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TimeBin, TimeRange};
use stash_model::{CellKey, MAX_CELLS_PER_QUERY};
use stash_net::{NetConfig, NodeId, Parked, Router};
use stash_obs::MetricsRegistry;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which system the cluster runs — the paper's two comparison points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The bare Galileo-like storage system: every query scans blocks
    /// ("the simple Galileo storage system", §VIII-C1).
    Basic,
    /// The full STASH middleware on top of the same storage.
    Stash,
}

/// Full configuration of a simulated deployment.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Storage nodes (the paper used 120; laptop default 8).
    pub n_nodes: usize,
    /// Subquery service workers per node (STASH graph evaluation, or a
    /// Basic share's block scan; may block on block fetches at other
    /// nodes). They are the cores a node serves Cells with.
    pub service_workers: usize,
    /// Block-fetch workers per node (disk scans; never block on peers).
    /// The tiers together model the paper's 8-core nodes while keeping the
    /// cross-node wait graph acyclic.
    pub fetch_workers: usize,
    pub mode: Mode,
    /// Toggle for the dynamic replication scheme (Fig. 6d compares on/off).
    pub enable_replication: bool,
    pub stash: StashConfig,
    pub net: NetConfig,
    pub disk: DiskModel,
    /// Geohash length of storage blocks.
    pub block_len: u8,
    /// Spatial domain of the dataset (NAM coverage).
    pub data_bbox: BBox,
    /// Temporal domain of the dataset (the paper's NAM year).
    pub data_time: TimeRange,
    pub generator: GeneratorConfig,
    /// Attribute count of the dataset schema (NAM: 4); [`ClusterConfig::check`]
    /// holds it to the generator schema's length.
    pub n_attrs: usize,
    /// Modeled CPU cost per observation scanned during block aggregation
    /// (virtual time; defines node capacity independent of the host's core
    /// count — DESIGN.md §2).
    pub scan_cost_per_obs: Duration,
    /// Modeled CPU cost per Cell served from the STASH graph (lookup,
    /// merge, serialization on the paper's nodes).
    pub cell_service_cost: Duration,
    /// Deadline of one sub-RPC reply: the front end's for one share of its
    /// scatter, a gatherer's for one FetchPartials.
    pub sub_rpc_timeout: Duration,
    pub distress_timeout: Duration,
    /// Base delay of the sub-RPC retry backoff
    /// ([`ClusterConfig::SUB_RPC_RETRIES`]).
    pub retry_backoff: Duration,
    /// Further runs of one share's whole ladder — SubQuery, retries,
    /// replica failover — after a failover that failed transiently; a
    /// producer's retries of an append batch.
    pub client_retries: u32,
    /// Blocks that boot truncated and grow through live ingestion
    /// (DESIGN.md §13). Empty (the default) means a fully sealed dataset —
    /// exactly the pre-ingest behavior.
    pub live_blocks: Vec<(Geohash, TimeBin)>,
    /// Fraction of each live block's rows present at boot; the rest arrive
    /// as streamed append batches.
    pub live_base_fraction: f64,
    /// Delta-patch resident Cells on the applying node (the STASH path).
    /// `false` is the ablation: every affected Cell is invalidated instead,
    /// forcing recomputation from DFS on next touch.
    pub ingest_patch: bool,
    /// Continuous-rollup policy (DESIGN.md §17). Disabled by default;
    /// enabled policies can only be built through
    /// [`crate::config::RollupPolicy`]'s validated constructors.
    pub rollup: RollupPolicy,
}

impl ClusterConfig {
    /// Geohash characters determining DHT placement (paper: 2).
    pub const PARTITION_PREFIX_LEN: u8 = 2;
    /// Retries per sub-RPC (SubQuery / FetchPartials) after the first
    /// attempt times out; each retry backs off exponentially from
    /// `retry_backoff` with deterministic jitter. When a share's retries
    /// are exhausted the front end recomputes it from DFS replicas with its
    /// owner excluded.
    pub const SUB_RPC_RETRIES: u32 = 2;
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_nodes: 8,
            service_workers: 3,
            fetch_workers: 2,
            mode: Mode::Stash,
            enable_replication: true,
            stash: StashConfig::default(),
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
            generator: GeneratorConfig::default(),
            n_attrs: 4,
            scan_cost_per_obs: Duration::from_nanos(400),
            cell_service_cost: Duration::from_nanos(500),
            sub_rpc_timeout: Duration::from_secs(30),
            distress_timeout: Duration::from_secs(2),
            retry_backoff: Duration::from_millis(10),
            client_retries: 2,
            live_blocks: Vec::new(),
            live_base_fraction: 0.5,
            ingest_patch: true,
            rollup: RollupPolicy::disabled(),
        }
    }
}

/// A point-in-time snapshot of one node's state, for experiment reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeStatsSnapshot {
    pub node_idx: usize,
    pub graph_cells: usize,
    pub guest_cells: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub derived: u64,
    pub evictions: u64,
    pub disk_reads: u64,
    pub disk_bytes: u64,
    pub subqueries: u64,
    pub reroutes: u64,
    pub guest_serves: u64,
    pub handoffs: u64,
    pub replicas_hosted: u64,
    /// Sends the fabric refused (peer crashed / shutdown) — each one is a
    /// failover trigger somewhere upstream.
    pub send_failures: u64,
    pub pending: usize,
}

/// A running simulated deployment (Fig. 4): storage nodes, fabric, gateway.
pub struct SimCluster {
    config: Arc<ClusterConfig>,
    router: Router<Msg>,
    nodes: Vec<Arc<NodeCtx>>,
    /// The front end's caller: every client handle asks through it.
    gateway: Arc<Caller>,
    partitioner: Partitioner,
    source: Arc<dyn BlockSource>,
    /// Same object as `source` when `live_blocks` is non-empty.
    live: Option<Arc<LiveSource>>,
    /// Shared continuous-rollup state, when the policy is enabled. Like the
    /// block source it models durable replicated state: node crash/restart
    /// does not lose rollup Cells or regress the watermark.
    rollup: Option<Arc<RollupStore>>,
    /// Each node's worker threads, by node index.
    threads: Vec<Vec<JoinHandle<()>>>,
}

/// What one [`SimCluster::apply_retention`] pass did (DESIGN.md §17).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetentionReport {
    /// Raw blocks actually dropped from the block store this pass.
    pub blocks_dropped: usize,
    /// Modeled on-disk bytes of the dropped blocks.
    pub raw_bytes_dropped: usize,
    /// Decoded-frame cache bytes freed across all nodes (exact — summed
    /// from each [`stash_dfs::FrameCache`]'s own accounting).
    pub cache_bytes_freed: usize,
    /// Blocks eligible under the horizon+watermark but kept because the
    /// policy has `downsample` off (measurement mode).
    pub blocks_eligible_kept: usize,
}

/// Build one node's store, context, and threads (its two worker tiers).
/// Shared by boot and by [`SimCluster::restart_node`] — a restarted node
/// goes through exactly this path, so it comes back with an *empty* STASH
/// graph and must recover via PLM-driven recomputation from DFS.
fn spawn_node(
    config: &Arc<ClusterConfig>,
    router: &Router<Msg>,
    partitioner: &Partitioner,
    source: &Arc<dyn BlockSource>,
    rollup: &Option<Arc<RollupStore>>,
    id: NodeId,
) -> (Arc<NodeCtx>, Vec<JoinHandle<()>>) {
    let node_idx = id.0;
    let store = NodeStore::new(
        node_idx,
        partitioner.clone(),
        config.block_len,
        config.data_bbox,
        config.data_time,
        config.disk.clone(),
        source.clone(),
        MAX_BLOCKS_PER_FETCH,
    )
    .with_scan_cost(config.scan_cost_per_obs);
    let clock = Arc::new(LogicalClock::new());
    let tiers = WorkTiers {
        service: router.delay_queue(id),
        fetch: router.delay_queue(id),
    };
    let ctx = Arc::new(NodeCtx::new(
        node_idx,
        Arc::clone(config),
        router.clone(),
        store,
        rollup.clone(),
        clock,
        tiers,
    ));
    // From here on the fabric hands this node's messages to its port, on
    // the sender's thread.
    let port_ctx = Arc::clone(&ctx);
    router.install_port(
        id,
        Arc::new(move |parked: Parked<Msg>| port_ctx.accept(parked)),
    );
    let tiers = [
        ("service", config.service_workers, false),
        ("fetch", config.fetch_workers, true),
    ];
    let mut threads = Vec::new();
    for (tier_name, count, fetch_tier) in tiers {
        for w in 0..count {
            let worker_ctx = Arc::clone(&ctx);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("stash-{tier_name}-{node_idx}-{w}"))
                    .spawn(move || worker_ctx.run_worker(fetch_tier))
                    .expect("spawn node worker"),
            );
        }
    }
    (ctx, threads)
}

impl SimCluster {
    /// Boot a cluster: spawns `n_nodes × (service + fetch workers)`
    /// threads, each node's two worker tiers. The fabric and the gateway
    /// have none: every message waits out its wire time on the thread that
    /// consumes it.
    pub fn new(config: ClusterConfig) -> Self {
        // Backstop for configs assembled as struct literals or edited field
        // by field after `build()`; a config fresh from the builder already
        // passed this check and cannot fail here.
        if let Err(e) = config.check() {
            panic!("invalid cluster config: {e}");
        }
        let config = Arc::new(config);
        let (router, mut endpoints) = Router::<Msg>::new(config.n_nodes + 1, config.net.clone());
        // The gateway's port takes every reply, so its inbox stays empty
        // and undrained.
        let gateway_ep = endpoints.pop().expect("gateway endpoint");
        let gateway = Arc::new(Caller::new(
            gateway_ep.id,
            router.clone(),
            Arc::new(MetricsRegistry::new()),
            config.retry_backoff,
        ));
        router.install_port(gateway.id, gateway.port());
        let partitioner = Partitioner::new(config.n_nodes, ClusterConfig::PARTITION_PREFIX_LEN);
        // Sealed dataset by default; with live blocks configured, the same
        // shared storage serves truncated blocks that grow via appends.
        let (live, source): (Option<Arc<LiveSource>>, Arc<dyn BlockSource>) =
            if config.live_blocks.is_empty() {
                let s = Arc::new(GenBlockSource::new(NamGenerator::new(
                    config.generator.clone(),
                )));
                (None, s)
            } else {
                let l = Arc::new(LiveSource::new(
                    NamGenerator::new(config.generator.clone()),
                    config.live_blocks.iter().copied(),
                    config.live_base_fraction,
                ));
                (Some(Arc::clone(&l)), l)
            };

        // Continuous rollups (DESIGN.md §17): backfill every configured
        // level from the boot-resident blocks before any node (or stream)
        // starts, so live blocks contribute exactly their base rows and
        // every later append folds a delta on top.
        let rollup: Option<Arc<RollupStore>> = if config.rollup.is_enabled() {
            let live_keys = config
                .live_blocks
                .iter()
                .map(|&(geohash, day)| BlockKey { geohash, day });
            let store = RollupStore::new(
                config.rollup.levels().iter().copied(),
                live_keys,
                config.data_time.end,
            );
            store
                .backfill(
                    source.as_ref(),
                    config.block_len,
                    &config.data_bbox,
                    &config.data_time,
                    &config.stash.sketch,
                    MAX_CELLS_PER_QUERY,
                    MAX_BLOCKS_PER_FETCH,
                )
                .expect("rollup backfill over a checked config");
            Some(Arc::new(store))
        } else {
            None
        };

        // Nothing reaches a node through its inbox: dropping the endpoints
        // closes them.
        let (nodes, threads) = endpoints
            .into_iter()
            .map(|ep| spawn_node(&config, &router, &partitioner, &source, &rollup, ep.id))
            .unzip();

        SimCluster {
            config,
            router,
            nodes,
            gateway,
            partitioner,
            source,
            live,
            rollup,
            threads,
        }
    }

    /// Crash a node: the fabric closes its queues (in-flight deliveries are
    /// dropped, future sends are refused) and its workers wind down. The
    /// data it cached dies with it; its DFS blocks remain readable through
    /// the replica chain, so queries keep answering exactly.
    pub fn crash_node(&self, idx: usize) {
        assert!(idx < self.nodes.len(), "node index out of range");
        self.router.crash_node(NodeId(idx));
    }

    /// Restart a crashed node: a brand-new node context — empty STASH
    /// graph, empty guest graph, zeroed counters — is wired to the fabric
    /// while the node still refuses sends, and only then restarted, so
    /// every message sent to it from then on reaches its port. The crashed
    /// incarnation's workers are joined first: their queues are closed and
    /// their sends refused, so each ends with what it was doing. Recovery
    /// is PLM-driven: the first queries that land on the new node recompute
    /// their Cells from DFS.
    pub fn restart_node(&mut self, idx: usize) {
        assert!(idx < self.nodes.len(), "node index out of range");
        assert!(self.is_crashed(idx), "restart of live node {idx}");
        for t in self.threads[idx].drain(..) {
            t.join().expect("a worker of the crashed node panicked");
        }
        let (ctx, threads) = spawn_node(
            &self.config,
            &self.router,
            &self.partitioner,
            &self.source,
            &self.rollup,
            NodeId(idx),
        );
        self.router.restart_node(NodeId(idx));
        self.nodes[idx] = ctx;
        self.threads[idx] = threads;
    }

    /// Is this node currently crashed?
    pub fn is_crashed(&self, idx: usize) -> bool {
        self.router.is_crashed(NodeId(idx))
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// A new front-end handle.
    pub fn client(&self) -> ClusterClient {
        ClusterClient::new(
            Arc::clone(&self.gateway),
            self.partitioner.clone(),
            Arc::clone(&self.config),
        )
    }

    /// The underlying fabric — chaos scenarios install fault plans,
    /// partitions, and crashes directly on it.
    pub fn router(&self) -> &Router<Msg> {
        &self.router
    }

    /// A producer-side ingest handle: the [`stash_ingest::AppendSink`] that
    /// `stash_ingest::run_stream` pumps batches into (DESIGN.md §13).
    pub fn ingest_client(&self) -> IngestClient {
        IngestClient::new(
            Arc::clone(&self.gateway),
            self.partitioner.clone(),
            self.config.sub_rpc_timeout,
            self.config.client_retries,
        )
    }

    /// The live (appendable) storage, if `live_blocks` was configured.
    pub fn live_source(&self) -> Option<&Arc<LiveSource>> {
        self.live.as_ref()
    }

    /// The shared continuous-rollup state, if the policy is enabled.
    pub fn rollup(&self) -> Option<&Arc<RollupStore>> {
        self.rollup.as_ref()
    }

    /// One retention pass (DESIGN.md §17): every block whose whole day ends
    /// at or before both the configured horizon and the rollup watermark is
    /// *eligible* — the rollup provably holds everything it would ever
    /// contribute. With `downsample` on, eligible blocks are dropped from
    /// the shared store (later reads are empty, versions jump to
    /// `u64::MAX` so stale decoded-frame cache entries lazily miss), each
    /// node's frame cache is purged with exact byte accounting, and every
    /// node's graphs get a region invalidation covering the block. With
    /// `downsample` off this only measures what a pass would free.
    ///
    /// Idempotent: a second pass over the same horizon drops nothing new.
    pub fn apply_retention(&self) -> RetentionReport {
        let mut report = RetentionReport::default();
        let (Some(rollup), Some(horizon)) = (&self.rollup, self.config.rollup.retention_horizon())
        else {
            return report;
        };
        for block in rollup.known_blocks() {
            if !rollup.retirable(&block, horizon) {
                continue;
            }
            if !self.config.rollup.downsample() {
                report.blocks_eligible_kept += 1;
                continue;
            }
            let bytes = self.source.block_bytes(block.geohash);
            let mut retired = false;
            for n in &self.nodes {
                let (r, freed) = n.store.retire_block(block);
                retired |= r;
                report.cache_bytes_freed += freed;
            }
            if retired {
                report.blocks_dropped += 1;
                report.raw_bytes_dropped += bytes;
                // Whatever any graph cached over this block predates the
                // drop; stale it so the next touch recomputes (and, at
                // rollup levels under the watermark, serves from the
                // rollup without raw data at all).
                self.invalidate_region(block.geohash.bbox(), block.day.range());
            }
        }
        report
    }

    /// The stream of append batches completing this cluster's live blocks:
    /// exactly the rows [`LiveSource`] withheld at boot, in the order and
    /// batching a real feed would deliver them. Panics when the cluster was
    /// not configured with `live_blocks`.
    pub fn live_stream(&self, batch_rows: usize) -> StreamSource {
        assert!(
            !self.config.live_blocks.is_empty(),
            "live_stream requires a cluster configured with live_blocks"
        );
        StreamSource::new(
            NamGenerator::new(self.config.generator.clone()),
            self.config.live_blocks.clone(),
            StreamConfig {
                base_fraction: self.config.live_base_fraction,
                batch_rows,
            },
        )
    }

    /// Gateway-side metrics (unexpected-message and stale-reply counters,
    /// `net.late_ns` of the client-side waits).
    pub fn gateway_obs(&self) -> &Arc<MetricsRegistry> {
        &self.gateway.obs
    }

    /// Direct node access for experiments and tests.
    pub fn node(&self, idx: usize) -> &Arc<NodeCtx> {
        &self.nodes[idx]
    }

    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Fabric-level counters.
    pub fn net_stats(&self) -> &stash_net::NetStats {
        self.router.stats()
    }

    /// Snapshot every node's counters.
    pub fn node_stats(&self) -> Vec<NodeStatsSnapshot> {
        self.nodes
            .iter()
            .map(|n| NodeStatsSnapshot {
                node_idx: n.node_idx,
                graph_cells: n.graph.len(),
                guest_cells: n.guest.len(),
                cache_hits: n.graph.stats().hits.load(Ordering::Relaxed),
                cache_misses: n.graph.stats().misses.load(Ordering::Relaxed),
                derived: n.graph.stats().derived.load(Ordering::Relaxed),
                evictions: n.graph.stats().evictions.load(Ordering::Relaxed),
                disk_reads: n.store.disk_stats().reads(),
                disk_bytes: n.store.disk_stats().bytes(),
                subqueries: n.obs.counter("subquery.recv").get(),
                reroutes: n.obs.counter("handoff.reroute").get(),
                guest_serves: n.obs.counter("handoff.guest.serve").get(),
                handoffs: n.obs.counter("handoff.ok").get(),
                replicas_hosted: n.obs.counter("handoff.guest.host").get(),
                send_failures: n.caller.refused.load(Ordering::Relaxed),
                pending: n.pending(),
            })
            .collect()
    }

    /// Total Cells cached across all local graphs.
    pub fn total_cached_cells(&self) -> usize {
        self.nodes.iter().map(|n| n.graph.len()).sum()
    }

    /// Pre-populate the STASH graphs with exactly these Cells, bypassing
    /// client timing — used by the zoom experiments (Fig. 7d/7e) that
    /// "randomly stack the STASH graph" with 50/75/100 % of the relevant
    /// Cells.
    pub fn warm_keys(&self, keys: &[CellKey]) -> Result<(), String> {
        for (owner, group) in by_owner(&self.partitioner, keys.iter().copied()) {
            self.nodes[owner]
                .eval_subquery(&group, false)
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Drop every cached Cell on every node (cold-start experiments).
    pub fn clear_cache(&self) {
        for n in &self.nodes {
            n.graph.clear();
            n.guest.clear();
        }
    }

    /// A storage update over `bbox` × `time`: stale every cached Cell
    /// overlapping it on every node (PLM bits, §IV-D). Every graph is
    /// marked when this returns.
    pub fn invalidate_region(&self, bbox: BBox, time: TimeRange) {
        for n in &self.nodes {
            n.graph.invalidate_region(&bbox, &time);
            n.guest.invalidate_region(&bbox, &time);
        }
    }

    /// Stop the deployment; also runs on drop. The fabric refuses later
    /// sends and closes every tier queue, so each worker ends with what it
    /// was doing and exits. Idempotent.
    pub fn shutdown(&self) {
        self.router.shutdown();
    }
}

impl Drop for SimCluster {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..).flatten() {
            // A panicked node thread shouldn't abort teardown.
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stash_geo::TemporalRes;
    use stash_model::AggQuery;

    fn small_config(mode: Mode) -> ClusterConfig {
        ClusterConfig::builder()
            .n_nodes(4)
            .service_workers(2)
            .fetch_workers(2)
            .mode(mode)
            .disk(DiskModel::free())
            .net(NetConfig {
                base_latency: Duration::from_micros(20),
                ..NetConfig::default()
            })
            .generator(GeneratorConfig {
                seed: 3,
                obs_per_deg2_per_day: 30.0,
                max_obs_per_block: 10_000,
                value_quantum: 0.0,
            })
            .build()
            .expect("small test config is valid")
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
    fn stash_cluster_answers_queries_and_caches() {
        let cluster = SimCluster::new(small_config(Mode::Stash));
        let client = cluster.client();
        let q = county_query();

        let cold = client.query(&q).run().expect("cold query");
        assert!(cold.total_count() > 0, "county query must see observations");
        assert_eq!(cold.cache_hits, 0);
        assert!(cold.misses > 0);

        let warm = client.query(&q).run().expect("warm query");
        assert_eq!(warm.misses, 0, "second identical query must be all hits");
        assert_eq!(warm.cache_hits, cold.misses);
        // Same data both times.
        assert_eq!(warm.total_count(), cold.total_count());
        assert_eq!(warm.cells.len(), cold.cells.len());
        assert!(cluster.total_cached_cells() > 0);
        cluster.shutdown();
    }

    #[test]
    fn basic_cluster_never_caches() {
        let cluster = SimCluster::new(small_config(Mode::Basic));
        let client = cluster.client();
        let q = county_query();
        let a = client.query(&q).run().expect("first");
        let b = client.query(&q).run().expect("second");
        assert_eq!(a.total_count(), b.total_count());
        assert_eq!(b.cache_hits, 0);
        assert_eq!(cluster.total_cached_cells(), 0);
        // Disk was read both times.
        let reads: u64 = cluster.node_stats().iter().map(|s| s.disk_reads).sum();
        assert!(reads > 0);
        cluster.shutdown();
    }

    #[test]
    fn basic_and_stash_agree_on_results() {
        let basic = SimCluster::new(small_config(Mode::Basic));
        let stash = SimCluster::new(small_config(Mode::Stash));
        let q = county_query();
        let rb = basic.client().query(&q).run().expect("basic");
        let rs = stash.client().query(&q).run().expect("stash");
        assert_eq!(rb.total_count(), rs.total_count());
        assert_eq!(rb.cells.len(), rs.cells.len());
        for (cb, cs) in rb.cells.iter().zip(&rs.cells) {
            assert_eq!(cb.key, cs.key);
            assert_eq!(cb.summary.count(), cs.summary.count());
        }
        basic.shutdown();
        stash.shutdown();
    }

    #[test]
    fn warm_keys_prepopulates() {
        let cluster = SimCluster::new(small_config(Mode::Stash));
        let q = county_query();
        let keys = q.target_keys(100_000).unwrap();
        cluster.warm_keys(&keys).unwrap();
        assert!(cluster.total_cached_cells() >= keys.len());
        let r = cluster.client().query(&q).run().unwrap();
        assert_eq!(r.misses, 0, "prewarmed query must not miss");
        cluster.shutdown();
    }

    #[test]
    fn clear_cache_resets() {
        let cluster = SimCluster::new(small_config(Mode::Stash));
        let client = cluster.client();
        let q = county_query();
        client.query(&q).run().unwrap();
        assert!(cluster.total_cached_cells() > 0);
        cluster.clear_cache();
        assert_eq!(cluster.total_cached_cells(), 0);
        let again = client.query(&q).run().unwrap();
        assert!(again.misses > 0, "cleared cache must miss again");
        cluster.shutdown();
    }

    #[test]
    fn invalidation_forces_recomputation() {
        let cluster = SimCluster::new(small_config(Mode::Stash));
        let client = cluster.client();
        let q = county_query();
        client.query(&q).run().unwrap();
        cluster.invalidate_region(q.bbox, q.time);
        let r = client.query(&q).run().unwrap();
        assert!(r.misses > 0, "stale cells must be recomputed");
        cluster.shutdown();
    }

    #[test]
    fn concurrent_clients_get_consistent_answers() {
        let cluster = SimCluster::new(small_config(Mode::Stash));
        let q = county_query();
        let expected = cluster.client().query(&q).run().unwrap().total_count();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let client = cluster.client();
                let q = q.clone();
                std::thread::spawn(move || client.query(&q).run().unwrap().total_count())
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), expected);
        }
        cluster.shutdown();
    }

    #[test]
    fn coarse_query_spanning_partitions() {
        // Resolution 1 cells span every partition; exercises the
        // FetchPartials merge path end to end.
        let cluster = SimCluster::new(small_config(Mode::Stash));
        let client = cluster.client();
        let q = AggQuery::new(
            BBox::from_corner_extent(25.0, -120.0, 20.0, 40.0),
            TimeRange::whole_day(2015, 2, 2),
            1,
            TemporalRes::Day,
        );
        let r = client.query(&q).run().expect("coarse query");
        assert!(r.total_count() > 0);
        // Compare against Basic mode.
        let basic = SimCluster::new(small_config(Mode::Basic));
        let rb = basic.client().query(&q).run().expect("basic coarse");
        assert_eq!(r.total_count(), rb.total_count());
        cluster.shutdown();
        basic.shutdown();
    }

    #[test]
    fn traced_queries_account_their_latency() {
        let cluster = SimCluster::new(small_config(Mode::Stash));
        let client = cluster.client();
        let q = county_query();
        let t0 = std::time::Instant::now();
        let (result, trace) = client.query(&q).traced().run().expect("traced query");
        let client_wall = t0.elapsed().as_nanos() as u64;
        assert!(result.total_count() > 0);
        assert!(trace.wall_ns > 0, "the front end must time itself");
        assert!(
            trace.local_sum_ns() <= trace.wall_ns,
            "local stage segments are disjoint wall slices: {} > {}",
            trace.local_sum_ns(),
            trace.wall_ns
        );
        assert!(
            client_wall >= trace.wall_ns,
            "client-visible latency includes the scatter's wall"
        );
        // A cold county query misses everywhere: DFS time must show up.
        assert!(trace.agg.dfs_ns > 0, "cold query must charge dfs time");
        // The front end recorded it, once, with no share retried.
        let gateway = cluster.gateway_obs();
        assert_eq!(gateway.counter("query.ok").get(), 1);
        assert_eq!(gateway.counter("query.err").get(), 0);
        assert_eq!(gateway.histogram("query.wall").snapshot().count(), 1);
        assert_eq!(gateway.counter("query.retries").get(), 0);
        // A warm repeat serves from cache: PLM/lookup time recorded.
        let (_, warm) = client.query(&q).traced().run().expect("warm traced query");
        assert!(warm.agg.plm_ns > 0, "warm query must charge plm lookups");
        cluster.shutdown();
    }

    /// Worker threads the cluster holds, across every node.
    fn held_threads(cluster: &SimCluster) -> usize {
        cluster.threads.iter().map(Vec::len).sum()
    }

    /// A node's threads are its two worker tiers: a default deployment holds
    /// 8 × (3 + 2), as many as the ES-like baseline booted from the same
    /// config, and a crash/restart cycle replaces the crashed node's
    /// workers instead of adding to them.
    #[test]
    fn a_node_holds_its_two_worker_tiers_and_nothing_else() {
        let config = ClusterConfig::default();
        let per_node = config.service_workers + config.fetch_workers;
        assert_eq!(held_threads(&SimCluster::new(config)), 8 * per_node);
        assert_eq!(8 * per_node, 40);

        let config = small_config(Mode::Stash);
        let per_node = config.service_workers + config.fetch_workers;
        let mut cluster = SimCluster::new(config);
        assert_eq!(held_threads(&cluster), 4 * per_node);
        let client = cluster.client();
        let want = client.query(&county_query()).run().unwrap();
        cluster.crash_node(1);
        cluster.restart_node(1);
        assert_eq!(held_threads(&cluster), 4 * per_node);
        let again = client.query(&county_query()).run().unwrap();
        assert_eq!(again.total_count(), want.total_count());
    }

    /// Teardown needs no message: dropping a cluster whose wire loses
    /// everything, with a partition still installed, joins every worker
    /// at once.
    #[test]
    fn a_cluster_behind_a_dead_wire_drops_within_a_second() {
        let cluster = SimCluster::new(small_config(Mode::Stash));
        cluster.client().query(&county_query()).run().unwrap();
        cluster
            .router()
            .install_faults(stash_net::FaultPlan::new(7).drop_all(1.0));
        cluster.router().set_partition(&[vec![0, 1], vec![2, 3]]);
        let (dropped, joined) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            drop(cluster);
            dropped.send(()).expect("the test waits");
        });
        let joined = joined.recv_timeout(Duration::from_secs(1));
        assert!(joined.is_ok(), "teardown took over a second");
    }

    #[test]
    #[should_panic(expected = "worker tier")]
    fn empty_worker_tier_rejected() {
        let mut c = small_config(Mode::Stash);
        c.service_workers = 0;
        let _ = SimCluster::new(c);
    }
}

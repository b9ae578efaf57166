//! Scatter/gather accounting and shape: one sub-query per owner, whatever
//! the size of that owner's share, and every fan-out sends before it works.
//!
//! The freshness policy (§V-C) scores an *accessed region* and decays by
//! logical time, so how a viewport travels on the wire must not show in an
//! owner's clock or in the trace: a remote owner's share is one evaluation
//! — one tick, one sub-query — exactly as the coordinator's own share is.
//! And a Cell that spans partitions is gathered with "up to one query
//! forwarding" (§IV-D) per block owner, all of them in flight while the
//! gathering node reads its own blocks. A hop costs what the wire model
//! says it costs: a warm hit the front end scatters is two of them whatever
//! its owner count, one a coordinator forwards is four, and little else.
//! A share that fails hands the whole query to a coordinator, once.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stash_cluster::{ClusterConfig, Mode, SimCluster};
use stash_data::GeneratorConfig;
use stash_dfs::{plan_blocks, DiskModel};
use stash_geo::time::epoch_seconds;
use stash_geo::{cover_bbox, BBox, TemporalRes, TimeBin, TimeRange};
use stash_model::{AggQuery, CellKey};
use stash_net::{FaultPlan, NetConfig};

fn config(mode: Mode) -> ClusterConfig {
    config_with_disk(mode, DiskModel::free())
}

fn config_with_disk(mode: Mode, disk: DiskModel) -> ClusterConfig {
    ClusterConfig::builder()
        .n_nodes(8)
        .mode(mode)
        .disk(disk)
        .generator(GeneratorConfig {
            seed: 12,
            obs_per_deg2_per_day: 40.0,
            max_obs_per_block: 10_000,
            value_quantum: 1.0 / 64.0,
        })
        .scan_cost_per_obs(Duration::ZERO)
        .cell_service_cost(Duration::ZERO)
        .build()
        .expect("scatter test config is valid")
}

#[test]
fn one_subquery_and_one_clock_tick_per_owner_share() {
    // A res-4 state-sized viewport centred on a corner of the 2-character
    // partition grid, so it is shared by several owners.
    let day = epoch_seconds(2015, 2, 2, 0, 0, 0);
    let query = AggQuery::new(
        BBox::from_corner_extent(37.375, -104.25, 4.0, 6.0),
        TimeRange::new(day, day + 86_400).unwrap(),
        4,
        TemporalRes::Day,
    );

    let stash = SimCluster::new(config(Mode::Stash));
    let mut shares: BTreeMap<usize, usize> = BTreeMap::new();
    for key in query.target_keys(usize::MAX).unwrap() {
        *shares
            .entry(stash.node(0).store.partitioner().owner_of_cell(&key))
            .or_default() += 1;
    }
    // Coordinate at the owner of the smallest share: the largest stays remote.
    let (&coordinator, _) = shares.iter().min_by_key(|(_, &n)| n).unwrap();
    let remote_owners = shares.len() - 1;
    let largest_remote = shares
        .iter()
        .filter(|(&o, _)| o != coordinator)
        .map(|(_, &n)| n)
        .max()
        .expect("viewport must reach a remote owner");
    assert!(
        largest_remote > 64,
        "largest remote share is {largest_remote} keys"
    );

    let basic = SimCluster::new(config(Mode::Basic));
    let truth = basic.client().query(&query).run().expect("basic");
    basic.shutdown();
    assert!(!truth.cells.is_empty());

    let clocks = |c: &SimCluster| -> Vec<u64> {
        (0..c.n_nodes())
            .map(|n| c.node(n).graph.clock().now())
            .collect()
    };
    let client = stash.client();
    // Cold, then warm: scan-and-insert and cache-hit evaluations alike.
    for pass in ["cold", "warm"] {
        let before = clocks(&stash);
        let (result, trace) = client
            .query(&query)
            .at(coordinator)
            .traced()
            .run()
            .expect("stash");
        assert_eq!(
            trace.subqueries as usize, remote_owners,
            "{pass}: sub-queries are counted per remote owner"
        );
        for (node, (b, a)) in before.iter().zip(clocks(&stash)).enumerate() {
            let ticks = u64::from(shares.contains_key(&node));
            assert_eq!(a - b, ticks, "{pass}: clock of node {node}");
        }
        assert_eq!(result.cells, truth.cells, "{pass}: answer vs Basic");
    }
    stash.shutdown();
}

#[test]
fn spanning_first_touch_overlaps_local_and_remote_scans() {
    // Only the disk costs anything: 2 ms per block read, one disk per node.
    let read_cost = Duration::from_millis(2);
    let disk = DiskModel {
        seek: read_cost,
        bytes_per_sec: f64::INFINITY,
    };
    let cluster = SimCluster::new(config_with_disk(Mode::Stash, disk));
    let cfg = cluster.config().clone();
    let part = cluster.node(0).store.partitioner().clone();
    let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0));

    // A resolution-1 Cell spans partitions. Take one whose owner — the
    // node that gathers it — is the lowest-indexed of its block owners:
    // the case where scanning locally before sending delays every peer.
    let (cell, blocks) = cover_bbox(&cfg.data_bbox, 1)
        .into_iter()
        .find_map(|gh| {
            let key = CellKey::new(gh, day);
            let plan = plan_blocks(
                &[key],
                cfg.block_len,
                &cfg.data_bbox,
                &cfg.data_time,
                cfg.stash.max_blocks_per_fetch,
            )
            .ok()?;
            let mut blocks: BTreeMap<usize, u32> = BTreeMap::new();
            for bk in plan.keys() {
                *blocks.entry(part.owner(bk.geohash)).or_default() += 1;
            }
            let gatherer = part.owner_of_cell(&key);
            (blocks.len() > 1 && blocks.keys().next() == Some(&gatherer)).then_some((key, blocks))
        })
        .expect("a res-1 Cell gathered by its lowest-indexed block owner");
    let gatherer = part.owner_of_cell(&cell);
    let slowest = read_cost * *blocks.values().max().unwrap();
    assert!(
        read_cost * blocks[&gatherer] * 2 >= slowest,
        "the local scan must be long enough to show: {blocks:?}"
    );

    let centre = cell.geohash.bbox();
    let query = AggQuery::new(
        BBox::from_corner_extent(
            (centre.min_lat + centre.max_lat) / 2.0,
            (centre.min_lon + centre.max_lon) / 2.0,
            0.5,
            0.5,
        ),
        day.range(),
        1,
        TemporalRes::Day,
    );
    assert_eq!(query.target_keys(usize::MAX).unwrap(), vec![cell]);
    let t0 = Instant::now();
    let result = cluster
        .client()
        .query(&query)
        .at(gatherer)
        .run()
        .expect("first touch");
    let wall = t0.elapsed();
    assert_eq!(result.misses, 1, "a first touch");
    assert!(
        wall >= slowest,
        "{wall:?}: the slowest owner's disk alone takes {slowest:?}"
    );
    // What the model billed is what was read: every block once, nowhere a
    // disk paid for a frame-cache hit (DESIGN.md §2b).
    let (reads, billed) =
        (0..cluster.n_nodes())
            .map(|n| cluster.node(n))
            .fold((0, 0), |(reads, billed), node| {
                (
                    reads + node.store.disk_stats().reads(),
                    billed + node.obs.counter("dfs.charge.disk_ns").get(),
                )
            });
    assert_eq!(reads, blocks.values().map(|&b| u64::from(b)).sum::<u64>());
    assert_eq!(Duration::from_nanos(billed), read_cost * reads as u32);
    // Every frame-cache miss is one read, and its decode is timed.
    let counter = |name: &str| -> u64 {
        (0..cluster.n_nodes())
            .map(|n| cluster.node(n).obs.counter(name).get())
            .sum()
    };
    assert_eq!(
        reads,
        counter("dfs.frame_cache.miss"),
        "disk reads vs frame-cache misses"
    );
    assert!(
        counter("dfs.decode_ns") > 0,
        "misses must charge decode time"
    );
    // local + slowest remote would be >= 1.5 x; max(local, slowest) is ~1 x.
    assert!(
        wall < slowest * 3 / 2,
        "{wall:?} for blocks per owner {blocks:?}: the gather waited for the \
         local scan before asking the peers (slowest owner {slowest:?})"
    );
    cluster.shutdown();
}

/// Two nodes in `mode`, the default wire, nothing else modeled.
fn two_nodes(mode: Mode) -> ClusterConfig {
    ClusterConfig::builder()
        .n_nodes(2)
        .mode(mode)
        .disk(DiskModel::free())
        .scan_cost_per_obs(Duration::ZERO)
        .cell_service_cost(Duration::ZERO)
        .sub_rpc_timeout(Duration::from_millis(250))
        .client_timeout(Duration::from_secs(5))
        .build()
        .expect("two-node config is valid")
}

/// Two nodes, the default wire, nothing else modeled, and a warm viewport
/// with a single owner: `(cluster, query, owner)`.
fn two_nodes_and_a_single_owner_viewport() -> (SimCluster, AggQuery, usize) {
    let cluster = SimCluster::new(two_nodes(Mode::Stash));
    assert_eq!(
        cluster.config().net.base_latency,
        NetConfig::default().base_latency
    );
    let day = epoch_seconds(2015, 2, 2, 0, 0, 0);
    let query = AggQuery::new(
        BBox::from_corner_extent(38.0, -105.0, 0.3, 0.6),
        TimeRange::new(day, day + 86_400).unwrap(),
        4,
        TemporalRes::Day,
    );
    let part = cluster.node(0).store.partitioner().clone();
    let keys = query.target_keys(usize::MAX).unwrap();
    let owner = part.owner_of_cell(&keys[0]);
    assert!(
        keys.iter().all(|k| part.owner_of_cell(k) == owner),
        "the viewport must have a single owner"
    );
    (cluster, query, owner)
}

/// A small viewport astride a partition edge whose two halves the two
/// nodes of `cluster` own, and its Cells per owner.
fn a_two_owner_viewport(cluster: &SimCluster) -> (AggQuery, BTreeMap<usize, usize>) {
    let day = epoch_seconds(2015, 2, 2, 0, 0, 0);
    let part = cluster.node(0).store.partitioner().clone();
    // Partition columns (2-character geohashes) are 11.25° of longitude wide.
    (1..8)
        .map(|k| {
            let edge = -123.75 + 11.25 * f64::from(k);
            AggQuery::new(
                BBox::from_corner_extent(38.0, edge - 0.3, 0.3, 0.6),
                TimeRange::new(day, day + 86_400).unwrap(),
                4,
                TemporalRes::Day,
            )
        })
        .find_map(|query| {
            let mut shares: BTreeMap<usize, usize> = BTreeMap::new();
            for key in query.target_keys(usize::MAX).unwrap() {
                *shares.entry(part.owner_of_cell(&key)).or_default() += 1;
            }
            (shares.len() == 2).then_some((query, shares))
        })
        .expect("some partition edge has an owner on each side")
}

/// A warm hit of `query` — coordinated at `at`, or scattered by the client
/// — with `subqueries` shares sent over the wire costs `hops` wire
/// latencies: each hop slept once, to its deadline, by the thread that
/// consumes the message.
fn assert_warm_hit_costs_its_hops(
    cluster: &SimCluster,
    query: &AggQuery,
    at: Option<usize>,
    subqueries: u32,
    hops: u32,
) {
    let wire = NetConfig::default();
    let client = cluster.client();
    let run = || {
        let call = client.query(query);
        match at {
            Some(node) => call.at(node).traced().run(),
            None => call.traced().run(),
        }
    };
    run().expect("warm-up");

    let modeled = wire.base_latency * hops;
    let warm_hit = || {
        let sent = cluster.net_stats().bytes_sent();
        let t0 = Instant::now();
        let (result, trace) = run().expect("warm hit");
        let wall = t0.elapsed();
        assert_eq!(
            (result.misses, trace.subqueries),
            (0, subqueries),
            "warm, {subqueries} share(s) on the wire"
        );
        // A sleep cannot end early: the lower bound holds on every run.
        assert!(
            wall >= modeled,
            "{wall:?} for {hops} hops of {:?}",
            wire.base_latency
        );
        assert!(
            Duration::from_nanos(trace.agg.wire_ns) >= modeled,
            "observed wire time {} ns",
            trace.agg.wire_ns
        );
        let bytes = cluster.net_stats().bytes_sent() - sent;
        let bandwidth = Duration::from_secs_f64(bytes as f64 / wire.bytes_per_sec);
        (wall, modeled + bandwidth + Duration::from_micros(200))
    };
    // A busy host only ever adds time, so the upper bound is asked of the
    // best of five rounds — spread out, so that the tests running beside
    // this one are not busy through all of them, and each a burst of
    // queries, so that the cores it wakes on are not asleep themselves.
    // Why a burst and not one query a round: the bound sits just above
    // this host's *median*. Alone on an idle 2-core VM a warm remote hit is
    // 100–115 µs over the model at best and 160–190 µs at p50 (four
    // wake-ups from idle at ~40 µs each plus ~30 µs of real work), so a
    // single try meets it 6 to 8 times in 10 there — and the other tests
    // of this file run beside it and only add time. With eight tries a
    // round, a round that misses means the host was busy, which is what
    // the five rounds are for.
    let mut walls = Vec::new();
    let met = (0..5).any(|round| {
        std::thread::sleep(Duration::from_millis(40 * round));
        (0..8).any(|_| {
            let (wall, upper) = warm_hit();
            walls.push(wall);
            wall <= upper
        })
    });
    assert!(
        met,
        "{walls:?}: never within 200 us of {hops} hops ({modeled:?}) + bandwidth"
    );
    // Every hop's wait was recorded by whoever finished it (`net.late_ns`).
    let queries = 1 + walls.len() as u64;
    let late: u64 = (0..cluster.n_nodes())
        .map(|n| &cluster.node(n).obs)
        .chain([cluster.gateway_obs()])
        .map(|obs| obs.histogram("net.late_ns").snapshot().count())
        .sum();
    assert!(late > queries, "{late} waits for {queries} queries");
}

#[test]
fn a_warm_remote_hit_costs_its_four_hops() {
    // Coordinated at the node that does not own it: client → coordinator
    // → owner → coordinator → client.
    let (cluster, query, owner) = two_nodes_and_a_single_owner_viewport();
    assert_warm_hit_costs_its_hops(&cluster, &query, Some(1 - owner), 1, 4);
    cluster.shutdown();
}

#[test]
fn a_warm_local_hit_costs_its_two_hops() {
    // Sent by the client, which knows the owner: client → owner → client.
    let (cluster, query, _) = two_nodes_and_a_single_owner_viewport();
    assert_warm_hit_costs_its_hops(&cluster, &query, None, 1, 2);
    cluster.shutdown();
}

#[test]
fn a_warm_hit_costs_two_hops_whatever_its_owners() {
    // Each owner gets its share from the client and answers it there, both
    // in flight at once: client → owners → client.
    let cluster = SimCluster::new(two_nodes(Mode::Stash));
    let (query, _) = a_two_owner_viewport(&cluster);
    assert_warm_hit_costs_its_hops(&cluster, &query, None, 2, 2);
    cluster.shutdown();
}

/// How often the front end's scatter answered and handed over, and how
/// many attempts the client made in all: the scatters plus the Queries the
/// nodes coordinated.
fn scatters_and_attempts(cluster: &SimCluster) -> (u64, u64, u64) {
    let gateway = cluster.gateway_obs();
    let ok = gateway.counter("query.scatter.ok").get();
    let fallback = gateway.counter("query.scatter.fallback").get();
    let coordinated: u64 = cluster
        .node_stats()
        .iter()
        .map(|s| s.queries_coordinated)
        .sum();
    (ok, fallback, ok + fallback + coordinated)
}

/// The cache-less answer to `query` on a fresh two-node cluster.
fn ground_truth(query: &AggQuery) -> stash_model::QueryResult {
    let basic = SimCluster::new(two_nodes(Mode::Basic));
    let truth = basic.client().query(query).run().expect("basic");
    basic.shutdown();
    assert!(!truth.cells.is_empty());
    truth
}

#[test]
fn a_crashed_owner_hands_the_scatter_to_a_coordinator() {
    let cluster = SimCluster::new(two_nodes(Mode::Stash));
    let (query, shares) = a_two_owner_viewport(&cluster);
    let truth = ground_truth(&query);
    let (&crashed, _) = shares.iter().next().unwrap();
    cluster.crash_node(crashed);
    let result = cluster.client().query(&query).run().expect("exact anyway");
    assert_eq!(result.cells, truth.cells);
    let (ok, fallback, attempts) = scatters_and_attempts(&cluster);
    assert_eq!((ok, fallback), (0, 1));
    assert!(attempts <= u64::from(cluster.config().client_retries) + 1);
    cluster.shutdown();
}

#[test]
fn a_lost_share_hands_the_scatter_to_a_coordinator() {
    let cluster = SimCluster::new(two_nodes(Mode::Stash));
    let (query, shares) = a_two_owner_viewport(&cluster);
    let truth = ground_truth(&query);
    // Every answer the smaller share's owner sends the front end is lost
    // (the gateway is the fabric's endpoint after the nodes); the home —
    // the owner of the larger share, ties to the lower index — coordinates
    // the fallback and hears from it.
    let (&lost, _) = shares
        .iter()
        .min_by_key(|&(&node, &n)| (n, Reverse(node)))
        .unwrap();
    let gateway = cluster.n_nodes();
    cluster
        .router()
        .install_faults(FaultPlan::new(7).drop_link(lost, gateway, 1.0));
    let result = cluster.client().query(&query).run().expect("exact anyway");
    assert_eq!(result.cells, truth.cells);
    assert!(cluster.net_stats().messages_dropped() > 0);
    let (ok, fallback, attempts) = scatters_and_attempts(&cluster);
    assert_eq!((ok, fallback), (0, 1));
    assert!(attempts <= u64::from(cluster.config().client_retries) + 1);
    cluster.shutdown();
}

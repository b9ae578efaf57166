//! Scatter/gather accounting and shape: one sub-query per owner, whatever
//! the size of that owner's share, and every fan-out sends before it works.
//!
//! The freshness policy (§V-C) scores an *accessed region* and decays by
//! logical time, so how a viewport travels on the wire must not show in an
//! owner's clock or in the trace: an owner's share is one evaluation — one
//! tick, one sub-query. And a Cell that spans partitions is gathered with
//! "up to one query forwarding" (§IV-D) per block owner, all of them in
//! flight while the gathering node reads its own blocks. A hop costs what
//! the wire model says it costs: a warm hit the front end scatters is two
//! of them whatever its owner count, and little else. A share that fails
//! costs only itself: the front end asks that owner again and then reads
//! its blocks off the replica chain, keeping every other share's answer.
//! Basic, the oracle every suite compares against, answers what the nodes'
//! block partials merge to.

use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use stash_cluster::{ClusterConfig, Mode, SimCluster};
use stash_data::GeneratorConfig;
use stash_dfs::{plan_reads, DiskModel, MAX_BLOCKS_PER_FETCH};
use stash_geo::time::epoch_seconds;
use stash_geo::{cover_bbox, BBox, TemporalRes, TimeBin, TimeRange};
use stash_model::{AggQuery, Cell, CellKey, CellSummary, QueryResult};
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

/// A res-4 state-sized viewport centred on a corner of the 2-character
/// partition grid, so it is shared by several owners.
fn state_viewport() -> AggQuery {
    let day = epoch_seconds(2015, 2, 2, 0, 0, 0);
    AggQuery::new(
        BBox::from_corner_extent(37.375, -104.25, 4.0, 6.0),
        TimeRange::new(day, day + 86_400).unwrap(),
        4,
        TemporalRes::Day,
    )
}

/// Cells of `query` per owner on `cluster`.
fn shares_of(cluster: &SimCluster, query: &AggQuery) -> BTreeMap<usize, usize> {
    let part = cluster.node(0).store.partitioner().clone();
    let mut shares: BTreeMap<usize, usize> = BTreeMap::new();
    for key in query.target_keys(usize::MAX).unwrap() {
        *shares.entry(part.owner_of_cell(&key)).or_default() += 1;
    }
    shares
}

/// The cache-less answer to `query` on a fresh cluster of `config`.
fn ground_truth(config: ClusterConfig, query: &AggQuery) -> QueryResult {
    let basic = SimCluster::new(config);
    let truth = basic.client().query(query).run().expect("basic");
    basic.shutdown();
    assert!(!truth.cells.is_empty());
    truth
}

#[test]
fn one_subquery_and_one_clock_tick_per_owner_share() {
    let query = state_viewport();
    let stash = SimCluster::new(config(Mode::Stash));
    let shares = shares_of(&stash, &query);
    assert!(shares.len() > 1, "the viewport must have several owners");
    let largest = shares.values().max().unwrap();
    assert!(*largest > 64, "largest share is {largest} keys");
    let truth = ground_truth(config(Mode::Basic), &query);

    let clocks = |c: &SimCluster| -> Vec<u64> {
        (0..c.n_nodes())
            .map(|n| c.node(n).graph.clock().now())
            .collect()
    };
    let client = stash.client();
    // Cold, then warm: scan-and-insert and cache-hit evaluations alike.
    for pass in ["cold", "warm"] {
        let before = clocks(&stash);
        let (result, trace) = client.query(&query).traced().run().expect("stash");
        assert_eq!(
            trace.subqueries as usize,
            shares.len(),
            "{pass}: sub-queries are counted per owner"
        );
        for (node, (b, a)) in before.iter().zip(clocks(&stash)).enumerate() {
            let ticks = u64::from(shares.contains_key(&node));
            assert_eq!(a - b, ticks, "{pass}: clock of node {node}");
        }
        assert_eq!(result.cells, truth.cells, "{pass}: answer vs Basic");
    }
    stash.shutdown();
}

/// Only the disk costs anything: 2 ms per block read, one disk per node.
const READ_COST: Duration = Duration::from_millis(2);

fn disk_only_cluster() -> SimCluster {
    let disk = DiskModel {
        seek: READ_COST,
        bytes_per_sec: f64::INFINITY,
    };
    SimCluster::new(config_with_disk(Mode::Stash, disk))
}

/// Blocks each node reads for `cell` under `exclude`, by the reader rule
/// (`plan_reads`); with `primaries`, by `owner_excluding` alone — the
/// rule before reads were balanced over the replica chain.
fn blocks_per_node(
    cluster: &SimCluster,
    cell: CellKey,
    exclude: &[usize],
    primaries: bool,
) -> BTreeMap<usize, u32> {
    let cfg = cluster.config();
    let part = cluster.node(0).store.partitioner();
    let plan = plan_reads(
        &[cell],
        cfg.block_len,
        &cfg.data_bbox,
        &cfg.data_time,
        MAX_BLOCKS_PER_FETCH,
        part,
        exclude,
    )
    .expect("a resolution-1 Cell's plan fits the budget");
    let mut blocks: BTreeMap<usize, u32> = BTreeMap::new();
    for (bk, _, reader) in plan {
        let node = if primaries {
            part.owner_excluding(bk.geohash, exclude)
        } else {
            reader
        };
        *blocks.entry(node).or_default() += 1;
    }
    blocks
}

/// A resolution-1 Cell of the day's data (it spans partitions), the first
/// that `pick` accepts, and a single-Cell query for it.
fn a_resolution_1_cell(
    cluster: &SimCluster,
    pick: impl Fn(CellKey) -> bool,
) -> (CellKey, AggQuery) {
    let cfg = cluster.config();
    let day = TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0));
    let cell = cover_bbox(&cfg.data_bbox, 1)
        .into_iter()
        .map(|gh| CellKey::new(gh, day))
        .find(|&key| pick(key))
        .expect("a resolution-1 Cell the test can use");
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
    (cell, query)
}

#[test]
fn spanning_first_touch_overlaps_local_and_remote_scans() {
    let cluster = disk_only_cluster();
    let part = cluster.node(0).store.partitioner().clone();
    // A resolution-1 Cell whose owner — the node that gathers it — is the
    // lowest-indexed of its block readers: the case where scanning locally
    // before sending delays every peer.
    let (cell, query) = a_resolution_1_cell(&cluster, |key| {
        let readers = blocks_per_node(&cluster, key, &[], false);
        readers.len() > 1 && readers.keys().next() == Some(&part.owner_of_cell(&key))
    });
    let gatherer = part.owner_of_cell(&cell);
    let blocks = blocks_per_node(&cluster, cell, &[], false);
    let slowest = READ_COST * *blocks.values().max().unwrap();
    assert!(
        READ_COST * blocks[&gatherer] * 2 >= slowest,
        "the local scan must be long enough to show: {blocks:?}"
    );
    let t0 = Instant::now();
    let result = cluster.client().query(&query).run().expect("first touch");
    let wall = t0.elapsed();
    assert_eq!(result.misses, 1, "a first touch");
    assert!(
        wall >= slowest,
        "{wall:?}: the slowest reader's disk alone takes {slowest:?}"
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
    assert_eq!(Duration::from_nanos(billed), READ_COST * reads as u32);
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
        "{wall:?} for blocks per reader {blocks:?}: the gather waited for the \
         local scan before asking the peers (slowest reader {slowest:?})"
    );
    cluster.shutdown();
}

#[test]
fn spanning_first_touch_after_an_owner_crash_stays_balanced() {
    let cluster = disk_only_cluster();
    let part = cluster.node(0).store.partitioner().clone();
    // The node holding the most blocks of a resolution-1 Cell, which is
    // not the node that gathers it. Failing over to the replica chain
    // alone, its successor would read its own blocks and the crashed
    // node's: at least twice what the balanced rule asks of anyone.
    let busiest = |key| {
        let primaries = blocks_per_node(&cluster, key, &[], true);
        let (&node, _) = primaries
            .iter()
            .max_by_key(|&(n, b)| (b, Reverse(n)))
            .unwrap();
        node
    };
    let (cell, query) = a_resolution_1_cell(&cluster, |key| {
        let crashed = busiest(key);
        let worst = |primaries| {
            let blocks = blocks_per_node(&cluster, key, &[crashed], primaries);
            *blocks.values().max().unwrap()
        };
        crashed != part.owner_of_cell(&key) && worst(true) >= 2 * worst(false)
    });
    let crashed = busiest(cell);
    let blocks = blocks_per_node(&cluster, cell, &[crashed], false);
    let balanced = READ_COST * *blocks.values().max().unwrap();
    let truth = ground_truth(config(Mode::Basic), &query);

    cluster.crash_node(crashed);
    let t0 = Instant::now();
    let result = cluster.client().query(&query).run().expect("exact anyway");
    let wall = t0.elapsed();
    assert_eq!(result.misses, 1, "a first touch");
    assert_eq!(result.cells, truth.cells, "answer vs fault-free Basic");
    assert!(
        wall < balanced * 3 / 2,
        "{wall:?} with node {crashed} down, blocks per reader {blocks:?} \
         (slowest balanced reader {balanced:?})"
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

/// A warm hit of `query` the client scatters, with `subqueries` shares
/// sent over the wire, costs `hops` wire latencies: each hop slept once, to
/// its deadline, by the thread that consumes the message.
fn assert_warm_hit_costs_its_hops(
    cluster: &SimCluster,
    query: &AggQuery,
    subqueries: u32,
    hops: u32,
) {
    let wire = NetConfig::default();
    let client = cluster.client();
    let run = || client.query(query).traced().run();
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
    // this host's *median*. Alone on an idle 2-core VM a warm hit of four
    // hops was 100–115 µs over the model at best and 160–190 µs at p50 (four
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
fn a_warm_local_hit_costs_its_two_hops() {
    // Sent by the client, which knows the owner: client → owner → client.
    let (cluster, query, _) = two_nodes_and_a_single_owner_viewport();
    assert_warm_hit_costs_its_hops(&cluster, &query, 1, 2);
    cluster.shutdown();
}

#[test]
fn a_warm_hit_costs_two_hops_whatever_its_owners() {
    // Each owner gets its share from the client and answers it there, both
    // in flight at once: client → owners → client.
    let cluster = SimCluster::new(two_nodes(Mode::Stash));
    let (query, _) = a_two_owner_viewport(&cluster);
    assert_warm_hit_costs_its_hops(&cluster, &query, 2, 2);
    cluster.shutdown();
}

/// A small viewport astride a corner of the partition grid whose four
/// quarters four different nodes of `cluster` own, and its Cells per owner.
fn a_four_owner_viewport(cluster: &SimCluster) -> (AggQuery, BTreeMap<usize, usize>) {
    let day = epoch_seconds(2015, 2, 2, 0, 0, 0);
    // Partition tiles (2-character geohashes) are 5.625° by 11.25°.
    let corners = (0..6).flat_map(|i| (0..6).map(move |j| (i, j)));
    corners
        .map(|(i, j)| {
            let (lat, lon) = (22.5 + 5.625 * f64::from(i), -123.75 + 11.25 * f64::from(j));
            AggQuery::new(
                BBox::from_corner_extent(lat - 0.3, lon - 0.6, 0.6, 1.2),
                TimeRange::new(day, day + 86_400).unwrap(),
                4,
                TemporalRes::Day,
            )
        })
        .map(|query| {
            let shares = shares_of(cluster, &query);
            (query, shares)
        })
        .find(|(_, shares)| shares.len() == 4)
        .expect("some partition corner has four owners")
}

#[test]
fn a_crashed_owner_costs_only_its_own_share() {
    let cluster = SimCluster::new(config(Mode::Stash));
    let (query, shares) = a_four_owner_viewport(&cluster);
    let truth = ground_truth(config(Mode::Basic), &query);
    // The scatter reaches the owners in node order: crash the last.
    let (&crashed, _) = shares.iter().next_back().unwrap();
    cluster.crash_node(crashed);
    let (result, trace) = cluster
        .client()
        .query(&query)
        .traced()
        .run()
        .expect("exact anyway");
    assert_eq!(result.cells, truth.cells);
    // The answered shares are kept: every healthy owner served its share
    // once, and only the crashed one's was recomputed from replicas.
    let stats = cluster.node_stats();
    for &owner in shares.keys().filter(|&&o| o != crashed) {
        assert_eq!(stats[owner].subqueries, 1, "SubQueries served by {owner}");
    }
    assert_eq!(trace.subqueries, 3, "the crashed owner's send was refused");
    assert_eq!((trace.retries, trace.failovers), (1, 1));
    cluster.shutdown();
}

#[test]
fn a_lost_share_is_asked_again_alone_then_failed_over() {
    let cluster = SimCluster::new(two_nodes(Mode::Stash));
    let (query, shares) = a_two_owner_viewport(&cluster);
    let truth = ground_truth(two_nodes(Mode::Basic), &query);
    // Every answer one owner sends the front end is lost (the gateway is
    // the fabric's endpoint after the nodes).
    let (&lost, _) = shares.iter().next().unwrap();
    let healthy = 1 - lost;
    let gateway = cluster.n_nodes();
    cluster
        .router()
        .install_faults(FaultPlan::new(7).drop_link(lost, gateway, 1.0));
    let (result, trace) = cluster
        .client()
        .query(&query)
        .traced()
        .run()
        .expect("exact anyway");
    assert_eq!(result.cells, truth.cells);
    assert!(cluster.net_stats().messages_dropped() > 0);
    // The dark owner got its first-wave SubQuery and the retry policy's
    // attempts; the healthy owner's one answer was kept.
    let retries = u64::from(ClusterConfig::SUB_RPC_RETRIES);
    let stats = cluster.node_stats();
    assert_eq!(stats[lost].subqueries, 1 + (retries + 1));
    assert_eq!(stats[healthy].subqueries, 1);
    assert_eq!((trace.retries, trace.failovers), (1, 1));
    let gateway = cluster.gateway_obs();
    assert_eq!(gateway.counter("query.retries").get(), 1);
    assert_eq!(gateway.counter("query.failovers").get(), 1);
    assert_eq!(gateway.counter("query.ok").get(), 1);
    cluster.shutdown();
}

/// Basic — the oracle every suite compares against — answers exactly the
/// merge of every node's own block partials, computed here with no route
/// at all: for a viewport shared by several owners and for Cells coarser
/// than a partition, gathered across nodes.
#[test]
fn basic_answers_the_merge_of_every_nodes_block_partials() {
    let cluster = SimCluster::new(config(Mode::Basic));
    let day = epoch_seconds(2015, 2, 2, 0, 0, 0);
    let coarse = AggQuery::new(
        BBox::from_corner_extent(25.0, -120.0, 20.0, 40.0),
        TimeRange::new(day, day + 86_400).unwrap(),
        1,
        TemporalRes::Day,
    );
    for query in [state_viewport(), coarse] {
        let keys = query.target_keys(usize::MAX).unwrap();
        let mut merged: BTreeMap<CellKey, CellSummary> = BTreeMap::new();
        for node in 0..cluster.n_nodes() {
            let partials = cluster.node(node).store.fetch_partials(&keys).unwrap();
            for (key, summary) in partials {
                match merged.entry(key) {
                    std::collections::btree_map::Entry::Vacant(e) => {
                        e.insert(summary);
                    }
                    std::collections::btree_map::Entry::Occupied(mut e) => {
                        e.get_mut().merge(&summary)
                    }
                }
            }
        }
        let want: Vec<Cell> = merged
            .into_iter()
            .filter(|(_, s)| !s.is_empty())
            .map(|(key, summary)| Cell { key, summary })
            .collect();
        assert!(!want.is_empty());
        let got = cluster.client().query(&query).run().expect("basic");
        assert_eq!(got.cells, want, "{query}");
        assert_eq!(got.misses, keys.len());
    }
    cluster.shutdown();
}

//! Deterministic chaos scenarios over the simulated STASH cluster.
//!
//! Every scenario scripts faults against the fabric's fault plane and holds
//! the system to one standard: **the answer never changes**. A fault may
//! cost latency (timeouts, retries, failover to DFS replicas) but the cells
//! a client receives must be byte-for-byte the cells a fault-free cluster
//! returns for the same workload.

use stash_chaos::{assert_results_match, chaos_config, grid_queries, ground_truth, run_workload};
use stash_cluster::{ClusterConfig, Mode, SimCluster};
use stash_dfs::Partitioner;
use stash_geo::{BBox, TemporalRes, TimeRange};
use stash_model::AggQuery;
use stash_net::FaultPlan;
use std::time::Duration;

fn county_query() -> AggQuery {
    AggQuery::new(
        BBox::from_corner_extent(38.0, -105.0, 0.6, 1.2),
        TimeRange::whole_day(2015, 2, 2),
        4,
        TemporalRes::Day,
    )
}

/// A viewport wide enough that its Cells land on every node of a 4-node
/// ring, so partition scenarios are guaranteed to hit a stranded owner.
/// Placement hashes the geohash-2 prefix (~5.6°×11.25° tiles), so only a
/// continent-scale view spans enough prefixes to touch all owners.
fn wide_query() -> AggQuery {
    AggQuery::new(
        BBox::from_corner_extent(22.0, -128.0, 30.0, 60.0),
        TimeRange::whole_day(2015, 2, 2),
        2,
        TemporalRes::Day,
    )
}

/// ISSUE acceptance scenario: a 5% uniform message-drop plan (plus a pinch
/// of duplication and jitter), ≥200 client queries, zero errors, results
/// identical to a fault-free run.
#[test]
fn lossy_links_never_surface_to_the_client() {
    let mut config = chaos_config(Mode::Stash);
    config.sub_rpc_timeout = Duration::from_millis(80);
    config.retry_backoff = Duration::from_millis(2);
    let queries = grid_queries(10); // 200 interactions
    let truth = ground_truth(config.clone(), &queries);

    let cluster = SimCluster::new(config);
    cluster.router().install_faults(
        FaultPlan::new(42)
            .drop_all(0.05)
            .duplicate_all(0.02)
            .delay_all(Duration::from_millis(1), 0.10),
    );
    let client = cluster.client();
    let results = run_workload(&client, &queries);

    let mut errors = 0usize;
    for (i, (got, want)) in results.iter().zip(&truth).enumerate() {
        match got {
            Ok(r) => assert_results_match(r, want, &format!("query {i}")),
            Err(e) => {
                errors += 1;
                eprintln!("query {i} failed under 5% loss: {e:?}");
            }
        }
    }
    assert_eq!(
        errors, 0,
        "lossy fabric leaked {errors} errors to the client"
    );
    assert!(
        cluster.router().stats().messages_dropped() > 0,
        "the fault plan never actually dropped anything"
    );
    // Some of the losses hit a scatter's share: the front end asked those
    // shares again, alone, and the answers still came back exact.
    assert!(
        cluster.gateway_obs().counter("query.retries").get() > 0,
        "no share ever took the front end's retry ladder"
    );
    cluster.shutdown();
}

/// Same acceptance bar for the bare storage system: Basic mode has no STASH
/// cache to hide behind, so every query rides the FetchPartials
/// scatter/gather — retries and replica failover must carry it alone.
#[test]
fn basic_mode_scatter_gather_survives_drops() {
    let mut config = chaos_config(Mode::Basic);
    config.sub_rpc_timeout = Duration::from_millis(80);
    config.retry_backoff = Duration::from_millis(2);
    let queries = grid_queries(2); // 40 interactions, all cold
    let truth = ground_truth(config.clone(), &queries);

    let cluster = SimCluster::new(config);
    cluster
        .router()
        .install_faults(FaultPlan::new(1234).drop_all(0.05));
    let client = cluster.client();
    for (i, (got, want)) in run_workload(&client, &queries)
        .iter()
        .zip(&truth)
        .enumerate()
    {
        let r = got
            .as_ref()
            .unwrap_or_else(|e| panic!("query {i} failed: {e:?}"));
        assert_results_match(r, want, &format!("basic query {i}"));
    }
    cluster.shutdown();
}

/// A 3-way partition strands two owners outside the front end's group. Their
/// shares must be read off the replica chain *inside its group* and still
/// answer exactly; after healing, the stranded nodes serve again.
#[test]
fn three_way_partition_serves_exactly_from_in_group_replicas() {
    let mut config = chaos_config(Mode::Stash);
    config.sub_rpc_timeout = Duration::from_millis(150);
    config.retry_backoff = Duration::from_millis(3);
    let q = wide_query();

    // Precondition: the viewport really does have owners in the stranded
    // groups, otherwise this scenario wouldn't test anything.
    let partitioner = Partitioner::new(config.n_nodes, ClusterConfig::PARTITION_PREFIX_LEN);
    let owners: std::collections::BTreeSet<usize> = q
        .target_keys(200_000)
        .expect("valid query")
        .iter()
        .map(|k| partitioner.owner_of_cell(k))
        .collect();
    assert!(
        owners.contains(&2) && owners.contains(&3),
        "wide query must place Cells on the stranded nodes (owners: {owners:?})"
    );

    let truth = ground_truth(config.clone(), std::slice::from_ref(&q));
    let cluster = SimCluster::new(config);
    let client = cluster.client();

    // Groups are fabric endpoints: nodes 0..4 plus the client gateway (4),
    // which stays with nodes 0 and 1.
    cluster
        .router()
        .set_partition(&[vec![0, 1, 4], vec![2], vec![3]]);
    let dropped_before = cluster.router().stats().messages_dropped();
    let r = client
        .query(&q)
        .run()
        .expect("in-group replica chain must keep the answer exact");
    assert_results_match(&r, &truth[0], "partitioned query");
    assert!(
        cluster.router().stats().messages_dropped() > dropped_before,
        "partition dropped nothing — scenario never crossed group lines"
    );

    cluster.router().heal_partition();
    let served = |cluster: &SimCluster| cluster.node_stats()[2].subqueries;
    let before = served(&cluster);
    let healed = client.query(&q).run().expect("healed fabric serves again");
    assert_results_match(&healed, &truth[0], "post-heal query");
    assert_eq!(
        served(&cluster),
        before + 1,
        "node 2 serves its share again"
    );
    cluster.shutdown();
}

/// Crash an owner while a query is in flight: the in-flight query still
/// gets the exact answer (its share is failed over to DFS replicas), the
/// whole workload answers exactly around the corpse, and a restarted owner
/// serves its shares again.
#[test]
fn owner_crash_mid_scatter_stays_exact_and_cluster_recovers() {
    let config = chaos_config(Mode::Stash);
    let queries = grid_queries(1); // 20 distinct viewports
    let truth = ground_truth(config.clone(), &queries);
    let q = &queries[5];
    let partitioner = Partitioner::new(config.n_nodes, ClusterConfig::PARTITION_PREFIX_LEN);
    let victim = partitioner.owner_of_cell(&q.target_keys(200_000).expect("valid query")[0]);

    let mut cluster = SimCluster::new(config);
    let client = cluster.client();

    let in_flight = std::thread::scope(|s| {
        let racer = client.clone();
        let h = s.spawn(move || racer.query(q).run());
        std::thread::sleep(Duration::from_millis(1));
        cluster.crash_node(victim);
        h.join()
            .expect("in-flight query must return, not hang or panic")
    });
    // Whether the owner answered before the crash or not, the answer is
    // exact: a lost share is failed over, the others are kept.
    let r = in_flight.expect("a crash mid-scatter costs latency, not the answer");
    assert_results_match(&r, &truth[5], "reply that raced the crash");

    // The full workload with the owner down: zero errors.
    for (i, (got, want)) in run_workload(&client, &queries)
        .iter()
        .zip(&truth)
        .enumerate()
    {
        let r = got
            .as_ref()
            .unwrap_or_else(|e| panic!("query {i} failed with a node down: {e:?}"));
        assert_results_match(r, want, &format!("query {i} with node {victim} down"));
    }

    cluster.restart_node(victim);
    let back = client.query(q).run().expect("restarted owner serves again");
    assert_results_match(&back, &truth[5], "post-restart query");
    assert!(
        cluster.node_stats()[victim].subqueries > 0,
        "the restarted owner must serve its share again"
    );
    cluster.shutdown();
}

/// Crash the *owner* of a viewport's Cells: sub-queries fail over to DFS
/// replicas and stay exact. On restart the node comes back with an empty
/// STASH graph and must repopulate it by recomputation from DFS — the
/// PLM-driven recovery path.
#[test]
fn owner_crash_fails_over_and_restart_recomputes_from_dfs() {
    let config = chaos_config(Mode::Stash);
    let q = county_query();
    let keys = q.target_keys(200_000).expect("valid query");
    let partitioner = Partitioner::new(config.n_nodes, ClusterConfig::PARTITION_PREFIX_LEN);
    let owner = partitioner.owner_of_cell(&keys[0]);
    let truth = ground_truth(config.clone(), std::slice::from_ref(&q));

    let mut cluster = SimCluster::new(config);
    let client = cluster.client();

    cluster.crash_node(owner);
    let r = client
        .query(&q)
        .run()
        .expect("dead-owner sub-queries must fail over to DFS replicas");
    assert_results_match(&r, &truth[0], "query with the owner down");

    cluster.restart_node(owner);
    assert_eq!(
        cluster.node_stats()[owner].graph_cells,
        0,
        "a restarted node must come back with an empty STASH graph"
    );
    let again = client.query(&q).run().expect("query after owner restart");
    assert_results_match(&again, &truth[0], "query after owner restart");
    assert!(
        cluster.node_stats()[owner].graph_cells > 0,
        "recovery must recompute the owner's Cells from DFS"
    );
    cluster.shutdown();
}

/// Crash a viewport's only owner: the front end's SubQuery is refused, its
/// retry too, and the share is recomputed from the owner's DFS replicas by
/// the front end itself — once, exactly, with no other node serving it.
#[test]
fn a_crashed_sole_owner_is_failed_over_once_and_the_answer_stays_exact() {
    let config = chaos_config(Mode::Stash);
    let q = county_query();
    let partitioner = Partitioner::new(config.n_nodes, ClusterConfig::PARTITION_PREFIX_LEN);
    let keys = q.target_keys(200_000).expect("valid query");
    let owner = partitioner.owner_of_cell(&keys[0]);
    assert!(
        keys.iter().all(|k| partitioner.owner_of_cell(k) == owner),
        "the viewport must have a single owner"
    );
    let truth = ground_truth(config.clone(), std::slice::from_ref(&q));

    let cluster = SimCluster::new(config);
    cluster.crash_node(owner);
    let (r, trace) = cluster
        .client()
        .query(&q)
        .traced()
        .run()
        .expect("the front end must fail a dead owner's share over");
    assert_results_match(&r, &truth[0], "query with its owner down");
    assert_eq!(
        (trace.subqueries, trace.retries, trace.failovers),
        (0, 1, 1)
    );
    let served: u64 = cluster.node_stats().iter().map(|s| s.subqueries).sum();
    assert_eq!(served, 0, "no node serves a crashed owner's share");
    assert_eq!(cluster.gateway_obs().counter("query.failovers").get(), 1);
    cluster.shutdown();
}

/// The schedule of a [`FaultPlan`] is a pure function of its seed: identical
/// plans agree on every decision, different seeds diverge, and link-scoped
/// rules never leak onto other links.
#[test]
fn fault_schedules_are_pure_functions_of_the_seed() {
    let build = |seed: u64| {
        FaultPlan::new(seed)
            .drop_all(0.05)
            .duplicate_all(0.02)
            .delay_all(Duration::from_millis(2), 0.2)
    };
    let a = build(7);
    let b = build(7);
    let c = build(8);
    let mut diverged = false;
    for src in 0..3 {
        for dst in 0..3 {
            if src == dst {
                continue;
            }
            for k in 0..200 {
                assert_eq!(
                    a.decide(src, dst, k),
                    b.decide(src, dst, k),
                    "same seed, same link, same message — different fate"
                );
                diverged |= a.decide(src, dst, k) != c.decide(src, dst, k);
            }
        }
    }
    assert!(diverged, "changing the seed changed nothing");

    let scoped = FaultPlan::new(7).drop_link(0, 1, 1.0);
    for k in 0..50 {
        assert!(
            scoped.decide(0, 1, k).drop,
            "scoped rule must fire on its link"
        );
        assert!(
            !scoped.decide(1, 0, k).drop,
            "reverse direction is a different link"
        );
        assert!(!scoped.decide(2, 1, k).drop, "other links are untouched");
    }
}

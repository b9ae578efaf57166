//! Deterministic chaos scenarios over the simulated STASH cluster.
//!
//! Every scenario scripts faults against the fabric's fault plane and holds
//! the system to one standard: **the answer never changes**. A fault may
//! cost latency (timeouts, retries, failover to DFS replicas) but the cells
//! a client receives must be byte-for-byte the cells a fault-free cluster
//! returns for the same workload.

use stash_chaos::{assert_results_match, chaos_config, grid_queries, ground_truth, run_workload};
use stash_cluster::{Mode, SimCluster};
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
    config.client_timeout = Duration::from_millis(1000);
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
    // Some of the losses hit a scatter's share: those queries were
    // coordinated instead, and still came back exact.
    assert!(
        cluster
            .gateway_obs()
            .counter("query.scatter.fallback")
            .get()
            > 0,
        "no scatter ever handed a query to a coordinator"
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
    config.client_timeout = Duration::from_millis(1000);
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

/// A 3-way partition strands two owners outside the coordinator's group.
/// The coordinator must walk the replica chain *inside its group* and still
/// answer exactly; after healing, the stranded nodes serve again.
#[test]
fn three_way_partition_serves_exactly_from_in_group_replicas() {
    let mut config = chaos_config(Mode::Stash);
    config.sub_rpc_timeout = Duration::from_millis(150);
    config.retry_backoff = Duration::from_millis(3);
    config.client_timeout = Duration::from_secs(20);
    let q = wide_query();

    // Precondition: the viewport really does have owners in the stranded
    // groups, otherwise this scenario wouldn't test anything.
    let partitioner = Partitioner::new(config.n_nodes, config.partition_prefix_len);
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
    // which stays with the coordinator.
    cluster
        .router()
        .set_partition(&[vec![0, 1, 4], vec![2], vec![3]]);
    let dropped_before = cluster.router().stats().messages_dropped();
    let r = client
        .query(&q)
        .at(0)
        .run()
        .expect("in-group replica chain must keep the answer exact");
    assert_results_match(&r, &truth[0], "partitioned query");
    assert!(
        cluster.router().stats().messages_dropped() > dropped_before,
        "partition dropped nothing — scenario never crossed group lines"
    );

    cluster.router().heal_partition();
    let healed = client
        .query(&q)
        .at(2)
        .run()
        .expect("healed fabric serves again");
    assert_results_match(&healed, &truth[0], "post-heal query");
    cluster.shutdown();
}

/// Crash a coordinator while a query is in flight: the client must get a
/// timely answer-or-error (never a hang), the round-robin client must route
/// around the corpse, and a restarted coordinator must serve again.
#[test]
fn coordinator_crash_mid_scatter_fails_fast_and_cluster_recovers() {
    let mut config = chaos_config(Mode::Stash);
    config.client_timeout = Duration::from_secs(2);
    let queries = grid_queries(1); // 20 distinct viewports
    let truth = ground_truth(config.clone(), &queries);

    let mut cluster = SimCluster::new(config);
    let client = cluster.client();
    let victim = 1usize;
    let q = &queries[5];

    let in_flight = std::thread::scope(|s| {
        let racer = client.clone();
        let h = s.spawn(move || racer.query(q).at(victim).run());
        std::thread::sleep(Duration::from_millis(1));
        cluster.crash_node(victim);
        h.join()
            .expect("in-flight query must return, not hang or panic")
    });
    // The race is fair game either way: a reply that beat the crash must be
    // exact; a reply that lost it must be an error, not a wrong answer.
    if let Ok(r) = &in_flight {
        assert_results_match(r, &truth[5], "reply that raced the crash");
    }

    // Direct routing at the corpse fails fast.
    assert!(
        client.query(q).at(victim).run().is_err(),
        "a crashed coordinator cannot answer"
    );

    // The retrying client routes around it: full workload, zero errors.
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
    let back = client
        .query(q)
        .at(victim)
        .run()
        .expect("restarted node coordinates again");
    assert_results_match(&back, &truth[5], "post-restart coordination");
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
    let partitioner = Partitioner::new(config.n_nodes, config.partition_prefix_len);
    let owner = partitioner.owner_of_cell(&keys[0]);
    let coordinator = (owner + 1) % config.n_nodes;
    let truth = ground_truth(config.clone(), std::slice::from_ref(&q));

    let mut cluster = SimCluster::new(config);
    let client = cluster.client();

    cluster.crash_node(owner);
    let r = client
        .query(&q)
        .at(coordinator)
        .run()
        .expect("dead-owner sub-queries must fail over to DFS replicas");
    assert_results_match(&r, &truth[0], "query with the owner down");

    cluster.restart_node(owner);
    assert_eq!(
        cluster.node_stats()[owner].graph_cells,
        0,
        "a restarted node must come back with an empty STASH graph"
    );
    let again = client
        .query(&q)
        .at(coordinator)
        .run()
        .expect("query after owner restart");
    assert_results_match(&again, &truth[0], "query after owner restart");
    assert!(
        cluster.node_stats()[owner].graph_cells > 0,
        "recovery must recompute the owner's Cells from DFS"
    );
    cluster.shutdown();
}

/// Crash a viewport's *home* — its owner, where a failed scatter is
/// coordinated: pinned there, the query errs; the rotating client's scatter
/// is refused, it skips the corpse, coordinates elsewhere, and the answer
/// stays exact.
#[test]
fn a_crashed_home_is_skipped_and_the_answer_stays_exact() {
    let config = chaos_config(Mode::Stash);
    let q = county_query();
    let partitioner = Partitioner::new(config.n_nodes, config.partition_prefix_len);
    let keys = q.target_keys(200_000).expect("valid query");
    let home = partitioner.owner_of_cell(&keys[0]);
    assert!(
        keys.iter().all(|k| partitioner.owner_of_cell(k) == home),
        "the viewport must have a single owner"
    );
    let truth = ground_truth(config.clone(), std::slice::from_ref(&q));

    let cluster = SimCluster::new(config);
    let client = cluster.client();
    cluster.crash_node(home);
    assert!(
        client.query(&q).at(home).run().is_err(),
        "a crashed home cannot coordinate"
    );
    let r = client
        .query(&q)
        .run()
        .expect("the rotating client must route around a crashed home");
    assert_results_match(&r, &truth[0], "query with its home down");
    let coordinated: Vec<u64> = cluster
        .node_stats()
        .iter()
        .map(|s| s.queries_coordinated)
        .collect();
    assert_eq!(coordinated[home], 0);
    assert_eq!(coordinated.iter().sum::<u64>(), 1, "{coordinated:?}");
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

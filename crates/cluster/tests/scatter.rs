//! Scatter/gather accounting: one sub-query per owner, whatever the size
//! of that owner's share.
//!
//! The freshness policy (§V-C) scores an *accessed region* and decays by
//! logical time, so how a viewport travels on the wire must not show in an
//! owner's clock or in the trace: a remote owner's share is one evaluation
//! — one tick, one sub-query — exactly as the coordinator's own share is.

use std::collections::BTreeMap;
use std::time::Duration;

use stash_cluster::{ClusterConfig, Mode, SimCluster};
use stash_data::GeneratorConfig;
use stash_dfs::DiskModel;
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, TemporalRes, TimeRange};
use stash_model::AggQuery;

fn config(mode: Mode) -> ClusterConfig {
    ClusterConfig::builder()
        .n_nodes(8)
        .mode(mode)
        .disk(DiskModel::free())
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

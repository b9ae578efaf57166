//! Cross-crate integration tests: the full STASH deployment against the
//! basic system as ground truth, across the paper's navigation operators.

use stash::cluster::{ClusterConfig, Mode, SimCluster};
use stash::core::StashConfig;
use stash::data::{GeneratorConfig, QuerySizeClass, WorkloadConfig, WorkloadGen};
use stash::dfs::DiskModel;
use stash::geo::{TemporalRes, TimeRange};
use stash::model::{AggQuery, QueryResult};

fn config(mode: Mode) -> ClusterConfig {
    ClusterConfig::builder()
        .n_nodes(3)
        .mode(mode)
        .disk(DiskModel::free())
        .generator(GeneratorConfig {
            seed: 99,
            obs_per_deg2_per_day: 40.0,
            max_obs_per_block: 50_000,
            value_quantum: 0.0,
        })
        .scan_cost_per_obs(std::time::Duration::ZERO)
        .cell_service_cost(std::time::Duration::ZERO)
        .build()
        .expect("end-to-end test config is valid")
}

fn workload() -> WorkloadGen {
    WorkloadGen::new(WorkloadConfig {
        spatial_res: 3,
        ..WorkloadConfig::default()
    })
}

/// Results must agree cell-by-cell on counts and extremes.
fn assert_same_answers(a: &QueryResult, b: &QueryResult, context: &str) {
    assert_eq!(a.cells.len(), b.cells.len(), "{context}: cell count");
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.key, cb.key, "{context}: key order");
        assert_eq!(
            ca.summary.count(),
            cb.summary.count(),
            "{context}: {:?}",
            ca.key
        );
        for i in 0..ca.summary.n_attrs() {
            assert_eq!(
                ca.summary.attr(i).unwrap().min(),
                cb.summary.attr(i).unwrap().min(),
                "{context}: min attr {i} at {:?}",
                ca.key
            );
            assert_eq!(
                ca.summary.attr(i).unwrap().max(),
                cb.summary.attr(i).unwrap().max(),
                "{context}: max attr {i} at {:?}",
                ca.key
            );
        }
    }
}

#[test]
fn full_exploration_session_matches_ground_truth() {
    let basic = SimCluster::new(config(Mode::Basic));
    let stash = SimCluster::new(config(Mode::Stash));
    let bc = basic.client();
    let sc = stash.client();
    let wl = workload();
    let mut rng = rand::thread_rng();

    // A realistic session: dice in, pan around, drill, roll up — every
    // response must equal the scan-everything ground truth even as the
    // cache warms, derives, and disperses freshness.
    let start = wl.random_bbox(&mut rng, QuerySizeClass::State);
    let mut session: Vec<AggQuery> = Vec::new();
    session.extend(wl.dice_descending(start, 4, 0.20));
    let focus = session.last().unwrap().bbox;
    session.extend(wl.pan_star(focus, 0.20));
    session.extend(wl.drill_down(focus, 2, 4));
    session.extend(wl.roll_up(focus, 4, 2));

    for (i, q) in session.iter().enumerate() {
        let truth = bc.query(q).run().expect("basic");
        let cached = sc.query(q).run().expect("stash");
        assert_same_answers(&truth, &cached, &format!("query {i}"));
    }
    // The session must have exercised the cache paths.
    let stats = stash.node_stats();
    let hits: u64 = stats.iter().map(|s| s.cache_hits).sum();
    assert!(hits > 0, "session produced no cache hits");
    basic.shutdown();
    stash.shutdown();
}

#[test]
fn eviction_pressure_never_corrupts_results() {
    // A cache far too small for the workload: constant replacement, yet
    // answers must stay exact.
    let mut cfg = config(Mode::Stash);
    cfg.stash = StashConfig {
        max_cells: 64,
        safe_fraction: 0.5,
        ..StashConfig::default()
    };
    let stash = SimCluster::new(cfg);
    let basic = SimCluster::new(config(Mode::Basic));
    let sc = stash.client();
    let bc = basic.client();
    // Resolution 4 state queries (~500 cells each) against 64-cell nodes:
    // every query forces replacement.
    let wl = WorkloadGen::new(WorkloadConfig {
        spatial_res: 4,
        ..WorkloadConfig::default()
    });
    let mut rng = rand::thread_rng();

    for _ in 0..2 {
        let start = wl.random_bbox(&mut rng, QuerySizeClass::State);
        for q in wl.pan_walk(&mut rng, start, 0.25, 4) {
            let truth = bc.query(&q).run().expect("basic");
            let cached = sc.query(&q).run().expect("stash");
            assert_same_answers(&truth, &cached, "eviction-pressure query");
        }
    }
    let evictions: u64 = stash.node_stats().iter().map(|s| s.evictions).sum();
    assert!(evictions > 0, "test must actually trigger replacement");
    stash.shutdown();
    basic.shutdown();
}

#[test]
fn temporal_resolutions_round_trip() {
    // Month-resolution queries span many day-blocks; hour queries split
    // them. Both must agree with ground truth.
    let basic = SimCluster::new(config(Mode::Basic));
    let stash = SimCluster::new(config(Mode::Stash));
    let bc = basic.client();
    let sc = stash.client();

    let bbox = stash::geo::BBox::from_corner_extent(40.0, -100.0, 1.0, 1.5);
    for (t_res, range) in [
        (TemporalRes::Hour, TimeRange::whole_day(2015, 2, 2)),
        (
            TemporalRes::Day,
            TimeRange::new(
                stash::geo::time::epoch_seconds(2015, 2, 1, 0, 0, 0),
                stash::geo::time::epoch_seconds(2015, 2, 4, 0, 0, 0),
            )
            .unwrap(),
        ),
        (
            TemporalRes::Month,
            TimeRange::new(
                stash::geo::time::epoch_seconds(2015, 2, 1, 0, 0, 0),
                stash::geo::time::epoch_seconds(2015, 3, 1, 0, 0, 0),
            )
            .unwrap(),
        ),
    ] {
        let q = AggQuery::new(bbox, range, 3, t_res);
        let truth = bc.query(&q).run().expect("basic");
        let cached_cold = sc.query(&q).run().expect("stash cold");
        let cached_warm = sc.query(&q).run().expect("stash warm");
        assert_same_answers(&truth, &cached_cold, &format!("{t_res} cold"));
        assert_same_answers(&truth, &cached_warm, &format!("{t_res} warm"));
        assert_eq!(cached_warm.misses, 0, "{t_res}: warm query must not fetch");
        assert!(truth.total_count() > 0, "{t_res}: no data touched");
    }
    basic.shutdown();
    stash.shutdown();
}

#[test]
fn rollup_after_drilldown_is_served_by_derivation() {
    let stash = SimCluster::new(config(Mode::Stash));
    let sc = stash.client();
    // Query exactly one coarse cell's extent at fine resolution, then roll
    // up: the coarse answer must be derived (no disk).
    let coarse = stash::geo::Geohash::encode(40.0, -100.0, 2).unwrap();
    let fine = AggQuery::new(
        coarse.bbox(),
        TimeRange::whole_day(2015, 2, 2),
        3,
        TemporalRes::Day,
    );
    sc.query(&fine).run().expect("fine");
    let disk_before: u64 = stash.node_stats().iter().map(|s| s.disk_reads).sum();
    let up = fine.rolled_up().unwrap();
    let r = sc.query(&up).run().expect("rollup");
    let disk_after: u64 = stash.node_stats().iter().map(|s| s.disk_reads).sum();
    assert_eq!(r.derived_hits, 1, "rollup must derive the coarse cell");
    assert_eq!(disk_after, disk_before, "derivation must not touch disk");
    stash.shutdown();
}

#[test]
fn staleness_invalidation_is_end_to_end() {
    let stash = SimCluster::new(config(Mode::Stash));
    let sc = stash.client();
    let wl = workload();
    let mut rng = rand::thread_rng();
    let q = wl.random_query(&mut rng, QuerySizeClass::County);

    sc.query(&q).run().expect("populate");
    let warm = sc.query(&q).run().expect("warm");
    assert_eq!(warm.misses, 0);

    // A storage update arrives for the region: all caches must recompute.
    stash.invalidate_region(q.bbox, q.time);
    let after = sc.query(&q).run().expect("after invalidation");
    assert!(after.misses > 0, "stale cells must be refetched");
    assert_eq!(
        after.total_count(),
        warm.total_count(),
        "recomputed data must match"
    );
    stash.shutdown();
}

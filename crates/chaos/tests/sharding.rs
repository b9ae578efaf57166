//! Scatter-exactness scenarios: the fabric and the scatter/gather on top
//! of it must be *invisible* to correctness.
//!
//! One `Msg::SubQuery` per owner answers exactly what the cache-less Basic
//! system answers, and when replies are lost the front end's per-share
//! ladder (retry, then replica failover) — the only retry route there is —
//! recovers the same answers. (This file used to also pin that answers do not depend on
//! the delivery-shard count; the fabric has no delivery threads any more,
//! and that its fault schedule is still the threaded fabric's is pinned by
//! a golden digest in `stash-net`,
//! `fault_schedule_matches_the_golden_of_the_threaded_fabric`.)

use stash_chaos::{assert_results_match, chaos_config, grid_queries, ground_truth};
use stash_cluster::{Mode, SimCluster};
use stash_net::FaultPlan;
use std::time::Duration;

fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drop_all(0.05)
        .duplicate_all(0.02)
        .delay_all(Duration::from_millis(1), 0.10)
}

/// Scatter/gather on a clean wire: every STASH answer is exactly the
/// Basic system's (no cache, every query scans blocks).
#[test]
fn clean_wire_scatter_matches_basic_ground_truth() {
    let queries = grid_queries(5);
    let basic = ground_truth(chaos_config(Mode::Basic), &queries);
    let stash = ground_truth(chaos_config(Mode::Stash), &queries);
    for (i, (got, want)) in stash.iter().zip(&basic).enumerate() {
        assert_results_match(got, want, &format!("clean-wire query {i} vs Basic"));
    }
}

/// The lossy-links acceptance bar: lost sub-queries and replies must flow
/// through the per-share retry ladder and still produce exact answers.
#[test]
fn scatter_survives_drops_exactly() {
    let mut config = chaos_config(Mode::Stash);
    config.sub_rpc_timeout = Duration::from_millis(80);
    config.retry_backoff = Duration::from_millis(2);
    let queries = grid_queries(5);
    let truth = ground_truth(config.clone(), &queries);

    let cluster = SimCluster::new(config);
    cluster.router().install_faults(lossy_plan(0xBADC0DE));
    let client = cluster.client();
    for (i, (query, want)) in queries.iter().zip(&truth).enumerate() {
        let r = client
            .query(query)
            .run()
            .unwrap_or_else(|e| panic!("query {i} failed under loss: {e:?}"));
        assert_results_match(&r, want, &format!("lossy query {i}"));
    }
    assert!(
        cluster.router().stats().messages_dropped() > 0,
        "the fault plan never actually dropped anything"
    );
    let retries = cluster.gateway_obs().counter("query.retries").get();
    assert!(retries > 0, "no share ever took the retry ladder");
    cluster.shutdown();
}

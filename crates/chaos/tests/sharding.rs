//! Sharded-fabric regression scenarios: the sharded delivery fabric and
//! the scatter/gather on top of it must be *invisible* to correctness.
//!
//! Two claims are pinned here (the router-level twin of the first —
//! identical per-link drop/duplicate/delay schedules — lives in
//! `stash-net`'s `fault_schedule_is_identical_across_shard_counts`):
//!
//! 1. **Shard-count independence** — the same `FaultPlan` seed produces
//!    identical query answers whether the fabric runs 1 delivery shard or
//!    K. Per-link fault counters live on the destination's one owning
//!    shard, so the deterministic schedule cannot depend on K.
//! 2. **Scatter exactness** — one `Msg::SubQuery` per owner answers
//!    exactly what the cache-less Basic system answers, and when replies
//!    are lost the straggler route (retry, then replica failover) — the
//!    only retry route there is — recovers the same answers.

use stash_chaos::{assert_results_match, chaos_config, grid_queries, ground_truth, run_workload};
use stash_cluster::{Mode, SimCluster};
use stash_net::FaultPlan;
use std::time::Duration;

fn lossy_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .drop_all(0.05)
        .duplicate_all(0.02)
        .delay_all(Duration::from_millis(1), 0.10)
}

/// Run the standard grid workload under a seeded lossy plan with a fixed
/// shard count; return the per-query answers (all must succeed).
fn run_sharded(shards: usize, seed: u64) -> Vec<stash_model::QueryResult> {
    let mut config = chaos_config(Mode::Stash);
    config.net.delivery_shards = shards;
    config.sub_rpc_timeout = Duration::from_millis(80);
    config.retry_backoff = Duration::from_millis(2);
    config.client_timeout = Duration::from_millis(1000);
    let queries = grid_queries(5); // 100 interactions
    let cluster = SimCluster::new(config);
    assert_eq!(cluster.router().n_shards(), shards);
    cluster.router().install_faults(lossy_plan(seed));
    let client = cluster.client();
    let results: Vec<_> = run_workload(&client, &queries)
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|e| panic!("query {i} failed with {shards} shards: {e:?}")))
        .collect();
    cluster.shutdown();
    results
}

/// Same seed, 1 vs 4 delivery shards: every answer is bit-for-bit the
/// fault-free answer in both runs — sharding the fabric changed nothing a
/// client can see.
#[test]
fn same_seed_same_answers_with_one_vs_many_shards() {
    let mut config = chaos_config(Mode::Stash);
    config.client_timeout = Duration::from_millis(1000);
    let queries = grid_queries(5);
    let truth = ground_truth(config, &queries);

    let single = run_sharded(1, 0xC0FFEE);
    let sharded = run_sharded(4, 0xC0FFEE);
    assert_eq!(single.len(), sharded.len());
    for (i, ((a, b), want)) in single.iter().zip(&sharded).zip(&truth).enumerate() {
        assert_results_match(a, want, &format!("query {i}, 1 shard vs truth"));
        assert_results_match(b, want, &format!("query {i}, 4 shards vs truth"));
        assert_results_match(a, b, &format!("query {i}, 1 vs 4 shards"));
    }
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
/// through the straggler/retry path and still produce exact answers.
#[test]
fn scatter_survives_drops_exactly() {
    let mut config = chaos_config(Mode::Stash);
    config.sub_rpc_timeout = Duration::from_millis(80);
    config.retry_backoff = Duration::from_millis(2);
    config.client_timeout = Duration::from_millis(1000);
    let queries = grid_queries(5);
    let truth = ground_truth(config.clone(), &queries);

    let cluster = SimCluster::new(config);
    cluster.router().install_faults(lossy_plan(0xBADC0DE));
    let client = cluster.client();
    for (i, (got, want)) in run_workload(&client, &queries)
        .iter()
        .zip(&truth)
        .enumerate()
    {
        let r = got
            .as_ref()
            .unwrap_or_else(|e| panic!("query {i} failed under loss: {e:?}"));
        assert_results_match(r, want, &format!("lossy query {i}"));
    }
    assert!(
        cluster.router().stats().messages_dropped() > 0,
        "the fault plan never actually dropped anything"
    );
    let retries: u64 = (0..cluster.n_nodes())
        .map(|n| cluster.node(n).obs.counter("query.retries").get())
        .sum();
    assert!(retries > 0, "no coordinator ever took the straggler route");
    cluster.shutdown();
}

//! Traces must stay honest under faults.
//!
//! Every answered query carries a [`QueryTrace`] whose `local` view is a set
//! of *disjoint* wall-clock segments measured on the front end's thread
//! (route, wait, retry, merge). Disjointness is a structural
//! claim, so it admits a structural check: the segments can never sum to
//! more than the front end's own wall clock, which in turn can never
//! exceed the latency the client observed — no matter how many messages the
//! fabric drops, duplicates, or delays along the way. If instrumentation
//! ever double-counts a segment (say, charging a backoff nap to both retry
//! and wait), faulty runs are exactly where the books stop balancing, so
//! this scenario drives the full grid workload through a 5% loss plan and
//! audits every trace.

use stash_chaos::{chaos_config, grid_queries};
use stash_cluster::{Mode, SimCluster};
use stash_net::FaultPlan;
use std::time::Instant;

#[test]
fn traces_stay_consistent_under_faults() {
    let mut config = chaos_config(Mode::Stash);
    config.sub_rpc_timeout = std::time::Duration::from_millis(80);
    config.retry_backoff = std::time::Duration::from_millis(2);
    let queries = grid_queries(5); // 100 interactions, cold round then cached

    let cluster = SimCluster::new(config);
    cluster
        .router()
        .install_faults(FaultPlan::new(2024).drop_all(0.05));
    let client = cluster.client();

    let mut audited = 0usize;
    for (i, q) in queries.iter().enumerate() {
        let start = Instant::now();
        let (result, trace) = match client.query(q).traced().run() {
            Ok(ok) => ok,
            Err(e) => panic!("query {i} failed under 5% loss: {e:?}"),
        };
        let client_wall_ns = start.elapsed().as_nanos() as u64;
        assert!(!result.cells.is_empty(), "query {i} returned no cells");

        // The front end's disjoint stage segments fit inside its wall
        // clock, and its wall clock fits inside the client's.
        assert!(trace.wall_ns > 0, "query {i}: empty wall clock");
        assert!(
            trace.local.sum_ns() <= trace.wall_ns,
            "query {i}: local stages sum to {} ns > front-end wall {} ns",
            trace.local.sum_ns(),
            trace.wall_ns
        );
        assert!(
            trace.wall_ns <= client_wall_ns,
            "query {i}: front-end wall {} ns > client-visible {} ns",
            trace.wall_ns,
            client_wall_ns
        );
        audited += 1;
    }

    assert_eq!(audited, queries.len());
    assert!(
        cluster.router().stats().messages_dropped() > 0,
        "the fault plan never actually dropped anything"
    );

    // The stage accounting above already confirms frame-cache time is
    // inside the dfs segment (local.sum ≤ wall held for every trace);
    // now confirm the cache actually ran: the grid's 1.2° step is finer
    // than a res-3 block's extent, so neighboring queries re-touch blocks
    // and must score hits even within the cold round.
    let kernel = |name: &str| -> u64 {
        (0..cluster.n_nodes())
            .map(|i| cluster.node(i).obs.counter(name).get())
            .sum()
    };
    assert!(
        kernel("dfs.frame_cache.miss") > 0,
        "cold round must miss the frame cache"
    );
    assert!(
        kernel("dfs.frame_cache.hit") > 0,
        "overlapping grid queries must hit the frame cache"
    );
    assert!(kernel("dfs.rows_decoded") > 0, "misses must decode rows");
    cluster.shutdown();
}

//! Chaos recovery walkthrough: crash the node that owns a viewport's
//! Cells, watch the query fail over to DFS replicas with an identical
//! answer, then restart the node and watch PLM-driven recomputation
//! repopulate its (wiped) STASH graph — again with an identical answer.
//!
//! The invariant on display is the one the chaos suite enforces: faults
//! may cost latency, but they never change what a query returns, because
//! every cached Cell can be recomputed exactly from DFS blocks.
//!
//! Run with:
//! ```sh
//! cargo run --release --example chaos_recovery
//! ```

use stash::cluster::{ClusterConfig, Mode, SimCluster};
use stash::dfs::{DiskModel, Partitioner};
use stash::geo::{BBox, TemporalRes, TimeRange};
use stash::model::{AggQuery, QueryResult};
use stash::net::FaultPlan;
use std::time::Duration;

fn same_cells(a: &QueryResult, b: &QueryResult) -> bool {
    a.total_count() == b.total_count()
        && a.cells.len() == b.cells.len()
        && a.cells
            .iter()
            .zip(&b.cells)
            .all(|(x, y)| x.key == y.key && x.summary.count() == y.summary.count())
}

fn main() {
    let config = ClusterConfig::builder()
        .n_nodes(4)
        .mode(Mode::Stash)
        .disk(DiskModel::free())
        // Short sub-RPC deadlines so failover is visible in seconds, not
        // the production-sized defaults.
        .sub_rpc_timeout(Duration::from_millis(250))
        .retry_backoff(Duration::from_millis(5))
        .build()
        .expect("chaos recovery example config is valid");
    let query = AggQuery::new(
        BBox::from_corner_extent(38.0, -105.0, 0.6, 1.2), // a county viewport
        TimeRange::whole_day(2015, 2, 2),
        4,
        TemporalRes::Day,
    );

    // Every node derives placement from the same pure partitioner, so the
    // front-end can name the owner without asking anyone.
    let keys = query.target_keys(200_000).expect("valid query");
    let partitioner = Partitioner::new(config.n_nodes, ClusterConfig::PARTITION_PREFIX_LEN);
    let owner = partitioner.owner_of_cell(&keys[0]);

    let mut cluster = SimCluster::new(config);
    let client = cluster.client();

    let healthy = client.query(&query).run().expect("healthy query");
    println!(
        "healthy cluster : {} cells, {} observations (owner of the viewport: node {owner})",
        healthy.cells.len(),
        healthy.total_count()
    );

    println!("\n--- crash node {owner} ---");
    cluster.crash_node(owner);
    let failed_over = client
        .query(&query)
        .run()
        .expect("the front end fails the share over to DFS replicas");
    println!(
        "owner down      : {} cells, {} observations — identical: {}",
        failed_over.cells.len(),
        failed_over.total_count(),
        same_cells(&failed_over, &healthy)
    );
    let failovers = cluster.gateway_obs().counter("query.failovers").get();
    println!(
        "the fabric refused the front end's SubQueries to the corpse; \
         {failovers} share(s) recomputed from replicas"
    );

    println!("\n--- restart node {owner} ---");
    cluster.restart_node(owner);
    println!(
        "node {owner} is back with an empty STASH graph ({} cells cached)",
        cluster.node_stats()[owner].graph_cells
    );
    let recovered = client.query(&query).run().expect("query after restart");
    println!(
        "after restart   : {} cells, {} observations — identical: {}",
        recovered.cells.len(),
        recovered.total_count(),
        same_cells(&recovered, &healthy)
    );
    println!(
        "PLM recomputed the owner's share from DFS: node {owner} now caches {} cells",
        cluster.node_stats()[owner].graph_cells
    );

    // Encore: the same invariant under a lossy fabric. 5% of all messages
    // vanish; retries and failover keep every answer exact.
    println!("\n--- 5% uniform message loss ---");
    cluster
        .router()
        .install_faults(FaultPlan::new(42).drop_all(0.05));
    let mut exact = 0;
    let rounds = 20;
    for _ in 0..rounds {
        let r = client.query(&query).run().expect("lossy query");
        exact += same_cells(&r, &healthy) as usize;
    }
    println!(
        "{exact}/{rounds} lossy queries identical; fabric dropped {} messages along the way",
        cluster.router().stats().messages_dropped()
    );

    assert_eq!(exact, rounds, "lossy answers diverged");
    assert!(same_cells(&failed_over, &healthy) && same_cells(&recovered, &healthy));
    println!("\nall answers identical — faults cost latency, never correctness");
    cluster.shutdown();
}

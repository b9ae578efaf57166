//! # stash-chaos
//!
//! Deterministic fault-injection scenarios for the STASH cluster.
//!
//! The fabric's fault plane (`stash-net`) derives every drop/duplicate/delay
//! decision from a pure hash of `(plan seed, link, message index)`, so a
//! scenario's fault schedule is a function of its seed — rerunning a
//! scenario replays the same faults. The scenarios in `tests/` exercise the
//! robustness layer end to end: lossy links, multi-way partitions, owner
//! crashes mid-scatter, and owner crashes with PLM-driven recovery, each
//! asserting that answers stay **exactly** equal to a fault-free run of the
//! very same workload.
//!
//! This crate's library is the shared scenario toolkit: a cluster
//! configuration tuned for fault runs (tight sub-RPC deadlines so failover
//! happens in test time, generous client retries so transient faults never
//! surface to the user), a deterministic query workload, and exact-equality
//! checks between result sets.

use stash_cluster::{ClientError, ClusterClient, ClusterConfig, Mode, SimCluster};
use stash_dfs::DiskModel;
use stash_geo::{BBox, TemporalRes, TimeRange};
use stash_model::{AggQuery, QueryResult};
use stash_net::NetConfig;
use std::time::Duration;

/// A small cluster tuned for chaos runs: free disk and light data so the
/// interesting time is spent in the fault/retry machinery, sub-RPC
/// deadlines short enough that failover completes within a test, and
/// enough client retries that transient faults never become user errors.
pub fn chaos_config(mode: Mode) -> ClusterConfig {
    ClusterConfig::builder()
        .n_nodes(4)
        .service_workers(2)
        .fetch_workers(2)
        .mode(mode)
        .disk(DiskModel::free())
        .net(NetConfig {
            base_latency: Duration::from_micros(20),
            ..NetConfig::default()
        })
        .generator(stash_data_config())
        .scan_cost_per_obs(Duration::ZERO)
        .cell_service_cost(Duration::ZERO)
        .sub_rpc_timeout(Duration::from_millis(250))
        .distress_timeout(Duration::from_millis(100))
        .retry_backoff(Duration::from_millis(5))
        .client_retries(9)
        .build()
        .expect("chaos config is valid")
}

fn stash_data_config() -> stash_data::GeneratorConfig {
    stash_data::GeneratorConfig {
        seed: 3,
        obs_per_deg2_per_day: 30.0,
        max_obs_per_block: 10_000,
        value_quantum: 0.0,
    }
}

/// A deterministic workload: `rounds` passes over a 20-viewport grid of
/// county-sized day queries tiling the NAM interior. Repeated rounds make
/// the STASH cache matter (round 1 misses, later rounds hit), so faults are
/// exercised against both the scatter/gather path and the cached path.
pub fn grid_queries(rounds: usize) -> Vec<AggQuery> {
    let mut queries = Vec::with_capacity(rounds * 20);
    for _ in 0..rounds {
        for i in 0..20 {
            let lat = 30.0 + (i % 5) as f64 * 1.2;
            let lon = -110.0 + (i / 5) as f64 * 2.4;
            queries.push(AggQuery::new(
                BBox::from_corner_extent(lat, lon, 0.6, 1.2),
                TimeRange::whole_day(2015, 2, 2),
                4,
                TemporalRes::Day,
            ));
        }
    }
    queries
}

/// Run the whole workload through one client, keeping per-query outcomes.
pub fn run_workload(
    client: &ClusterClient,
    queries: &[AggQuery],
) -> Vec<Result<QueryResult, ClientError>> {
    queries.iter().map(|q| client.query(q).run()).collect()
}

/// Fault-free ground truth: boot a pristine cluster on the same
/// configuration, run the same workload, return its answers.
pub fn ground_truth(config: ClusterConfig, queries: &[AggQuery]) -> Vec<QueryResult> {
    let cluster = SimCluster::new(config);
    let client = cluster.client();
    let results = queries
        .iter()
        .map(|q| client.query(q).run().expect("fault-free run must not fail"))
        .collect();
    cluster.shutdown();
    results
}

/// Exact data equality between two answers: same cells, same keys, same
/// per-cell observation counts, same totals. Provenance counters
/// (cache_hits/misses) are deliberately *not* compared — failover changes
/// how an answer was computed, never what it says.
pub fn assert_results_match(got: &QueryResult, want: &QueryResult, ctx: &str) {
    assert_eq!(
        got.total_count(),
        want.total_count(),
        "{ctx}: total observation count diverged"
    );
    assert_eq!(
        got.cells.len(),
        want.cells.len(),
        "{ctx}: cell count diverged"
    );
    for (g, w) in got.cells.iter().zip(&want.cells) {
        assert_eq!(g.key, w.key, "{ctx}: cell keys diverged");
        assert_eq!(
            g.summary.count(),
            w.summary.count(),
            "{ctx}: summary for {:?} diverged",
            g.key
        );
    }
}

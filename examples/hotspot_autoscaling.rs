//! Hotspot autoscaling (paper §VII, Fig. 6d): a burst of queries over one
//! small region hotspots its owner node; with dynamic Clique replication
//! the burst drains faster because covered requests are rerouted to a
//! guest graph on an antipodal helper.
//!
//! The example runs the same burst twice — replication off, then on — and
//! prints progress and the handoff/reroute counters.
//!
//! Run with:
//! ```sh
//! cargo run --release --example hotspot_autoscaling
//! ```

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stash::cluster::{ClusterConfig, Mode, SimCluster};
use stash::core::StashConfig;
use stash::data::{QuerySizeClass, WorkloadConfig, WorkloadGen};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

fn run_burst(enable_replication: bool, n_requests: usize, n_clients: usize) -> (f64, u64, u64) {
    let config = ClusterConfig::builder()
        .mode(Mode::Stash)
        .enable_replication(enable_replication)
        // Node capacity is defined by the virtual serve cost (100 us per
        // Cell), far above the simulator's real per-request CPU — so
        // shifting load to a helper genuinely adds capacity (DESIGN.md §2).
        .cell_service_cost(std::time::Duration::from_micros(100))
        .stash(StashConfig {
            hotspot_threshold: 24,
            // Paper §VIII-E: "to compare improvement caused by a
            // replication operation, the cooldown time was set high" —
            // one Clique Handoff, whose replicas then serve the rest of
            // the burst.
            cooldown_ticks: 400,
            routing_ttl_ticks: 1_000_000,
            guest_ttl_ticks: 1_000_000,
            // Depth-3 cliques root at geohash length 3 (~1.4 deg): one
            // clique covers the whole panning neighborhood, so rerouting
            // applies to most of the burst (the paper's "fully replicated"
            // condition).
            clique_depth: 3,
            max_replicable_cells: 16_384,
            reroute_probability: 0.5,
            ..StashConfig::default()
        })
        .build()
        .expect("hotspot example config is valid");
    let cluster = SimCluster::new(config);
    let workload = WorkloadGen::new(WorkloadConfig::default());
    // All clients hammer the same county-sized neighborhood — pinned well
    // inside one 2-character geohash partition ('9x', Wyoming) so exactly
    // one node owns the hotspot, as in the paper's single-region burst.
    let mut rng = SmallRng::seed_from_u64(2015);
    let (dlat, dlon) = QuerySizeClass::County.extent();
    let start = stash::geo::BBox::from_corner_extent(42.0, -107.0, dlat, dlon);
    let queries = Arc::new(workload.hotspot_burst_at(&mut rng, start, n_requests));
    let next = Arc::new(AtomicUsize::new(0));

    let t0 = Instant::now();
    let handles: Vec<_> = (0..n_clients)
        .map(|_| {
            let client = cluster.client();
            let queries = Arc::clone(&queries);
            let next = Arc::clone(&next);
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    return;
                }
                client.query(&queries[i]).run().expect("burst query");
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let secs = t0.elapsed().as_secs_f64();

    let stats = cluster.node_stats();
    let handoffs: u64 = stats.iter().map(|s| s.handoffs).sum();
    let reroutes: u64 = stats.iter().map(|s| s.reroutes).sum();
    let guest_serves: u64 = stats.iter().map(|s| s.guest_serves).sum();
    println!("  handoffs={handoffs} reroutes={reroutes} guest-served subqueries={guest_serves}");
    if enable_replication {
        let hosts: Vec<String> = stats
            .iter()
            .filter(|s| s.guest_cells > 0)
            .map(|s| format!("n{}={} cells", s.node_idx, s.guest_cells))
            .collect();
        println!("  guest graphs: [{}]", hosts.join(", "));
    }
    cluster.shutdown();
    (secs, handoffs, reroutes)
}

fn main() {
    let n_requests = 4000;
    let n_clients = 128;
    println!(
        "hotspot burst: {n_requests} county-level requests around one point, {n_clients} concurrent clients\n"
    );

    println!("— STASH without dynamic replication —");
    let (plain_secs, _, _) = run_burst(false, n_requests, n_clients);
    println!("  completed in {plain_secs:.2} s\n");

    println!("— STASH with dynamic Clique replication —");
    let (repl_secs, handoffs, reroutes) = run_burst(true, n_requests, n_clients);
    println!("  completed in {repl_secs:.2} s\n");

    println!(
        "replication finished {:.2} s earlier ({:+.0}% throughput) with {handoffs} handoffs and {reroutes} rerouted subqueries",
        plain_secs - repl_secs,
        (plain_secs / repl_secs - 1.0) * 100.0,
    );
}

//! Integration tests for the Clique Handoff pipeline (§VII): detection →
//! antipode selection → replication → rerouting → guest serving, with
//! correctness held against the basic system throughout.

use stash::cluster::{ClusterConfig, Mode, SimCluster};
use stash::core::StashConfig;
use stash::data::{GeneratorConfig, QuerySizeClass, WorkloadConfig, WorkloadGen};
use stash::dfs::DiskModel;
use stash::geo::BBox;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// These tests measure queue-pressure behaviour; running them concurrently
/// on one machine perturbs each other's timing, so they serialize here.
static SERIAL: Mutex<()> = Mutex::new(());

fn hotspot_config(enable_replication: bool) -> ClusterConfig {
    ClusterConfig::builder()
        .n_nodes(4)
        .mode(Mode::Stash)
        .enable_replication(enable_replication)
        .disk(DiskModel::free())
        .cell_service_cost(std::time::Duration::from_micros(400))
        .generator(GeneratorConfig {
            seed: 5,
            obs_per_deg2_per_day: 30.0,
            max_obs_per_block: 50_000,
            value_quantum: 0.0,
        })
        .stash(StashConfig {
            hotspot_threshold: 4,
            cooldown_ticks: 100,
            clique_depth: 3,
            max_replicable_cells: 16_384,
            reroute_probability: 0.6,
            routing_ttl_ticks: 1_000_000,
            guest_ttl_ticks: 1_000_000,
            ..StashConfig::default()
        })
        .build()
        .expect("hotspot test config is valid")
}

fn workload() -> WorkloadGen {
    WorkloadGen::new(WorkloadConfig {
        spatial_res: 4,
        ..WorkloadConfig::default()
    })
}

fn drive(cluster: &SimCluster, queries: Arc<Vec<stash::model::AggQuery>>, clients: usize) {
    let next = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..clients)
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
}

/// A pinned single-partition county region ('9x' = Wyoming).
fn pinned_burst(n: usize) -> Vec<stash::model::AggQuery> {
    let wl = workload();
    let (dlat, dlon) = QuerySizeClass::County.extent();
    let start = BBox::from_corner_extent(42.0, -107.0, dlat, dlon);
    let mut rng = rand::thread_rng();
    wl.hotspot_burst_at(&mut rng, start, n)
}

#[test]
fn burst_triggers_handoff_and_rerouting() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = SimCluster::new(hotspot_config(true));
    let queries = Arc::new(pinned_burst(600));
    drive(&cluster, queries, 48);

    let stats = cluster.node_stats();
    let handoffs: u64 = stats.iter().map(|s| s.handoffs).sum();
    let reroutes: u64 = stats.iter().map(|s| s.reroutes).sum();
    let guest_serves: u64 = stats.iter().map(|s| s.guest_serves).sum();
    let guest_cells: usize = stats.iter().map(|s| s.guest_cells).sum();
    assert!(
        handoffs >= 1,
        "burst must trigger at least one Clique Handoff"
    );
    assert!(guest_cells > 0, "a helper must hold replicas");
    assert!(reroutes > 0, "covered queries must be rerouted");
    assert_eq!(
        reroutes, guest_serves,
        "every reroute is served from a guest graph"
    );
    cluster.shutdown();
}

#[test]
fn replication_disabled_never_hands_off() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let cluster = SimCluster::new(hotspot_config(false));
    let queries = Arc::new(pinned_burst(300));
    drive(&cluster, queries, 48);
    let stats = cluster.node_stats();
    assert_eq!(stats.iter().map(|s| s.handoffs).sum::<u64>(), 0);
    assert_eq!(stats.iter().map(|s| s.reroutes).sum::<u64>(), 0);
    assert_eq!(stats.iter().map(|s| s.guest_cells).sum::<usize>(), 0);
    cluster.shutdown();
}

#[test]
fn rerouted_answers_match_ground_truth() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Run the burst (causing rerouting), then verify every distinct query's
    // answer against the basic system.
    let stash = SimCluster::new(hotspot_config(true));
    let queries = Arc::new(pinned_burst(400));
    drive(&stash, Arc::clone(&queries), 48);
    assert!(
        stash.node_stats().iter().map(|s| s.reroutes).sum::<u64>() > 0,
        "precondition: rerouting must have happened"
    );

    let mut basic_config = hotspot_config(false);
    basic_config.mode = Mode::Basic;
    let basic = SimCluster::new(basic_config);
    let sc = stash.client();
    let bc = basic.client();
    // The 8 distinct rectangles of the burst.
    let mut seen = std::collections::HashSet::new();
    for q in queries.iter() {
        if seen.insert(format!("{:.6}:{:.6}", q.bbox.min_lat, q.bbox.min_lon)) {
            let truth = bc.query(q).run().expect("basic");
            let cached = sc.query(q).run().expect("stash");
            assert_eq!(truth.total_count(), cached.total_count());
            assert_eq!(truth.cells.len(), cached.cells.len());
        }
    }
    stash.shutdown();
    basic.shutdown();
}

#[test]
fn helper_guest_graph_is_isolated_from_local() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // After a burst with replication, helpers' local graphs must not
    // contain the hotspotted region's cells (they live in the guest graph).
    let cluster = SimCluster::new(hotspot_config(true));
    let queries = Arc::new(pinned_burst(600));
    drive(&cluster, queries, 48);

    let stats = cluster.node_stats();
    let helper = stats.iter().find(|s| s.guest_cells > 0);
    if let Some(h) = helper {
        // The helper hosts replicas and served guests; its replica count
        // tracks its guestbook, not its own partition's cache.
        assert!(h.replicas_hosted > 0);
        assert!(h.guest_cells > 0);
    } else {
        // Rerouting may legitimately not occur if the burst drained before
        // the threshold was crossed; the other tests pin down the common
        // path. Fail loudly so flakiness is visible rather than silent.
        panic!("no helper held guest cells after the burst");
    }
    cluster.shutdown();
}

//! Shared experiment plumbing: scales, cluster builders, timing, and a
//! small concurrent load driver.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use stash_cluster::{ClusterConfig, Mode, SimCluster};
use stash_core::StashConfig;
use stash_data::{GeneratorConfig, WorkloadConfig, WorkloadGen};
use stash_model::AggQuery;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Experiment scale: how big the simulated deployment and workloads are.
#[derive(Debug, Clone)]
pub struct Scale {
    pub n_nodes: usize,
    /// Synthetic observation density (obs / deg² / day). Must be high
    /// enough that observations far outnumber render cells — the paper's
    /// NAM regime (DESIGN.md §7).
    pub density: f64,
    /// Requested spatial resolution of workload queries (geohash length).
    pub spatial_res: u8,
    /// Repeats for latency-style experiments.
    pub repeats: usize,
    /// Concurrent clients for throughput-style experiments.
    pub clients: usize,
    /// Requests per throughput run (Fig. 6b; the paper used 10 000).
    pub throughput_requests: usize,
    /// Requests in the hotspot burst (Fig. 6d; the paper used 1 000).
    pub burst_requests: usize,
    pub seed: u64,
}

impl Scale {
    /// Quick scale for verification runs.
    pub fn small() -> Self {
        Scale {
            n_nodes: 4,
            density: 48.0,
            spatial_res: 3,
            repeats: 2,
            clients: 32,
            throughput_requests: 400,
            burst_requests: 800,
            seed: 0x5EED,
        }
    }

    /// The scale EXPERIMENTS.md reports (laptop-feasible analogue of the
    /// paper's 120-node testbed).
    pub fn paper() -> Self {
        Scale {
            n_nodes: 8,
            density: 96.0,
            spatial_res: 4,
            repeats: 3,
            clients: 96,
            throughput_requests: 2_000,
            burst_requests: 4_000,
            seed: 0x5EED,
        }
    }

    /// A seeded RNG for reproducible workloads.
    pub fn rng(&self) -> SmallRng {
        SmallRng::seed_from_u64(self.seed)
    }

    /// The workload generator all experiments share (resolution scaled per
    /// DESIGN.md §7).
    pub fn workload(&self) -> WorkloadGen {
        WorkloadGen::new(WorkloadConfig {
            spatial_res: self.spatial_res,
            ..WorkloadConfig::default()
        })
    }

    /// The deployment every experiment at this scale boots from.
    pub(crate) fn base_cluster_config(&self, mode: Mode) -> ClusterConfig {
        ClusterConfig::builder()
            .n_nodes(self.n_nodes)
            .mode(mode)
            .generator(GeneratorConfig {
                seed: self.seed ^ 0xDA7A,
                obs_per_deg2_per_day: self.density,
                max_obs_per_block: 100_000,
                value_quantum: 0.0,
            })
            .build()
            .expect("bench scale config is valid")
    }

    /// A STASH-enabled deployment.
    pub fn stash_cluster(&self) -> SimCluster {
        SimCluster::new(self.base_cluster_config(Mode::Stash))
    }

    /// A STASH deployment with custom STASH knobs.
    pub fn stash_cluster_with(&self, f: impl FnOnce(&mut ClusterConfig)) -> SimCluster {
        let mut config = self.base_cluster_config(Mode::Stash);
        f(&mut config);
        SimCluster::new(config)
    }

    /// The bare storage system (no STASH).
    pub fn basic_cluster(&self) -> SimCluster {
        let mut config = self.base_cluster_config(Mode::Basic);
        // The baseline models the paper's plain Galileo, where every
        // repeated block scan pays the disk again; keep the decoded-frame
        // cache out of it so the figures compare against that system
        // (DESIGN.md §12).
        config.stash.frame_cache_bytes = 0;
        SimCluster::new(config)
    }

    /// The hotspot-regime STASH config (virtual serve cost dominates; see
    /// DESIGN.md §2 on single-core hosting).
    pub fn hotspot_cluster(
        &self,
        enable_replication: bool,
        stash_overrides: impl FnOnce(&mut StashConfig),
    ) -> SimCluster {
        let mut config = self.base_cluster_config(Mode::Stash);
        config.enable_replication = enable_replication;
        config.cell_service_cost = Duration::from_micros(100);
        config.stash.hotspot_threshold = 24;
        config.stash.cooldown_ticks = 400;
        config.stash.clique_depth = 3;
        config.stash.max_replicable_cells = 16_384;
        config.stash.reroute_probability = 0.5;
        config.stash.routing_ttl_ticks = 1_000_000;
        config.stash.guest_ttl_ticks = 1_000_000;
        stash_overrides(&mut config.stash);
        SimCluster::new(config)
    }
}

/// Wall-clock milliseconds of one call.
pub fn time_ms<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64() * 1e3, r)
}

/// Drive a query stream with `clients` concurrent closed-loop clients.
/// Returns total seconds and per-request completion offsets (seconds since
/// start, one per request, unordered).
pub fn drive_concurrent(
    cluster: &SimCluster,
    queries: Arc<Vec<AggQuery>>,
    clients: usize,
) -> (f64, Vec<f64>) {
    let next = Arc::new(AtomicUsize::new(0));
    let completions = Arc::new(Mutex::new(Vec::with_capacity(queries.len())));
    let t0 = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|_| {
            let client = cluster.client();
            let queries = Arc::clone(&queries);
            let next = Arc::clone(&next);
            let completions = Arc::clone(&completions);
            std::thread::spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= queries.len() {
                    return;
                }
                client.query(&queries[i]).run().expect("driver query");
                completions
                    .lock()
                    .expect("completions mutex")
                    .push(t0.elapsed().as_secs_f64());
            })
        })
        .collect();
    for h in handles {
        h.join().expect("driver thread");
    }
    let total = t0.elapsed().as_secs_f64();
    let offsets = Arc::try_unwrap(completions)
        .expect("drivers joined")
        .into_inner()
        .expect("completions mutex");
    (total, offsets)
}

/// Bucket completion offsets into fixed-width bins (responses per bucket) —
/// the y-axis of Fig. 6d.
pub fn bucketize(offsets: &[f64], bucket_secs: f64) -> Vec<usize> {
    let max = offsets.iter().cloned().fold(0.0f64, f64::max);
    let n = (max / bucket_secs).ceil() as usize + 1;
    let mut buckets = vec![0usize; n];
    for &t in offsets {
        buckets[(t / bucket_secs) as usize] += 1;
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        let s = Scale::small();
        let p = Scale::paper();
        assert!(s.n_nodes <= p.n_nodes);
        assert!(s.throughput_requests < p.throughput_requests);
    }

    #[test]
    fn bucketize_counts_everything() {
        let offsets = [0.05, 0.15, 0.17, 0.31, 0.99];
        let buckets = bucketize(&offsets, 0.1);
        assert_eq!(buckets.iter().sum::<usize>(), offsets.len());
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[3], 1);
        assert_eq!(buckets[9], 1);
    }

    #[test]
    fn time_ms_measures() {
        let (ms, v) = time_ms(|| {
            std::thread::sleep(Duration::from_millis(10));
            42
        });
        assert_eq!(v, 42);
        assert!(ms >= 9.0);
    }
}

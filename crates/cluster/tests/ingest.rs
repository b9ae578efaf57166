//! Live-ingest equivalence (DESIGN.md §13): after streaming every append
//! batch into a live cluster, each query's answer is **bit-for-bit** equal
//! to the answer a cold cluster computes over the full, final dataset.
//!
//! The dataset uses `value_quantum = 1/64`, so every attribute value (and
//! its square) is exactly representable in an f64 and summations commute —
//! the exact-equality assertions below hold regardless of the order in
//! which partials were merged (delta-patched live vs. folded cold).

use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use stash_cluster::{run_stream, AppendSink, ClusterConfig, IngestConfig, Mode, SimCluster};
use stash_data::GeneratorConfig;
use stash_dfs::{BlockKey, DiskModel};
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{AggQuery, QueryResult};
use stash_net::{FaultPlan, NetConfig};

fn live_day() -> TimeBin {
    TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0))
}

fn live_blocks() -> Vec<(Geohash, TimeBin)> {
    let day = live_day();
    ["9q8", "9q9", "9qb", "9qc"]
        .iter()
        .map(|g| (Geohash::from_str(g).unwrap(), day))
        .collect()
}

/// A live cluster config; `live` toggles whether the blocks boot truncated
/// (streaming completes them) or fully sealed (the cold ground truth).
fn config(live: bool) -> ClusterConfig {
    ClusterConfig::builder()
        .n_nodes(4)
        .service_workers(2)
        .fetch_workers(2)
        .mode(Mode::Stash)
        .disk(DiskModel::free())
        .net(NetConfig {
            base_latency: Duration::from_micros(20),
            ..NetConfig::default()
        })
        .generator(GeneratorConfig {
            seed: 11,
            obs_per_deg2_per_day: 40.0,
            max_obs_per_block: 10_000,
            value_quantum: 1.0 / 64.0,
        })
        .scan_cost_per_obs(Duration::ZERO)
        .cell_service_cost(Duration::ZERO)
        .live_blocks(if live { live_blocks() } else { Vec::new() })
        .live_base_fraction(0.5)
        .build()
        .expect("ingest test config is valid")
}

/// A pan/dice workload over the live blocks' region (tiles `9q8`/`9q9`/
/// `9qb`/`9qc`: lat 36.5–39.4, lon −123.75–−120.9) at several resolutions,
/// plus one wide query whose cells span partitions.
fn workload() -> Vec<AggQuery> {
    let day = TimeRange::whole_day(2015, 2, 2);
    let mut queries = vec![
        // County-sized dice inside the streamed region (tiles 9q8/9q9).
        AggQuery::new(
            BBox::from_corner_extent(36.8, -123.0, 0.8, 1.4),
            day,
            4,
            TemporalRes::Day,
        ),
        // Pan one viewport east.
        AggQuery::new(
            BBox::from_corner_extent(36.8, -121.6, 0.8, 1.4),
            day,
            4,
            TemporalRes::Day,
        ),
        // Zoom out over all four live tiles, coarser space.
        AggQuery::new(
            BBox::from_corner_extent(36.0, -124.5, 4.0, 4.5),
            day,
            3,
            TemporalRes::Day,
        ),
        // Fine dice at hourly resolution.
        AggQuery::new(
            BBox::from_corner_extent(37.0, -122.6, 0.3, 0.5),
            day,
            5,
            TemporalRes::Hour,
        ),
        // Wide continental query: mostly sealed blocks, a few live ones.
        AggQuery::new(
            BBox::from_corner_extent(30.0, -125.0, 12.0, 20.0),
            day,
            2,
            TemporalRes::Day,
        ),
        // Continental overview at res 1: caches the coarse cell "9" on a
        // *different* node than the block owner (coarse cells hash by their
        // own label), so appends must invalidate it remotely.
        AggQuery::new(
            BBox::from_corner_extent(30.0, -125.0, 12.0, 20.0),
            day,
            1,
            TemporalRes::Day,
        ),
    ];
    // A second day entirely outside the streamed blocks — must be
    // untouched by ingest.
    queries.push(AggQuery::new(
        BBox::from_corner_extent(36.8, -123.0, 0.8, 1.4),
        TimeRange::whole_day(2015, 6, 10),
        4,
        TemporalRes::Day,
    ));
    queries
}

fn assert_bit_identical(live: &QueryResult, cold: &QueryResult, what: &str) {
    assert_eq!(
        live.cells.len(),
        cold.cells.len(),
        "{what}: cell count diverged"
    );
    for (l, c) in live.cells.iter().zip(&cold.cells) {
        assert_eq!(l.key, c.key, "{what}: key order diverged");
        assert_eq!(
            l.summary, c.summary,
            "{what}: summary for {:?} not bit-identical",
            l.key
        );
    }
}

fn ground_truth(queries: &[AggQuery]) -> Vec<QueryResult> {
    let cold = SimCluster::new(config(false));
    let client = cold.client();
    let truth = queries
        .iter()
        .map(|q| client.query(q).run().expect("cold query"))
        .collect();
    cold.shutdown();
    truth
}

/// The headline test: warm the live cluster's caches on partial data (so
/// appends exercise the delta-patch path against resident Cells), stream
/// every batch to quiescence, and demand exact equality with the cold
/// ground truth — twice, so both the post-stream recompute path and the
/// patched-cache path are checked.
#[test]
fn streamed_cluster_matches_cold_cluster_bit_for_bit() {
    let queries = workload();
    let truth = ground_truth(&queries);

    let cluster = SimCluster::new(config(true));
    let client = cluster.client();
    // Warm caches on the truncated base data.
    for q in &queries {
        client.query(q).run().expect("warm-up on partial data");
    }

    let stream = cluster.live_stream(128);
    let expected_rows = stream.total_rows();
    assert!(expected_rows > 0, "stream must have a tail to deliver");
    let sink = Arc::new(cluster.ingest_client());
    let stats = run_stream(&stream, sink, IngestConfig::default());
    assert_eq!(stats.rows_sent, expected_rows as u64, "every row delivered");
    assert_eq!(stats.batches_failed, 0, "no lane abandoned its block");
    assert_eq!(
        cluster.live_source().expect("live cluster").appended_rows(),
        expected_rows,
        "storage converged to the full dataset"
    );

    // First pass: stale/patched caches against the full data.
    for (q, want) in queries.iter().zip(&truth) {
        let got = client.query(q).run().expect("post-stream query");
        assert_bit_identical(&got, want, "post-stream");
    }
    // Second pass: answers served from the (now settled) caches.
    for (q, want) in queries.iter().zip(&truth) {
        let got = client.query(q).run().expect("settled query");
        assert_bit_identical(&got, want, "settled");
    }

    // The delta-patch path must actually have fired — otherwise this test
    // only exercised invalidation.
    let patched: u64 = (0..cluster.n_nodes())
        .map(|i| cluster.node(i).obs.counter("ingest.cells_patched").get())
        .sum();
    let invalidated: u64 = (0..cluster.n_nodes())
        .map(|i| {
            cluster
                .node(i)
                .obs
                .counter("ingest.cells_invalidated")
                .get()
        })
        .sum();
    assert!(patched > 0, "no resident Cell was delta-patched");
    assert!(invalidated > 0, "remote caches must have been invalidated");
    cluster.shutdown();
}

/// Ablation: with `ingest_patch = false` every affected Cell is invalidated
/// instead of patched. Answers must still be exact — just recomputed.
#[test]
fn invalidate_everything_ablation_is_still_exact() {
    let queries = workload();
    let truth = ground_truth(&queries);

    let mut cfg = config(true);
    cfg.ingest_patch = false;
    let cluster = SimCluster::new(cfg);
    let client = cluster.client();
    for q in &queries {
        client.query(q).run().expect("warm-up on partial data");
    }
    let stream = cluster.live_stream(128);
    let sink = Arc::new(cluster.ingest_client());
    let stats = run_stream(&stream, sink, IngestConfig::default());
    assert_eq!(stats.batches_failed, 0);

    for (q, want) in queries.iter().zip(&truth) {
        let got = client.query(q).run().expect("ablation query");
        assert_bit_identical(&got, want, "ablation");
    }
    let patched: u64 = (0..cluster.n_nodes())
        .map(|i| cluster.node(i).obs.counter("ingest.cells_patched").get())
        .sum();
    assert_eq!(patched, 0, "ablation must never patch");
    cluster.shutdown();
}

/// The equivalence holds under fabric drops plus one block owner crashing
/// mid-stream: producer retries and replica-chain failover deliver every
/// batch anyway (appends are seq-idempotent against the shared storage),
/// and after a restart the recovered node answers exactly.
#[test]
fn streamed_equivalence_survives_drops_and_owner_crash() {
    let queries = workload();
    let truth = ground_truth(&queries);

    let mut cfg = config(true);
    // Tight deadlines so retries and failover complete in test time.
    cfg.sub_rpc_timeout = Duration::from_millis(250);
    cfg.retry_backoff = Duration::from_millis(5);
    cfg.client_retries = 9;
    let mut cluster = SimCluster::new(cfg);
    let client = cluster.client();
    for q in &queries {
        client.query(q).run().expect("warm-up on partial data");
    }

    cluster
        .router()
        .install_faults(FaultPlan::new(1234).drop_all(0.05));

    let stream = cluster.live_stream(64);
    let expected_rows = stream.total_rows();
    let sink = Arc::new(cluster.ingest_client());
    // The owner of the first live block dies mid-stream.
    let (victim_block, victim_day) = stream.blocks()[0];
    let victim = sink.owner_of(BlockKey {
        geohash: victim_block,
        day: victim_day,
    });
    let crash_after = {
        let cluster_router = cluster.router().clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            cluster_router.crash_node(stash_net::NodeId(victim));
        })
    };
    let stats = run_stream(&stream, sink, IngestConfig::default());
    crash_after.join().unwrap();
    assert_eq!(
        stats.rows_sent, expected_rows as u64,
        "failover must deliver every row despite drops and the crash"
    );
    assert_eq!(stats.batches_failed, 0);

    cluster.router().clear_faults();
    cluster.restart_node(victim);
    for (q, want) in queries.iter().zip(&truth) {
        let got = client.query(q).run().expect("post-chaos query");
        assert_bit_identical(&got, want, "post-chaos");
    }
    cluster.shutdown();
}

/// An append costs readers only what it touched: a reader looping over a
/// day the stream never writes keeps every Cell fresh while batches and
/// invalidations land on the same nodes — no Cell miss, no disk read.
#[test]
fn a_reader_of_unwritten_days_never_misses_mid_stream() {
    // A stream long enough (hundreds of batches) to overlap the reader.
    let mut cfg = config(true);
    cfg.generator.obs_per_deg2_per_day = 2_000.0;
    let cluster = SimCluster::new(cfg);
    let client = cluster.client();
    // A few thousand Cells, so an evaluation lasts long enough to overlap.
    let quiet_day = AggQuery::new(
        BBox::from_corner_extent(36.6, -123.7, 2.0, 2.6),
        TimeRange::whole_day(2015, 6, 10),
        5,
        TemporalRes::Day,
    );
    let warm = client.query(&quiet_day).run().expect("warm-up");
    let asked = quiet_day
        .target_keys(10_000)
        .expect("a small viewport")
        .len() as u64;
    let totals = |cluster: &SimCluster| {
        cluster.node_stats().iter().fold((0, 0, 0), |t, n| {
            (t.0 + n.cache_hits, t.1 + n.cache_misses, t.2 + n.disk_reads)
        })
    };
    let before = totals(&cluster);

    let stream = cluster.live_stream(16);
    let sink = Arc::new(cluster.ingest_client());
    let producer = std::thread::spawn(move || run_stream(&stream, sink, IngestConfig::default()));
    let mut rounds = 0u64;
    while !producer.is_finished() || rounds < 50 {
        let got = client.query(&quiet_day).run().expect("mid-stream query");
        assert_bit_identical(&got, &warm, "mid-stream");
        rounds += 1;
    }
    let stats = producer.join().expect("producer thread");
    assert_eq!(stats.batches_failed, 0);

    let after = totals(&cluster);
    assert_eq!(after.1, before.1, "a Cell of the quiet day missed");
    assert_eq!(after.2, before.2, "the quiet day was read from disk again");
    assert_eq!(
        after.0 - before.0,
        rounds * asked,
        "hit ratio 1.0 over {rounds} rounds"
    );
    let overlapped: u64 = (0..cluster.n_nodes())
        .map(|i| cluster.node(i).obs.counter("ingest.fence.overlapped").get())
        .sum();
    assert!(
        overlapped > 0,
        "no evaluation overlapped an ingest event in {rounds} rounds: the test raced nothing"
    );
    cluster.shutdown();
}

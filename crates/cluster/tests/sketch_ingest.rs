//! Sketch-valued Cells under live ingest (ISSUE 6 tentpole + satellite):
//! with sketches enabled, a cluster that streamed every append batch must
//! answer quantile / distinct / top-K queries **bit-for-bit** identically
//! to a cold cluster built over the full dataset — at every workload
//! level — and both must agree with folding the raw observations
//! directly.
//!
//! The dataset uses `value_quantum = 1.0`: every attribute takes at most
//! ~150 distinct integer values, far under the default 256-candidate
//! heavy-hitter list, so all three sketch states are pure functions of
//! the observation multiset (DESIGN.md §14) and exact equality is a
//! sound oracle regardless of merge order (delta-patched live vs. folded
//! cold vs. direct raw fold).

use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use stash_cluster::{run_stream, ClusterConfig, IngestConfig, Mode, SimCluster};
use stash_data::{GeneratorConfig, NamGenerator};
use stash_dfs::DiskModel;
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{AggQuery, CellSummary, QueryResult, SketchSpec};
use stash_net::NetConfig;

const N_ATTRS: usize = 4;

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
            seed: 23,
            obs_per_deg2_per_day: 40.0,
            max_obs_per_block: 10_000,
            // Integer-valued attributes: bounded distinct sets keep every
            // sketch state a pure function of the row multiset.
            value_quantum: 1.0,
        })
        .scan_cost_per_obs(Duration::ZERO)
        .cell_service_cost(Duration::ZERO)
        .live_blocks(if live { live_blocks() } else { Vec::new() })
        .live_base_fraction(0.5)
        .tweak(|c| c.stash.sketch = SketchSpec::standard())
        .build()
        .expect("sketch ingest test config is valid")
}

/// Pan/zoom/dice workload over the live region at several levels (see
/// `ingest.rs`; the final query's day is entirely outside the stream).
fn workload() -> Vec<AggQuery> {
    let day = TimeRange::whole_day(2015, 2, 2);
    vec![
        AggQuery::new(
            BBox::from_corner_extent(36.8, -123.0, 0.8, 1.4),
            day,
            4,
            TemporalRes::Day,
        ),
        AggQuery::new(
            BBox::from_corner_extent(36.8, -121.6, 0.8, 1.4),
            day,
            4,
            TemporalRes::Day,
        ),
        AggQuery::new(
            BBox::from_corner_extent(36.0, -124.5, 4.0, 4.5),
            day,
            3,
            TemporalRes::Day,
        ),
        AggQuery::new(
            BBox::from_corner_extent(37.0, -122.6, 0.3, 0.5),
            day,
            5,
            TemporalRes::Hour,
        ),
        AggQuery::new(
            BBox::from_corner_extent(30.0, -125.0, 12.0, 20.0),
            day,
            2,
            TemporalRes::Day,
        ),
        AggQuery::new(
            BBox::from_corner_extent(36.8, -123.0, 0.8, 1.4),
            TimeRange::whole_day(2015, 6, 10),
            4,
            TemporalRes::Day,
        ),
    ]
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
            "{what}: summary (incl. sketches) for {:?} not bit-identical",
            l.key
        );
    }
}

/// Stream a live cluster to quiescence and demand every sketch answer —
/// whole summaries, per-level — equals the cold ground truth exactly.
#[test]
fn streamed_sketches_match_cold_cluster_bit_for_bit() {
    let queries = workload();
    let cold = SimCluster::new(config(false));
    let cold_client = cold.client();
    let truth: Vec<QueryResult> = queries
        .iter()
        .map(|q| cold_client.query(q).run().expect("cold query"))
        .collect();
    for t in &truth {
        assert!(
            t.cells.iter().all(|c| c.summary.has_sketches()),
            "sketch-enabled cold cluster emitted exact-only cells"
        );
    }

    let cluster = SimCluster::new(config(true));
    let client = cluster.client();
    // Warm caches on the truncated base data so appends hit the
    // delta-patch path against resident sketched Cells.
    for q in &queries {
        client.query(q).run().expect("warm-up on partial data");
    }
    let stream = cluster.live_stream(128);
    let expected_rows = stream.total_rows();
    assert!(expected_rows > 0, "stream must have a tail to deliver");
    let sink = Arc::new(cluster.ingest_client());
    let stats = run_stream(&stream, sink, IngestConfig::default());
    assert_eq!(stats.rows_sent, expected_rows as u64);
    assert_eq!(stats.batches_failed, 0);

    // Two passes: stale/patched caches, then settled caches.
    for pass in ["post-stream", "settled"] {
        for (q, want) in queries.iter().zip(&truth) {
            let got = client.query(q).run().expect("live query");
            assert_bit_identical(&got, want, pass);
        }
    }

    // The estimator accessors agree end-to-end, including through the
    // builder convenience forms.
    for (q, want) in queries.iter().zip(&truth) {
        for attr in 0..N_ATTRS {
            assert_eq!(
                client.query(q).quantile(attr, 0.99).expect("quantile call"),
                want.quantile(attr, 0.99)
            );
            assert_eq!(
                client.query(q).distinct(attr).expect("distinct call"),
                want.distinct(attr)
            );
            assert_eq!(
                client.query(q).top_k(attr, 8).expect("top_k call"),
                want.top_k(attr, 8)
            );
        }
    }

    // The sketch pipeline must actually have fired.
    let merges: u64 = (0..cluster.n_nodes())
        .map(|i| cluster.node(i).obs.counter("sketch.merges").get())
        .sum();
    let bytes: u64 = (0..cluster.n_nodes())
        .map(|i| cluster.node(i).obs.counter("sketch.bytes").get())
        .sum();
    let patched: u64 = (0..cluster.n_nodes())
        .map(|i| cluster.node(i).obs.counter("ingest.cells_patched").get())
        .sum();
    assert!(merges > 0, "no sketch state was ever merged");
    assert!(bytes > 0, "no sketch bytes were ever emitted");
    assert!(patched > 0, "no resident Cell was delta-patched");
    cluster.shutdown();
    cold.shutdown();
}

/// Acceptance check: a cached hierarchical query's p50/p99, distinct
/// count, and top-K equal folding the raw observations directly — the
/// per-Cell sketches the cluster merged bottom-up are bit-identical to
/// single-pass folds over each cell's rows, and the query-level fold over
/// cached Cells matches one fold over the whole region.
#[test]
fn cached_hierarchical_sketches_match_direct_raw_fold() {
    // Fine-grained queries whose cells sit at or above the 3-char block
    // resolution, so each cell's rows come from exactly one block.
    let day = TimeRange::whole_day(2015, 2, 2);
    let queries = [
        AggQuery::new(
            BBox::from_corner_extent(36.8, -123.0, 0.8, 1.4),
            day,
            4,
            TemporalRes::Day,
        ),
        AggQuery::new(
            BBox::from_corner_extent(37.0, -122.6, 0.3, 0.5),
            day,
            5,
            TemporalRes::Hour,
        ),
    ];
    let cfg = config(false);
    let spec = cfg.stash.sketch.clone();
    let generator = NamGenerator::new(cfg.generator.clone());
    let cluster = SimCluster::new(cfg);
    let client = cluster.client();

    for q in &queries {
        // Ask twice: the second answer is served from cached Cells.
        client.query(q).run().expect("cold query");
        let result = client.query(q).run().expect("cached query");
        assert!(!result.cells.is_empty(), "query found no data");

        // Reference: fold each cell's raw rows straight from the sealed
        // generator blocks, then the whole region in one pass.
        let mut whole = CellSummary::empty_with(N_ATTRS, &spec);
        for cell in &result.cells {
            let level = cell.key.level();
            let block = cell.key.geohash.prefix(3).unwrap();
            let block_day = TimeBin::containing(TemporalRes::Day, cell.key.time.start());
            let mut reference = CellSummary::empty_with(N_ATTRS, &spec);
            for obs in generator.block_for_day(block, block_day) {
                if obs.cell_key(level.spatial_res(), level.temporal_res()) == Some(cell.key) {
                    reference.push_row(&obs.values);
                    whole.push_row(&obs.values);
                }
            }
            assert_eq!(
                cell.summary, reference,
                "cached Cell {:?} diverged from direct raw fold",
                cell.key
            );
        }
        // Query-level accessors == one direct fold over all region rows.
        for attr in 0..N_ATTRS {
            let direct = whole.attr_sketches(attr).expect("whole-region sketches");
            for q_frac in [0.5, 0.99] {
                assert_eq!(
                    result.quantile(attr, q_frac),
                    direct.quantile(q_frac),
                    "attr {attr} p{q_frac} diverged from direct fold"
                );
            }
            assert_eq!(
                result.distinct(attr),
                Some(direct.distinct()),
                "attr {attr} distinct diverged from direct fold"
            );
            assert_eq!(
                result.top_k(attr, 8),
                Some(direct.top_k(8)),
                "attr {attr} top-8 diverged from direct fold"
            );
        }
    }
    cluster.shutdown();
}

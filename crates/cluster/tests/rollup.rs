//! Continuous-rollup equivalence, serving, and retention (DESIGN.md §17).
//!
//! Three layers of the tentpole guarantee are pinned here:
//!
//! 1. A property test on [`RollupStore`] alone: folding a stream of append
//!    batches — any interleaving across blocks, any batch size, any rollup
//!    level set — produces **bit-for-bit** the cells a cold recompute over
//!    the final blocks produces, sketches included.
//! 2. End-to-end through [`SimCluster`]: once the stream seals every live
//!    block, a query at a rollup level under the watermark is answered
//!    from the rollup (`rollup_hits` > 0, zero rows decoded from raw
//!    blocks) and is bit-identical to a cold cluster's answer.
//! 3. Retention: with a downsample policy, `apply_retention` drops raw
//!    blocks behind the horizon with exact byte accounting (FrameCache
//!    audit), is idempotent, and leaves the rollup authoritative for the
//!    dropped history.
//!
//! As everywhere else, `value_quantum = 1/64` makes f64 summation
//! order-independent, so exact equality is the honest assertion.

use std::collections::VecDeque;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use stash_cluster::{run_stream, ClusterConfig, IngestConfig, Mode, RollupPolicy, SimCluster};
use stash_data::{GeneratorConfig, NamGenerator};
use stash_dfs::{frame_spatial_res, BlockFrame, BlockKey, DiskModel, RollupStore};
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::{AggQuery, CellKey, CellSummary, Level, Observation, QueryResult, SketchSpec};
use stash_net::NetConfig;

const N_ATTRS: usize = 4;

fn live_day() -> TimeBin {
    TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0))
}

fn tiles() -> Vec<Geohash> {
    ["9q8", "9q9", "9qb", "9qc"]
        .iter()
        .map(|g| Geohash::from_str(g).unwrap())
        .collect()
}

/// Rollup-level deltas of `rows` within `block`: the same fold the ingest
/// path performs (`BlockFrame::decode` + `aggregate_with` over the keys
/// the rows touch), restricted to the rollup levels.
fn delta_cells(
    block: BlockKey,
    rows: &[Observation],
    levels: &[Level],
    sketch: &SketchSpec,
) -> Vec<(CellKey, CellSummary)> {
    let mut wanted: Vec<CellKey> = rows
        .iter()
        .flat_map(|o| {
            levels
                .iter()
                .filter_map(move |l| o.cell_key(l.spatial_res(), l.temporal_res()))
        })
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    if wanted.is_empty() {
        return Vec::new();
    }
    let res = frame_spatial_res(block.geohash.len(), &wanted);
    BlockFrame::decode(block, rows, N_ATTRS, res)
        .aggregate_with(&wanted, sketch)
        .cells
}

/// Candidate rollup levels for the property test (all coarser than the
/// block tiles, mixing Day and Month bins).
fn candidate_levels() -> Vec<Level> {
    [
        (1, TemporalRes::Day),
        (2, TemporalRes::Day),
        (3, TemporalRes::Day),
        (1, TemporalRes::Month),
        (2, TemporalRes::Month),
    ]
    .into_iter()
    .map(|(s, t)| Level::of(s, t).unwrap())
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 8,
        ..ProptestConfig::default()
    })]

    /// The tentpole exactness property: stream-folded rollups equal a cold
    /// recompute bit for bit — for random append orders (any interleaving
    /// across blocks, in-order within each), random batch sizes, random
    /// base fractions, random rollup level sets, and random served key
    /// subsets. Duplicate folds (retried batches) are replayed along the
    /// way and must be no-ops.
    #[test]
    fn streamed_rollup_equals_cold_recompute_bit_for_bit(
        seed in 1u64..64,
        base_pick in 0usize..4,
        batch_pick in 0usize..3,
        level_picks in prop::collection::vec(0usize..5, 1..4),
        interleave in prop::collection::vec(0usize..1_000_000, 256),
    ) {
        let base_fraction = [0.0, 0.25, 0.5, 0.9][base_pick];
        let batch_rows = [32usize, 100, 256][batch_pick];
        let generator = NamGenerator::new(GeneratorConfig {
            seed,
            obs_per_deg2_per_day: 30.0,
            max_obs_per_block: 4_000,
            value_quantum: 1.0 / 64.0,
        });
        let sketch = SketchSpec::standard();
        let all = candidate_levels();
        let levels: Vec<Level> = level_picks.iter().map(|&i| all[i]).collect();
        let day = live_day();
        let blocks: Vec<BlockKey> = tiles()
            .into_iter()
            .take(3)
            .map(|geohash| BlockKey { geohash, day })
            .collect();
        let horizon = epoch_seconds(2015, 3, 1, 0, 0, 0);

        // Cold recompute: each block folded once, whole.
        let cold = RollupStore::new(levels.iter().copied(), [], horizon);
        let mut all_keys: Vec<CellKey> = Vec::new();
        for &block in &blocks {
            let rows = generator.block_for_day(block.geohash, block.day);
            let cells = delta_cells(block, &rows, &levels, &sketch);
            all_keys.extend(cells.iter().map(|(k, _)| *k));
            prop_assert!(cold.fold_base(block, &cells));
        }
        all_keys.sort_unstable();
        all_keys.dedup();
        prop_assert!(!all_keys.is_empty(), "dataset must touch rollup cells");

        // Streamed: base fold, then the tail in batches, interleaved
        // across blocks by the random pick sequence.
        let live = RollupStore::new(levels.iter().copied(), blocks.iter().copied(), horizon);
        let mut lanes: Vec<(BlockKey, u64, VecDeque<Vec<Observation>>)> = Vec::new();
        for &block in &blocks {
            let base = generator.base_rows(block.geohash, block.day, base_fraction);
            prop_assert!(live.fold_base(
                block,
                &delta_cells(block, &base, &levels, &sketch)
            ));
            let tail = generator.tail_rows(block.geohash, block.day, base_fraction);
            let batches: VecDeque<Vec<Observation>> =
                tail.chunks(batch_rows).map(|c| c.to_vec()).collect();
            lanes.push((block, 0, batches));
        }

        // While anything is unsealed, the live day is above the watermark
        // and serve() must decline the whole key set.
        prop_assert!(live.serve(&all_keys).is_none(), "pre-seal serve must decline");

        let mut pick = interleave.iter().cycle();
        let mut last_watermark = live.watermark();
        while lanes.iter().any(|(_, _, q)| !q.is_empty()) {
            let open: Vec<usize> = lanes
                .iter()
                .enumerate()
                .filter(|(_, (_, _, q))| !q.is_empty())
                .map(|(i, _)| i)
                .collect();
            let lane = open[pick.next().unwrap() % open.len()];
            let (block, ref mut seq, ref mut queue) = lanes[lane];
            let rows = queue.pop_front().unwrap();
            let cells = delta_cells(block, &rows, &levels, &sketch);
            prop_assert!(live.fold(block, *seq, &cells), "in-order fold applies");
            // A retried duplicate of the same batch must be a no-op.
            prop_assert!(!live.fold(block, *seq, &cells), "duplicate fold skipped");
            *seq += 1;
            if queue.is_empty() {
                live.seal(block);
            }
            let w = live.watermark();
            prop_assert!(w >= last_watermark, "watermark is monotone");
            last_watermark = w;
        }
        prop_assert_eq!(live.watermark(), horizon, "all sealed: watermark at horizon");

        // Bit-for-bit equality, full key set and a strided subset.
        let want = cold.serve(&all_keys).expect("cold store serves");
        let got = live.serve(&all_keys).expect("live store serves");
        prop_assert_eq!(&got, &want, "streamed rollup != cold recompute");
        let subset: Vec<CellKey> = all_keys.iter().copied().step_by(2).collect();
        prop_assert_eq!(
            live.serve(&subset).expect("subset serves"),
            cold.serve(&subset).expect("cold subset serves"),
            "subset serve diverged"
        );
    }
}

/// A one-month domain over the live tiles' region, so Month-level rollup
/// cells fit entirely under the all-sealed watermark.
fn rollup_config(live: bool, policy: RollupPolicy) -> ClusterConfig {
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
        .data_bbox(BBox::from_corner_extent(36.0, -124.5, 4.0, 4.5))
        .data_time(
            TimeRange::new(
                epoch_seconds(2015, 2, 1, 0, 0, 0),
                epoch_seconds(2015, 3, 1, 0, 0, 0),
            )
            .unwrap(),
        )
        .generator(GeneratorConfig {
            seed: 11,
            obs_per_deg2_per_day: 40.0,
            max_obs_per_block: 10_000,
            value_quantum: 1.0 / 64.0,
        })
        .scan_cost_per_obs(Duration::ZERO)
        .cell_service_cost(Duration::ZERO)
        .live_blocks(if live {
            tiles().into_iter().map(|g| (g, live_day())).collect()
        } else {
            Vec::new()
        })
        .live_base_fraction(0.5)
        .rollup(policy)
        .build()
        .expect("rollup test config is valid")
}

fn region() -> BBox {
    BBox::from_corner_extent(36.0, -124.5, 4.0, 4.5)
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

fn counter_sum(cluster: &SimCluster, name: &str) -> u64 {
    (0..cluster.n_nodes())
        .map(|i| cluster.node(i).obs.counter(name).get())
        .sum()
}

fn stream_to_quiescence(cluster: &SimCluster) {
    let stream = cluster.live_stream(128);
    let expected = stream.total_rows();
    assert!(expected > 0, "stream must have a tail");
    let stats = run_stream(
        &stream,
        Arc::new(cluster.ingest_client()),
        IngestConfig::default(),
    );
    assert_eq!(stats.rows_sent, expected as u64, "every row delivered");
    assert_eq!(stats.batches_failed, 0, "no lane abandoned its block");
}

/// End-to-end: after the stream seals every live block, rollup-level
/// queries are served from the rollup — bit-identical to a cold cluster,
/// with `rollup_hits` reported and zero raw rows decoded.
#[test]
fn rollup_serves_watermarked_queries_bit_for_bit() {
    let policy = RollupPolicy::new(vec![
        Level::of(2, TemporalRes::Day).unwrap(),
        Level::of(1, TemporalRes::Month).unwrap(),
    ])
    .unwrap();
    let q_day = AggQuery::new(
        region(),
        TimeRange::whole_day(2015, 2, 2),
        2,
        TemporalRes::Day,
    );
    let q_month = AggQuery::new(
        region(),
        TimeRange::new(
            epoch_seconds(2015, 2, 1, 0, 0, 0),
            epoch_seconds(2015, 3, 1, 0, 0, 0),
        )
        .unwrap(),
        1,
        TemporalRes::Month,
    );
    let q_fine = AggQuery::new(
        region(),
        TimeRange::whole_day(2015, 2, 2),
        4,
        TemporalRes::Day,
    );

    let cold = SimCluster::new(rollup_config(false, RollupPolicy::disabled()));
    let cold_client = cold.client();
    let truth_day = cold_client.query(&q_day).run().expect("cold day query");
    let truth_month = cold_client.query(&q_month).run().expect("cold month query");
    let truth_fine = cold_client.query(&q_fine).run().expect("cold fine query");
    cold.shutdown();

    let cluster = SimCluster::new(rollup_config(true, policy));
    let client = cluster.client();
    let rollup = cluster.rollup().expect("rollup store attached").clone();
    assert!(
        rollup.watermark() < live_day().range().end,
        "live blocks hold the watermark below the streamed day"
    );

    // Before the stream completes, the live day is above the watermark:
    // queries work, but nothing may be rollup-served.
    let pre = client.query(&q_day).run().expect("pre-stream query");
    assert_eq!(
        pre.rollup_hits, 0,
        "ineligible query must not be rollup-served"
    );

    stream_to_quiescence(&cluster);
    assert_eq!(
        rollup.watermark(),
        epoch_seconds(2015, 3, 1, 0, 0, 0),
        "all live blocks sealed: watermark at the domain end"
    );
    assert!(
        counter_sum(&cluster, "rollup.folds") > 0,
        "appends folded deltas"
    );
    assert!(
        counter_sum(&cluster, "rollup.seals") >= 4,
        "every live block's final batch sealed it"
    );

    let decoded_before = counter_sum(&cluster, "dfs.rows_decoded");
    let got_day = client.query(&q_day).run().expect("rollup day query");
    let got_month = client.query(&q_month).run().expect("rollup month query");
    assert_bit_identical(&got_day, &truth_day, "rollup-served day");
    assert_bit_identical(&got_month, &truth_month, "rollup-served month");
    assert!(got_day.rollup_hits > 0, "day query served from the rollup");
    assert!(
        got_month.rollup_hits > 0,
        "month query served from the rollup"
    );
    assert!(
        counter_sum(&cluster, "rollup.serves") > 0,
        "serve counter fired"
    );
    assert_eq!(
        counter_sum(&cluster, "dfs.rows_decoded"),
        decoded_before,
        "rollup-served queries must not touch raw blocks"
    );

    // A non-rollup level takes the normal path and stays exact.
    let got_fine = client.query(&q_fine).run().expect("fine query");
    assert_eq!(got_fine.rollup_hits, 0, "fine level is not rollup-served");
    assert_bit_identical(&got_fine, &truth_fine, "fine level post-stream");

    cluster.shutdown();
}

/// Retention mode: raw blocks behind the horizon are dropped with exact
/// byte accounting, the pass is idempotent, and the rollup stays the
/// (bit-exact) authority for the dropped history in bounded memory.
#[test]
fn retention_drops_raw_blocks_with_exact_accounting() {
    let horizon = epoch_seconds(2015, 2, 20, 0, 0, 0);
    let policy = RollupPolicy::new(vec![
        Level::of(2, TemporalRes::Day).unwrap(),
        Level::of(1, TemporalRes::Month).unwrap(),
    ])
    .unwrap()
    .with_retention(horizon, true)
    .unwrap();

    let q_dropped_day = AggQuery::new(
        region(),
        TimeRange::whole_day(2015, 2, 10),
        2,
        TemporalRes::Day,
    );
    let q_fine_dropped = AggQuery::new(
        region(),
        TimeRange::whole_day(2015, 2, 10),
        4,
        TemporalRes::Day,
    );

    let cold = SimCluster::new(rollup_config(false, RollupPolicy::disabled()));
    let truth = cold
        .client()
        .query(&q_dropped_day)
        .run()
        .expect("cold truth");
    cold.shutdown();

    let cluster = SimCluster::new(rollup_config(true, policy));
    let client = cluster.client();
    // Warm frame caches over soon-to-be-dropped history so retention has
    // cached bytes to release and account for.
    client.query(&q_fine_dropped).run().expect("cache warm-up");
    stream_to_quiescence(&cluster);

    let report = cluster.apply_retention();
    assert!(
        report.blocks_dropped > 0,
        "history behind the horizon dropped"
    );
    assert!(
        report.raw_bytes_dropped > 0,
        "dropped blocks held raw bytes"
    );
    assert_eq!(
        report.cache_bytes_freed,
        counter_sum(&cluster, "dfs.retire.cache_bytes") as usize,
        "FrameCache audit: freed bytes accounted exactly"
    );
    // The block source is shared cluster-wide, so each dropped block is
    // counted by exactly one node — the first to tombstone it.
    assert_eq!(
        counter_sum(&cluster, "dfs.retire.blocks"),
        report.blocks_dropped as u64,
        "each dropped block retired exactly once across the cluster"
    );
    assert!(
        report.cache_bytes_freed > 0,
        "warmed frame caches released bytes"
    );

    // Retirement is idempotent: a second pass drops nothing more.
    let second = cluster.apply_retention();
    assert_eq!(
        second.blocks_dropped, 0,
        "second pass finds nothing to drop"
    );
    assert_eq!(second.raw_bytes_dropped, 0);
    assert_eq!(second.cache_bytes_freed, 0);

    // The rollup is now the authority for the dropped day — still exact.
    let got = client
        .query(&q_dropped_day)
        .run()
        .expect("post-retention query");
    assert!(
        got.rollup_hits > 0,
        "dropped history served from the rollup"
    );
    assert_bit_identical(&got, &truth, "post-retention rollup answer");

    // Bounded memory: the materialized rollup is smaller than the raw
    // bytes it replaced.
    let rollup = cluster.rollup().expect("rollup store");
    assert!(rollup.estimated_bytes() > 0);
    assert!(
        rollup.estimated_bytes() < report.raw_bytes_dropped,
        "rollup memory ({}) must undercut the raw bytes dropped ({})",
        rollup.estimated_bytes(),
        report.raw_bytes_dropped
    );

    // Fine-grained history over a dropped block is gone from raw storage,
    // and retention staled every cache over it before returning.
    let fine = client
        .query(&q_fine_dropped)
        .run()
        .expect("fine query after drop");
    assert!(
        fine.cells.is_empty(),
        "raw history behind the horizon reads empty after retention"
    );

    cluster.shutdown();
}

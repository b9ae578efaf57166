//! Staleness experiment — query latency while a live stream patches and
//! invalidates the STASH graphs (DESIGN.md §13).
//!
//! A front-end keeps replaying a pan/dice workload over the live region
//! while the ingest pump streams the withheld tail of each live block into
//! the cluster. Two configurations are compared:
//!
//! * **patch** — the STASH path: the applying node merges each batch's
//!   per-level deltas into its resident Cells; only unpatchable or remote
//!   copies go stale.
//! * **invalidate-all** — the ablation: every Cell a batch touches is
//!   marked stale, so the next query recomputes it from DFS.
//!
//! The interesting columns are the mid-stream query percentiles (staleness
//! tax: how much recomputation the stream induces) and the patched /
//! invalidated counter totals that explain them.

use crate::report::Table;
use stash_cluster::{run_stream, IngestConfig, SimCluster};
use stash_geo::time::epoch_seconds;
use stash_geo::{BBox, Geohash, TemporalRes, TimeBin, TimeRange};
use stash_model::AggQuery;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Instant;

use crate::harness::Scale;

/// One configuration's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub policy: &'static str,
    /// Mid-stream query latency percentiles (ms).
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Queries issued while the stream was in flight.
    pub queries: usize,
    /// Rows streamed to quiescence.
    pub rows: u64,
    pub cells_patched: u64,
    pub cells_invalidated: u64,
    /// Useful ÷ attempted for the fence and the invalidation fan-out
    /// ([`FENCE_COUNTERS`] order), summed over nodes.
    pub fence: [u64; 6],
}

/// The counters printed in the table's note line: evaluations an ingest
/// event overlapped, those that re-staled at least one key, the keys they
/// re-staled, evaluations that outlived the fence log, finest keys sent in
/// `Invalidate`s, and deltas the appliers built.
pub const FENCE_COUNTERS: [&str; 6] = [
    "ingest.fence.overlapped",
    "ingest.eval_raced",
    "ingest.fence.restaled_cells",
    "ingest.fence.overflow",
    "ingest.invalidate.keys",
    "ingest.delta_cells",
];

fn live_day() -> TimeBin {
    TimeBin::containing(TemporalRes::Day, epoch_seconds(2015, 2, 2, 0, 0, 0))
}

/// Every length-3 child of tile `9q` (lat 33.75–39.375, lon −123.75–
/// −112.5) streams on the experiment day: a region-wide feed.
fn live_blocks() -> Vec<(Geohash, TimeBin)> {
    let day = live_day();
    "0123456789bcdefghjkmnpqrstuvwxyz"
        .chars()
        .map(|c| (Geohash::from_str(&format!("9q{c}")).unwrap(), day))
        .collect()
}

/// Pan/dice mix over the live region.
fn workload() -> Vec<AggQuery> {
    let day = TimeRange::whole_day(2015, 2, 2);
    let mut queries = Vec::new();
    for i in 0..4 {
        for j in 0..2 {
            queries.push(AggQuery::new(
                BBox::from_corner_extent(34.2 + 2.4 * j as f64, -123.3 + 2.6 * i as f64, 0.8, 1.4),
                day,
                4,
                TemporalRes::Day,
            ));
        }
    }
    queries.push(AggQuery::new(
        BBox::from_corner_extent(33.8, -123.7, 5.5, 11.0),
        day,
        3,
        TemporalRes::Day,
    ));
    queries.push(AggQuery::new(
        BBox::from_corner_extent(30.0, -125.0, 14.0, 20.0),
        day,
        2,
        TemporalRes::Day,
    ));
    queries
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

fn run_one(scale: &Scale, patch: bool) -> Row {
    let cluster: SimCluster = scale.stash_cluster_with(|c| {
        c.generator.value_quantum = 1.0 / 64.0;
        c.live_blocks = live_blocks();
        c.live_base_fraction = 0.5;
        c.ingest_patch = patch;
    });
    let client = cluster.client();
    let queries = workload();
    for q in &queries {
        client.query(q).run().expect("warm-up query");
    }

    let stream = cluster.live_stream(64);
    let rows = stream.total_rows() as u64;
    let sink = Arc::new(cluster.ingest_client());
    let producer = std::thread::spawn(move || run_stream(&stream, sink, IngestConfig::default()));

    let mut lat_ms = Vec::new();
    while !producer.is_finished() {
        for q in &queries {
            let t0 = Instant::now();
            client.query(q).run().expect("mid-stream query");
            lat_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    let stats = producer.join().expect("producer thread");
    assert_eq!(stats.rows_sent, rows, "stream must deliver every row");

    let counter = |name: &str| -> u64 {
        (0..cluster.n_nodes())
            .map(|i| cluster.node(i).obs.counter(name).get())
            .sum()
    };
    let cells_patched = counter("ingest.cells_patched");
    let cells_invalidated = counter("ingest.cells_invalidated");
    let fence = FENCE_COUNTERS.map(counter);
    let queries_issued = lat_ms.len();
    cluster.shutdown();

    lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Row {
        policy: if patch { "patch" } else { "invalidate-all" },
        p50_ms: percentile(&lat_ms, 0.50),
        p95_ms: percentile(&lat_ms, 0.95),
        queries: queries_issued,
        rows,
        cells_patched,
        cells_invalidated,
        fence,
    }
}

/// Run both policies on identical clusters and workloads.
pub fn run(scale: &Scale) -> Vec<Row> {
    vec![run_one(scale, true), run_one(scale, false)]
}

pub fn table(rows: &[Row]) -> Table {
    let fence: String = rows
        .iter()
        .map(|r| {
            let counts: Vec<String> = FENCE_COUNTERS
                .iter()
                .zip(r.fence)
                .map(|(name, n)| format!("{name} {n}"))
                .collect();
            format!(" [{}: {}]", r.policy, counts.join(", "))
        })
        .collect();
    let mut t = Table::new(
        "Ingest staleness — mid-stream query latency: patch vs invalidate-all",
        &[
            "policy",
            "p50 (ms)",
            "p95 (ms)",
            "queries",
            "rows streamed",
            "cells patched",
            "cells invalidated",
        ],
    )
    .with_note(format!(
        "Delta-patching keeps resident Cells fresh through appends, so \
         mid-stream queries stay on the cache path; the ablation stales \
         every affected Cell and pays DFS recomputation per touch. \
         Both policies converge to bit-identical answers (tests/ingest.rs). \
         Fence and fan-out, summed over nodes:{fence}"
    ));
    for r in rows {
        t.push(vec![
            r.policy.to_string(),
            format!("{:.2}", r.p50_ms),
            format!("{:.2}", r.p95_ms),
            r.queries.to_string(),
            r.rows.to_string(),
            r.cells_patched.to_string(),
            r.cells_invalidated.to_string(),
        ]);
    }
    t
}

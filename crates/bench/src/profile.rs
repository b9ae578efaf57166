//! `figures --profile`: where does query latency go?
//!
//! Drives a mixed interactive session (pans at three viewport sizes plus a
//! dicing descent) against a STASH deployment, collects the [`QueryTrace`]
//! of every answer, and reports p50/p95/p99 per stage — route, PLM, merge,
//! DFS, wire, retry, wait — from the traces' cluster-wide aggregate view,
//! alongside the coordinator wall clock. The stage histograms are the
//! log₂-bucket [`stash_obs::Histogram`]s every node also keeps in its
//! registry (DESIGN.md §11).

use crate::harness::Scale;
use crate::report::Table;
use stash_data::QuerySizeClass;
use stash_model::SketchSpec;
use stash_obs::{Histogram, HistogramSnapshot, QueryTrace};
use std::sync::atomic::{AtomicU64, Ordering};

/// Collected stage distributions of one profiled run.
#[derive(Debug)]
pub struct Profile {
    pub requests: usize,
    /// `(stage, distribution)` in report order, nanosecond samples.
    pub stages: Vec<(&'static str, HistogramSnapshot)>,
    /// Coordinator wall clock per query.
    pub wall: HistogramSnapshot,
    pub subqueries: u64,
    pub retries: u64,
    pub failovers: u64,
    /// Scan-kernel counters summed over nodes (DESIGN.md §12).
    pub frame_hits: u64,
    pub frame_misses: u64,
    pub frame_evicted_bytes: u64,
    pub rows_decoded: u64,
    pub cells_derived: u64,
    /// Wall time spent producing flat frames on cache misses (`dfs.decode_ns`).
    pub decode_ns: u64,
    /// Frame-cache accounting at teardown: the incrementally maintained
    /// byte counter vs. the audited sum of resident flat-buffer lengths.
    /// Equal by construction (DESIGN.md §15); `--profile --smoke` asserts it.
    pub frame_cache_bytes: u64,
    pub frame_cache_buffer_bytes: u64,
    /// Modeled against real fetch time (DESIGN.md §2b): what the cost model
    /// billed on the spindle and scan lanes (`dfs.charge.disk_ns`,
    /// `dfs.charge.scan_ns`) for how many block reads, and what the fetches
    /// took (`dfs.fetch.wall_ns`).
    pub disk_reads: u64,
    pub charged_disk_ns: u64,
    pub charged_scan_ns: u64,
    pub fetch_wall_ns: u64,
    /// Sketch-pipeline counters summed over nodes (DESIGN.md §14).
    pub sketch_merges: u64,
    pub sketch_bytes: u64,
    /// Freshness dispersal summed over the nodes' graphs (DESIGN.md §5):
    /// neighbor entries bumped, and neighborhood keys looked up to find
    /// them — useful over attempted.
    pub dispersals: u64,
    pub dispersal_probes: u64,
    /// `net.late_ns` over every node's registry and the gateway's: how long
    /// after its due time each modeled wire wait ended (DESIGN.md §11).
    pub late: HistogramSnapshot,
}

/// Fold one trace into the stage histograms.
fn observe(stages: &[(&'static str, Histogram)], wall: &Histogram, trace: &QueryTrace) {
    for ((_, hist), (_, ns)) in stages.iter().zip(trace.agg.stages()) {
        hist.record(ns);
    }
    wall.record(trace.wall_ns);
}

pub fn run(scale: &Scale) -> Profile {
    let wl = scale.workload();
    let mut rng = scale.rng();
    let mut queries = Vec::new();
    for class in [
        QuerySizeClass::State,
        QuerySizeClass::County,
        QuerySizeClass::City,
    ] {
        let pans = 10usize;
        let n_rects = (scale.throughput_requests / 3 / (pans + 1)).max(1);
        queries.extend(wl.throughput_mix(&mut rng, class, n_rects, pans, 0.10));
    }
    queries.extend(wl.dice_descending(wl.random_bbox(&mut rng, QuerySizeClass::State), 4, 0.5));
    // Zoom-out overviews at coarse resolution: each coarse Cell spans many
    // blocks (often on several nodes), so the fragment-merge and gather
    // paths — and their `sketch.merges` counter — run in the profile.
    for res in [2, 1] {
        let mut q = wl.make_query(wl.random_bbox(&mut rng, QuerySizeClass::State));
        q.spatial_res = res;
        queries.push(q);
    }

    let stages: Vec<(&'static str, Histogram)> = stash_obs::StageTimes::default()
        .stages()
        .iter()
        .map(|&(name, _)| (name, Histogram::new()))
        .collect();
    let wall = Histogram::new();
    let (mut subqueries, mut retries, mut failovers) = (0u64, 0u64, 0u64);

    // Profile runs carry sketch-valued Cells so the report shows what the
    // estimator pipeline costs and moves alongside the exact stages.
    let cluster = scale.stash_cluster_with(|c| c.stash.sketch = SketchSpec::standard());
    let client = cluster.client();
    for q in &queries {
        let (_, trace) = client.query(q).traced().run().expect("profile query");
        observe(&stages, &wall, &trace);
        subqueries += trace.subqueries as u64;
        retries += trace.retries as u64;
        failovers += trace.failovers as u64;
    }
    // Sum the scan-kernel counters across nodes before tearing down.
    let kernel = |name: &str| -> u64 {
        (0..cluster.n_nodes())
            .map(|i| cluster.node(i).obs.counter(name).get())
            .sum()
    };
    let frame_hits = kernel("dfs.frame_cache.hit");
    let frame_misses = kernel("dfs.frame_cache.miss");
    let frame_evicted_bytes = kernel("dfs.frame_cache.evicted_bytes");
    let rows_decoded = kernel("dfs.rows_decoded");
    let cells_derived = kernel("dfs.cells_derived");
    let decode_ns = kernel("dfs.decode_ns");
    let charged_disk_ns = kernel("dfs.charge.disk_ns");
    let charged_scan_ns = kernel("dfs.charge.scan_ns");
    let fetch_wall_ns = kernel("dfs.fetch.wall_ns");
    let disk_reads = (0..cluster.n_nodes())
        .map(|i| cluster.node(i).store.disk_stats().reads())
        .sum();
    let sketch_merges = kernel("sketch.merges");
    let sketch_bytes = kernel("sketch.bytes");
    let graph_stat = |stat: fn(&stash_core::GraphStats) -> &AtomicU64| -> u64 {
        (0..cluster.n_nodes())
            .map(|i| stat(cluster.node(i).graph.stats()).load(Ordering::Relaxed))
            .sum()
    };
    let dispersals = graph_stat(|s| &s.dispersals);
    let dispersal_probes = graph_stat(|s| &s.dispersal_probes);
    let mut late = cluster.gateway_obs().histogram("net.late_ns").snapshot();
    for i in 0..cluster.n_nodes() {
        late.merge(&cluster.node(i).obs.histogram("net.late_ns").snapshot());
    }
    let frame_cache_bytes = (0..cluster.n_nodes())
        .map(|i| cluster.node(i).store.frame_cache().bytes() as u64)
        .sum();
    let frame_cache_buffer_bytes = (0..cluster.n_nodes())
        .map(|i| cluster.node(i).store.frame_cache().buffer_bytes() as u64)
        .sum();
    cluster.shutdown();

    Profile {
        requests: queries.len(),
        stages: stages
            .into_iter()
            .map(|(name, h)| (name, h.snapshot()))
            .collect(),
        wall: wall.snapshot(),
        subqueries,
        retries,
        failovers,
        frame_hits,
        frame_misses,
        frame_evicted_bytes,
        rows_decoded,
        cells_derived,
        decode_ns,
        frame_cache_bytes,
        frame_cache_buffer_bytes,
        disk_reads,
        charged_disk_ns,
        charged_scan_ns,
        fetch_wall_ns,
        sketch_merges,
        sketch_bytes,
        dispersals,
        dispersal_probes,
        late,
    }
}

fn col_ms(ns: u64) -> String {
    crate::report::ms(ns as f64 / 1e6)
}

pub fn table(p: &Profile) -> Table {
    let total: u64 = p
        .stages
        .iter()
        .map(|(_, s)| s.sums.iter().sum::<u64>())
        .sum();
    let mut t = Table::new(
        format!(
            "Profile — per-stage latency breakdown over {} queries (ms)",
            p.requests
        ),
        &["stage", "p50", "p95", "p99", "max", "share"],
    )
    .with_note(format!(
        "cluster-wide stage totals per query (fan-out may exceed wall); \
         {} subqueries, {} retries, {} failovers; \
         scan kernel: frame cache {} hits / {} misses / {} B evicted, \
         {} rows decoded in {:.0} ns/row, {} cells derived, \
         {} B resident ({} B buffers); \
         fetches: {} wall for {} disk + {} scan billed, {} reads at {:.0} us; \
         wire waits: {} ended {:.0} us (p50) / {:.0} us (p99) after due; \
         sketches: {} merges, {} B emitted; \
         dispersal: {} neighbors bumped of {} probed",
        p.subqueries,
        p.retries,
        p.failovers,
        p.frame_hits,
        p.frame_misses,
        p.frame_evicted_bytes,
        p.rows_decoded,
        p.decode_ns as f64 / p.rows_decoded.max(1) as f64,
        p.cells_derived,
        p.frame_cache_bytes,
        p.frame_cache_buffer_bytes,
        col_ms(p.fetch_wall_ns),
        col_ms(p.charged_disk_ns),
        col_ms(p.charged_scan_ns),
        p.disk_reads,
        p.charged_disk_ns as f64 / 1e3 / p.disk_reads.max(1) as f64,
        p.late.count(),
        p.late.percentile(50.0) as f64 / 1e3,
        p.late.percentile(99.0) as f64 / 1e3,
        p.sketch_merges,
        p.sketch_bytes,
        p.dispersals,
        p.dispersal_probes
    ));
    for (stage, snap) in &p.stages {
        let sum: u64 = snap.sums.iter().sum();
        t.push(vec![
            stage.to_string(),
            col_ms(snap.percentile(50.0)),
            col_ms(snap.percentile(95.0)),
            col_ms(snap.percentile(99.0)),
            col_ms(snap.max),
            crate::report::pct(sum as f64 / total.max(1) as f64),
        ]);
    }
    t.push(vec![
        "wall".into(),
        col_ms(p.wall.percentile(50.0)),
        col_ms(p.wall.percentile(95.0)),
        col_ms(p.wall.percentile(99.0)),
        col_ms(p.wall.max),
        "-".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_smoke_reports_every_stage() {
        let mut scale = Scale::small();
        scale.throughput_requests = 36;
        // Query finer than the block prefix (as the paper scale does) so
        // pan steps land in partially-scanned blocks — the frame-cache
        // geometry the counters below assert on.
        scale.spatial_res = 4;
        let p = run(&scale);
        assert!(p.requests > 0);
        assert_eq!(p.stages.len(), 7);
        assert_eq!(p.wall.count(), p.requests as u64);
        for (stage, snap) in &p.stages {
            assert_eq!(snap.count(), p.requests as u64, "stage {stage}");
        }
        // Cold pans must scan storage and talk over the wire.
        let dfs = &p.stages.iter().find(|(s, _)| *s == "dfs").unwrap().1;
        assert!(dfs.max > 0, "mixed workload must charge dfs time");
        // The scan kernel must have run: every cold block is one frame-cache
        // miss with decoded rows, and the multi-resolution mix (pans at Day,
        // the dice descent's coarser levels) exercises upward derivation.
        // Revisit pans re-touch blocks, so some hits must land too.
        assert!(p.frame_misses > 0, "cold scans must miss the frame cache");
        assert!(p.frame_hits > 0, "revisit pans must hit the frame cache");
        assert!(p.rows_decoded > 0, "misses must decode rows");
        assert!(p.decode_ns > 0, "misses must charge flat-decode time");
        // Exact accounting: the cache's byte counter is definitionally the
        // sum of its resident flat buffers' lengths.
        assert!(p.frame_cache_bytes > 0, "warm caches hold frames");
        assert_eq!(p.frame_cache_bytes, p.frame_cache_buffer_bytes);
        // Every miss is one read, and the fetch lanes wrote their bill.
        assert_eq!(p.disk_reads, p.frame_misses);
        assert!(p.charged_disk_ns > 0 && p.fetch_wall_ns > 0);
        // Every hop's wait was recorded by whoever finished it.
        assert!(p.late.count() > p.requests as u64, "net.late_ns is empty");
        // The sketch pipeline runs in profile deployments: scans emit
        // sketch-carrying cells and cross-node gathers merge them.
        assert!(p.sketch_bytes > 0, "scans must emit sketch state");
        assert!(p.sketch_merges > 0, "gathers must merge sketch state");
        let rendered = table(&p).to_console();
        for stage in [
            "route", "plm", "merge", "dfs", "wire", "retry", "wait", "wall",
        ] {
            assert!(rendered.contains(stage), "missing {stage} in:\n{rendered}");
        }
        assert!(
            rendered.contains("frame cache"),
            "kernel counters missing in:\n{rendered}"
        );
        assert!(
            rendered.contains("sketches:"),
            "sketch counters missing in:\n{rendered}"
        );
        // Dispersal bumps only what it looked up, and a session of
        // overlapping pans over warmed neighbors finds some.
        assert!(p.dispersals > 0 && p.dispersals <= p.dispersal_probes);
    }
}

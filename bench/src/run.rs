//! One run of one workload: set-up, measured phase, self-checks, oracle,
//! and (traced pass only) the per-layer ledger.

use crate::drive::{self, ClientLog, Digest, RunOptions};
use crate::ingest::{self, StreamOutcome};
use crate::layers::{self, Counters};
use crate::oracle::Oracle;
use crate::procstat;
use crate::report::{Check, Metric, Report, END_TO_END};
use crate::shape::{self, Workload, DAY_SECS};
use crate::span::Recorder;
use crate::workloads::{self, Plan};
use std::process::Command;
use std::sync::atomic::AtomicBool;

/// Slices of the measured phase. Every end-to-end figure is computed per
/// slice and reported as the median over slices, so a burst of host steal
/// (this is a shared 2-core VM) moves one slice, not the figure.
const SLICES: usize = 5;
/// Set-ups per run; `setup_s` is their median. The first set-ups of a
/// process also pay for memory the allocator has not mapped yet; with five
/// the median sits past that.
pub const SETUPS: usize = 5;

/// `scan_evict` runs with caches about a quarter of its working set; a
/// Cell hit ratio outside this band means the run measured something else.
const EVICT_HIT_RATIO_BAND: (f64, f64) = (0.90, 0.985);

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub setups: usize,
    pub traced: bool,
}

fn sample_every(workload: Workload) -> usize {
    match workload {
        Workload::WarmPan => 64,
        Workload::ColdExplore | Workload::ScanEvict => 24,
        Workload::IngestMixed => 8,
    }
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Per-slice p50, p99 (ms) and completions per second of the query stream.
fn slice_queries(logs: &[ClientLog], window_s: f64) -> [Vec<f64>; 3] {
    let width_ns = window_s * 1e9 / SLICES as f64;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); SLICES];
    for log in logs {
        for (&done, &lat) in log.done_ns.iter().zip(&log.lat_ns) {
            // Requests in flight at the stop signal complete just past the
            // window; they belong to its last slice.
            let s = ((done as f64 / width_ns) as usize).min(SLICES - 1);
            buckets[s].push(lat);
        }
    }
    let (mut p50, mut p99, mut qps) = (Vec::new(), Vec::new(), Vec::new());
    for b in &mut buckets {
        b.sort_unstable();
        p50.push(drive::percentile(b, 50.0).map_or(f64::INFINITY, drive::ns_to_ms));
        p99.push(drive::percentile(b, 99.0).map_or(f64::INFINITY, drive::ns_to_ms));
        qps.push(b.len() as f64 / (width_ns / 1e9));
    }
    [p50, p99, qps]
}

/// Per-slice acknowledged rows per second and ack p99 (ms).
fn slice_stream(stream: &StreamOutcome) -> [Vec<f64>; 2] {
    let width_ns = stream.wall_s * 1e9 / SLICES as f64;
    let mut rows = [0u64; SLICES];
    let mut acks: Vec<Vec<u64>> = vec![Vec::new(); SLICES];
    for a in &stream.acks {
        let s = ((a.done_ns as f64 / width_ns) as usize).min(SLICES - 1);
        if a.ack_ns != u64::MAX {
            rows[s] += u64::from(a.rows);
        }
        acks[s].push(a.ack_ns);
    }
    let rate = rows.iter().map(|&r| r as f64 / (width_ns / 1e9)).collect();
    let p99 = acks
        .iter_mut()
        .map(|a| {
            a.sort_unstable();
            drive::percentile(a, 99.0).map_or(f64::INFINITY, drive::ns_to_ms)
        })
        .collect();
    [rate, p99]
}

fn metric(name: &str, mut slices: Vec<f64>, samples: u64) -> Metric {
    let spec = END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("metric in the catalog");
    let reported = slices.clone();
    Metric {
        name: name.to_string(),
        unit: spec.unit.to_string(),
        value: drive::median_f64(&mut slices),
        samples,
        slices: reported,
    }
}

fn check(checks: &mut Vec<Check>, name: &str, ok: bool, detail: String) {
    checks.push(Check {
        name: name.to_string(),
        ok,
        detail,
    });
}

/// A workload that did not do what its name says must fail the run rather
/// than report a mislabeled number.
fn self_checks(
    workload: Workload,
    plan: &Plan,
    logs: &[ClientLog],
    counters: &Counters,
    stream: Option<&StreamOutcome>,
    checks: &mut Vec<Check>,
) {
    let c = |name: &str| counters.get(name).copied().unwrap_or(0);
    let sum = |f: &dyn Fn(&ClientLog) -> u64| logs.iter().map(f).sum::<u64>();
    check(
        checks,
        "fabric dropped nothing",
        c("net.dropped") == 0,
        format!("{} messages dropped", c("net.dropped")),
    );
    match workload {
        Workload::WarmPan => {
            let misses = sum(&|l| l.misses);
            check(
                checks,
                "every answer served from the warm graph",
                misses == 0 && c("dfs.disk_reads") == 0,
                format!(
                    "{misses} Cell misses, {} disk reads after warm-up",
                    c("dfs.disk_reads")
                ),
            );
        }
        Workload::ColdExplore => {
            check(
                checks,
                "first touches paid the DFS and reuse derived Cells",
                c("dfs.disk_reads") > 0 && c("core.derived") > 0,
                format!(
                    "{} disk reads, {} derived Cells",
                    c("dfs.disk_reads"),
                    c("core.derived")
                ),
            );
            check(
                checks,
                "request list outlasted the run",
                !logs.iter().any(|l| l.exhausted),
                format!(
                    "{} of {} generated requests issued",
                    sum(&|l| l.lat_ns.len() as u64),
                    plan.requests()
                ),
            );
        }
        Workload::ScanEvict => {
            let served = sum(&|l| l.cache_hits + l.derived_hits);
            let ratio = served as f64 / (served + sum(&|l| l.misses)).max(1) as f64;
            check(
                checks,
                "both caches evicted continuously",
                c("core.evictions") > 0 && c("dfs.frame_evicted_bytes") > 0,
                format!(
                    "{} Cells, {} frame bytes evicted",
                    c("core.evictions"),
                    c("dfs.frame_evicted_bytes")
                ),
            );
            check(
                checks,
                "Cell hit ratio inside the pinned band",
                (EVICT_HIT_RATIO_BAND.0..=EVICT_HIT_RATIO_BAND.1).contains(&ratio),
                format!(
                    "{ratio:.4}, band {:.3}–{:.3}",
                    EVICT_HIT_RATIO_BAND.0, EVICT_HIT_RATIO_BAND.1
                ),
            );
        }
        Workload::IngestMixed => {
            let s = stream.expect("ingest_mixed has a producer");
            check(
                checks,
                "every streamed row acknowledged",
                s.days_streamed > 0 && s.rows_acked == s.rows_offered && s.batches_failed == 0,
                format!(
                    "{} days, {}/{} rows, {} batches failed",
                    s.days_streamed, s.rows_acked, s.rows_offered, s.batches_failed
                ),
            );
            check(
                checks,
                "history rollup-served, resident Cells patched",
                sum(&|l| l.rollup_hits) > 0 && c("ingest.cells_patched") > 0,
                format!(
                    "{} rollup hits, {} patched Cells",
                    sum(&|l| l.rollup_hits),
                    c("ingest.cells_patched")
                ),
            );
        }
    }
}

/// Mid-stream, a viewport's observation count may only grow.
fn monotone_violations(log: &ClientLog, lane_len: usize) -> u64 {
    let mut last = vec![0u64; lane_len];
    let mut violations = 0;
    for ((&pos, &count), &lat) in log.positions.iter().zip(&log.counts).zip(&log.lat_ns) {
        if lat == u64::MAX {
            continue;
        }
        let seen = &mut last[pos as usize];
        if count < *seen {
            violations += 1;
        }
        *seen = count;
    }
    violations
}

/// Oracle pass: sampled measured answers bit for bit; on `ingest_mixed`
/// only history is fixed mid-stream, so live viewports are checked for
/// monotone counts and, after quiescence, every list query over completed
/// days must equal a cold recompute over the full dataset.
fn oracle_checks(
    cfg: &RunConfig,
    plan: &Plan,
    logs: &[ClientLog],
    stream: Option<&StreamOutcome>,
    cluster: &stash_cluster::SimCluster,
    checks: &mut Vec<Check>,
) -> u64 {
    let mut oracle = Oracle::new(cfg.workload, cfg.seed);
    let sealed_end = shape::ingest_start() + shape::INGEST_SEALED_DAYS * DAY_SECS;
    for sample in logs.iter().flat_map(|l| &l.samples) {
        if stream.is_none() || sample.query.time.end <= sealed_end {
            oracle.check(&sample.query, &sample.digest);
        }
    }
    let mut failed = 0;
    if let Some(s) = stream {
        let violations = monotone_violations(&logs[0], plan.lanes[0].len());
        check(
            checks,
            "viewport counts monotone mid-stream",
            violations == 0,
            format!("{violations} answers lost observations"),
        );
        failed += violations;
        let complete_end = sealed_end + s.days_streamed * DAY_SECS;
        let client = cluster.client();
        for q in plan.lanes[0].iter().filter(|q| q.time.end <= complete_end) {
            match client.query(q).run() {
                Ok(r) => oracle.check(q, &Digest::of(&r)),
                Err(e) => {
                    oracle.mismatches += 1;
                    oracle.first.get_or_insert(format!("{q}: {e}"));
                }
            }
        }
    }
    check(
        checks,
        "sampled answers equal the oracle bit for bit",
        oracle.mismatches == 0 && oracle.checked > 0,
        match &oracle.first {
            Some(first) => format!(
                "{} of {} differ; first: {first}",
                oracle.mismatches, oracle.checked
            ),
            None => format!("{} answers checked", oracle.checked),
        },
    );
    failed + oracle.mismatches
}

pub fn run(cfg: &RunConfig) -> (Report, Option<Recorder>) {
    let w = cfg.workload;
    let plan = workloads::plan(w, cfg.seed);

    let mut setup_s = Vec::new();
    let mut failed = 0u64;
    let mut cluster = None;
    for _ in 0..cfg.setups {
        // Tear the previous cluster down outside the clock.
        drop(cluster.take());
        let (c, s, warm_failed) = drive::setup(w, cfg.seed, &plan);
        setup_s.push(s);
        failed += warm_failed;
        cluster = Some(c);
    }
    let cluster = cluster.expect("at least one set-up");

    let before = layers::read_counters(&cluster);
    let proc_before = procstat::read();
    let stop = AtomicBool::new(false);
    let opts = RunOptions {
        sample_every: sample_every(w),
        traced: cfg.traced,
    };
    let (logs, stream) = drive::run_clients(&cluster, &plan, &stop, &opts, || {
        if w == Workload::IngestMixed {
            Some(ingest::produce(&cluster, cfg.seed, cfg.seconds, &stop))
        } else {
            drive::timer(cfg.seconds, &stop);
            None
        }
    });
    let proc_after = procstat::read();
    let counters = layers::delta(&layers::read_counters(&cluster), &before);
    let stream = stream.as_ref();

    let queries: u64 = logs.iter().map(|l| l.lat_ns.len() as u64).sum();
    let errors: u64 = logs.iter().map(|l| l.errors).sum();
    let mut attempted = queries;
    failed += errors;
    let mut checks = Vec::new();
    check(
        &mut checks,
        "every query answered",
        errors == 0 && queries > 0,
        format!("{errors} of {queries} failed"),
    );
    self_checks(w, &plan, &logs, &counters, stream, &mut checks);
    failed += oracle_checks(cfg, &plan, &logs, stream, &cluster, &mut checks);
    if let Some(s) = stream {
        let batches = s.acks.len() as u64;
        attempted += batches;
        failed += s.batches_failed + u64::from(s.rows_acked != s.rows_offered);
    }

    let mut end_to_end = Vec::new();
    let mut per_layer = Vec::new();
    let mut spans = None;
    if cfg.traced {
        // End-to-end numbers are never taken from the traced pass.
        let observed = layers::Observed {
            plan: &plan,
            logs: &logs,
            counters: &counters,
            stream,
            proc_before,
            proc_after,
        };
        let (metrics, rec) = layers::price(&cluster, &observed);
        per_layer = metrics;
        spans = Some(rec);
    } else {
        let window_s = stream.map_or(cfg.seconds, |s| s.wall_s);
        let [p50, p99, qps] = slice_queries(&logs, window_s);
        end_to_end.push(metric("setup_s", setup_s, cfg.setups as u64));
        end_to_end.push(metric("query_p50_ms", p50, queries));
        end_to_end.push(metric("query_p99_ms", p99, queries));
        end_to_end.push(metric("queries_per_s", qps, queries));
        if let Some(s) = stream {
            let [rate, ack_p99] = slice_stream(s);
            end_to_end.push(metric("ingest_rows_per_s", rate, s.rows_acked));
            end_to_end.push(metric("append_ack_p99_ms", ack_p99, s.acks.len() as u64));
        }
        end_to_end.push(Metric {
            name: "failed_share".into(),
            unit: "fraction".into(),
            value: failed as f64 / attempted.max(1) as f64,
            samples: attempted,
            slices: Vec::new(),
        });
    }
    drop(cluster);

    let report = Report {
        workload: w.name().into(),
        preset: w.preset().name().into(),
        seed: cfg.seed,
        seconds: cfg.seconds,
        clients: plan.lanes.len(),
        setups: cfg.setups,
        traced: cfg.traced,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev: tool_version("git", &["rev-parse", "--short", "HEAD"]),
        rustc: tool_version("rustc", &["--version"]),
        inputs_fnv: format!("{:016x}", plan.inputs_fnv()),
        requests: plan.warm.len() + plan.requests(),
        host_steal_share: procstat::steal_share(&proc_before, &proc_after),
        attempted,
        failed,
        end_to_end,
        per_layer,
        checks,
    };
    (report, spans)
}

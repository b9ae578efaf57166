//! The metric catalog, the JSON report and `--compare`.

use crate::shape::Workload;
use serde_json::Value;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: what a user of the system would see. The two
/// ingest metrics are reported on `ingest_mixed` only.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Per workload, in `Workload::ALL` order: the share of side A's median
    /// by which the metric may worsen before `--compare` calls it a
    /// regression. Calibrated once on the 2-core reference host — three
    /// times the widest spread of ten undisturbed runs on that workload and
    /// at least 5 points above the widest gap seen between the medians of
    /// two sets of one commit, rounded up to a whole 5 % and kept within
    /// 10–25 % — then frozen (see bench/README.md, "Repeatability"). 0 where
    /// the metric is not reported (and for `failed_share`, where any failure
    /// is a regression).
    pub bounds: [f64; 4],
}

impl EndToEnd {
    pub fn bound(&self, workload: Workload) -> f64 {
        self.bounds[workload as usize]
    }
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bounds: [0.25, 0.20, 0.25, 0.20],
    },
    EndToEnd {
        name: "query_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bounds: [0.20, 0.20, 0.20, 0.25],
    },
    EndToEnd {
        name: "query_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bounds: [0.25, 0.10, 0.25, 0.25],
    },
    EndToEnd {
        name: "queries_per_s",
        unit: "1/s",
        better: Better::Higher,
        bounds: [0.20, 0.15, 0.25, 0.20],
    },
    EndToEnd {
        name: "ingest_rows_per_s",
        unit: "rows/s",
        better: Better::Higher,
        bounds: [0.0, 0.0, 0.0, 0.25],
    },
    EndToEnd {
        name: "append_ack_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bounds: [0.0, 0.0, 0.0, 0.25],
    },
    EndToEnd {
        name: "failed_share",
        unit: "fraction",
        better: Better::Lower,
        bounds: [0.0; 4],
    },
];

/// Every per-layer metric of the traced pass as `(name, unit)`, in report
/// order. A metric that does not apply to a workload reads 0 there (that
/// is itself a prediction: e.g. `sketch.merges` outside `scan_evict`).
pub const PER_LAYER: [(&str, &str); 70] = [
    ("cluster.route_us", "us"),
    ("cluster.plm_us", "us"),
    ("cluster.merge_us", "us"),
    ("cluster.dfs_us", "us"),
    ("cluster.wire_us", "us"),
    ("cluster.wait_us", "us"),
    ("cluster.retry_us", "us"),
    ("cluster.agg_work_us", "us"),
    ("cluster.wall_us", "us"),
    ("cluster.client_overhead_us", "us"),
    ("cluster.subqueries_per_query", "count"),
    ("cluster.retries", "count"),
    ("cluster.failovers", "count"),
    ("cluster.rollup_hit_share", "fraction"),
    ("core.hit_ratio", "fraction"),
    ("core.derived_cells", "count"),
    ("core.evictions", "count"),
    ("core.resident_cells", "count"),
    ("core.get_many_ns_per_cell", "ns"),
    ("core.touch_region_ns_per_cell", "ns"),
    ("core.insert_many_ns_per_cell", "ns"),
    ("core.try_derive_us", "us"),
    ("core.plm_missing_ns_per_key", "ns"),
    ("core.evict_us", "us"),
    ("geo.cover_us", "us"),
    ("model.target_keys_us", "us"),
    ("model.summary_merge_ns_per_cell", "ns"),
    ("model.flat_encode_ns_per_cell", "ns"),
    ("model.flat_decode_ns_per_cell", "ns"),
    ("model.flat_bytes_per_cell", "bytes"),
    ("sketch.merge_us_per_cell", "us"),
    ("sketch.merges", "count"),
    ("sketch.bytes_per_cell", "bytes"),
    ("dfs.disk_reads", "count"),
    ("dfs.disk_bytes", "bytes"),
    ("dfs.frame_cache_hit_ratio", "fraction"),
    ("dfs.frame_cache_evicted_bytes", "bytes"),
    ("dfs.rows_decoded", "count"),
    ("dfs.decode_ns_per_row", "ns"),
    ("dfs.cells_derived", "count"),
    ("dfs.rollup_cells", "count"),
    ("dfs.scan_cold_us_per_block", "us"),
    ("dfs.scan_warm_us_per_block", "us"),
    ("dfs.scan_sketch_us_per_block", "us"),
    ("dfs.fetch_partials_us", "us"),
    ("dfs.append_us_per_batch", "us"),
    ("dfs.rollup_fold_us_per_batch", "us"),
    ("dfs.rollup_serve_ns_per_cell", "ns"),
    ("data.block_gen_us_per_block", "us"),
    ("net.messages_per_query", "count"),
    ("net.bytes_per_query", "bytes"),
    ("net.dropped", "count"),
    ("net.send_inline_ns", "ns"),
    ("net.delivery_lateness_us", "us"),
    ("ingest.cells_patched", "count"),
    ("ingest.cells_invalidated", "count"),
    ("ingest.batches", "count"),
    ("ingest.blocked_share", "fraction"),
    ("ingest.max_lag_rows", "rows"),
    ("ingest.rows_per_s", "rows/s"),
    ("ingest.append_ack_p99_ms", "ms"),
    ("process.cpu_ms_per_query", "ms"),
    ("process.ctx_switches_per_query", "count"),
    ("process.peak_rss_mb", "MiB"),
    ("host.steal_share", "fraction"),
    ("trace.queries", "count"),
    ("trace.kernel_samples", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
    ("ledger.accounted_share", "fraction"),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub value: f64,
    /// Operations the value was computed from.
    pub samples: u64,
    /// The value of each measured slice; `value` is their median.
    pub slices: Vec<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    pub workload: String,
    pub preset: String,
    pub seed: u64,
    pub seconds: f64,
    pub clients: usize,
    pub setups: usize,
    pub traced: bool,
    pub nproc: usize,
    pub git_rev: String,
    pub rustc: String,
    pub inputs_fnv: String,
    /// Length of the generated request list (warm-up pass + client lanes).
    pub requests: usize,
    /// Share of host CPU time stolen by the hypervisor during the measured
    /// phase; a disturbed run shows here before it shows anywhere else.
    pub host_steal_share: f64,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    pub checks: Vec<Check>,
}

pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn num(v: f64) -> Value {
    // JSON has no infinity; a failed request's latency reads as null.
    if v.is_finite() {
        Value::F64(v)
    } else {
        Value::Null
    }
}

fn metric_to_json(m: &Metric) -> Value {
    obj(vec![
        ("name", Value::String(m.name.clone())),
        ("unit", Value::String(m.unit.clone())),
        ("value", num(m.value)),
        ("samples", Value::U64(m.samples)),
        (
            "slices",
            Value::Array(m.slices.iter().map(|&v| num(v)).collect()),
        ),
    ])
}

pub fn metrics_to_json(metrics: &[Metric]) -> Value {
    Value::Array(metrics.iter().map(metric_to_json).collect())
}

fn metric_from_json(v: &Value) -> Option<Metric> {
    Some(Metric {
        name: v.get("name")?.as_str()?.to_string(),
        unit: v.get("unit")?.as_str()?.to_string(),
        value: v.get("value")?.as_f64().unwrap_or(f64::INFINITY),
        samples: v.get("samples")?.as_u64()?,
        slices: v
            .get("slices")?
            .as_array()?
            .iter()
            .map(|s| s.as_f64().unwrap_or(f64::INFINITY))
            .collect(),
    })
}

impl Report {
    pub fn to_json(&self) -> Value {
        obj(vec![
            (
                "header",
                obj(vec![
                    ("workload", Value::String(self.workload.clone())),
                    ("preset", Value::String(self.preset.clone())),
                    ("seed", Value::U64(self.seed)),
                    ("seconds", Value::F64(self.seconds)),
                    ("clients", Value::U64(self.clients as u64)),
                    ("setups", Value::U64(self.setups as u64)),
                    ("traced", Value::Bool(self.traced)),
                    ("nproc", Value::U64(self.nproc as u64)),
                    ("git_rev", Value::String(self.git_rev.clone())),
                    ("rustc", Value::String(self.rustc.clone())),
                    ("inputs_fnv", Value::String(self.inputs_fnv.clone())),
                    ("requests", Value::U64(self.requests as u64)),
                    ("host_steal_share", Value::F64(self.host_steal_share)),
                ]),
            ),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("end_to_end", metrics_to_json(&self.end_to_end)),
            ("per_layer", metrics_to_json(&self.per_layer)),
            (
                "checks",
                Value::Array(
                    self.checks
                        .iter()
                        .map(|c| {
                            obj(vec![
                                ("name", Value::String(c.name.clone())),
                                ("ok", Value::Bool(c.ok)),
                                ("detail", Value::String(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    pub fn from_json(v: &Value) -> Option<Report> {
        let h = v.get("header")?;
        let text = |k: &str| Some(h.get(k)?.as_str()?.to_string());
        let metrics = |k: &str| -> Option<Vec<Metric>> {
            v.get(k)?.as_array()?.iter().map(metric_from_json).collect()
        };
        Some(Report {
            workload: text("workload")?,
            preset: text("preset")?,
            seed: h.get("seed")?.as_u64()?,
            seconds: h.get("seconds")?.as_f64()?,
            clients: h.get("clients")?.as_u64()? as usize,
            setups: h.get("setups")?.as_u64()? as usize,
            traced: h.get("traced")?.as_bool()?,
            nproc: h.get("nproc")?.as_u64()? as usize,
            git_rev: text("git_rev")?,
            rustc: text("rustc")?,
            inputs_fnv: text("inputs_fnv")?,
            requests: h.get("requests")?.as_u64()? as usize,
            host_steal_share: h.get("host_steal_share")?.as_f64()?,
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
            checks: v
                .get("checks")?
                .as_array()?
                .iter()
                .map(|c| {
                    Some(Check {
                        name: c.get("name")?.as_str()?.to_string(),
                        ok: c.get("ok")?.as_bool()?,
                        detail: c.get("detail")?.as_str()?.to_string(),
                    })
                })
                .collect::<Option<_>>()?,
        })
    }

    pub fn ok(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Every metric by name and unit, then the checks.
    pub fn print(&self) {
        println!(
            "== {} · preset {} · seed {} · {} s · {} clients · inputs_fnv {} · {} requests generated",
            self.workload,
            self.preset,
            self.seed,
            self.seconds,
            self.clients,
            self.inputs_fnv,
            self.requests
        );
        println!(
            "   nproc {} · git {} · {} · traced {} · host steal {:.1} %",
            self.nproc,
            self.git_rev,
            self.rustc,
            self.traced,
            self.host_steal_share * 100.0
        );
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            println!(
                "   {:<34} {:>14.4} {:<8} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        for c in &self.checks {
            let mark = if c.ok { "ok  " } else { "FAIL" };
            println!("   [{mark}] {} — {}", c.name, c.detail);
        }
        println!("   attempted {} · failed {}", self.attempted, self.failed);
    }
}

pub fn write_json(path: &Path, v: &Value) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let text = serde_json::to_string_pretty(v).expect("value trees always serialize");
    std::fs::write(path, text + "\n")
}

/// Load every untraced report under `path`: one report file, or a
/// directory searched recursively, where each launch of a workload left its
/// own file (`bench/run.sh` writes `run<i>/<workload>.json`). JSON files
/// that are not reports (span dumps) and traced reports are passed over.
pub fn load_reports(path: &Path) -> Result<Vec<Report>, String> {
    let mut out = Vec::new();
    let mut pending = vec![path.to_path_buf()];
    while let Some(p) = pending.pop() {
        if p.is_dir() {
            let entries = std::fs::read_dir(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            for entry in entries {
                let child = entry.map_err(|e| format!("{}: {e}", p.display()))?.path();
                if child.is_dir() || child.extension().is_some_and(|x| x == "json") {
                    pending.push(child);
                }
            }
            continue;
        }
        let text = std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let v = serde_json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?;
        match Report::from_json(&v) {
            Some(r) if !r.traced => out.push(r),
            Some(_) => {}
            None if p == path => return Err(format!("{}: not a perf report", p.display())),
            None => {}
        }
    }
    if out.is_empty() {
        return Err(format!("{}: no untraced perf report found", path.display()));
    }
    // Directory order is the file system's; the table must not depend on it.
    out.sort_by(|a, b| (&a.workload, a.seed).cmp(&(&b.workload, b.seed)));
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// B is within the bound, but the run-to-run spread of one side is
    /// wider than the bound: the pair cannot tell "unchanged" from noise.
    Unresolved,
}

/// Runs of one side needed before their spread is estimated.
const MIN_RUNS_FOR_SPREAD: usize = 3;

/// One metric on one side of a comparison, over that side's runs (separate
/// process launches of the same workload).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub runs: usize,
    /// Median over the runs.
    pub median: f64,
    /// Distance between the first and third quartile of the runs as a share
    /// of their median — the rule of Python's `statistics.quantiles(v, n=4)`.
    /// `None` below three runs: one launch says nothing about the next.
    pub spread: Option<f64>,
}

pub fn side(values: &[f64]) -> Option<Side> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let q = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let i = (pos.floor() as usize).clamp(1, n - 1);
        let (lo, hi, frac) = (s[i - 1], s[i], pos - i as f64);
        // A failed latency reads as infinity; interpolating with it must
        // give infinity, not NaN.
        if frac == 0.0 || lo == hi {
            lo
        } else {
            lo + frac * (hi - lo)
        }
    };
    let median = match n {
        0 => return None,
        1 => s[0],
        _ => q(2),
    };
    let measurable = n >= MIN_RUNS_FOR_SPREAD && median != 0.0 && s[n - 1].is_finite();
    Some(Side {
        runs: n,
        median,
        spread: measurable.then(|| (q(3) - q(1)) / median),
    })
}

/// How much worse `b` is than `a`, as a share of `a` (negative: better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    if a == b {
        return 0.0;
    }
    if a == 0.0 || !a.is_finite() || !b.is_finite() {
        // From nothing to something (failed_share), or to a failed latency.
        let worse = match better {
            Better::Lower => b > a,
            Better::Higher => b < a,
        };
        return if worse {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// A worsening beyond the bound is a regression however noisy the sides
/// are; only a pair within the bound can be left unresolved by its spread.
pub fn verdict(better: Better, bound: f64, a: &Side, b: &Side) -> Verdict {
    let spread = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
    if worsening(better, a.median, b.median) > bound {
        Verdict::Regressed
    } else if bound > 0.0 && spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn runs_of(side: &[Report], w: Workload) -> Vec<&Report> {
    side.iter().filter(|r| r.workload == w.name()).collect()
}

fn percent(share: Option<f64>) -> String {
    share.map_or("—".into(), |s| format!("{:.1}%", s * 100.0))
}

/// One row per (workload, metric) of side A; returns the number of
/// `regressed` and `unresolved` rows. Each side may hold several runs of a
/// workload; a row compares their medians.
pub fn compare(a: &[Report], b: &[Report]) -> (usize, usize) {
    println!(
        "{:<13} {:<18} {:>5} {:>12} {:>12} {:>18} {:>6} {:>8} {:>8}  verdict",
        "workload", "metric", "runs", "A", "B", "B/A", "bound", "spreadA", "spreadB"
    );
    let (mut regressed, mut unresolved) = (0, 0);
    let mut spread_unknown = false;
    for w in Workload::ALL {
        let (ra, rb) = (runs_of(a, w), runs_of(b, w));
        if ra.is_empty() {
            continue;
        }
        if rb.is_empty() {
            println!("{:<13} missing from B: regressed", w.name());
            regressed += 1;
            continue;
        }
        let steal = |runs: &[&Report]| {
            let worst = runs.iter().map(|r| r.host_steal_share).fold(0.0, f64::max);
            worst * 100.0
        };
        println!(
            "{:<13} host steal during the measured phase (worst run): A {:.1} %, B {:.1} %",
            w.name(),
            steal(&ra),
            steal(&rb)
        );
        let inputs = |runs: &[&Report]| -> Vec<(String, u64)> {
            let mut v: Vec<_> = runs
                .iter()
                .map(|r| (r.inputs_fnv.clone(), r.seconds.to_bits()))
                .collect();
            v.sort();
            v.dedup();
            v
        };
        if inputs(&ra) != inputs(&rb) {
            println!(
                "{:<13} note: seeds or run lengths differ between the sides — rows compare different work",
                w.name()
            );
        }
        for spec in &END_TO_END {
            let values = |runs: &[&Report]| -> Vec<f64> {
                runs.iter()
                    .filter_map(|r| r.end_to_end.iter().find(|m| m.name == spec.name))
                    .map(|m| m.value)
                    .collect()
            };
            // Side A is the reference: what it does not report is not a row.
            let Some(sa) = side(&values(&ra)) else {
                continue;
            };
            let Some(sb) = side(&values(&rb)) else {
                println!(
                    "{:<13} {:<18} missing from B: regressed",
                    w.name(),
                    spec.name
                );
                regressed += 1;
                continue;
            };
            let bound = spec.bound(w);
            let v = verdict(spec.better, bound, &sa, &sb);
            match v {
                Verdict::Ok => {}
                Verdict::Regressed => regressed += 1,
                Verdict::Unresolved => unresolved += 1,
            }
            spread_unknown |= bound > 0.0 && (sa.spread.is_none() || sb.spread.is_none());
            // Every ratio with its base; no ratio over a base of zero.
            let ratio = if sa.median == 0.0 {
                "    —".to_string()
            } else {
                format!("{:>7.3}", sb.median / sa.median)
            };
            println!(
                "{:<13} {:<18} {:>2}:{:<2} {:>12.4} {:>12.4} {ratio} of {:>8.3} {:>5.0}% {:>8} {:>8}  {}",
                w.name(),
                spec.name,
                sa.runs,
                sb.runs,
                sa.median,
                sb.median,
                sa.median,
                bound * 100.0,
                percent(sa.spread),
                percent(sb.spread),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    if spread_unknown {
        println!(
            "note: a side with fewer than {MIN_RUNS_FOR_SPREAD} runs has no measured spread (—); \
             its `ok` rows say only that the medians are within the bound"
        );
    }
    (regressed, unresolved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(value: f64, slices: &[f64]) -> Metric {
        Metric {
            name: "query_p50_ms".into(),
            unit: "ms".into(),
            value,
            samples: 1000,
            slices: slices.to_vec(),
        }
    }

    #[test]
    fn side_matches_python_median_and_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = side(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.runs, s.median), (5, 3.0));
        assert!((s.spread.unwrap() - 1.0).abs() < 1e-12);
        // statistics.median([1,2,3,10]) == 2.5; quantiles == [1.25, 2.5, 8.25]
        let s = side(&[10.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        assert!((s.spread.unwrap() - 7.0 / 2.5).abs() < 1e-12);
        // One launch says nothing about the next.
        assert_eq!(side(&[2.0]).unwrap().spread, None);
        assert_eq!(
            side(&[2.0, 4.0]).unwrap(),
            Side {
                runs: 2,
                median: 3.0,
                spread: None
            }
        );
        assert_eq!(side(&[]), None);
        // Failed latencies (infinite) sort last and never turn into NaN.
        let inf = f64::INFINITY;
        assert_eq!(side(&[1.0, inf, 3.0, 2.0, inf]).unwrap().median, 3.0);
        assert_eq!(side(&[1.0, inf, 3.0, 2.0, inf]).unwrap().spread, None);
        assert_eq!(side(&[inf, 1.0, inf, inf]).unwrap().median, inf);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let quiet = |median| Side {
            runs: 5,
            median,
            spread: Some(0.01),
        };
        let noisy = |median| Side {
            runs: 5,
            median,
            spread: Some(0.5),
        };
        let single = |median| Side {
            runs: 1,
            median,
            spread: None,
        };
        let (lower, higher) = (Better::Lower, Better::Higher);
        let a = quiet(1.0);
        assert_eq!(verdict(lower, 0.2, &a, &quiet(1.05)), Verdict::Ok);
        assert_eq!(verdict(lower, 0.2, &a, &quiet(1.5)), Verdict::Regressed);
        assert_eq!(verdict(lower, 0.2, &a, &quiet(0.5)), Verdict::Ok);
        assert_eq!(verdict(higher, 0.2, &a, &quiet(0.5)), Verdict::Regressed);
        assert_eq!(verdict(higher, 0.2, &a, &quiet(1.5)), Verdict::Ok);
        // The same pair under a workload's tighter bound.
        assert_eq!(verdict(lower, 0.04, &a, &quiet(1.05)), Verdict::Regressed);
        // Noise leaves a pair within the bound unresolved, but never hides a
        // worsening beyond it.
        assert_eq!(verdict(lower, 0.2, &a, &noisy(1.05)), Verdict::Unresolved);
        assert_eq!(
            verdict(lower, 0.2, &noisy(1.0), &quiet(1.0)),
            Verdict::Unresolved
        );
        assert_eq!(verdict(lower, 0.2, &a, &noisy(3.0)), Verdict::Regressed);
        assert_eq!(verdict(lower, 0.2, &single(1.0), &single(1.1)), Verdict::Ok);
        // Any failure where there was none is a regression; so is a failed
        // latency (infinite) where there was a finite one.
        assert_eq!(
            verdict(lower, 0.0, &single(0.0), &single(0.001)),
            Verdict::Regressed
        );
        assert_eq!(verdict(lower, 0.0, &single(0.0), &single(0.0)), Verdict::Ok);
        assert_eq!(
            verdict(lower, 0.2, &a, &quiet(f64::INFINITY)),
            Verdict::Regressed
        );
    }

    fn report(workload: &str, metrics: &[(&str, f64)]) -> Report {
        Report {
            workload: workload.into(),
            preset: "real".into(),
            seed: 1,
            seconds: 20.0,
            clients: 2,
            setups: 5,
            traced: false,
            nproc: 2,
            git_rev: String::new(),
            rustc: String::new(),
            inputs_fnv: "00ff".into(),
            requests: 10,
            host_steal_share: 0.0,
            attempted: 5,
            failed: 0,
            end_to_end: metrics
                .iter()
                .map(|&(name, value)| Metric {
                    name: name.into(),
                    ..metric(value, &[])
                })
                .collect(),
            per_layer: vec![],
            checks: vec![],
        }
    }

    #[test]
    fn compare_uses_medians_over_runs_and_counts_what_b_lacks() {
        let run = |p50, qps| report("warm_pan", &[("query_p50_ms", p50), ("queries_per_s", qps)]);
        let a = [run(2.0, 1000.0), run(2.1, 990.0), run(1.9, 1010.0)];
        assert_eq!(compare(&a, &a), (0, 0));
        // One slow launch out of three moves neither median past its bound,
        // but a side that wide cannot show the rows unchanged either.
        let b = [run(2.0, 1000.0), run(9.0, 300.0), run(2.1, 995.0)];
        assert_eq!(compare(&a, &b), (0, 2));
        // The whole side slower: both rows regress.
        let slow = [run(3.0, 700.0), run(3.1, 690.0), run(2.9, 710.0)];
        assert_eq!(compare(&a, &slow), (2, 0));
        // A metric B no longer reports, and a workload B did not run.
        let lacking = [report("warm_pan", &[("query_p50_ms", 2.0)])];
        assert_eq!(compare(&a, &lacking), (1, 0));
        assert_eq!(compare(&a, &[report("scan_evict", &[])]), (1, 0));
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut r = report("warm_pan", &[]);
        r.end_to_end = vec![metric(1.25, &[1.0, 1.25, 1.5])];
        r.checks = vec![Check {
            name: "c".into(),
            ok: true,
            detail: "d".into(),
        }];
        let text = serde_json::to_string_pretty(&r.to_json()).unwrap();
        let back = Report::from_json(&serde_json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}

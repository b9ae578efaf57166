//! `perf` — the repo's benchmark: four exploration workloads against
//! `SimCluster` through the public client API, seven end-to-end metrics,
//! an oracle on every sampled answer, and (traced pass) a per-layer ledger
//! priced from outside. See bench/README.md.
//!
//! ```text
//! perf --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]   one run; last stdout line is the driver's JSON
//! perf --all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]                every workload, one process each
//! perf --smoke                                                                 every workload for 1 s, same checks
//! perf --compare A B                                                           report files, or directories of runs
//! ```
//!
//! `--trace 1` selects the traced pass (per-layer metrics) in place of the
//! untraced one (end-to-end metrics); reports go to `--out` (bench/out).

mod drive;
mod ingest;
mod layers;
mod oracle;
mod procstat;
mod report;
mod run;
mod shape;
mod span;
mod workloads;

use report::{obj, Report};
use run::RunConfig;
use serde_json::Value;
use shape::Workload;
use std::path::{Path, PathBuf};
use std::process::{exit, Command};

/// Length of one measured phase; `BENCHMARK.json` carries the same number.
const RUN_SECONDS: f64 = 20.0;
const DEFAULT_OUT_DIR: &str = "bench/out";

/// The end-to-end metrics every workload reports, i.e. the ones the
/// driver's contract can carry (it wants each metric on each workload).
const DRIVER_END_TO_END: [&str; 4] = ["setup_s", "query_p50_ms", "query_p99_ms", "queries_per_s"];

fn usage() -> ! {
    eprintln!(
        "usage: perf --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
         perf --all [--seed N] [--seconds S] [--trace 0|1] [--out DIR]\n       \
         perf --smoke\n       \
         perf --compare A B",
        Workload::ALL.map(Workload::name).join("|")
    );
    exit(2)
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    all: bool,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        traced: false,
        out: DEFAULT_OUT_DIR.into(),
        all: false,
        smoke: false,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(Workload::parse(&value()).unwrap_or_else(|| usage())),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                a.traced = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => a.out = value().into(),
            "--all" => a.all = true,
            "--smoke" => a.smoke = true,
            "--compare" => a.compare = Some((value().into(), value().into())),
            _ => usage(),
        }
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        usage();
    }
    a
}

fn report_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    let suffix = if traced { ".traced" } else { "" };
    out.join(format!("{workload}{suffix}.json"))
}

/// One run, its report and trace files, and the driver's JSON line.
fn run_one(cfg: &RunConfig, out: &Path) -> bool {
    let (report, spans) = run::run(cfg);
    report.print();
    let path = report_path(out, &report.workload, report.traced);
    report::write_json(&path, &report.to_json()).expect("write report");
    if let Some(rec) = spans {
        let own = span::self_times(&rec.spans);
        let rows = rec.spans.iter().zip(&own).map(|(s, &self_ns)| {
            obj(vec![
                ("name", Value::String(s.name.into())),
                ("start_ns", Value::U64(s.start_ns)),
                ("end_ns", Value::U64(s.end_ns)),
                ("self_ns", Value::U64(self_ns)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                ),
                ("request", Value::U64(u64::from(s.request))),
            ])
        });
        let trace = obj(vec![
            ("workload", Value::String(report.workload.clone())),
            ("seed", Value::U64(report.seed)),
            ("spans", Value::Array(rows.collect())),
            ("per_layer", report::metrics_to_json(&report.per_layer)),
        ]);
        let path = out.join(format!("trace_{}.json", report.workload));
        report::write_json(&path, &trace).expect("write trace");
    }
    println!("{}", driver_line(&report));
    report.ok()
}

/// The last line of stdout: exactly `correct`, `attempted`, `failed`,
/// `metrics` — end-to-end metrics untraced, per-layer metrics traced.
fn driver_line(r: &Report) -> String {
    let carried = |m: &&report::Metric| r.traced || DRIVER_END_TO_END.contains(&m.name.as_str());
    let metrics = r
        .end_to_end
        .iter()
        .chain(&r.per_layer)
        .filter(carried)
        .map(|m| {
            // JSON has no infinity; a run with a failed request is already
            // reported incorrect.
            let value = if m.value.is_finite() {
                m.value
            } else {
                f64::MAX
            };
            let entry = obj(vec![
                ("value", Value::F64(value)),
                ("unit", Value::String(m.unit.clone())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let line = obj(vec![
        ("correct", Value::Bool(r.ok())),
        ("attempted", Value::U64(r.attempted.max(1))),
        ("failed", Value::U64(r.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).expect("value trees always serialize")
}

/// Every workload in its own process: CPU time and peak RSS are then per
/// workload.
fn run_all(args: &Args) -> bool {
    let exe = std::env::current_exe().expect("own path");
    let mut ok = true;
    for w in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .status()
            .expect("spawn workload process");
        ok &= status.success();
    }
    println!("perf: reports in {}", args.out.display());
    ok
}

fn main() {
    let args = parse_args();
    if let Some((a, b)) = &args.compare {
        let load = |p: &Path| {
            report::load_reports(p).unwrap_or_else(|e| {
                eprintln!("perf: {e}");
                exit(2)
            })
        };
        let (regressed, unresolved) = report::compare(&load(a), &load(b));
        println!("perf: {regressed} regressed, {unresolved} unresolved");
        exit(i32::from(regressed > 0));
    }
    if cfg!(debug_assertions) {
        eprintln!("perf: refusing to measure a build with debug assertions; use --release");
        exit(2);
    }
    let ok = if args.smoke {
        // Every workload runs even after one failed: the report of each is
        // the point of a smoke run.
        let mut ok = true;
        for workload in Workload::ALL {
            let cfg = RunConfig {
                workload,
                seed: args.seed,
                seconds: 1.0,
                setups: 1,
                traced: false,
            };
            ok &= run_one(&cfg, &args.out);
        }
        ok
    } else if args.all {
        run_all(&args)
    } else if let Some(workload) = args.workload {
        let cfg = RunConfig {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            setups: run::SETUPS,
            traced: args.traced,
        };
        run_one(&cfg, &args.out)
    } else {
        usage()
    };
    if !ok {
        eprintln!("perf: FAILED — a query, an oracle comparison or a workload self-check failed");
        exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::{Better, END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` at the repository root must describe exactly what
    /// this program emits: a drift would have the driver wait for a metric
    /// that never comes.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let mut dir = std::env::current_dir().unwrap();
        let text = loop {
            if let Ok(text) = std::fs::read_to_string(dir.join("BENCHMARK.json")) {
                break text;
            }
            assert!(
                dir.pop(),
                "BENCHMARK.json not found above the test's directory"
            );
        };
        let doc = serde_json::parse(&text).unwrap();
        assert_eq!(doc["run_seconds"].as_f64(), Some(RUN_SECONDS));
        let names = |key: &str| -> Vec<String> {
            doc[key]
                .as_array()
                .unwrap()
                .iter()
                .map(|m| m["name"].as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            Workload::ALL.map(|w| w.name().to_string())
        );
        assert_eq!(names("end_to_end"), DRIVER_END_TO_END.map(str::to_string));
        for m in doc["end_to_end"].as_array().unwrap() {
            let spec = END_TO_END
                .iter()
                .find(|s| Some(s.name) == m["name"].as_str())
                .unwrap();
            assert_eq!(m["unit"].as_str(), Some(spec.unit));
            // One bound per metric for all workloads: the loosest of them.
            let loosest = spec.bounds.iter().copied().fold(0.0, f64::max);
            assert_eq!(m["bound"].as_f64(), Some(loosest), "{}", spec.name);
            let better = match spec.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(m["better"].as_str(), Some(better));
        }
        let per_layer: Vec<(String, String)> = doc["per_layer"]
            .as_array()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect();
        let catalog: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(per_layer, catalog);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let m = |name: &str| report::Metric {
            name: name.into(),
            unit: "ms".into(),
            value: 1.5,
            samples: 3,
            slices: vec![],
        };
        let r = Report {
            workload: "warm_pan".into(),
            preset: "real".into(),
            seed: 1,
            seconds: 1.0,
            clients: 2,
            setups: 1,
            traced: false,
            nproc: 2,
            git_rev: String::new(),
            rustc: String::new(),
            inputs_fnv: String::new(),
            requests: 0,
            host_steal_share: 0.0,
            attempted: 3,
            failed: 0,
            end_to_end: vec![m("query_p50_ms"), m("failed_share")],
            per_layer: vec![],
            checks: vec![],
        };
        let line = serde_json::parse(&driver_line(&r)).unwrap();
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // failed_share travels as failed ÷ attempted, not as a metric.
        assert!(line["metrics"].get("failed_share").is_none());
        assert_eq!(line["metrics"]["query_p50_ms"]["value"].as_f64(), Some(1.5));
    }
}

//! Regenerate the paper's figures against the simulated cluster.
//!
//! ```sh
//! cargo run -p stash-bench --release --bin figures -- --all
//! cargo run -p stash-bench --release --bin figures -- --fig 6a --fig 8a
//! cargo run -p stash-bench --release --bin figures -- --all --scale small
//! cargo run -p stash-bench --release --bin figures -- --ablations
//! cargo run -p stash-bench --release --bin figures -- --fault-sweep --scale small
//! cargo run -p stash-bench --release --bin figures -- --ingest --scale small
//! cargo run -p stash-bench --release --bin figures -- --profile
//! cargo run -p stash-bench --release --bin figures -- --profile --smoke   # CI-sized
//! cargo run -p stash-bench --release --bin figures -- --rollup --smoke    # rollup gate
//! cargo run -p stash-bench --release --bin figures -- --all --markdown out.md
//! ```
//!
//! Each figure prints a console table; `--markdown FILE` additionally
//! appends GitHub-flavored tables (the format EXPERIMENTS.md embeds).
//! The `--rollup`, `--sustained`, and `--profile` runs also write
//! machine-readable `BENCH_<name>.json` reports (mean/p50/p95/p99 per
//! leg) into the working directory for CI and plotting scripts.

use stash_bench::{
    ablation, fault_sweep, fig6, fig7, fig8, ingest, profile,
    report::{BenchJson, LegStats, Table},
    rollup, sustained, Scale,
};
use std::io::Write;

/// Time both frame-producing routes on one dense block: the streaming flat
/// build (`GenBlockSource::read_frame`) vs. the row-struct
/// oracle the seed used (`read_block` → `BlockFrame::decode`). Returns
/// best-of-5 wall nanoseconds `(flat, oracle)` — an in-process calibration
/// of the pre-refactor decode cost on whatever machine CI lands on.
fn decode_shootout() -> (u64, u64) {
    use stash_cluster::GenBlockSource;
    use stash_data::{GeneratorConfig, NamGenerator};
    use stash_dfs::{BlockFrame, BlockKey, BlockSource};
    use stash_geo::{Geohash, TemporalRes, TimeBin};

    let src = GenBlockSource::new(NamGenerator::new(GeneratorConfig {
        seed: 11,
        obs_per_deg2_per_day: 2_000.0,
        max_obs_per_block: 200_000,
        value_quantum: 0.0,
    }));
    let bk = BlockKey {
        geohash: "9xj".parse::<Geohash>().expect("valid tile"),
        day: TimeBin::containing(
            TemporalRes::Day,
            stash_geo::time::epoch_seconds(2015, 2, 2, 0, 0, 0),
        ),
    };
    let best = |f: &dyn Fn() -> BlockFrame| -> u64 {
        (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_nanos() as u64
            })
            .min()
            .expect("five samples")
    };
    let flat = best(&|| src.read_frame(bk, 5));
    let oracle = best(&|| {
        let (rows, v) = src.read_block_versioned(bk);
        BlockFrame::decode(bk, &rows, src.n_attrs(), 5).with_version(v)
    });
    (flat, oracle)
}

/// Time the sketch fold over one dense block both ways: the batched scan
/// kernel (`BlockFrame::aggregate_with`, which hashes each value once and
/// applies quantile buckets per group in one pass) vs. the pre-refactor
/// per-row oracle that calls `AttrSketches::push` for every (row, cell)
/// incidence. Both fold the identical incidence multiset — every row into
/// the tile's day cell and its hour cell — so the gap is purely the fold
/// machinery. Returns best-of-5 wall nanoseconds `(batched, oracle)`,
/// an in-process calibration on whatever machine CI lands on.
fn sketch_fold_shootout() -> (u64, u64) {
    use stash_cluster::GenBlockSource;
    use stash_data::{GeneratorConfig, NamGenerator};
    use stash_dfs::{BlockKey, BlockSource};
    use stash_geo::{Geohash, TemporalRes, TimeBin};
    use stash_model::{AttrSketches, CellKey, SketchSpec};

    let src = GenBlockSource::new(NamGenerator::new(GeneratorConfig {
        seed: 11,
        obs_per_deg2_per_day: 500.0,
        max_obs_per_block: 50_000,
        value_quantum: 0.0,
    }));
    let tile = "9xj".parse::<Geohash>().expect("valid tile");
    let day = TimeBin::containing(
        TemporalRes::Day,
        stash_geo::time::epoch_seconds(2015, 2, 2, 0, 0, 0),
    );
    let bk = BlockKey { geohash: tile, day };
    let spec = SketchSpec::standard();
    let n_attrs = src.n_attrs();

    // Decode once, outside both timers.
    let frame = src.read_frame(bk, 5);
    let (rows, _) = src.read_block_versioned(bk);
    let day_start = day.range().start;
    let mut wanted = vec![CellKey::new(tile, day)];
    wanted.extend((0..24).map(|h| {
        CellKey::new(
            tile,
            TimeBin::containing(TemporalRes::Hour, day_start + h * 3600),
        )
    }));

    let best = |f: &mut dyn FnMut() -> u64| -> u64 {
        (0..5)
            .map(|_| {
                let t = std::time::Instant::now();
                std::hint::black_box(f());
                t.elapsed().as_nanos() as u64
            })
            .min()
            .expect("five samples")
    };
    let batched = best(&mut || frame.aggregate_with(&wanted, &spec).cells.len() as u64);
    let oracle = best(&mut || {
        let mut day_cell = vec![AttrSketches::new(&spec); n_attrs];
        let mut hour_cells = vec![vec![AttrSketches::new(&spec); n_attrs]; 24];
        for row in &rows {
            let h = ((row.time - day_start) / 3600).clamp(0, 23) as usize;
            for (a, &v) in row.values.iter().enumerate().take(n_attrs) {
                day_cell[a].push(v);
                hour_cells[h][a].push(v);
            }
        }
        (day_cell.len() + hour_cells.len()) as u64
    });
    (batched, oracle)
}

struct Args {
    figs: Vec<String>,
    all: bool,
    ablations: bool,
    fault_sweep: bool,
    ingest: bool,
    profile: bool,
    /// Sustained warm-path load: req/s plus p50/p95/p99 from a closed-loop
    /// multi-client harness.
    sustained: bool,
    /// Long-history coarse queries: rollup-served vs raw recompute
    /// (DESIGN.md §17). With `--smoke`, a regression gate: the
    /// rollup-served leg must undercut the raw ablation.
    rollup: bool,
    /// CI-sized run: shrink the workload so `--profile` and `--sustained`
    /// finish in seconds (no effect on the figure experiments).
    smoke: bool,
    scale: Scale,
    markdown: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        figs: Vec::new(),
        all: false,
        ablations: false,
        fault_sweep: false,
        ingest: false,
        profile: false,
        sustained: false,
        rollup: false,
        smoke: false,
        scale: Scale::paper(),
        markdown: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => args.all = true,
            "--ablations" => args.ablations = true,
            "--fault-sweep" => args.fault_sweep = true,
            "--ingest" => args.ingest = true,
            "--profile" => args.profile = true,
            "--sustained" => args.sustained = true,
            "--rollup" => args.rollup = true,
            "--smoke" => args.smoke = true,
            "--fig" => {
                let f = it.next().expect("--fig needs a value (e.g. 6a)");
                args.figs.push(f.to_lowercase());
            }
            "--scale" => {
                args.scale = match it.next().expect("--scale needs small|paper").as_str() {
                    "small" => Scale::small(),
                    "paper" => Scale::paper(),
                    other => panic!("unknown scale {other:?} (use small|paper)"),
                };
            }
            "--markdown" => args.markdown = Some(it.next().expect("--markdown needs a path")),
            "--help" | "-h" => {
                eprintln!(
                    "usage: figures [--all] [--ablations] [--fault-sweep] [--ingest] [--profile] [--sustained] [--rollup] [--smoke] [--fig 6a]... [--scale small|paper] [--markdown FILE]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?} (try --help)"),
        }
    }
    if !args.all
        && args.figs.is_empty()
        && !args.ablations
        && !args.fault_sweep
        && !args.ingest
        && !args.profile
        && !args.sustained
        && !args.rollup
    {
        args.all = true;
    }
    if args.smoke {
        args.scale = Scale::small();
        args.scale.throughput_requests = 48;
        // Keep the paper scale's query resolution: finer-than-block
        // queries are what exercise frame-cache reuse and upward
        // derivation, so the smoke profile reports the same kernel
        // behavior as the full run (DESIGN.md §12).
        args.scale.spatial_res = Scale::paper().spatial_res;
    }
    args
}

fn main() {
    let args = parse_args();
    let wants = |f: &str| args.all || args.figs.iter().any(|x| x == f);
    let mut tables: Vec<Table> = Vec::new();
    let mut emit = |t: Table| {
        println!("{}", t.to_console());
        tables.push(t);
    };

    let scale = &args.scale;
    eprintln!(
        "running at scale: {} nodes, density {} obs/deg2/day, resolution {}",
        scale.n_nodes, scale.density, scale.spatial_res
    );

    if wants("6a") {
        emit(fig6::latency::table(&fig6::latency::run(scale)));
    }
    if wants("6b") {
        emit(fig6::throughput::table(&fig6::throughput::run(scale)));
        // The same mix against STASH alone, warmed first.
        emit(fig6::warm::table(&fig6::warm::run(scale)));
    }
    if wants("6c") {
        emit(fig6::maintenance::table(&fig6::maintenance::run(scale)));
    }
    if wants("6d") {
        emit(fig6::hotspot::table(&fig6::hotspot::run(scale)));
    }
    if wants("7a") {
        emit(fig7::dicing::table(&fig7::dicing::run(scale, true), true));
    }
    if wants("7b") {
        emit(fig7::dicing::table(&fig7::dicing::run(scale, false), false));
    }
    if wants("7c") {
        emit(fig7::panning::table(&fig7::panning::run(scale)));
    }
    if wants("7d") {
        emit(fig7::zooming::table(&fig7::zooming::run(scale, true), true));
    }
    if wants("7e") {
        emit(fig7::zooming::table(
            &fig7::zooming::run(scale, false),
            false,
        ));
    }
    if wants("8a") {
        emit(fig8::table(&fig8::panning(scale), "8a"));
    }
    if wants("8b") {
        emit(fig8::table(&fig8::dicing_ascending(scale), "8b"));
    }
    if wants("8c") {
        emit(fig8::table(&fig8::dicing_descending(scale), "8c"));
    }
    if args.ablations || args.all {
        emit(ablation::dispersion::table(&ablation::dispersion::run(
            scale,
        )));
        emit(ablation::derivation::table(&ablation::derivation::run(
            scale,
        )));
        emit(ablation::hotspot::table(
            &ablation::hotspot::helper_selection(scale),
            "Ablation 3 — helper selection during Clique Handoff",
            "antipode helpers should be at least as good as random (isolation from the hot region)",
        ));
        emit(ablation::hotspot::table(
            &ablation::hotspot::reroute_sweep(scale),
            "Ablation 4 — reroute probability sweep (hotspot burst)",
            "p=0 never sheds; p=1 relocates the hotspot; intermediate p balances",
        ));
    }

    if args.fault_sweep {
        emit(fault_sweep::table(&fault_sweep::run(scale)));
    }

    if args.ingest {
        emit(ingest::table(&ingest::run(scale)));
    }

    if args.sustained {
        let (requests, distinct) = if args.smoke {
            (2_000, 32)
        } else {
            (100_000, 256)
        };
        let rows = [sustained::run_leg(scale, requests, distinct)];
        emit(sustained::table(&rows));
        let mut json = BenchJson::new("sustained");
        for r in &rows {
            json.push_stats(LegStats {
                leg: "warm".to_string(),
                samples: r.requests,
                mean_ms: 1e3 * r.secs / r.requests.max(1) as f64,
                p50_ms: r.p50_ms,
                p95_ms: r.p95_ms,
                p99_ms: r.p99_ms,
            });
        }
        let path = json
            .write_to(std::path::Path::new("."))
            .expect("write BENCH_sustained.json");
        eprintln!("wrote {}", path.display());
    }

    if args.rollup {
        // Long enough that raw recompute pays per-day block scans across
        // real history; smoke keeps CI in seconds.
        let days = if args.smoke { 10 } else { 45 };
        let rows = rollup::run(scale, days);
        if args.smoke {
            let served = &rows[0].stats;
            let raw = &rows[1].stats;
            // Self-calibrating gate: both legs measured in-process on the
            // same host, so the comparison survives slow CI machines.
            assert!(
                served.mean_ms < raw.mean_ms,
                "rollup serving regressed: rollup-served long-history queries \
                 ({:.2} ms mean) no longer beat the raw-recompute ablation \
                 ({:.2} ms mean) over a {days}-day domain",
                served.mean_ms,
                raw.mean_ms
            );
            eprintln!(
                "rollup smoke gate: rollup-served {:.2} ms mean < raw recompute \
                 {:.2} ms mean ({} queries/leg, {days}-day domain)",
                served.mean_ms, raw.mean_ms, served.samples
            );
        }
        let mut json = BenchJson::new("rollup");
        for r in &rows {
            json.push_stats(r.stats.clone());
        }
        let path = json
            .write_to(std::path::Path::new("."))
            .expect("write BENCH_rollup.json");
        eprintln!("wrote {}", path.display());
        emit(rollup::table(&rows, days));
    }

    if args.profile {
        let p = profile::run(scale);
        if args.smoke {
            // CI regression gates for the flat-frame refactor (PR 7).
            // The pre-refactor pin is measured in-process — the row-struct
            // oracle route on a dense block — so the gate is calibrated to
            // whatever machine CI lands on; an absolute ns/row pin proved
            // flaky at smoke scale, where blocks are ~100 rows and fixed
            // per-block overhead dominates.
            let ns_per_row = p.decode_ns as f64 / p.rows_decoded.max(1) as f64;
            let (flat_ns, oracle_ns) = decode_shootout();
            assert!(
                flat_ns < oracle_ns,
                "flat decode regressed: streaming build ({flat_ns} ns/block) is no longer \
                 cheaper than the pre-refactor row-struct route ({oracle_ns} ns/block)"
            );
            // Frame-cache accounting is exact: the byte counter must equal
            // the audited sum of resident flat-buffer lengths.
            assert_eq!(
                p.frame_cache_bytes, p.frame_cache_buffer_bytes,
                "frame cache byte accounting diverged from buffer lengths"
            );
            // Same self-calibrating shape for the batched sketch fold
            // (ISSUE 8): the scan kernel's fold must beat the per-row
            // `AttrSketches::push` oracle over the identical incidence
            // multiset on continuous data.
            let (fold_ns, fold_oracle_ns) = sketch_fold_shootout();
            assert!(
                fold_ns < fold_oracle_ns,
                "batched sketch fold regressed: kernel fold ({fold_ns} ns/block) is no \
                 longer cheaper than the per-row push oracle ({fold_oracle_ns} ns/block)"
            );
            eprintln!(
                "smoke gates: profile decode {ns_per_row:.0} ns/row; shootout flat \
                 {flat_ns} ns vs row-oracle {oracle_ns} ns per dense block; \
                 sketch fold {fold_ns} ns vs push-oracle {fold_oracle_ns} ns; \
                 cache accounting exact ({} B)",
                p.frame_cache_bytes
            );
        }
        let mut json = BenchJson::new("profile");
        for (stage, snap) in p
            .stages
            .iter()
            .chain(std::iter::once(&("wall", p.wall.clone())))
        {
            let mean_ns = snap.sums.iter().sum::<u64>() as f64
                / snap.counts.iter().sum::<u64>().max(1) as f64;
            json.push_stats(LegStats {
                leg: stage.to_string(),
                samples: snap.count() as usize,
                mean_ms: mean_ns / 1e6,
                p50_ms: snap.percentile(50.0) as f64 / 1e6,
                p95_ms: snap.percentile(95.0) as f64 / 1e6,
                p99_ms: snap.percentile(99.0) as f64 / 1e6,
            });
        }
        let path = json
            .write_to(std::path::Path::new("."))
            .expect("write BENCH_profile.json");
        eprintln!("wrote {}", path.display());
        emit(profile::table(&p));
    }

    if let Some(path) = args.markdown {
        let mut out = String::new();
        for t in &tables {
            out.push_str(&t.to_markdown());
            out.push('\n');
        }
        let mut f = std::fs::File::create(&path).expect("create markdown file");
        f.write_all(out.as_bytes()).expect("write markdown");
        eprintln!("wrote {} tables to {path}", tables.len());
    }
}

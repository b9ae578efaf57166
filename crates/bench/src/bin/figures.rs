//! Regenerate the paper's figures against the simulated cluster.
//!
//! ```sh
//! cargo run -p stash-bench --release --bin figures -- --all
//! cargo run -p stash-bench --release --bin figures -- --fig 6a --fig 8a
//! cargo run -p stash-bench --release --bin figures -- --all --scale small
//! cargo run -p stash-bench --release --bin figures -- --ablations
//! cargo run -p stash-bench --release --bin figures -- --ingest --scale small
//! cargo run -p stash-bench --release --bin figures -- --all --markdown out.md
//! ```
//!
//! Each figure prints a console table; `--markdown FILE` additionally
//! writes GitHub-flavored tables (the format EXPERIMENTS.md embeds).

use stash_bench::{ablation, fig6, fig7, fig8, ingest, report::Table, Scale};
use std::io::Write;

/// Every id `--fig` accepts, in run order.
const FIGS: [&str; 12] = [
    "6a", "6b", "6c", "6d", "7a", "7b", "7c", "7d", "7e", "8a", "8b", "8c",
];

/// Run one paper figure.
fn figure(id: &str, scale: &Scale) -> Table {
    match id {
        "6a" => fig6::latency::table(&fig6::latency::run(scale)),
        "6b" => fig6::throughput::table(&fig6::throughput::run(scale)),
        "6c" => fig6::maintenance::table(&fig6::maintenance::run(scale)),
        "6d" => fig6::hotspot::table(&fig6::hotspot::run(scale)),
        "7a" => fig7::dicing::table(&fig7::dicing::run(scale, true), true),
        "7b" => fig7::dicing::table(&fig7::dicing::run(scale, false), false),
        "7c" => fig7::panning::table(&fig7::panning::run(scale)),
        "7d" => fig7::zooming::table(&fig7::zooming::run(scale, true), true),
        "7e" => fig7::zooming::table(&fig7::zooming::run(scale, false), false),
        "8a" => fig8::table(&fig8::panning(scale), "8a"),
        "8b" => fig8::table(&fig8::dicing_ascending(scale), "8b"),
        "8c" => fig8::table(&fig8::dicing_descending(scale), "8c"),
        other => unreachable!("figure id {other:?} passed the --fig check"),
    }
}

struct Args {
    figs: Vec<String>,
    all: bool,
    ablations: bool,
    ingest: bool,
    scale: Scale,
    markdown: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        figs: Vec::new(),
        all: false,
        ablations: false,
        ingest: false,
        scale: Scale::paper(),
        markdown: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--all" => args.all = true,
            "--ablations" => args.ablations = true,
            "--ingest" => args.ingest = true,
            "--fig" => {
                let f = it.next().expect("--fig needs a value (e.g. 6a)");
                let f = f.to_lowercase();
                assert!(
                    FIGS.contains(&f.as_str()),
                    "unknown figure {f:?} (valid: 6a–6d, 7a–7e, 8a–8c)"
                );
                args.figs.push(f);
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
                    "usage: figures [--all] [--ablations] [--ingest] [--fig 6a]... [--scale small|paper] [--markdown FILE]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown argument {other:?} (try --help)"),
        }
    }
    if !args.all && args.figs.is_empty() && !args.ablations && !args.ingest {
        args.all = true;
    }
    args
}

fn main() {
    let args = parse_args();
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

    for id in FIGS {
        if args.all || args.figs.iter().any(|f| f == id) {
            emit(figure(id, scale));
        }
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

    if args.ingest {
        emit(ingest::table(&ingest::run(scale)));
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

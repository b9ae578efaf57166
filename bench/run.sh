#!/usr/bin/env bash
# Build the benchmark, run every workload RUNS times untraced (each in its
# own process launch, so --compare sees the run-to-run spread), once traced,
# and compare the end-to-end numbers with the committed baselines.
# usage: bench/run.sh [seed] [runs]      (defaults: the baselines' 1 and 5)
# Run from anywhere; writes only bench/out/ and the cargo target directory.
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
runs="${2:-5}"
cargo build --release --offline --manifest-path bench/Cargo.toml
perf="${CARGO_TARGET_DIR:-bench/target}/release/perf"
rm -rf bench/out
for i in $(seq "$runs"); do
  "$perf" --all --seed "$seed" --out "bench/out/run$i"
done
"$perf" --all --trace 1 --seed "$seed" --out bench/out/traced
"$perf" --compare bench/baselines bench/out

#!/usr/bin/env bash
# Alternating parent/change pairs of the repo's benchmark — the rule for a
# claimed gain (bench/README.md, "Comparing two sides"): the same seed and run
# length on both sides, each pair minutes apart at most, which side goes first
# alternating, then medians, spreads and verdicts from `perf --compare` plus
# how many pairs the change won per metric.
#
# usage: scripts/perf_pairs.sh <parent-rev> <workload|--all> [pairs=10] [seed=1]
#
# The change is this working tree; the parent is `git archive <parent-rev>`
# unpacked beside it (nothing is left in .git). Each side's bench/ package is
# built once into its own target directory. Everything lives in one fresh
# directory under ${TMPDIR:-/tmp}; the reports stay there in
# out/{parent,change}/run<i>/, the checkout and the builds are removed.
# Ten pairs of --all take about 65 minutes on the 2-core reference host.
set -euo pipefail
usage="usage: scripts/perf_pairs.sh <parent-rev> <workload|--all> [pairs=10] [seed=1]"
rev="${1:?$usage}"
what="${2:?$usage}"
pairs="${3:-10}"
seed="${4:-1}"
root="$(cd "$(dirname "$0")/.." && pwd)"
if [ "$what" = --all ]; then
  workloads="warm_pan cold_explore scan_evict ingest_mixed"
else
  workloads="$what"
fi

work="$(mktemp -d -t perf_pairs.XXXXXX)"
trap 'rm -rf "$work/parent" "$work/target-parent" "$work/target-change"' EXIT
mkdir "$work/parent"
git -C "$root" archive "$rev" | tar -x -C "$work/parent"
for side in parent change; do
  [ "$side" = parent ] && src="$work/parent" || src="$root"
  CARGO_TARGET_DIR="$work/target-$side" \
    cargo build --release --offline --quiet --manifest-path "$src/bench/Cargo.toml"
done

# The driver's JSON line (last line of stdout) of every run is kept next to
# its report; the wins below are read from it.
run() { # side pair workload
  local out="$work/out/$1/run$2"
  mkdir -p "$out"
  # Both sides run from the change's root: they read no file there.
  (cd "$root" && "$work/target-$1/release/perf" --workload "$3" --seed "$seed" --out "$out") \
    | tail -n 1 >"$out/$3.line"
}
for i in $(seq "$pairs"); do
  for w in $workloads; do
    if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      run "$side" "$i" "$w"
    done
    echo "pair $i/$pairs $w done ($order)" >&2
  done
done

status=0
"$work/target-change/release/perf" --compare "$work/out/parent" "$work/out/change" || status=$?

metric() { sed -E "s/.*\"$2\":\{\"value\":([0-9.eE+-]+).*/\1/" "$1"; }
echo
echo "pairs won by the change (ties count for neither), seed $seed:"
for w in $workloads; do
  for m in setup_s:lower query_p50_ms:lower query_p99_ms:lower queries_per_s:higher; do
    name="${m%%:*}"
    wins=0 ties=0
    for i in $(seq "$pairs"); do
      p="$(metric "$work/out/parent/run$i/$w.line" "$name")"
      c="$(metric "$work/out/change/run$i/$w.line" "$name")"
      case "$(awk -v p="$p" -v c="$c" -v better="${m##*:}" 'BEGIN {
        if (p == c) print "tie"; else if ((c < p) == (better == "lower")) print "win"; else print "loss" }')" in
        win) wins=$((wins + 1)) ;;
        tie) ties=$((ties + 1)) ;;
      esac
    done
    printf '  %-13s %-14s %2d of %d won, %d tied\n' "$w" "$name" "$wins" "$pairs" "$ties"
  done
done
echo "reports: $work/out"
exit "$status"

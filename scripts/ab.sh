#!/usr/bin/env bash
# Alternating A/B benchmark of the working tree against a parent revision.
#
#   scripts/ab.sh <parent-rev> [--pairs N] [--workloads a,b]
#
# Builds `git archive <parent-rev>` in a temporary directory next to the
# working tree (AB_DIR overrides where), with its own target directory,
# then runs
#
#   bash benchmark/run.sh --workload W --seed 3 --seconds 8 --trace 0
#
# N times in each build (default 10 pairs, every workload in
# BENCHMARK.json), alternating which build goes first. Per workload it
# prints the parent and change medians of the four end-to-end metrics, their
# ratio change/parent, and "change ahead k/N": the pairs in which the change
# was better on that metric (higher ops_per_s; lower op_p50_us, setup_s,
# peak_rss_mb). Failed operations are summed per side. Ends with
# scripts/placement.sh on both benchmark binaries (every Machine::run
# instance: address, size, offset mod 64, stack frame): a ratio that moves
# while ops_executed does not, next to a different Machine::run offset mod
# 64, is link placement.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
usage="usage: scripts/ab.sh <parent-rev> [--pairs N] [--workloads a,b]"
[ $# -ge 1 ] || { echo "$usage" >&2; exit 2; }
rev="$1"
shift
pairs=10
workloads=$(sed -n 's/.*{"name": "\([a-z_]*\)", "why".*/\1/p' "$root/BENCHMARK.json" | paste -sd, -)
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs="$2"; shift 2 ;;
    --workloads) workloads="$2"; shift 2 ;;
    *) echo "$usage" >&2; exit 2 ;;
  esac
done

base="${AB_DIR:-$(dirname "$root")}"
mkdir -p "$base"
parent="$(mktemp -d "$base/ab-parent.XXXXXX")"
results="$parent/results.tsv"
echo "parent $(git -C "$root" rev-parse --short "$rev") in $parent" >&2
git -C "$root" archive "$rev" | tar -x -C "$parent"

# One run of workload $2 in checkout $1; appends "side workload metrics..."
# to the results file.
run() {
  local side="$1" dir="$2" w="$3" line
  if [ "$side" = parent ]; then
    line=$(cd "$dir" && CARGO_TARGET_DIR="$dir/target" bash benchmark/run.sh \
      --workload "$w" --seed 3 --seconds 8 --trace 0 | tail -n 1)
  else
    line=$(cd "$dir" && bash benchmark/run.sh \
      --workload "$w" --seed 3 --seconds 8 --trace 0 | tail -n 1)
  fi
  local values=""
  for m in ops_per_s op_p50_us setup_s peak_rss_mb; do
    values="$values $(sed -E "s/.*\"$m\": \{\"value\": ([-0-9.eE+]+).*/\1/" <<< "$line")"
  done
  local failed
  failed=$(sed -E 's/.*"failed": ([0-9]+).*/\1/' <<< "$line")
  echo "$side $w$values $failed" >> "$results"
}

IFS=, read -r -a list <<< "$workloads"
for ((i = 1; i <= pairs; i++)); do
  for w in "${list[@]}"; do
    echo "pair $i/$pairs $w" >&2
    if ((i % 2)); then
      run parent "$parent" "$w"
      run change "$root" "$w"
    else
      run change "$root" "$w"
      run parent "$parent" "$w"
    fi
  done
done

awk -v pairs="$pairs" '
  function median(a, n,    i, j, t) {
    for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
    return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2
  }
  BEGIN { split("ops_per_s op_p50_us setup_s peak_rss_mb", names, " ") }
  {
    w = $2; if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
    k = ++count[$1, w]
    for (m = 1; m <= 4; m++) v[$1, w, m, k] = $(m + 2)
    failed[$1, w] += $7
  }
  END {
    printf "%-15s %-12s %14s %14s %14s %14s\n", "workload", "metric", "parent", "change", "change/parent", "change ahead"
    for (x = 1; x <= nw; x++) {
      w = order[x]; n = count["change", w] < count["parent", w] ? count["change", w] : count["parent", w]
      for (m = 1; m <= 4; m++) {
        ahead = 0
        for (k = 1; k <= n; k++) {
          p[k] = v["parent", w, m, k]; c[k] = v["change", w, m, k]
          if (m == 1 ? c[k] > p[k] : c[k] < p[k]) ahead++
        }
        mp = median(p, n); mc = median(c, n)
        printf "%-15s %-12s %14.6g %14.6g %14.3f %11d/%d\n", w, names[m], mp, mc, mp ? mc / mp : 0, ahead, n
      }
      printf "%-15s %-12s %14d %14d\n", w, "failed", failed["parent", w], failed["change", w]
    }
  }' "$results"

"$root/scripts/placement.sh" "$parent/target/release/wolfram-benchmark" \
  "${CARGO_TARGET_DIR:-$root/target}/release/wolfram-benchmark"

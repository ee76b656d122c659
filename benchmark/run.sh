#!/usr/bin/env bash
# The benchmark's one command. Builds the benchmark package, then
#
#   run.sh --workload NAME --seed N --seconds S --trace 0|1
#       runs one workload in this process (what BENCHMARK.json's command is
#       called with) and prints its result as the last line of output;
#   run.sh [--seed N] [--seconds S] [--smoke] [--reverse]
#       runs every workload, each in its own child process, untraced and
#       then traced, prints every metric and writes out/results.json and
#       out/trace-<workload>.json.
#
# Run it from the root of the checkout or from anywhere else.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# One target directory for repo and benchmark, so an existing release build
# is reused. A relative CARGO_TARGET_DIR means relative to the checkout.
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# The build's own output goes to stderr: stdout carries only results.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2

mode=all
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        mode=run
    fi
done

cd "$root"
if [ "$mode" = run ]; then
    exec "$target/release/wolfram-benchmark" run --out-dir "$here/out" "$@"
else
    exec "$target/release/wolfram-benchmark" all --out-dir "$here/out" \
        --baseline "$here/baseline.json" "$@"
fi

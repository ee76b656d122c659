#!/usr/bin/env bash
# compare.sh A.json B.json: two results files of run.sh side by side, per
# workload and end-to-end metric, judged by the bounds of BENCHMARK.json.
# Exits 0 when no row is regressed or unresolved, 1 otherwise, 2 when the
# files cannot be compared.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/wolfram-benchmark" compare "$@"

#!/usr/bin/env bash
# CI gate: tier-1 verification (ROADMAP.md), the CLI smokes, the benchmark
# and lint. In the order they run:
#
#   lint:       cargo fmt --all -- --check
#   tier-1:     cargo build --release && cargo test -q
#   build:      cargo build --release -p wolfram-bench --bin reproduce
#   analyzer:   reproduce analyze over difftest/corpus/*.wl, at every IR
#               stage, and --stats against ANALYZE_stats.golden
#   serve:      reproduce bench-serve --quick; a socket server started,
#               driven (bench-serve --net), SIGTERMed and restarted over one
#               disk-cache dir (writes BENCH_serve_net_{cold,warm}.json)
#   parallel:   reproduce bench-parallel --quick (writes BENCH_parallel.json)
#   stream:     reproduce stream over two short record streams, checked
#               line by line
#   reproduce:  compile-times smoke; an unknown subcommand must exit nonzero
#   benchmark:  bash benchmark/run.sh --smoke
#               cargo test -q --offline --manifest-path benchmark/Cargo.toml
#   lint:       cargo clippy --all-targets -- -D warnings (root, then
#               --workspace)
#
# The crates' own tests (cargo test --release --workspace) are not part of
# this script.
#
# Run from the repository root: ./scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> lint: cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# The root package does not depend on wolfram-bench, so the tier-1 build
# above leaves ./target/release/reproduce missing or stale.
echo "==> build: reproduce CLI"
cargo build --release -p wolfram-bench --bin reproduce

echo "==> analyzer: reproduce analyze on the committed corpus"
for wl in difftest/corpus/*.wl; do
  ./target/release/reproduce analyze "$wl" > /dev/null
done

echo "==> analyzer: reproduce analyze smoke (all IR stages)"
SRC='Function[{Typed[n, "MachineInteger"]}, Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]'
for stage in wir twir post-pipeline; do
  ./target/release/reproduce analyze --ir-stage "$stage" "$SRC" > /dev/null
done

echo "==> analyzer: range-check elision stats vs committed golden"
./target/release/reproduce analyze --stats --golden ANALYZE_stats.golden > /dev/null

echo "==> serve: bench-serve smoke (zero divergences, nonzero hit rate)"
./target/release/reproduce bench-serve --quick

echo "==> serve: networked warm-restart smoke (wire protocol + disk cache)"
# Start a socket server over an empty disk-cache dir, drive it with the
# closed-loop wire client, SIGTERM it, restart it over the *same* dir,
# and require the second run to serve every first-sight program from the
# disk cache with zero recompiles (the warm-restart contract). Both runs
# fail on any divergence from ground truth.
SERVE_ADDR="127.0.0.1:7788"
SERVE_CACHE_DIR="$(mktemp -d)"
SERVE_PID=""
cleanup_serve() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$SERVE_CACHE_DIR"
}
trap cleanup_serve EXIT
wait_for_serve() {
  for _ in $(seq 1 100); do
    if (exec 3<>"/dev/tcp/127.0.0.1/7788") 2>/dev/null; then
      exec 3>&- 2>/dev/null || true
      return 0
    fi
    sleep 0.1
  done
  echo "serve did not start listening on $SERVE_ADDR" >&2
  return 1
}
./target/release/reproduce serve --listen "$SERVE_ADDR" --tier bytecode \
  --cache-dir "$SERVE_CACHE_DIR" &
SERVE_PID=$!
wait_for_serve
./target/release/reproduce bench-serve --net "$SERVE_ADDR" --quick \
  --json BENCH_serve_net_cold.json
kill -TERM "$SERVE_PID" && wait "$SERVE_PID" || true
./target/release/reproduce serve --listen "$SERVE_ADDR" --tier bytecode \
  --cache-dir "$SERVE_CACHE_DIR" &
SERVE_PID=$!
wait_for_serve
./target/release/reproduce bench-serve --net "$SERVE_ADDR" --quick --expect-warm \
  --json BENCH_serve_net_warm.json
kill -TERM "$SERVE_PID" && wait "$SERVE_PID" || true
SERVE_PID=""
rm -rf "$SERVE_CACHE_DIR"

echo "==> parallel: bench-parallel smoke (result equivalence, balanced counters)"
# Quick-scale ablation over the tensor benchmarks; exits nonzero if any
# data-parallel configuration (including threads=2) diverges from the
# fused-scalar baseline or global_stats() ends up imbalanced. The JSON
# report is uploaded as a workflow artifact by ci.yml.
./target/release/reproduce bench-parallel --quick --json BENCH_parallel.json

echo "==> stream: CLI smoke (line-delimited records, in-order replies)"
STREAM_OUT="$(printf '1\n2\nnope\n4\n' | ./target/release/reproduce stream \
  --function 'Function[{Typed[n, "MachineInteger"]}, n*n]' --batch 2 2>/dev/null)"
if [ "$STREAM_OUT" != "$(printf 'ok 1\nok 4\nerr type error: argument nope does not match parameter type Integer64\nok 16')" ]; then
  echo "unexpected stream output:" >&2
  echo "$STREAM_OUT" >&2
  exit 1
fi
# A matrix is not a vector: the record is a type error in its place in the
# order (not the sum of its first two cells), and the next one computes.
STREAM_OUT="$(printf '{1., 2., 3.}\n{{1., 2.}, {3., 4.}}\n{5., 6.}\n' | ./target/release/reproduce stream \
  --function 'Function[{Typed[v, "Tensor"["Real64", 1]]}, Module[{s = 0., i = 1}, While[i <= Length[v], s = s + v[[i]]; i = i + 1]; s]]' \
  2>/dev/null)"
if [ "$STREAM_OUT" != "$(printf 'ok 6.\nerr type error: argument rank-2 tensor does not match parameter type Tensor[Real64, 1]\nok 11.')" ]; then
  echo "unexpected stream output for a wrong-rank record:" >&2
  echo "$STREAM_OUT" >&2
  exit 1
fi

echo "==> reproduce: compile-times smoke (the per-stage compile-time table)"
./target/release/reproduce compile-times > /dev/null

echo "==> reproduce: an unknown subcommand fails instead of printing nothing"
if ./target/release/reproduce no-such-subcommand 2>/dev/null; then
  echo "reproduce accepted an unknown subcommand" >&2
  exit 1
fi

echo "==> benchmark: build + smoke every workload (benchmark/run.sh --smoke)"
# benchmark/ is its own package outside the workspace, compiled against
# crates/*'s public surface: an API change that breaks it must fail here,
# not when the driver next runs BENCHMARK.json.
bash benchmark/run.sh --smoke > /dev/null

echo "==> benchmark: its own tests (spec/BENCHMARK.json contract)"
CARGO_TARGET_DIR="$PWD/target" cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> lint: cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> lint (workspace): cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci.sh: all checks passed"

#!/usr/bin/env bash
# CI gate: tier-1 verification (ROADMAP.md), every crate's tests, the CLI
# smokes, the benchmark and lint. In the order they run:
#
#   lint:       cargo fmt --all -- --check
#   tier-1:     cargo build --release && cargo test -q
#   tests:      cargo test --release --workspace -q (every crate's unit and
#               integration tests; the serve, wire, warm-restart,
#               hostile-frame (a frame nested past the parser's limit is an
#               `err` reply from a live `reproduce serve --listen`) and
#               data-parallel contracts are crates/bench/tests/*.rs)
#   primitives: no primitive base name is spelled in crates/ outside the
#               table (crates/types/src/prim.rs) and test modules
#   unsafe:     no `unsafe` under crates/*/src but the signal(2) FFI in
#               crates/bench/src/bin/reproduce.rs (every library crate root
#               is #![forbid(unsafe_code)]; this covers the binaries too)
#   build:      cargo build --release -p wolfram-bench --bin reproduce
#   analyzer:   reproduce analyze over difftest/corpus/*.wl, at every IR
#               stage, and --stats against ANALYZE_stats.golden
#   stream:     reproduce stream over two short record streams, checked
#               line by line; the first again with --workers 3 --batch 1,
#               byte-identical (the shared queue and the reorder buffer);
#               a sink on a full device must exit nonzero
#   records:    reproduce stream over one fixed input of numbers, lists,
#               near misses and malformed lines, through an integer, a
#               real, a vector and a two-argument function on the native
#               and the bytecode tier: the output must equal
#               STREAM_records.golden line for line
#   reproduce:  compile-times must print a row for each of the seven
#               paper programs; ablations --quick must print a row
#               for every Ablation::ALL entry and the inlining row on
#               QSort; an unknown subcommand must exit nonzero
#   plans:      reproduce opstats --quick: the loop planner's verdict on
#               every loop of the seven paper programs (each program's name,
#               then one line per loop, planned or refused) must equal
#               OPSTATS_loops.golden line for line
#   benchmark:  bash benchmark/run.sh --smoke
#               cargo test -q --offline --manifest-path benchmark/Cargo.toml
#   placement:  scripts/placement.sh on the benchmark binary just built
#               (each Machine::run instance's address, size, address mod 64
#               and stack frame); fails unless there are exactly two, the
#               plain and the profiling dispatch loop
#   scripts:    bash -n scripts/ab.sh and scripts/lines.sh (the A/B
#               procedure is too slow to run here, and the line counts are
#               numbers, not gates: `scripts/lines.sh` prints the non-test
#               lines per crate and their total, the unit of ROADMAP.md's
#               line target, and `scripts/lines.sh <rev>` the net per file
#               since a revision; their syntax is checked)
#   lint:       cargo clippy --all-targets -- -D warnings (root, then
#               --workspace)
#
# Nothing here prints a number to keep: systems numbers come from
# benchmark/, the paper's tables from `reproduce`.
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

echo "==> tests: cargo test --release --workspace -q"
cargo test --release --workspace -q

echo "==> primitives: base names are spelled only in crates/types/src/prim.rs"
pat='"((checked_(binary|unary)|compare|unary|binary|bit|tensor|scalar_tensor|dot|complex|string|random|expr)_[A-Za-z0-9_]*|power_mod|list_construct|boole|convert)[$"]'
spelled=$(find crates -name '*.rs' ! -path crates/types/src/prim.rs -print0 | xargs -0 awk -v pat="$pat" '/#\[cfg\(test\)\]/{nextfile} $0 ~ pat {print FILENAME":"FNR": "$0}')
if [ -n "$spelled" ]; then echo "$spelled"; exit 1; fi

echo "==> unsafe: none under crates/*/src but reproduce's signal(2) FFI"
unsafe_uses=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
  FNR == 1 { ffi = 0 }
  FILENAME == "crates/bench/src/bin/reproduce.rs" && /^fn install_shutdown_handler\(/ { ffi = 1 }
  /(^|[^A-Za-z0-9_])unsafe([^A-Za-z0-9_]|$)/ && !ffi { print FILENAME":"FNR": "$0 }
  ffi && /^}/ { ffi = 0 }')
if [ -n "$unsafe_uses" ]; then echo "$unsafe_uses"; exit 1; fi

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

echo "==> stream: CLI smoke (line-delimited records, in-order replies)"
SQUARE='Function[{Typed[n, "MachineInteger"]}, n*n]'
STREAM_OUT="$(printf '1\n2\nnope\n4\n' | ./target/release/reproduce stream \
  --function "$SQUARE" --batch 2 2>/dev/null)"
if [ "$STREAM_OUT" != "$(printf 'ok 1\nok 4\nerr type error: argument nope does not match parameter type Integer64\nok 16')" ]; then
  echo "unexpected stream output:" >&2
  echo "$STREAM_OUT" >&2
  exit 1
fi
# Three workers, one record per batch: batches finish out of order and the
# reorder buffer must restore the single-worker output byte for byte.
PARALLEL_OUT="$(printf '1\n2\nnope\n4\n' | ./target/release/reproduce stream \
  --function "$SQUARE" --workers 3 --batch 1 2>/dev/null)"
if [ "$PARALLEL_OUT" != "$STREAM_OUT" ]; then
  echo "stream output differs with --workers 3 --batch 1:" >&2
  echo "$PARALLEL_OUT" >&2
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

# The output error of the final flush is an error of the run.
if printf '1\n2\n' | ./target/release/reproduce stream --function "$SQUARE" > /dev/full 2>/dev/null; then
  echo "reproduce stream exited 0 with its output on a full device" >&2
  exit 1
fi

echo "==> records: the record reader and writer vs STREAM_records.golden"
# Each reader branch and each fallback to the expression reader, through
# four functions on two tiers. The golden is this output: after an
# intended change to what a record reads or prints, write the new output
# to it and let the diff show in review.
RECORD_LINES=('7' '-12' '007' '-0' '2.5' '-0.' '3.' '0.1000000000000000055511151231257827'
  '1.5*^3' '1.*^300' '9223372036854775807' '-9223372036854775808' '123456789012345678901234'
  '+3' '  4  ' $'\t5' '{1, 2, 3}' '{ 1.,2.5 , -3 }' '{{1, 2}, {3, 4}}' '{3, 4.5}' '{2, -0.}'
  '{{1., 2.}, 3}' '{1, 2., 3}' '{}' '{1, {2}}' 'x' '"s"' '{1,,2}' '1.2.3' '--1' '{1, 2')
RECORD_FUNCTIONS=('Function[{Typed[n, "MachineInteger"]}, n*n - 50]'
  'Function[{Typed[x, "Real64"]}, x*(x - 2.5) + 0.5]'
  'Function[{Typed[v, "Tensor"["Real64", 1]]}, 2.*v]'
  'Function[{Typed[a, "MachineInteger"], Typed[b, "Real64"]}, a*b]')
RECORDS_OUT="$(for tier in native bytecode; do
  for f in "${RECORD_FUNCTIONS[@]}"; do
    echo "== $tier $f"
    printf '%s\n' "${RECORD_LINES[@]}" | ./target/release/reproduce stream --tier "$tier" \
      --function "$f" 2>/dev/null || echo "exit $?"
  done
done)"
if ! diff -u STREAM_records.golden - <<< "$RECORDS_OUT"; then
  echo "the record layer's output differs from STREAM_records.golden" >&2
  exit 1
fi

echo "==> reproduce: compile-times smoke (the per-stage compile-time table, a row per program)"
COMPILE_TIMES_OUT="$(./target/release/reproduce compile-times)"
for row in FNV1a Mandelbrot Dot Blur Histogram PrimeQ QSort; do
  if ! grep -q "^$row " <<< "$COMPILE_TIMES_OUT"; then
    echo "reproduce compile-times printed no \"$row\" row:" >&2
    echo "$COMPILE_TIMES_OUT" >&2
    exit 1
  fi
done

echo "==> reproduce: ablations --quick prints a row per Ablation::ALL entry, and QSort's inlining row"
ABLATIONS_OUT="$(./target/release/reproduce ablations --quick)"
for row in "inlining disabled" "inlining disabled (QSort)" "abort checks (Histogram)" "naive constant arrays (PrimeQ)" \
  "superinstruction fusion off" "range-check elision off" "loop vectorization off (Blur)"; do
  if ! grep -qF "$row" <<< "$ABLATIONS_OUT"; then
    echo "reproduce ablations --quick printed no \"$row\" row:" >&2
    echo "$ABLATIONS_OUT" >&2
    exit 1
  fi
done

echo "==> plans: the loop planner's verdict per loop (opstats --quick) vs OPSTATS_loops.golden"
# The golden is this filter's output: after an intended planner change,
# write the new output to it and let the diff show in review.
OPSTATS_LOOPS="$(./target/release/reproduce opstats --quick |
  awk '/^== /{next} /^[^ ]/{print $1} /^  loop L/{print}')"
if ! diff -u OPSTATS_loops.golden - <<< "$OPSTATS_LOOPS"; then
  echo "the loop planner's verdicts differ from OPSTATS_loops.golden" >&2
  exit 1
fi

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

echo "==> placement: where Machine::run landed in the benchmark binary"
placement=$(scripts/placement.sh "${CARGO_TARGET_DIR:-$PWD/target}/release/wolfram-benchmark")
echo "$placement"
# `run` is generic over the op profiler and instantiated in one place, so
# a crate that calls `Machine::call` adds no copy of the dispatch loop.
if [ "$(grep -c 'Machine::run at' <<< "$placement")" -ne 2 ]; then
  echo "the benchmark binary must hold exactly two Machine::run instances" >&2
  exit 1
fi

echo "==> scripts: bash -n scripts/ab.sh scripts/lines.sh"
bash -n scripts/ab.sh
bash -n scripts/lines.sh

echo "==> lint: cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> lint (workspace): cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> ci.sh: all checks passed"

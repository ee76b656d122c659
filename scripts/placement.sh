#!/usr/bin/env bash
# Where the register machine's dispatch loop landed in a binary: for each
# binary, prints wolfram_codegen::machine::Machine::run's address, its size
# and the address mod 64 (its offset within a cache line), read with `nm -C`.
#
#   scripts/placement.sh [BIN...]   (default: target/release/wolfram-benchmark)
#
# Two builds whose kernels_scalar or stream_heavy numbers differ while
# codegen.machine.ops_executed is identical, and whose Machine::run sits at
# a different offset mod 64, are measuring link placement, not a change to
# the loop. Exits nonzero if a binary has no such symbol.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
[ $# -gt 0 ] || set -- "$root/target/release/wolfram-benchmark"

symbol='wolfram_codegen::machine::Machine::run'
status=0
for bin in "$@"; do
  # `nm --print-size` lines are "<address> <size> <type> <name>", in hex.
  found=$(nm -C --print-size "$bin" | awk -v sym="$symbol" '
    { name = $4; for (i = 5; i <= NF; i++) name = name " " $i }
    name == sym && !seen { print $1, $2; seen = 1 }') || true
  if [ -z "$found" ]; then
    echo "$bin: $symbol not found" >&2
    status=1
    continue
  fi
  read -r addr size <<< "$found"
  printf '%s: Machine::run at 0x%x, size 0x%x (%d bytes), address mod 64 = %d\n' \
    "$bin" "$((16#$addr))" "$((16#$size))" "$((16#$size))" "$((16#$addr % 64))"
done
exit "$status"

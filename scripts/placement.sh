#!/usr/bin/env bash
# Where the register machine's dispatch loop landed in a binary: for each
# binary, prints every instance of wolfram_codegen::machine::Machine::run
# (read with `nm -C`) with its address, its size, the address mod 64 (its
# offset within a cache line) and its stack frame in bytes (the prologue's
# `sub $N,%rsp`, read with `objdump`), then the number of instances.
#
#   scripts/placement.sh [BIN...]   (default: target/release/wolfram-benchmark)
#
# `run` is generic over whether the op profiler is on, so a current binary
# holds two instances; the profiling one is the larger (it also records
# every op), the plain one is what the benchmark times.
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
    name == sym { print $1, $2 }' | sort -u) || true
  if [ -z "$found" ]; then
    echo "$bin: $symbol not found" >&2
    status=1
    continue
  fi
  count=0
  while read -r addr size; do
    count=$((count + 1))
    start=$((16#$addr))
    frame=$(objdump -d --no-show-raw-insn --start-address="$start" \
      --stop-address="$((start + 64))" "$bin" |
      sed -n 's/.*sub  *\$0x\([0-9a-f]*\),%rsp.*/\1/p' | head -n 1)
    printf '%s: Machine::run at 0x%x, size 0x%x (%d bytes), address mod 64 = %d, frame %d bytes\n' \
      "$bin" "$start" "$((16#$size))" "$((16#$size))" "$((start % 64))" "$((16#${frame:-0}))"
  done <<< "$found"
  echo "$bin: $count Machine::run instance(s)"
done
exit "$status"

#!/usr/bin/env bash
# Runs every bench_* binary in a build tree and concatenates their JSON
# result lines into one file (one JSON object per line). The binaries
# reproduce the experiments of EXPERIMENTS.md; they are not a perf gate
# (that is tools/perf_gate.py, see docs/PERFORMANCE.md).
#
# usage: tools/run_benches.sh [build-dir] [output-file] [extra bench args...]
#
#   build-dir    defaults to ./build
#   output-file  defaults to ./BENCH_RESULTS.json
#   extra args   passed through to every binary, e.g.
#                --benchmark_filter=BM_EnumerateR2 --benchmark_min_time=0.1x
set -euo pipefail

build_dir="${1:-build}"
out_file="${2:-BENCH_RESULTS.json}"
shift $(( $# > 2 ? 2 : $# )) || true

bench_dir="$build_dir/bench"
if [ ! -d "$bench_dir" ]; then
  echo "error: '$bench_dir' not found — build first: cmake -B $build_dir -S . && cmake --build $build_dir -j" >&2
  exit 1
fi

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

found=0
for bin in "$bench_dir"/bench_*; do
  [ -x "$bin" ] || continue
  found=1
  echo "== $(basename "$bin")" >&2
  RTP_BENCH_JSON="$tmp" "$bin" "$@" >&2
done

if [ "$found" = 0 ]; then
  echo "error: no bench_* binaries under '$bench_dir'" >&2
  exit 1
fi

mv "$tmp" "$out_file"
trap - EXIT
echo "wrote $(wc -l < "$out_file") result lines to $out_file" >&2

#!/usr/bin/env bash
# Local CI driver. Runs one leg or all of them; .github/workflows/ci.yml
# runs the same legs, one matrix job each, so local and hosted CI cannot
# drift.
#
#   plain         Release, no sanitizer           — full ctest suite
#   asan-ubsan    -DRTP_SANITIZE=address,undefined — full ctest suite
#                 (includes the fuzz-corpus replay test, so every corpus
#                 entry runs under ASan/UBSan here)
#   tsan          -DRTP_SANITIZE=thread           — `ctest -L 'exec|serve'`:
#                 the exec label marks the concurrency suite (rtp::exec
#                 engine, parallel differential battery, oracle battery)
#                 and the serve label marks the rtpd end-to-end battery.
#                 TSan slows everything ~10x and the rest of the suite is
#                 single-threaded, so the labels keep the leg focused on
#                 code that actually runs concurrently.
#   perf          tools/perf_gate.py: a perfbench A/B of this checkout
#                 against `git merge-base HEAD origin/main`, checked out
#                 with git worktree. Both trees run this checkout's
#                 perfbench/ on every workload BENCHMARK.json gates, five
#                 seed pairs, alternating which side runs first. Fails on
#                 any wrong answer, when a median end-to-end metric is
#                 worse than the base's by more than its BENCHMARK.json
#                 bound, or when a side's spread exceeds that bound. Each
#                 tree builds in its own .bench_build/, so the leg ignores
#                 the build-dir prefix. Hosted runners are too noisy for
#                 the bounds, so ci.yml leaves this leg out; nightly.yml
#                 runs the script on main. See docs/PERFORMANCE.md.
#   fuzz          -DRTP_FUZZ=ON -DRTP_SANITIZE=address,undefined build of
#                 the fuzz/ harnesses; replays fuzz/corpus/, then fuzzes
#                 each harness for RTP_FUZZ_SECONDS (default 30) seconds.
#                 Non-zero on any crash / oracle violation. See
#                 docs/FUZZING.md.
#   obs-off       -DRTP_OBS_DISABLED=ON — full ctest suite with every
#                 rtp::obs macro compiled to a no-op, so the disabled
#                 path (and the tests' SKIP guards) cannot rot. See
#                 docs/OBSERVABILITY.md.
#   serve         builds rtpd + rtp_cli + the serve battery in the plain
#                 and tsan trees, runs `ctest -L serve` in both, then
#                 smoke-tests a real daemon: starts rtpd on a temp socket
#                 and runs `rtp_cli` eval, checkfd and matrix on
#                 examples/data both serially and with --socket; stdout
#                 and exit codes must match (the bit-identity contract of
#                 docs/SERVING.md).
#   load          builds rtpd + rtp_load + rtp_cli in the plain tree,
#                 starts a real daemon, and runs the committed
#                 examples/workloads/smoke.json twice with the same seed
#                 (4 client threads). rtp_load exits non-zero on any
#                 error-status response or zero completed ops, and the leg
#                 diffs the two --counts-out files: same-seed runs must
#                 produce byte-identical per-node op counts (the
#                 reproducibility contract of docs/WORKLOADS.md).
#   chaos         the fault-injection leg (docs/ROBUSTNESS.md). Two
#                 phases: (1) a real daemon under the committed
#                 examples/workloads/chaos.json — seeded fault injection
#                 in serve::Client — twice with one seed, diffing the two
#                 --counts-out files (which include the per-node
#                 fault.<kind> injection counts), then checking that the
#                 daemon still answers exactly as serial rtp_cli does;
#                 (2) `ctest -R 'Chaos|Framer|Overload|Degradation'` in
#                 the tsan tree. Every phase requires: zero hangs, zero
#                 daemon exits, every fault retried or surfaced as a
#                 structured error.
#   format        clang-format --dry-run --Werror over src/ tests/ tools/
#                 fuzz/ (skipped with a notice when clang-format is not
#                 installed).
#
# The serve, load and chaos legs stop their daemon with SIGTERM, which
# drains in-flight requests; rtpd must then exit 0.
#
# usage: tools/run_ci.sh [leg] [build-dir-prefix]
#
#   leg               all (default) | plain | asan-ubsan | tsan | perf |
#                     fuzz | obs-off | serve | load | chaos | format
#   build-dir-prefix  defaults to ./build-ci; the build trees are
#                     <prefix>-plain, <prefix>-asan-ubsan, <prefix>-tsan,
#                     <prefix>-fuzz, <prefix>-obs-off.
#
# Exits non-zero on the first failing leg.
set -euo pipefail

leg="all"
case "${1:-}" in
  all|plain|asan-ubsan|tsan|perf|fuzz|obs-off|serve|load|chaos|format)
    leg="$1"
    shift
    ;;
esac
prefix="${1:-build-ci}"
jobs="$(nproc 2>/dev/null || echo 2)"
source_dir="$(cd "$(dirname "$0")/.." && pwd)"

# Every daemon the legs start and every work dir they make. The EXIT trap
# removes them however the script ends, a failed step under `set -e`
# included; `kill` of a daemon already stopped fails harmlessly.
started_pids=()
work_dirs=()
trap 'kill "${started_pids[@]}" 2>/dev/null || true; rm -rf "${work_dirs[@]}"' EXIT

run_leg() {
  local name="$1" sanitize="$2" ctest_args="$3" extra_cmake="${4:-}"
  local build_dir="${prefix}-${name}"
  echo "==== [$name] configure (RTP_SANITIZE='${sanitize}'" \
    "${extra_cmake:+extra: $extra_cmake})" >&2
  # shellcheck disable=SC2086  # extra_cmake is a deliberate word list
  cmake -B "$build_dir" -S "$source_dir" -DRTP_SANITIZE="$sanitize" \
    $extra_cmake > /dev/null
  echo "==== [$name] build" >&2
  cmake --build "$build_dir" -j "$jobs"
  echo "==== [$name] ctest $ctest_args" >&2
  # shellcheck disable=SC2086  # ctest_args is a deliberate word list
  (cd "$build_dir" && ctest --output-on-failure -j "$jobs" $ctest_args)
}

run_perf() {
  echo "==== [perf] perfbench A/B against the merge-base" >&2
  python3 "$source_dir/tools/perf_gate.py"
}

run_fuzz() {
  local build_dir="${prefix}-fuzz"
  local seconds="${RTP_FUZZ_SECONDS:-30}"
  echo "==== [fuzz] configure (RTP_FUZZ=ON, ASan+UBSan)" >&2
  cmake -B "$build_dir" -S "$source_dir" -DRTP_FUZZ=ON \
    -DRTP_SANITIZE="address,undefined" > /dev/null
  echo "==== [fuzz] build harnesses" >&2
  cmake --build "$build_dir" -j "$jobs" --target \
    fuzz_regex fuzz_pattern fuzz_schema fuzz_xml fuzz_differential fuzz_serve
  local scratch
  scratch="$(mktemp -d)"
  work_dirs+=("$scratch")
  local name
  for name in regex pattern schema xml differential serve; do
    echo "==== [fuzz] $name: replay fuzz/corpus/$name" >&2
    "$build_dir/fuzz/fuzz_$name" -runs=0 "$source_dir/fuzz/corpus/$name"
    echo "==== [fuzz] $name: ${seconds}s smoke" >&2
    # The writable corpus dir comes first so new units land in the
    # scratch dir, never in the repo; the committed corpus only seeds.
    mkdir -p "$scratch/$name"
    "$build_dir/fuzz/fuzz_$name" -max_total_time="$seconds" \
      "$scratch/$name" "$source_dir/fuzz/corpus/$name"
  done
}

# Starts rtpd on socket $2 with the flags that follow, sets rtpd_pid, and
# waits up to 5 s for the socket to appear.
start_rtpd() {
  local build_dir="$1" sock="$2"
  shift 2
  echo "==== starting rtpd on $sock" >&2
  "$build_dir/tools/rtpd" --socket="$sock" "$@" &
  rtpd_pid=$!
  started_pids+=("$rtpd_pid")
  local i
  for i in $(seq 1 50); do
    [ -S "$sock" ] && return 0
    sleep 0.1
  done
  echo "rtpd did not come up" >&2
  return 1
}

# SIGTERM drains the daemon's in-flight requests; rtpd must then exit 0.
stop_rtpd() {
  kill -TERM "$rtpd_pid"
  wait "$rtpd_pid" || { echo "rtpd exited with status $?" >&2; return 1; }
}

# Runs rtp_cli's eval, checkfd and matrix on examples/data serially and
# through the daemon at $2; stdout and exit codes must match.
served_equals_serial() {
  local build_dir="$1" sock="$2" workdir="$3"
  local data="$source_dir/examples/data"
  local cmd serial_code served_code
  local -a args
  for cmd in eval checkfd matrix; do
    case "$cmd" in
      eval) args=(eval "$data/update_u.pattern" "$data/exam.xml") ;;
      checkfd) args=(checkfd "$data/fd1.fd" "$data/exam.xml") ;;
      matrix) args=(matrix "$data/fd1.fd,$data/fd5.fd"
                    "$data/update_u.pattern" "$data/exam.schema") ;;
    esac
    serial_code=0
    served_code=0
    "$build_dir/tools/rtp_cli" "${args[@]}" > "$workdir/serial.txt" ||
      serial_code=$?
    "$build_dir/tools/rtp_cli" --socket="$sock" "${args[@]}" \
      > "$workdir/served.txt" || served_code=$?
    diff -u "$workdir/serial.txt" "$workdir/served.txt"
    if [ "$serial_code" != "$served_code" ]; then
      echo "rtp_cli $cmd: serial exit $serial_code, served exit" \
        "$served_code" >&2
      return 1
    fi
  done
}

run_serve_smoke() {
  local build_dir="$1"
  local workdir
  workdir="$(mktemp -d)"
  work_dirs+=("$workdir")
  start_rtpd "$build_dir" "$workdir/rtpd.sock" --jobs=2
  echo "==== [serve] smoke: rtp_cli --socket against serial rtp_cli" >&2
  served_equals_serial "$build_dir" "$workdir/rtpd.sock" "$workdir"
  stop_rtpd
  echo "==== [serve] smoke: resident output identical to serial rtp_cli" >&2
}

run_serve() {
  local build_dir="${prefix}-plain"
  echo "==== [serve] configure + build (plain)" >&2
  cmake -B "$build_dir" -S "$source_dir" -DRTP_SANITIZE="" > /dev/null
  cmake --build "$build_dir" -j "$jobs" --target rtpd rtp_cli rtp_serve_tests
  echo "==== [serve] ctest -L serve (plain)" >&2
  (cd "$build_dir" &&
    ctest --output-on-failure --no-tests=error -j "$jobs" -L serve)
  run_serve_smoke "$build_dir"
  local tsan_dir="${prefix}-tsan"
  echo "==== [serve] configure + build (tsan)" >&2
  cmake -B "$tsan_dir" -S "$source_dir" -DRTP_SANITIZE="thread" > /dev/null
  cmake --build "$tsan_dir" -j "$jobs" --target rtp_serve_tests
  echo "==== [serve] ctest -L serve (tsan)" >&2
  (cd "$tsan_dir" &&
    ctest --output-on-failure --no-tests=error -j "$jobs" -L serve)
}

# The load leg: a real daemon under the committed smoke workload spec,
# run twice with one seed. Reproducibility is enforced by diffing the
# per-node op counts; rtp_load itself exits non-zero on any error-status
# response or a zero-op run.
run_load() {
  local build_dir="${prefix}-plain"
  echo "==== [load] configure + build (plain)" >&2
  cmake -B "$build_dir" -S "$source_dir" -DRTP_SANITIZE="" > /dev/null
  cmake --build "$build_dir" -j "$jobs" --target rtpd rtp_load rtp_cli
  local workdir sock
  workdir="$(mktemp -d)"
  work_dirs+=("$workdir")
  sock="$workdir/rtpd.sock"
  start_rtpd "$build_dir" "$sock" --jobs=4
  local run
  for run in 1 2; do
    echo "==== [load] smoke workload run $run (4 threads, seed 42)" >&2
    "$build_dir/tools/rtp_load" \
      --spec="$source_dir/examples/workloads/smoke.json" \
      --socket="$sock" --threads=4 --seed=42 \
      --counts-out="$workdir/counts$run.txt"
  done
  echo "==== [load] diffing per-node op counts across the two runs" >&2
  diff -u "$workdir/counts1.txt" "$workdir/counts2.txt"
  echo "==== [load] daemon still answers as serial rtp_cli does" >&2
  served_equals_serial "$build_dir" "$sock" "$workdir"
  stop_rtpd
  echo "==== [load] same-seed runs produced identical per-node counts" >&2
}

# The chaos leg: a real daemon must survive the seeded fault schedule of
# examples/workloads/chaos.json, injected by serve::Client, with every
# fault either transparently retried or surfaced as a structured error,
# and identical per-node fault-injection counts across same-seed runs.
run_chaos() {
  local build_dir="${prefix}-plain"
  echo "==== [chaos] configure + build (plain)" >&2
  cmake -B "$build_dir" -S "$source_dir" -DRTP_SANITIZE="" > /dev/null
  cmake --build "$build_dir" -j "$jobs" --target rtpd rtp_load rtp_cli
  local workdir sock
  workdir="$(mktemp -d)"
  work_dirs+=("$workdir")
  sock="$workdir/rtpd.sock"
  start_rtpd "$build_dir" "$sock" --jobs=4 --idle-timeout-ms=30000

  local run
  for run in 1 2; do
    echo "==== [chaos] chaos.json run $run (seed 42)" >&2
    "$build_dir/tools/rtp_load" \
      --spec="$source_dir/examples/workloads/chaos.json" \
      --socket="$sock" --threads=4 --seed=42 --allow-errors \
      --counts-out="$workdir/counts$run.txt"
  done
  echo "==== [chaos] diffing per-node op + fault counts across runs" >&2
  diff -u "$workdir/counts1.txt" "$workdir/counts2.txt"
  grep -q '\.fault\.' "$workdir/counts1.txt" || {
    echo "chaos.json run injected no faults" >&2; return 1; }

  echo "==== [chaos] daemon still answers as serial rtp_cli does" >&2
  served_equals_serial "$build_dir" "$sock" "$workdir"
  stop_rtpd

  local tsan_dir="${prefix}-tsan"
  echo "==== [chaos] configure + build (tsan)" >&2
  cmake -B "$tsan_dir" -S "$source_dir" -DRTP_SANITIZE="thread" > /dev/null
  cmake --build "$tsan_dir" -j "$jobs" --target rtp_serve_tests
  echo "==== [chaos] ctest -R 'Chaos|Framer|Overload|Degradation' (tsan)" >&2
  (cd "$tsan_dir" && ctest --output-on-failure --no-tests=error -j "$jobs" \
    -R 'Chaos|Framer|Overload|Degradation')
}

run_format() {
  if ! command -v clang-format > /dev/null 2>&1; then
    echo "==== [format] clang-format not installed — skipping" >&2
    return 0
  fi
  echo "==== [format] clang-format --dry-run --Werror" >&2
  (cd "$source_dir" &&
    find src tests tools fuzz \( -name '*.cc' -o -name '*.h' \) -print0 |
    xargs -0 clang-format --dry-run --Werror)
}

case "$leg" in
  plain)      run_leg plain      ""                  "" ;;
  asan-ubsan) run_leg asan-ubsan "address,undefined" "" ;;
  tsan)       run_leg tsan       "thread"            "-L 'exec|serve'" ;;
  obs-off)    run_leg obs-off    ""                  "" "-DRTP_OBS_DISABLED=ON" ;;
  perf)       run_perf ;;
  fuzz)       run_fuzz ;;
  serve)      run_serve ;;
  load)       run_load ;;
  chaos)      run_chaos ;;
  format)     run_format ;;
  all)
    run_format
    run_leg plain      ""                  ""
    run_leg asan-ubsan "address,undefined" ""
    run_leg tsan       "thread"            "-L 'exec|serve'"
    run_leg obs-off    ""                  "" "-DRTP_OBS_DISABLED=ON"
    run_serve
    run_load
    run_chaos
    run_perf
    run_fuzz
    ;;
esac

echo "==== CI leg(s) '$leg' passed" >&2

#!/usr/bin/env python3
"""Benchmark of the rtp engine and the rtpd daemon.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload serve_scan --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --workload all --seed 1
  python3 perfbench/run.py --selftest

Workloads: serve_point, serve_scan (two closed-loop clients against a real
rtpd) and fd_maintenance (update stream plus FD re-checks, in process).
See perfbench/README.md and BENCHMARK.json for what each one measures.

The script builds the benchmark binary and rtpd from source (CMake,
Release) under .bench_build/perfbench, generates the seeded inputs and
their ground truth into .perfbench_work/, and runs the binary. It checks
every answer and prints a readable report; its last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones.

--selftest checks determinism at small sizes: two runs with one seed must
give identical per-op-type counts and answer digests, another seed must
change both.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import gen  # noqa: E402

WORKLOADS = ["serve_point", "serve_scan", "fd_maintenance"]
WORK = ".perfbench_work"
RUN_TIMEOUT_S = 170


def fail(message):
    sys.stderr.write("perfbench: %s\n" % message)
    sys.exit(2)


def build():
    """Configures (once) and builds perfbench and rtpd; returns their paths."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rtp sources next to perfbench/; run from a full checkout")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    os.makedirs(WORK, exist_ok=True)
    log_path = os.path.join(WORK, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "rtpd", "-j", str(min(4, os.cpu_count() or 1))])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed: " + " ".join(step))
    return (os.path.join(build_dir, "perfbench"),
            os.path.join(build_dir, "rtp", "tools", "rtpd"))


def run_bench(binary, rtpd, workload, seed, seconds, trace, extra=(),
               capture=False, small=False):
    inputs = os.path.join(WORK, "inputs-%s-%d.json" % (workload, seed))
    gen.write_inputs(inputs, workload, seed, small=small)
    cmd = [binary, "--workload=" + workload, "--inputs=" + inputs,
           "--work=" + WORK, "--rtpd=" + rtpd, "--seed=%d" % seed,
           "--seconds=%g" % seconds, "--trace=%d" % trace] + list(extra)
    # Own process group, so a timeout also stops the daemons it started.
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        os.remove(inputs)
    return proc.returncode, out


def selftest(binary, rtpd):
    ok = True
    for workload in WORKLOADS:
        results = []
        for seed in (11, 11, 12):
            code, out = run_bench(binary, rtpd, workload, seed, 1, 0,
                                   extra=["--ops=120"],
                                   capture=True, small=True)
            last = out.decode().strip().splitlines()[-1] if out else "{}"
            results.append(json.loads(last) if code == 0 else {})
        a, b, c = results
        same = a.get("counts") == b.get("counts") and a.get("digest") == b.get("digest")
        differs = a.get("counts") != c.get("counts") and a.get("digest") != c.get("digest")
        correct = all(r.get("correct") for r in results)
        print("%-15s same seed identical: %-5s other seed differs: %-5s "
              "answers correct: %-5s op types %d digest %s" %
              (workload, same, differs, correct, len(a.get("counts", {})),
               a.get("digest")))
        ok = ok and same and differs and correct
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    os.chdir(ROOT)
    binary, rtpd = build()
    if args.selftest:
        return selftest(binary, rtpd)
    codes = [run_bench(binary, rtpd, workload, args.seed, args.seconds,
                        args.trace)[0]
             for workload in (WORKLOADS if args.workload == "all" else [args.workload])]
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())

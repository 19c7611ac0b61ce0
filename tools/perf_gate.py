#!/usr/bin/env python3
"""Perf gate: a perfbench A/B of this checkout against a base commit.

usage: tools/perf_gate.py [BASE_REF]

BASE_REF defaults to `git merge-base HEAD origin/main`. The script checks
it out into a temporary git worktree and copies this checkout's perfbench/
and BENCHMARK.json into it, so both sides run the same benchmark code.
Then it runs the benchmark command with --trace 0 for every workload
BENCHMARK.json gates, on both trees: five pairs (PAIRS), one seed per
pair, and the side that runs first alternates from pair to pair. Each side builds
in its own tree's .bench_build/.

The two sides are judged with perfbench/steadiness.py's spread() and
compare(), the rule the benchmark's bounds were set under. Per (workload,
end-to-end metric) the table shows both medians and spreads (set 1 is the
base, set 2 this checkout) and how much worse this checkout's median is.
The gate fails when a median is worse by more than the metric's bound,
when either spread exceeds it (setup_s exempt), or when any run gives a
wrong answer.

After the pairs it makes two traced pairs (--trace 1) per gated
workload on seed FIRST_SEED, one with the base first and one with this
checkout first, because the engine rows read lower in whichever run of a
pair goes second. It prints every per-layer metric of BENCHMARK.json as
each side's mean of its two runs, and head/base. That table only
explains the first one: it adds no failure condition. The worktree is
removed on exit, also on failure.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
import steadiness  # noqa: E402

PAIRS = 5
FIRST_SEED = 1000


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, text=True,
                         stdout=subprocess.PIPE)
    if out.returncode:
        sys.exit("perf gate: git %s failed" % " ".join(args))
    return out.stdout.strip()


def bench_run(bench, tree, workload, seed, trace):
    """One run in `tree`: (its metrics, None), or (None, why it failed).

    Unlike steadiness.run_once it keeps the run's stderr, where run.py and
    the benchmark say which build step or which answer went wrong.
    """
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE)
    lines = out.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if out.returncode or not result.get("correct"):
        return None, "%s seed %d in %s failed (exit %d, %s of %s ops wrong)" % (
            workload, seed, tree, out.returncode, result.get("failed"),
            result.get("attempted"))
    return {name: m["value"] for name, m in result["metrics"].items()}, None


def run(bench, tree, workload, seed):
    """One gated --trace 0 run: its end-to-end metrics; exits on a wrong
    answer."""
    metrics, failure = bench_run(bench, tree, workload, seed, 0)
    if failure:
        sys.exit("perf gate: " + failure)
    return metrics


def side_mean(runs, name):
    """The mean of metric `name` over one side's traced runs, or None when
    a run lacks it."""
    values = [(r or {}).get(name) for r in runs]
    return sum(values) / len(values) if all(values) else None


def traced_table(bench, trees):
    """Prints the per-layer metrics of two traced runs per side.

    The two traced pairs run in opposite orders. A side's value is the
    mean of its two runs. It prints as "-" when a run failed, or when the
    metric is off the workload's path, which perfbench reports as 0.
    Nothing here fails the gate.
    """
    out = ["| workload | metric | unit | base | head | head/base |",
           "|---|---|---|---|---|---|"]
    for workload in [w["name"] for w in bench["workloads"]]:
        traced = {"base": [], "head": []}
        for order in (("base", "head"), ("head", "base")):
            for side in order:
                metrics, failure = bench_run(bench, trees[side], workload,
                                             FIRST_SEED, 1)
                if failure:
                    print("perf gate: traced " + failure, file=sys.stderr)
                traced[side].append(metrics)
        for m in bench["per_layer"]:
            base, head = [side_mean(traced[side], m["name"])
                          for side in ("base", "head")]
            cells = ["%.6g" % v if v else "-" for v in (base, head)]
            ratio = "%.3g" % (head / base) if base and head else "-"
            out.append("| %s | %s | %s | %s | %s | %s |" % (
                workload, m["name"], m["unit"], cells[0], cells[1], ratio))
    print("\n".join(out))


def judge(bench, trees, scratch):
    workloads = [w["name"] for w in bench["workloads"]]
    runs = {side: {w: [] for w in workloads} for side in trees}
    for i in range(PAIRS):
        seed = FIRST_SEED + i
        for workload in workloads:
            for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                metrics = run(bench, trees[side], workload, seed)
                runs[side][workload].append(metrics)
                print("perf gate: pair %d/%d %s seed %d %s: %.4g ops/s" % (
                    i + 1, PAIRS, workload, seed, side,
                    metrics["throughput_ops"]), file=sys.stderr, flush=True)
    paths = []
    for side in ("base", "head"):
        summary = {w: {} for w in workloads}
        for w in workloads:
            for m in bench["end_to_end"]:
                median, share = steadiness.spread(
                    [r[m["name"]] for r in runs[side][w]])
                summary[w][m["name"]] = {"median": median, "spread": share}
        paths.append(os.path.join(scratch, side + ".json"))
        with open(paths[-1], "w") as f:
            json.dump({"summary": summary}, f)
    return steadiness.compare(paths, bench)


def main():
    if len(sys.argv) > 2:
        sys.exit(__doc__)
    base = git("rev-parse", "--verify", (sys.argv[1] if len(sys.argv) == 2
               else git("merge-base", "HEAD", "origin/main")) + "^{commit}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    # run.py would build both trees into this one directory if it were set.
    os.environ.pop("CARGO_TARGET_DIR", None)
    # A cancelled CI job gets SIGTERM; exit through the cleanup below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.time()
    scratch = tempfile.mkdtemp(prefix="perf-gate-")
    base_tree = os.path.join(scratch, "base")
    try:
        git("worktree", "add", "--detach", base_tree, base)
        shutil.rmtree(os.path.join(base_tree, "perfbench"), ignore_errors=True)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(base_tree, "perfbench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), base_tree)
        print("perf gate: set 1 = base %s, set 2 = %s" % (base[:12], ROOT))
        trees = {"base": base_tree, "head": ROOT}
        ok = judge(bench, trees, scratch)
        traced_table(bench, trees)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        subprocess.run(["git", "worktree", "prune"], cwd=ROOT)
    print("perf gate: %d pairs in %.0f s: %s" % (
        PAIRS, time.time() - start, "passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

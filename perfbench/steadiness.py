#!/usr/bin/env python3
"""Steadiness check of the benchmark, as BENCHMARK.json's bounds demand.

Runs the benchmark command `--runs` times per workload, each with another
seed, and reports per end-to-end metric the median and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median. A spread must stay within the metric's
bound (setup_s is exempt), and should stay below a third of it.

  python3 perfbench/steadiness.py --runs 10 --out perfbench/evidence/run1.json
  python3 perfbench/steadiness.py --workloads serve_scan --runs 5
  python3 perfbench/steadiness.py --compare SET1.json SET2.json

Run from the root of a checkout. Each run's raw metrics are kept in the
output file together with the summary. --compare prints, for two saved
sets, each median and spread and how far the second set's median moved in
the worse direction; both sets' spreads must stay within the bound
(setup_s exempt) and no median may move by more than it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = out.stdout.decode().strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d exited %d" % (workload, seed, out.returncode))
    return json.loads(lines[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median if median else float("inf")


def compare(paths, bench):
    """Markdown table: per (workload, metric) both sets' medians and spreads."""
    sets = []
    for path in paths:
        with open(path) as f:
            sets.append(json.load(f)["summary"])
    out = ["| workload | metric | bound | set 1 median | spread | set 2 median "
           "| spread | set 2 worse by | ok |", "|---|---|---|---|---|---|---|---|---|"]
    ok = True
    for workload in sets[0]:
        for m in bench["end_to_end"]:
            a, b = sets[0][workload][m["name"]], sets[1][workload][m["name"]]
            change = (b["median"] - a["median"]) / a["median"] if a["median"] else 0
            worse = change if m["better"] == "lower" else -change
            good = worse <= m["bound"] and (m["name"] == "setup_s" or (
                a["spread"] <= m["bound"] and b["spread"] <= m["bound"]))
            ok = ok and good
            out.append("| %s | %s | %.0f%% | %.6g | %.1f%% | %.6g | %.1f%% | %.1f%% | %s |" % (
                workload, m["name"], 100 * m["bound"], a["median"], 100 * a["spread"],
                b["median"], 100 * b["spread"], 100 * worse, "yes" if good else "NO"))
    print("\n".join(out))
    return ok


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar="SET.json",
                        help="compare two saved sets instead of running")
    args = parser.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    if args.compare:
        return 0 if compare(args.compare, bench) else 1
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    result = {"runs": {}, "summary": {}}
    ok = True
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            start = time.time()
            r = run_once(bench["command"], workload, seed, bench["run_seconds"])
            r["seed"], r["wall_s"] = seed, round(time.time() - start, 2)
            runs.append(r)
            if not r["correct"]:
                ok = False
        result["runs"][workload] = runs
        summary = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            median, share = spread(values)
            within = m["name"] == "setup_s" or share <= m["bound"]
            ok = ok and within
            summary[m["name"]] = {"median": median, "spread": share,
                                  "bound": m["bound"], "within": within,
                                  "below_third": share < m["bound"] / 3}
            print("%-15s %-16s median %12.6g  spread %6.2f%%  bound %4.0f%%  %s" % (
                workload, m["name"], median, 100 * share, 100 * m["bound"],
                "ok" if within else "OUT"), flush=True)
        result["summary"][workload] = summary
        print("%-15s wall per run: %s s" % (
            workload, ", ".join(str(r["wall_s"]) for r in runs)), flush=True)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each end-to-end metric's
median and spread (interquartile range over median, as
statistics.quantiles(values, n=4) gives the quartiles) against its bound.

    python3 perfbench/steady.py --workloads fig1a_1d,serve_mixed --seeds 1-10

A metric is steady when its spread is below a third of its bound.
Exit status 1 if any run fails or any metric is not steady.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds or str(spec["run_seconds"])
    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", seconds, "--trace", "0"]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            last = run.stdout.splitlines()[-1] if run.stdout else "{}"
            result = json.loads(last) if last.startswith("{") else {}
            if run.returncode or not result.get("correct"):
                print("%s seed %d FAILED (exit %d)" % (workload, seed,
                                                       run.returncode))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for m in spec["end_to_end"]:
            v = values.get(m["name"], [])
            if len(v) < 2:
                continue
            q = statistics.quantiles(v, n=4)
            spread = (q[2] - q[0]) / q[1]
            steady = spread < m["bound"] / 3
            ok = ok and steady
            print("%-12s %-12s median %-12.6g spread %.4f bound %.2f %s" % (
                workload, m["name"], q[1], spread, m["bound"],
                "ok" if steady else "NOT STEADY"))
            print("    values " + " ".join("%.6g" % x for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout. The first call configures and
builds the benchmark (CMake, Release) under $CARGO_TARGET_DIR or
.bench_build/; later calls only rebuild what changed. The benchmark binary
prints notes, a `record` line (seed, machine and build) and a result line;
this script checks that line against BENCHMARK.json — every end-to-end
metric present once with its unit for --trace 0, every per-layer metric
for --trace 1 (the binary reports 0 for the layers a workload does not
have) — and prints it as the last line of standard output. The exit
status is non-zero if the build, any operation or any output check fails.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(targets):
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target"] + targets)
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    return out


def source_identity():
    """Git sha when the checkout is a repository, and a digest of the
    sources either way (a plain checkout has no git metadata)."""
    sha = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return sha, digest.hexdigest()[:16]


def unique_keys(pairs):
    keys = [k for k, _ in pairs]
    repeated = sorted({k for k in keys if keys.count(k) > 1})
    if repeated:
        raise ValueError("repeated keys: " + ", ".join(repeated))
    return dict(pairs)


def check_result(result, trace):
    """Checks the result against BENCHMARK.json and orders its metrics as
    declared there. Returns an error or None."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    names = {m["name"] for m in declared}
    extra = sorted(set(metrics) - names)
    if extra:
        return "metrics not declared in BENCHMARK.json: " + ", ".join(extra)
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            return "metric missing: " + m["name"]
        if got["unit"] != m["unit"]:
            return "metric %s has unit %s, declared %s" % (
                m["name"], got["unit"], m["unit"])
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in declared}
    return None


def self_test():
    out = build(["perfbench_tests"])
    if out is None:
        return 2
    return subprocess.run([os.path.join(out, "perfbench_tests")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    out = build(["perfbench"])
    if out is None:
        return 2
    work_dir = os.path.join(out, "work")
    os.makedirs(work_dir, exist_ok=True)
    sha, digest = source_identity()
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--work-dir", work_dir,
           "--git-sha", sha, "--source-digest", digest]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    lines = run.stdout.splitlines()
    if not lines:
        log("perfbench: the benchmark printed nothing")
        return 3
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1], object_pairs_hook=unique_keys)
    except ValueError:
        log("perfbench: last line is not a result: " + lines[-1])
        return 3
    if run.returncode or not result.get("correct"):
        # A failed run reports what it measured; it need not be complete.
        print(json.dumps(result), flush=True)
        return run.returncode or 1
    error = check_result(result, args.trace == 1)
    if error:
        log("perfbench: " + error)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

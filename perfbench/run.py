#!/usr/bin/env python3
"""Builds and runs the SEP2P benchmark; see perfbench/README.md.

Run from the root of the repository:

    python3 perfbench/run.py --workload select_100k --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first run configures and builds perfbench/ (which compiles the
library from src/) into .bench_build/perfbench; later runs rebuild only
what changed. The benchmark binary prints the metrics; this script
checks its last line against BENCHMARK.json (same metric names and units
as the run's metric list) before printing it, and keeps a copy of every
run's output under .bench_build/perfbench/results/.

Exit status: 0 on a correct run, 1 when a correctness check failed (the
result line says "correct": false), 2 when nothing could be measured
(bad arguments, missing sources, build failure, malformed result).
"""

import argparse
import hashlib
import json
import math
import os
import re
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "sep2p_perfbench")
TESTS = os.path.join(BUILD_DIR, "perfbench_tests")
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    try:
        with open("BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read BENCHMARK.json: %s" % e)
    return spec


def build(target):
    """Configures (once) and builds `target`; build output goes to stderr."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        fail("no library sources (src/CMakeLists.txt) in " + os.getcwd())
    jobs = str(min(4, os.cpu_count() or 1))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env, check=False)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def source_id():
    """Digest of the measured sources: the checkout may not be a git
    repository, so the provenance names the code by content."""
    digest = hashlib.sha256()
    for root in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sha256:" + digest.hexdigest()[:16]


def check_result(line, spec, trace):
    """Returns an error string, or None when the line meets the contract."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return "last line is not JSON: %s" % e
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "result keys differ from correct/attempted/failed/metrics"
    if not isinstance(result["correct"], bool):
        return "correct is not a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            return key + " is not a whole number"
    if result["attempted"] < 1:
        return "attempted is below 1"
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(wanted):
        missing = sorted(set(wanted) - set(metrics))
        extra = sorted(set(metrics) - set(wanted))
        return "metric names differ: missing %s, unexpected %s" % (
            missing, extra)
    for name, metric in metrics.items():
        if not NAME.match(name):
            return "invalid metric name " + name
        if set(metric) != {"value", "unit"}:
            return name + ": keys differ from value/unit"
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            return name + ": value is not a finite number"
        if metric["unit"] != wanted[name]:
            return "%s: unit %s, BENCHMARK.json says %s" % (
                name, metric["unit"], wanted[name])
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    spec = load_spec()
    if args.self_test:
        build("perfbench_tests")
        sys.exit(subprocess.run([TESTS], check=False).returncode)

    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("need --workload, --seed, --seconds and --trace")
    names = [w["name"] for w in spec.get("workloads", [])]
    if args.workload not in names:
        fail("unknown workload %s (BENCHMARK.json has %s)" % (
            args.workload, ", ".join(names)))
    if args.seed < 0 or not 0 < args.seconds <= 3600:
        fail("--seed must be >= 0 and --seconds in (0, 3600]")

    build("sep2p_perfbench")
    results = os.path.join(BUILD_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(results, stem + ".spans.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.rstrip("\n").split("\n")
    with open(os.path.join(results, stem + ".txt"), "w",
              encoding="utf-8") as f:
        f.write(done.stdout)
    if done.returncode not in (0, 1) or not lines:
        sys.stderr.write(done.stdout)
        fail("benchmark exited with status %d" % done.returncode)
    error = check_result(lines[-1], spec, args.trace == 1)
    if error is not None:
        sys.stderr.write(done.stdout)
        fail(error)
    print("\n".join(lines))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the library and the benchmark program, runs one workload, and
prints the result as the last line of standard output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: table1-logonly, lockfree-kv, crash-recovery (README.md).
With --trace 0 the result holds the end-to-end metrics. With --trace 1
the same workload and seed run twice, untraced then traced; the result
holds the per-layer metrics of the traced run plus the tracing overhead
(traced minus untraced), and the spans go to
.bench_build/traces/<workload>-<seed>.json.

The build lives in .bench_build/perfbench under the checkout root. A
failed build or run exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "tsp_perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("table1-logonly", "lockfree-kv", "crash-recovery")
# Library switches that change what is measured; runs use the shipped
# defaults, so they are removed from the environment of tsp_perfbench.
STRIPPED_ENV = ("TSP_RACE", "TSP_RACE_GRAPH", "TSP_SANITIZE_PERSIST",
                "TSP_ALLOC_MAGAZINES", "TSP_ALLOC_MAGAZINE_CAP", "TSP_TRACE")
# Whole-command budget; the build is outside it.
RUN_BUDGET_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "tsp_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  cwd=ROOT, check=False)
        except OSError as error:
            log("cannot run %s: %s" % (step[0], error))
            return False
        if done.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return os.path.exists(BINARY)


def source_digest():
    """SHA-256 over the sources the benchmark builds, path by path."""
    digest = hashlib.sha256()
    tops = [os.path.join(ROOT, "src"), HERE,
            os.path.join(ROOT, "bench", "bench_util.h")]
    files = []
    for top in tops:
        if os.path.isfile(top):
            files.append(top)
        for base, dirs, names in os.walk(top):
            dirs[:] = sorted(d for d in dirs if not d.startswith((".", "__")))
            files.extend(os.path.join(base, n) for n in names)
    for path in sorted(files):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return done.stdout.strip() or None


def run_binary(args, deadline):
    """Runs tsp_perfbench; returns (context, result) or None on failure."""
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.time()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("tsp_perfbench timed out: " + " ".join(args))
        return None
    if proc.returncode != 0:
        log("tsp_perfbench exited with %d: %s" % (proc.returncode, " ".join(args)))
        return None
    lines = [line for line in out.splitlines() if line.strip()]
    try:
        context = json.loads(lines[-2])["context"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError):
        log("tsp_perfbench printed no result")
        return None
    return context, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes (self-tests)")
    parser.add_argument("--corrupt", default="",
                        help="corrupt the input of one output check")
    args = parser.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in (0, 600]")

    if not build():
        return 2
    deadline = time.time() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", repr(args.seconds)]
    if args.quick:
        common.append("--quick")
    if args.corrupt:
        common += ["--corrupt", args.corrupt]

    runs = []
    untraced = run_binary(common + ["--trace", "0"],
                          deadline if not args.trace
                          else time.time() + RUN_BUDGET_S / 2)
    if untraced is None:
        return 1
    runs.append(untraced)
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_out = os.path.join(
            TRACE_DIR, "%s-%d.json" % (args.workload, args.seed))
        traced = run_binary(common + ["--trace", "1", "--trace-out", trace_out],
                            deadline)
        if traced is None:
            return 1
        runs.append(traced)

    provenance = {"commit": commit(), "source_sha256": source_digest()}
    for context, _ in runs:
        context.update(provenance)
        print(json.dumps({"context": context}))
    metrics = dict(runs[-1][1]["metrics"])
    if args.trace:
        plain = untraced[1]["metrics"]
        traced_mops = metrics["traced.throughput_mops"]["value"]
        plain_mops = plain["throughput_mops"]["value"]
        metrics["trace.overhead_throughput_pct"] = {
            "value": 100.0 * (plain_mops - traced_mops) / plain_mops
            if plain_mops else 0.0,
            "unit": "%"}
        metrics["trace.overhead_recovery_s"] = {
            "value": metrics["traced.recovery_s"]["value"]
            - plain["recovery_s"]["value"],
            "unit": "s"}
    print(json.dumps({
        "correct": all(result["correct"] for _, result in runs),
        "attempted": sum(result["attempted"] for _, result in runs),
        "failed": sum(result["failed"] for _, result in runs),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the bench_table1 driver.

Runs a tiny grid (two variants, 1 and 2 threads, recorder off and on,
two reps) and checks that its JSON parses — with every point and rep
present and no NaN — then checks that bad flags exit 2 before any heap
exists.

    python3 tests/bench/bench_table1_smoke.py build/bench/bench_table1
"""

import glob
import json
import os
import subprocess
import sys
import tempfile

VARIANTS = ["mutex-atlas-log-only", "lockfree-hashmap"]
THREADS = [1, 2]
TRACES = ["off", "on"]
REPS = 2


def leftover_heaps(pid):
    return glob.glob(f"/dev/shm/tsp_table1_{pid}.heap*")


def run(binary, args):
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True)
    output, _ = proc.communicate(timeout=240)
    return proc.returncode, output, proc.pid


def reject_constant(name):
    raise ValueError(f"non-JSON number {name}")


def main():
    binary = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.json")
        code, output, pid = run(binary, [
            "--variants", ",".join(VARIANTS),
            "--threads", ",".join(map(str, THREADS)),
            "--trace", ",".join(TRACES),
            "--reps", str(REPS),
            "--iters", "300",
            "--high", "512",
            "--json", path,
        ])
        if code != 0:
            failures.append(f"grid run exited {code}:\n{output}")
        if leftover_heaps(pid):
            failures.append(f"grid run left {leftover_heaps(pid)}")
        if os.path.exists(path):
            with open(path) as f:
                data = json.load(f, parse_constant=reject_constant)
            if data["reps"] != REPS:
                failures.append(f"header reps {data['reps']} != {REPS}")
            for key in ("build_type", "nproc", "flush_instruction"):
                if key not in data:
                    failures.append(f"header lacks {key}")
            seen = {(p["variant"], p["threads"], p["trace"])
                    for p in data["points"]}
            want = {(v, t, tr) for v in VARIANTS for t in THREADS
                    for tr in TRACES}
            if seen != want or len(data["points"]) != len(want):
                failures.append(f"points {sorted(seen)} != {sorted(want)}")
            for point in data["points"]:
                if len(point["reps"]) != REPS:
                    failures.append(f"point {point['variant']} "
                                    f"{point['threads']}T {point['trace']} "
                                    f"has {len(point['reps'])} reps")
                if any(r["miters_per_sec"] <= 0 for r in point["reps"]):
                    failures.append(f"point {point['variant']} has a "
                                    f"non-positive rate")
            if len(data["trace_overhead"]) != len(VARIANTS) * len(THREADS):
                failures.append("trace_overhead lacks a variant/thread pair")
            for pair in data["trace_overhead"]:
                for key in ("overhead_pct", "median_paired_overhead_pct"):
                    if not isinstance(pair.get(key), float):
                        failures.append(f"trace_overhead pair lacks {key}")
        else:
            failures.append("grid run wrote no JSON")

    for args in (["--threads", "0"], ["--variants", "nope"],
                 ["--shards", "1,x"], ["--threads", "1,"]):
        code, output, pid = run(binary, args + ["--json", ""])
        if code != 2:
            failures.append(f"{' '.join(args)} exited {code}, not 2:\n"
                            f"{output}")
        if leftover_heaps(pid):
            failures.append(f"{' '.join(args)} left {leftover_heaps(pid)}")

    for failure in failures:
        print("FAIL:", failure)
    print("bench_table1 smoke:", "FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py

Runs reduced-size workloads through run.py and checks the following:

- every metric named in BENCHMARK.json is reported, finite and in its
  unit, with no failed operation;
- the predicted layer bypasses hold;
- each output check rejects a deliberately corrupted input;
- without the library sources, run.py fails without printing a result.

Exits non-zero on the first failed expectation.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("table1-logonly", "lockfree-kv", "crash-recovery")
CORRUPTIONS = {
    "table1-sums": ("table1-logonly", "table1_sums"),
    "kv-checksum": ("lockfree-kv", "kv_checksum"),
    "kv-contents": ("lockfree-kv", "kv_contents"),
    "recovery-invariants": ("crash-recovery", "eq1_eq2"),
    "recovery-heap": ("crash-recovery", "check_heap"),
    "recovery-gc": ("crash-recovery", "gc_invalid_pointers"),
}
# Per-op Atlas counts, predicted to be 0 where Atlas is not loaded.
ATLAS_PER_OP = (
    "atlas.ocses_per_op", "atlas.log_entries_per_op",
    "atlas.undo_records_per_op", "atlas.flit_hit_ratio",
    "atlas.flit_rearms_per_op", "atlas.elided_fresh_per_op",
    "atlas.fast_commit_ratio", "atlas.seq_leases_per_op",
    "atlas.seq_resyncs_per_op", "atlas.pending_unstable")
RECOVERY_STEPS = ("pheap.open", "atlas.recover", "pheap.gc",
                  "pheap.close_clean", "workload.attach")


def fail(message):
    print("FAIL: " + message, flush=True)
    sys.exit(1)


def run(workload, trace=0, corrupt="", cwd=ROOT, seed=7):
    args = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--quick"]
    if corrupt:
        args += ["--corrupt", corrupt]
    done = subprocess.run(args, capture_output=True, text=True, cwd=cwd,
                          timeout=900, check=False)
    return done


def parse(done, what):
    if done.returncode != 0:
        fail("%s exited with %d:\n%s" % (what, done.returncode,
                                         done.stderr[-3000:]))
    lines = done.stdout.strip().splitlines()
    contexts = [json.loads(line)["context"] for line in lines[:-1]]
    return contexts, json.loads(lines[-1])


def check_metrics(result, expected, what):
    got = result["metrics"]
    if set(got) != set(expected):
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s"
             % (what, sorted(set(expected) - set(got)),
                sorted(set(got) - set(expected))))
    for name, unit in expected.items():
        value = got[name]["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s: %s is not a finite number: %r" % (what, name, value))
        if got[name]["unit"] != unit:
            fail("%s: %s has unit %s, expected %s"
                 % (what, name, got[name]["unit"], unit))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: correct=%s attempted=%s failed=%s"
             % (what, result["correct"], result["attempted"], result["failed"]))


def check_spans(workload, seed):
    path = os.path.join(ROOT, ".bench_build", "traces",
                        "%s-%d.json" % (workload, seed))
    with open(path) as handle:
        trace = json.load(handle)
    spans = trace["spans"]
    if not trace.get("run_id") or not spans:
        fail("%s: empty trace %s" % (workload, path))
    by_id = {span["id"]: span for span in spans}
    roots = [s for s in spans if s["name"] == "recover"]
    if not roots:
        fail("%s: no recovery span" % workload)
    for root in roots:
        steps = [s for s in spans if s["parent"] == root["id"]]
        names = [s["name"] for s in steps]
        if names != list(RECOVERY_STEPS):
            fail("%s: recovery steps %s" % (workload, names))
        covered = sum(s["end_s"] - s["start_s"] for s in steps)
        whole = root["end_s"] - root["start_s"]
        if not 0.9 * whole <= covered <= whole + 1e-6:
            fail("%s: recovery steps cover %.6f s of %.6f s"
                 % (workload, covered, whole))
    calls = [s for s in spans if s["name"].startswith("map.")]
    if not calls or any(s["parent"] not in by_id for s in calls):
        fail("%s: Map-call spans missing or orphaned" % workload)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if {w["name"] for w in bench["workloads"]} != set(WORKLOADS):
        fail("BENCHMARK.json workloads differ from " + str(WORKLOADS))

    for workload in WORKLOADS:
        start = time.time()
        _, result = parse(run(workload), workload)
        check_metrics(result, end_to_end, workload)
        for name in end_to_end:
            if result["metrics"][name]["value"] <= 0:
                fail("%s: end-to-end %s is not positive" % (workload, name))

        contexts, result = parse(run(workload, trace=1), workload + " traced")
        check_metrics(result, per_layer, workload + " traced")
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        prefixes = contexts[-1]["registry_prefixes"]
        for name in ("flush.lines_per_op", "flush.fences_per_op"):
            if metrics[name] != 0:
                fail("%s: %s = %r, expected 0" % (workload, name, metrics[name]))
        if workload == "lockfree-kv":
            if "atlas" in prefixes:
                fail("lockfree-kv: atlas counters in the registry")
            for name in ATLAS_PER_OP:
                if metrics[name] != 0:
                    fail("lockfree-kv: %s = %r, expected 0" % (name, metrics[name]))
        else:
            if "lockfree" in prefixes:
                fail("%s: lockfree counters in the registry" % workload)
            for name in metrics:
                if name.startswith("lockfree.") and metrics[name] != 0:
                    fail("%s: %s = %r, expected 0" % (workload, name, metrics[name]))
            if metrics["atlas.ocses_per_op"] <= 0:
                fail("%s: no Atlas OCS counted" % workload)
        if metrics["pheap.gc_invalid_pointers"] != 0:
            fail("%s: GC met invalid pointers" % workload)
        check_spans(workload, 7)
        print("ok   %s (%.1f s)" % (workload, time.time() - start), flush=True)

    for corrupt, (workload, check) in CORRUPTIONS.items():
        contexts, result = parse(run(workload, corrupt=corrupt),
                                 workload + " --corrupt " + corrupt)
        checks = contexts[-1]["checks"]
        if checks.get(check) is not False:
            fail("--corrupt %s: check %s did not fail: %s" % (corrupt, check, checks))
        if result["correct"] or result["failed"] < 1:
            fail("--corrupt %s: run reported correct=%s failed=%s"
                 % (corrupt, result["correct"], result["failed"]))
        print("ok   --corrupt %s fails %s (%d of %d calls failed)"
              % (corrupt, check, result["failed"], result["attempted"]),
              flush=True)

    # Only BENCHMARK.json and the benchmark's own files: no library to
    # build, so the run must fail without a result.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done = run("table1-logonly", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        fail("run without sources exited %d and printed %r"
             % (done.returncode, done.stdout[-200:]))
    print("ok   run without sources fails (exit %d)" % done.returncode)
    print("all self-tests passed")


if __name__ == "__main__":
    main()

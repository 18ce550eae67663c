#!/usr/bin/env python3
"""Smoke test of the bank_ledger example: transfers, a SIGKILL, an audit.

Runs `init 1000 1000` and `run 20000`, which must print CONSISTENT, then
`crash`, which must die by SIGKILL between a debit and a credit, then
`audit`, which recovers the heap and must exit 0 and print CONSISTENT.
The heap lives at /dev/shm/tsp_bank_<pid>.heap and is removed at the end.

    python3 tests/examples/bank_ledger_smoke.py build/examples/bank_ledger
"""

import glob
import os
import signal
import subprocess
import sys


def run(binary, heap, args):
    proc = subprocess.run([binary, heap] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True, timeout=240)
    return proc.returncode, proc.stdout


def main():
    binary = sys.argv[1]
    heap = f"/dev/shm/tsp_bank_{os.getpid()}.heap"
    failures = []
    try:
        code, output = run(binary, heap, ["init", "1000", "1000"])
        if code != 0:
            failures.append(f"init exited {code}:\n{output}")
        code, output = run(binary, heap, ["run", "20000"])
        print(output, end="")
        if code != 0 or "-> CONSISTENT" not in output:
            failures.append(f"run exited {code}:\n{output}")
        code, output = run(binary, heap, ["crash"])
        if code != -signal.SIGKILL:
            failures.append(f"crash exited {code}, not by SIGKILL:\n{output}")
        code, output = run(binary, heap, ["audit"])
        print(output, end="")
        if code != 0 or "-> CONSISTENT" not in output:
            failures.append(f"audit exited {code}:\n{output}")
    finally:
        for path in glob.glob(heap + "*"):
            os.unlink(path)

    for failure in failures:
        print("FAIL:", failure)
    print("bank_ledger smoke:", "FAILED" if failures else "OK")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark self-test.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, and asserts that
each run emits every metric BENCHMARK.json names, with its unit, and
reports no failed operation. Then runs every workload with one wrong
expected output injected and asserts the run reports failed > 0 and exits
nonzero, which proves the correctness check is live. Exit status 0 when
every assertion holds.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_lockstep", "serve_churn", "design_flow")


def run(workload, trace, fault=False):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "0.25"]
    if fault:
        cmd.append("--inject-fault")
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    lines = p.stdout.strip().splitlines()
    return p.returncode, (json.loads(lines[-1]) if lines else None)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    problems = []

    def check(cond, what):
        print("%-4s %s" % ("ok" if cond else "FAIL", what))
        if not cond:
            problems.append(what)

    for w in WORKLOADS:
        for trace in (0, 1):
            rc, r = run(w, trace)
            tag = "%s trace=%d" % (w, trace)
            check(rc == 0 and r is not None, tag + ": exit 0 with a result")
            if r is None:
                continue
            want = contract["per_layer" if trace else "end_to_end"]
            got = r["metrics"]
            check(set(got) == {m["name"] for m in want},
                  tag + ": every named metric emitted, nothing else")
            check(all(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
                      for m in want), tag + ": units as in BENCHMARK.json")
            check(r["failed"] == 0 and r["correct"] and r["attempted"] > 0,
                  tag + ": failed_frac == 0")

    for w in WORKLOADS:
        rc, r = run(w, 0, fault=True)
        check(rc != 0 and r is not None and r["failed"] > 0 and
              not r["correct"],
              w + ": injected wrong output gives failed > 0, nonzero exit")

    print("self-test %s" % ("passed" if not problems else
                            "FAILED (%d)" % len(problems)))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())

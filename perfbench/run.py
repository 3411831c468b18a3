#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload serve_lockstep|serve_churn|design_flow \
        --seed N --seconds S --trace 0|1 [--inject-fault] [--scale X]

Run it from the root of a checkout. The first run builds the benchmark
(perfbench/CMakeLists.txt over the repository's src/) into
.bench_build/perfbench; later runs reuse that build.

Output: a line per measured value ("name = value unit") and, as the last
line, the contract JSON object: {"correct", "attempted", "failed",
"metrics"} with every end_to_end metric of BENCHMARK.json (--trace 0) or
every per_layer metric (--trace 1). The full result -- every value, the
host shape, and each per-layer metric's target -- is also written to
.bench_build/results/<workload>-seed<N>-trace<T>.json, which
perfbench/compare.py reads.

Exit status: 0 when every output was correct, 1 when any output or check
failed, 2 when the benchmark could not build or run (no result printed).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(WORK, "perfbench")
WORKLOADS = ("serve_lockstep", "serve_churn", "design_flow")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then bring the build up to date; build output goes
    to stderr so stdout stays the result."""
    env = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, env=env) != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt one expected output (self-test)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="shrink the serving plans (self-test)")
    a = p.parse_args()

    contract = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    targets = load_json(os.path.join(HERE, "targets.json"))
    exe = build()
    for d in ("run", "traces", "results"):
        os.makedirs(os.path.join(WORK, d), exist_ok=True)

    cmd = [exe, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--scale", str(a.scale)]
    if a.inject_fault:
        cmd.append("--inject-fault")
    env = dict(os.environ, TMPDIR=os.path.join(WORK, "tmp"))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail("benchmark exited with status %d" % proc.returncode)
    raw = json.loads(lines[-1])
    values = raw["values"]

    names = contract["per_layer" if a.trace else "end_to_end"]
    missing = [m["name"] for m in names if m["name"] not in values]
    if missing:
        fail("not measured: " + ", ".join(missing))
    bad_units = [m["name"] for m in names
                 if values[m["name"]]["unit"] != m["unit"]]
    if bad_units:
        fail("unit differs from BENCHMARK.json: " + ", ".join(bad_units))
    metrics = {m["name"]: {"value": values[m["name"]]["value"],
                           "unit": m["unit"]} for m in names}

    result = {
        "workload": a.workload,
        "trace": a.trace,
        "seconds": a.seconds,
        "scale": a.scale,
        "host": raw["host"],
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
        "values": values,
        "targets": {k: v for k, v in targets["per_layer"].items()
                    if k in metrics},
    }
    out = os.path.join(WORK, "results", "%s-seed%d-trace%d.json"
                       % (a.workload, a.seed, a.trace))
    with open(out, "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    host = raw["host"]
    print("workload %s  seed %d  trace %d  host: %d cores, %s, simd %s/%s, "
          "%s %s" % (a.workload, a.seed, a.trace, host["cores"],
                     host["cpu_model"], host["simd_active"],
                     host["simd_best"], host["compiler"],
                     host["build_type"]))
    for name in sorted(values):
        v = values[name]
        print("  %-44s %16.6g %s" % (name, v["value"], v["unit"]))
    print("  attempted %d  failed %d  results %s"
          % (raw["attempted"], raw["failed"], os.path.relpath(out, ROOT)))
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    return 0 if raw["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

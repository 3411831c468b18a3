#!/usr/bin/env python3
"""Compare benchmark results of two commits.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json ...

Each file is a results file perfbench/run.py wrote
(.bench_build/results/<workload>-seed<N>-trace<T>.json). Files are grouped
by workload and trace mode; each side's median per metric is compared.
An end-to-end metric whose new median is worse than the base median by
more than its BENCHMARK.json bound is a regression.

Absolute numbers only compare on the same host shape: the command refuses
(exit 3) when the two sides differ in core count, CPU model, SIMD tiers,
compiler or build type. Exit 1 on a regression, 0 otherwise.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHAPE = ("cores", "cpu_model", "simd_best", "simd_active", "compiler",
         "build_type")


def load(paths):
    out = []
    for p in paths:
        with open(p) as f:
            out.append(json.load(f))
    return out


def shapes(results):
    return {tuple((k, r["host"][k]) for k in SHAPE) for r in results}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    a = ap.parse_args()
    base, new = load(a.base), load(a.new)

    sb, sn = shapes(base), shapes(new)
    if len(sb | sn) != 1:
        print("compare: refusing to compare results from different host "
              "shapes:", file=sys.stderr)
        for s in sorted(sb | sn):
            side = ("base" if s in sb else "") + (" new" if s in sn else "")
            print("  [%s] %s" % (side.strip(), dict(s)), file=sys.stderr)
        return 3

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        contract = json.load(f)
    e2e = {m["name"]: m for m in contract["end_to_end"]}
    layer = {m["name"]: m for m in contract["per_layer"]}

    regressions = 0
    groups = sorted({(r["workload"], r["trace"]) for r in base + new})
    for wl, trace in groups:
        b = [r for r in base if (r["workload"], r["trace"]) == (wl, trace)]
        n = [r for r in new if (r["workload"], r["trace"]) == (wl, trace)]
        if not b or not n:
            print("%s trace=%d: only on one side, skipped" % (wl, trace))
            continue
        print("%s trace=%d  (base %d runs, new %d runs)"
              % (wl, trace, len(b), len(n)))
        for name, m in (layer if trace else e2e).items():
            bv = statistics.median(r["metrics"][name]["value"] for r in b)
            nv = statistics.median(r["metrics"][name]["value"] for r in n)
            change = (nv - bv) / bv if bv else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = ""
            if "bound" in m and worse > m["bound"]:
                verdict = "  REGRESSION (bound %.2f)" % m["bound"]
                regressions += 1
            print("  %-40s %14.6g -> %14.6g %s %+7.2f%%%s"
                  % (name, bv, nv, m["unit"], change * 100, verdict))
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())

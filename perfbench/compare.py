#!/usr/bin/env python3
"""Compares two sets of benchmark records saved by `run.py --save`.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl

Prints, per workload and metric, each side's median and quartiles and the
change of the medians.  Refuses (exit 2) when the records come from hosts
with different fingerprints, ISAs or nproc: such numbers do not compare.
"""

import json
import statistics
import sys


def load(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def stamp(record):
    h = record["host"]
    return (h["host_fingerprint"], h["isa"], h["nproc"])


def summary(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(sys.argv[1]), load(sys.argv[2])
    stamps = {stamp(r) for r in base + change}
    if len(stamps) != 1:
        print("refusing to compare: records come from different hosts "
              "(fingerprint, isa, nproc): {}".format(sorted(stamps)),
              file=sys.stderr)
        return 2
    keys = sorted({(r["workload"], r["trace"]) for r in base + change})
    for workload, trace in keys:
        sides = []
        for records in (base, change):
            metrics = {}
            for r in records:
                if (r["workload"], r["trace"]) == (workload, trace):
                    for name, m in r["result"]["metrics"].items():
                        metrics.setdefault(name, ([], m["unit"]))[0].append(
                            m["value"])
            sides.append(metrics)
        for name in sorted(set(sides[0]) & set(sides[1])):
            (a, unit), (b, _) = sides[0][name], sides[1][name]
            a_lo, a_med, a_hi = summary(a)
            b_lo, b_med, b_hi = summary(b)
            delta = (b_med - a_med) / a_med if a_med else float("nan")
            print("{:<13} {:<36} base {:.5g} [{:.5g}, {:.5g}] n={}  "
                  "change {:.5g} [{:.5g}, {:.5g}] n={}  {:+.1%} {}".format(
                      workload, name, a_med, a_lo, a_hi, len(a), b_med, b_lo,
                      b_hi, len(b), delta, unit))
    return 0


if __name__ == "__main__":
    sys.exit(main())

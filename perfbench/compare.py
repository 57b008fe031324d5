#!/usr/bin/env python3
"""Compare two sets of benchmark runs, such as a parent commit and a change.

    python3 perfbench/compare.py parent.jsonl change.jsonl

Each file holds run records as written by ``suite.py --out``.  For every
workload and metric the report gives each side's median and quartiles, the
fraction of run pairs the change won, and a verdict:

* improved   -- the change wins at least 9/10 of the pairs (ties count for
  neither side) and the medians differ by more than the parent's quartile
  spread;
* regressed  -- the change's median is worse than the parent's by more than
  the metric's bound (BENCHMARK.json), or, for a metric without a bound, the
  parent wins 9/10 of the pairs by more than its spread;
* unresolved -- neither, and the parent's spread is wider than the bound,
  unless every change run reads better than every parent run;
* unchanged  -- otherwise.

A gain does not count while the change fails more operations: on a workload
whose change-side median ``failed_ops_frac`` is above the parent's, no
metric is reported improved; it reads unresolved, and the reason is printed.

Runs are paired by seed when both sides ran the same seeds, else in order.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(path):
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def values(records):
    """workload -> metric -> [(seed, value)]"""
    out = {}
    for r in records:
        wl = r["provenance"]["workload"]
        metrics = dict(r["end_to_end"])
        metrics.update(r.get("per_layer") or {})
        for name, v in metrics.items():
            if v is not None:
                out.setdefault(wl, {}).setdefault(name, []).append(
                    (r["provenance"]["seed"], v))
    return out


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def pairs(a, b):
    seeds_a, seeds_b = [s for s, _ in a], [s for s, _ in b]
    if sorted(seeds_a) == sorted(seeds_b) and len(set(seeds_a)) == len(seeds_a):
        vb = dict(b)
        return [(v, vb[s]) for s, v in a]
    return list(zip([v for _, v in a], [v for _, v in b]))


def verdict(a, b, better, bound):
    """Return (verdict, fraction of pairs won by b) for one metric."""
    sign = 1.0 if better == "higher" else -1.0
    xa, xb = [v for _, v in a], [v for _, v in b]
    q1a, ma, q3a = quartiles(xa)
    mb = statistics.median(xb)
    spread = q3a - q1a
    ps = pairs(a, b)
    wins = sum(1 for va, vb in ps if sign * (vb - va) > 0)
    losses = sum(1 for va, vb in ps if sign * (vb - va) < 0)
    won = wins / len(ps) if ps else 0.0
    gain = sign * (mb - ma)
    if ps and wins >= 0.9 * len(ps) and gain > spread:
        return "improved", won
    if bound is not None:
        if -gain > bound * abs(ma):
            return "regressed", won
        all_better = all(sign * (vb - va) > 0 for va in xa for vb in xb)
        if ma and spread / abs(ma) > bound and not all_better:
            return "unresolved", won
        return "unchanged", won
    if ps and losses >= 0.9 * len(ps) and -gain > spread:
        return "regressed", won
    return ("unchanged" if abs(gain) <= spread else "unresolved"), won


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--all", action="store_true",
                    help="also list metrics that are unchanged")
    args = ap.parse_args(argv)
    with open(args.benchmark) as fh:
        bench = json.load(fh)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    va, vb = values(load(args.parent)), values(load(args.change))
    regressed = False
    for wl in sorted(set(va) & set(vb)):
        print(f"{wl}")
        fa, fb = (statistics.median(x for _, x in side[wl].get("failed_ops_frac", [(0, 0.0)]))
                  for side in (va, vb))
        more_failures = fb > fa
        if more_failures:
            print(f"  the change fails more operations (median failed_ops_frac {fb:.4g}, "
                  f"parent {fa:.4g}): no gain counts on this workload")
        print(f"  {'metric':<40} {'parent median [q1, q3]':>38} "
              f"{'change median [q1, q3]':>38} {'won':>5}  verdict")
        for name in sorted(set(va[wl]) & set(vb[wl])):
            m = spec.get(name, {})
            better = m.get("better", "lower")   # unlisted: failures and errors
            v, won = verdict(va[wl][name], vb[wl][name], better, m.get("bound"))
            if v == "improved" and more_failures:
                v = "unresolved"
            regressed |= v == "regressed" and "bound" in m
            if v == "unchanged" and not args.all:
                continue
            qa = quartiles([x for _, x in va[wl][name]])
            qb = quartiles([x for _, x in vb[wl][name]])
            print(f"  {name:<40} {qa[1]:>12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(81)
                  + f" {qb[1]:>12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(39)
                  + f" {won:>5.2f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())

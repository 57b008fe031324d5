#!/usr/bin/env python3
"""Run every workload (or some) over several seeds and summarize the spread.

From the repository root:

    python3 perfbench/suite.py                          # each workload once
    python3 perfbench/suite.py --seeds 1-10 --out .perfbench_out/base.jsonl

    # parent and change, alternating which side runs first, seed by seed
    python3 perfbench/suite.py --seeds 1-10 --out .perfbench_out/change.jsonl \\
        --parent ../parent-checkout --parent-out .perfbench_out/parent.jsonl

Each run is ``perfbench/run.py`` in its own process, so peak memory is per
workload.  ``--parent`` runs this same benchmark code against another
checkout's ``src``; alternating the two sides keeps slow drifts of the
machine's speed out of the comparison.  The summary prints every end-to-end
metric by name and unit for each workload and side, with the median,
quartiles and quartile spread over the runs, and each run's correctness
verdict and failure count.  ``--out`` and ``--parent-out`` append the runs'
records (JSON lines) for ``perfbench/compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from compare import quartiles  # noqa: E402
from run import BENCH_FILE, END_TO_END  # noqa: E402


def seed_list(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_one(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    rec = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("perfbench-record ")), None)
    if proc.returncode != 0 or rec is None:
        raise RuntimeError(f"{workload} seed {seed} in {root} failed ({proc.returncode}):\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return rec


def summarize(title, records, bounds):
    print(f"{title}: {len(records)} run(s)")
    print(f"  {'metric':<22} {'unit':<5} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, unit in END_TO_END:
        values = [r["end_to_end"][name] for r in records
                  if r["end_to_end"][name] is not None]
        if not values:
            print(f"  {name:<22} {unit:<5} {'n/a':>12}")
            continue
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / abs(med) if med else 0.0
        bound = f"{bounds[name]:.2f}" if name in bounds else "-"
        print(f"  {name:<22} {unit:<5} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.3f} {bound:>6}")
    tails = sorted({(r["op_tail_percentile"], r["op_samples"]) for r in records})
    print("  op_tail_s percentile (samples): "
          + ", ".join(f"p{p} (n={n})" for p, n in tails), flush=True)


def main(argv=None):
    with open(BENCH_FILE) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,7")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append run records to this JSON-lines file")
    ap.add_argument("--parent", help="another checkout to run alternately with this one")
    ap.add_argument("--parent-out", help="append the --parent run records here")
    args = ap.parse_args(argv)

    sides = [("change" if args.parent else "runs", os.getcwd(), args.out)]
    if args.parent:
        sides.append(("parent", os.path.abspath(args.parent), args.parent_out))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        records = {label: [] for label, _, _ in sides}
        for i, seed in enumerate(seed_list(args.seeds)):
            for label, root, out in (sides if i % 2 == 0 else sides[::-1]):
                rec = run_one(root, workload, seed, args.seconds, args.trace)
                records[label].append(rec)
                if out:
                    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
                    with open(out, "a") as fh:
                        fh.write(json.dumps(rec) + "\n")
                print(f"  {workload} {label} seed {seed}: correct={rec['correct']} "
                      f"attempted={rec['attempted']} failed={rec['failed']}", flush=True)
                status |= not rec["correct"]
        for label, recs in records.items():
            summarize(f"{workload} ({label})", recs, bounds)
    return status


if __name__ == "__main__":
    sys.exit(main())

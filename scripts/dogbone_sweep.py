#!/usr/bin/env python3
"""Sweep the dogbone corridor parameter and record the experiment outcomes.

For each epsilon: the measure at heights epsilon and 1 on the axis, whether
the strict inequality held with separated error bars, and the located axis
critical points.  The sweep documents which epsilon are small enough for the
two-critical-point phenomenon at desk scale (0.1 comfortably is; the margin
shrinks as the corridor fattens).

Usage: python scripts/dogbone_sweep.py [--out sweep.csv] [--tol 1e-9]
"""

import argparse
import sys

from tunnelvision.critical import dogbone_experiment
from tunnelvision.measure import QuadratureConfig
from tunnelvision.runio import write_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="dogbone_sweep.csv")
    ap.add_argument("--tol", type=float, default=1e-9)
    ap.add_argument("--samples", type=int, default=160)
    ap.add_argument("--eps", type=float, nargs="*",
                    default=[0.05, 0.08, 0.1, 0.15, 0.2, 0.3, 0.4, 0.45])
    args = ap.parse_args(argv)

    cfg = QuadratureConfig(tolerance=args.tol)
    rows = []
    for eps in args.eps:
        report, _ = dogbone_experiment(eps, cfg, n_samples=args.samples)
        margin = report.f_at_one.value - report.f_at_eps.value
        n_cp = sum(1 for c in report.critical_points if c.conclusive)
        z_cp = ";".join(f"{c.location.z:.6g}" for c in report.critical_points)
        rows.append((eps, report.f_at_eps.value, report.f_at_one.value,
                     margin, int(report.inequality_holds), n_cp, z_cp))
        print(f"eps={eps:<6g} f(eps)={report.f_at_eps.value:.6f} "
              f"f(1)={report.f_at_one.value:.6f} margin={margin:+.6f} "
              f"holds={report.inequality_holds} critical_points={n_cp}")
    write_csv(args.out,
              ["eps [1]", "f_at_eps [1]", "f_at_one [1]", "margin [1]",
               "inequality_holds [0/1]", "n_critical [count]",
               "critical_z [;-joined]"],
              rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

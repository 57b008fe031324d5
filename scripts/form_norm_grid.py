#!/usr/bin/env python3
"""Export a grid of self-dual-form norms over a domain to CSV for plotting.

Writes rows (x, y, z, omega_norm, weighted_norm); the weighted column
divides by f(1 - f), so that the behaviour near the boundary plane and far
above the region is flattened and interior zeros stand out.

Usage: python scripts/form_norm_grid.py --domain dogbone01.json
"""

import argparse
import json
import sys

from tunnelvision.critical import GridSpec
from tunnelvision.domains import domain_from_obj
from tunnelvision.forms import form_norm_grid
from tunnelvision.measure import QuadratureConfig
from tunnelvision.runio import write_csv


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--domain", required=True,
                    help="JSON domain specification file")
    ap.add_argument("--out", default="form_norm_grid.csv")
    ap.add_argument("--n", type=int, default=15)
    ap.add_argument("--tol", type=float, default=1e-7)
    args = ap.parse_args(argv)

    with open(args.domain) as fh:
        domain = domain_from_obj(json.load(fh))
    grid = GridSpec.for_domain(domain, args.n)
    table, record = form_norm_grid(domain, grid, QuadratureConfig(tolerance=args.tol))
    write_csv(args.out,
              ["x [boundary coords]", "y [boundary coords]",
               "z [model height]", "omega_norm [1]", "weighted_norm [1]"],
              table.tolist())
    print(f"wrote {args.out} ({len(table)} rows, "
          f"{int((~record.converged).sum())} not converged)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Convergence of limit-set samples to the boundary circle by word depth.

Tabulates, per genus and enumeration depth, the shell size and the Hausdorff
distance between the projected deepest-shell orbit of 0 and a dense circle
sampling.  The distance decays with depth; cocompact shell growth (factor
about 4g - 1 minus relator coincidences) is visible in the counts.

Needs scipy (the ``dev`` extra) for its KD-trees; the package itself does not.

Usage: python scripts/limit_set_study.py [--genus 2] [--max-depth 6]
           [--out limit_set_study.csv]
"""

import argparse
import sys

import numpy as np
from scipy.spatial import cKDTree

from tunnelvision.groups import limit_set_sample
from tunnelvision.runio import write_csv


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two nonempty complex point clouds.

    Symmetric; the max of the two directed sup-inf distances, via KD-trees.
    """
    pa, pb = (np.column_stack([c.real, c.imag]) for c in map(np.ravel, (a, b)))
    if not (len(pa) and len(pb)):
        raise ValueError("empty point cloud")
    return float(max(cKDTree(pb).query(pa)[0].max(), cKDTree(pa).query(pb)[0].max()))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--genus", type=int, default=2)
    ap.add_argument("--max-depth", type=int, default=6)
    ap.add_argument("--out", default="limit_set_study.csv")
    args = ap.parse_args(argv)

    circle = np.exp(2j * np.pi * np.linspace(0, 1, 40000, endpoint=False))
    rows = []
    for depth in range(1, args.max_depth + 1):
        sample = limit_set_sample(args.genus, depth)
        dist = hausdorff_distance(sample, circle)
        rows.append((args.genus, depth, len(sample), dist))
        print(f"genus={args.genus} depth={depth} shell={len(sample):>8} "
              f"hausdorff={dist:.6f}")
    write_csv(args.out,
              ["genus [1]", "depth [letters]", "shell_size [count]",
               "hausdorff_to_circle [euclidean]"],
              rows)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

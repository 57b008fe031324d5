#!/usr/bin/env python3
"""Generate ``perfbench/reference.json``, the benchmark's tight reference table.

For each corridor parameter in ``EPS`` the table holds the dogbone axis
profile at exactly the heights ``dogbone_experiment`` samples
(``geomspace(eps**2, 10, 200)``), the measure at heights eps and 1, and the
two axis critical points (height and value).  Everything is computed to an
absolute accuracy of 1e-12 or better by a path that shares only the exact
per-ray radial integral with the library:

* the angular integral is split at every angle where the integrand can fail
  to be analytic -- the per-primitive kink angles *and* the corners where the
  boolean tree's boundary passes from one primitive to another -- and each
  piece is integrated by tanh-sinh quadrature, which converges exponentially
  even with the square-root singularities at tangent rays;
* critical heights are roots of the exact d f / d z (Brent's method), not
  extrema of f.

The same pipeline is cross-checked against ``disk_closed_form`` and, for a
subset of dogbone points, against an independent 2-D ``scipy`` quadrature of
the Poisson kernel over the region (inclusion-exclusion over its disks and
corridor).  The check results are stored in the table.

The table is committed; the benchmark only reads it.  Regenerate it when the
reference list or the experiment's sampling changes:

    python3 perfbench/make_reference.py          # from the repository root
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
import time

import numpy as np
from scipy import integrate, optimize

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from tunnelvision.domains import Disk, HalfPlane, dogbone  # noqa: E402
from tunnelvision.hyperbolic import H3Point  # noqa: E402
from tunnelvision.measure import _RayIntegrand, disk_closed_form  # noqa: E402

EPS = (0.05, 0.1, 0.15, 0.2)
N_SAMPLES = 200        # dogbone_experiment's default
Z_MAX = 10.0           # upper end of dogbone_experiment's window
TARGET = 1e-13         # accepted |h - h/2| difference of the tanh-sinh sums
TWO_PI = 2.0 * math.pi
OUT = os.path.join(HERE, "reference.json")


# -- angular breakpoints --------------------------------------------------------


def _circle_line(c, r, n, off):
    """Intersections of |w - c| = r with Re(conj(n) w) = off (|n| = 1)."""
    dist = off - (np.conj(n) * c).real   # signed distance from c to the line
    s2 = r * r - dist * dist
    if s2 < 0:
        return []
    foot = c + dist * n
    return [foot + math.sqrt(s2) * 1j * n, foot - math.sqrt(s2) * 1j * n]


def _circle_circle(c1, r1, c2, r2):
    d = abs(c2 - c1)
    if d == 0 or d > r1 + r2 or d < abs(r1 - r2):
        return []
    a = (r1 * r1 - r2 * r2 + d * d) / (2 * d)
    h = math.sqrt(max(r1 * r1 - a * a, 0.0))
    u = (c2 - c1) / d
    m = c1 + a * u
    return [m + h * 1j * u, m - h * 1j * u]


def _line_line(n1, o1, n2, o2):
    a = np.array([[n1.real, n1.imag], [n2.real, n2.imag]])
    if abs(np.linalg.det(a)) < 1e-14:
        return []
    x, y = np.linalg.solve(a, [o1, o2])
    return [complex(x, y)]


def corner_points(domain):
    """Points where two primitive boundaries meet on the tree's boundary."""
    prims = list(domain.primitives())
    cands = []
    for p, q in itertools.combinations(prims, 2):
        if isinstance(p, Disk) and isinstance(q, Disk):
            cands += _circle_circle(p.center, p.radius, q.center, q.radius)
        elif isinstance(p, Disk) and isinstance(q, HalfPlane):
            cands += _circle_line(p.center, p.radius, q.normal, q.offset)
        elif isinstance(p, HalfPlane) and isinstance(q, Disk):
            cands += _circle_line(q.center, q.radius, p.normal, p.offset)
        elif isinstance(p, HalfPlane) and isinstance(q, HalfPlane):
            cands += _line_line(p.normal, p.offset, q.normal, q.offset)
        else:
            raise NotImplementedError("reference supports disks and half-planes")
    probe = 1e-9 * np.exp(1j * np.linspace(0.0, TWO_PI, 16, endpoint=False))
    keep = []
    for w in cands:
        inside = domain.contains(w + probe)
        if inside.any() and not inside.all():
            keep.append(complex(w))
    return keep


def breakpoints(domain, foot):
    angles = {0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi, TWO_PI}
    for a in domain.kink_angles(foot):
        angles.add(a % TWO_PI)
    for w in corner_points(domain):
        angles.add(math.atan2((w - foot).imag, (w - foot).real) % TWO_PI)
    pts = sorted(angles)
    return [p for i, p in enumerate(pts) if i == 0 or p - pts[i - 1] > 1e-15]


# -- tanh-sinh quadrature ------------------------------------------------------------


def _ts_rule(h, t_max=4.0):
    """Nodes on (0, 1) as (s, 1 - s) and weights of the tanh-sinh rule."""
    t = np.arange(-int(t_max / h), int(t_max / h) + 1) * h
    u = 0.5 * math.pi * np.sinh(t)
    s = 1.0 / (1.0 + np.exp(-2.0 * u))          # (1 + tanh u) / 2
    w = h * 0.25 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    return s, w


def ts_integrate(f, bps, h):
    s, w = _ts_rule(h)
    a = np.array(bps[:-1])[:, None]
    b = np.array(bps[1:])[:, None]
    x = (a + (b - a) * s[None, :]).ravel()
    wt = ((b - a) * w[None, :]).ravel()
    y = f(x)
    return np.array([math.fsum(wt * y[:, j]) for j in range(y.shape[1])])


def axis_values(domain, z, bps):
    """(f, df/dz) at (0, 0, z) with the |h - h/2| difference of f."""
    integrand = _RayIntegrand(domain, H3Point(0.0, 0.0, z), 64.0, True)
    h = 1.0 / 32.0
    prev = ts_integrate(integrand, bps, h)
    while True:
        h *= 0.5
        cur = ts_integrate(integrand, bps, h)
        diff = float(np.max(np.abs(cur[[0, 3]] - prev[[0, 3]])))
        if diff <= TARGET or h < 1.0 / 1024.0:
            return float(cur[0]), float(cur[3]), diff
        prev = cur


# -- independent 2-D quadrature ---------------------------------------------------------


def _kernel(x, y, z):
    return (z / (x * x + y * y + z * z)) ** 2 / math.pi


def dogbone_dblquad(eps, z):
    """Poisson integral of the dogbone indicator by inclusion-exclusion.

    Region = D+ u D- u C with D+- = disk(+-1, 1/4), C = unit disk ^ |y| < eps^3.
    D+ and D- are disjoint, so f = P(D+) + P(D-) + P(C) - P(D+ ^ C) - P(D- ^ C).
    """
    h = eps**3
    opts = dict(epsabs=1e-14, epsrel=1e-13)

    def disk(cx):
        val, _ = integrate.dblquad(
            lambda rho, th: _kernel(cx + rho * math.cos(th), rho * math.sin(th), z) * rho,
            0.0, TWO_PI, 0.0, 0.25, **opts)
        return val

    corridor, _ = integrate.dblquad(
        lambda x, y: _kernel(x, y, z), -h, h,
        lambda y: -math.sqrt(1 - y * y), lambda y: math.sqrt(1 - y * y), **opts)
    lens, _ = integrate.dblquad(          # D+ ^ C; D- ^ C is its mirror image
        lambda x, y: _kernel(x, y, z), -h, h,
        lambda y: 1.0 - math.sqrt(1.0 / 16.0 - y * y),
        lambda y: math.sqrt(1 - y * y), **opts)
    return disk(1.0) + disk(-1.0) + corridor - 2.0 * lens


# -- table -----------------------------------------------------------------------------------


def eps_entry(eps):
    domain = dogbone(eps)
    bps = breakpoints(domain, 0j)
    zs = np.geomspace(eps**2, Z_MAX, N_SAMPLES)
    f, dfdz, worst = [], [], 0.0
    for z in zs.tolist():
        v, d, diff = axis_values(domain, z, bps)
        f.append(v)
        dfdz.append(d)
        worst = max(worst, diff)
    cps = []
    for i in range(len(zs) - 1):
        if dfdz[i] * dfdz[i + 1] < 0.0:
            kind = "axis-max" if dfdz[i] > 0.0 else "axis-min"
            z_star = optimize.brentq(
                lambda zz: axis_values(domain, zz, bps)[1], zs[i], zs[i + 1],
                xtol=1e-14, rtol=1e-15, maxiter=200)
            f_star, _, diff = axis_values(domain, z_star, bps)
            worst = max(worst, diff)
            cps.append({"classification": kind, "z": z_star, "f": f_star})
    f_eps, _, d1 = axis_values(domain, eps, bps)
    f_one, _, d2 = axis_values(domain, 1.0, bps)
    return {
        "eps": eps,
        "z": zs.tolist(),
        "f": f,
        "f_at_eps": f_eps,
        "f_at_one": f_one,
        "critical_points": cps,
        "breakpoints": bps,
        "max_refinement_diff": max(worst, d1, d2),
    }


def cross_checks(table):
    disk_dev = 0.0
    for rho in (0.5, 1.0):
        d = Disk(0j, rho)
        bps = breakpoints(d, 0j)
        for z in (0.01, 0.3, 1.0, 5.0):
            disk_dev = max(disk_dev, abs(axis_values(d, z, bps)[0]
                                         - disk_closed_form(rho, z)))
    rows = []
    for entry in table:
        if entry["eps"] not in (0.1, 0.2):
            continue
        picks = [entry["z"][i] for i in (100, 140, 170)]
        for z in picks + [cp["z"] for cp in entry["critical_points"]]:
            bps = entry["breakpoints"]
            ours = axis_values(dogbone(entry["eps"]), z, bps)[0]
            other = dogbone_dblquad(entry["eps"], z)
            rows.append({"eps": entry["eps"], "z": z, "tanh_sinh": ours,
                         "dblquad": other, "abs_diff": abs(ours - other)})
    return {
        "disk_closed_form_max_abs_diff": disk_dev,
        "dogbone_dblquad": rows,
        "dogbone_dblquad_max_abs_diff": max(r["abs_diff"] for r in rows),
    }


def main():
    t0 = time.perf_counter()
    table = []
    for eps in EPS:
        entry = eps_entry(eps)
        table.append(entry)
        print(f"eps={eps}: {len(entry['critical_points'])} critical points, "
              f"max refinement diff {entry['max_refinement_diff']:.2e}",
              flush=True)
    checks = cross_checks(table)
    print(f"cross-check: disk {checks['disk_closed_form_max_abs_diff']:.2e}, "
          f"dblquad {checks['dogbone_dblquad_max_abs_diff']:.2e}", flush=True)
    if (checks["disk_closed_form_max_abs_diff"] > 1e-12
            or checks["dogbone_dblquad_max_abs_diff"] > 1e-11
            or max(e["max_refinement_diff"] for e in table) > 1e-12):
        print("reference failed its own accuracy checks", file=sys.stderr)
        return 1
    obj = {
        "description": "dogbone axis reference at |error| <= 1e-12; "
                       "generated by perfbench/make_reference.py",
        "n_samples": N_SAMPLES,
        "z_max": Z_MAX,
        "eps": table,
        "cross_check": checks,
    }
    with open(OUT, "w") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

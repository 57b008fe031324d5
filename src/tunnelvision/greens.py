"""Green's functions on hyperbolic 3-space and their group-averaged series.

The free Green's function with pole p is ``G_p(q) = 1/(exp(2 d(p, q)) - 1)``:
positive, harmonic off the pole (geometer's sign convention, with a
normalized 2 pi point source), behaving like 1/(2 dist) at the pole and
decaying like exp(-2 dist).  Averaging over a discrete group of isometries
gives the quotient Green's function as a series over word-length shells,
whose sums decay geometrically for the cocompact-surface groups built here;
the reported tail estimate is a geometric extrapolation of the last shells.

The potential of a point configuration is V = 1 + sum of the pole Green's
functions.  The flux of its conjugate 2-form through a small geodesic sphere
around a pole is -2 pi independent of radius, and through a large surface it
picks up -2 pi times the sum of the harmonic-measure values at the poles;
configurations whose values sum to an integer strictly between 0 and k are
the quantizable ones (for k = 1 the criterion is unsatisfiable, since each
value lies strictly inside (0, 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .critical import _bounded_radius, _bracketed_roots
from .domains import PlanarDomain, boundary_pieces
from .groups import GroupElements
from .hyperbolic import (H3Point, apply_h3_batch, geodesic_point, h3_distance,
                         h3_distance_batch, MobiusMap)
from .measure import MeasureValues, QuadratureConfig, _row_sums, measure_many

__all__ = [
    "PointConfiguration",
    "SeriesValue",
    "QuantizationResult",
    "NonConvergentSeriesError",
    "PoleCollisionError",
    "h3_green",
    "green_flux",
    "quotient_green",
    "potential_V",
    "quantization_sum",
    "find_quantizable",
]


class NonConvergentSeriesError(RuntimeError):
    """Shell sums failed to decay; no tail estimate is possible."""


class PoleCollisionError(ValueError):
    """Evaluation point coincides with (an orbit point of) a pole."""


_MIN_POLE_DISTANCE = 1e-8


@dataclass(frozen=True)
class PointConfiguration:
    """k distinct points, an optional group and optional measured values.

    ``group`` is a :class:`GroupElements` record.  ``f`` is the
    :class:`~tunnelvision.measure.MeasureValues` record of the points, one
    row per point and in their order, with every value strictly in (0, 1);
    :func:`find_quantizable` fills it and :func:`quantization_sum` reads it.
    """

    points: tuple
    group: GroupElements | None = None
    f: MeasureValues | None = None

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if h3_distance(pts[i], pts[j]) <= 0.0:
                    raise ValueError("configuration points must be distinct")
        if self.f is not None:
            if len(self.f) != len(pts):
                raise ValueError("f needs one row per point")
            if not ((self.f.values > 0.0) & (self.f.values < 1.0)).all():
                raise ValueError("measure values must lie strictly in (0, 1)")

    def to_obj(self, ell: int | None = None, total: float | None = None):
        obj = {"points": [[p.x, p.y, p.z] for p in self.points]}
        if self.f is not None:
            obj["f"] = self.f.values.tolist()
        if ell is not None:
            obj["ell"] = ell
        if total is not None:
            obj["sum"] = total
        return obj


@dataclass(frozen=True)
class SeriesValue:
    """A truncated shell series: partial sum, tail estimate and ``shell_sums[n]``,
    the sum over the words of length n (``len(shell_sums) - 1`` shells used)."""

    value: float
    tail_estimate: float
    shell_sums: tuple = ()


@dataclass(frozen=True)
class QuantizationResult:
    """A configuration's measure-value sum, its nearest integer ``ell``, the
    verdict, and whether every value's error bound met its tolerance."""

    total: float
    ell: int
    is_quantizable: bool
    converged: bool


def h3_green(pole: H3Point, q: H3Point) -> float:
    """Free-space Green's function 1/(e^{2 dist} - 1); singular at the pole."""
    d = h3_distance(pole, q)
    if d < _MIN_POLE_DISTANCE:
        raise PoleCollisionError(f"evaluation point within {d:.2e} of the pole")
    return 1.0 / math.expm1(2.0 * d)


def green_flux(pole: H3Point, geodesic_radius: float, quad_n: int = 64,
               field=None) -> float:
    """Flux of the conjugate 2-form of a potential through a geodesic sphere.

    Integrates (radial derivative) x (hyperbolic area element) over the
    sphere of the given radius about ``pole`` by Gauss-Legendre x trapezoid
    product quadrature; the radial derivative uses a fourth-order central
    difference along geodesic rays.  For the default field (the pole's own
    Green's function) the result is -2 pi at every radius.

    ``field`` may be any scalar sampler ``H3Point -> float`` smooth on the
    sphere, e.g. a sum of Green's functions or a full potential.
    """
    if geodesic_radius <= 0:
        raise ValueError("geodesic radius must be positive")
    if quad_n < 4:
        raise ValueError("need at least 4 quadrature nodes")
    if field is None:
        field = lambda q: h3_green(pole, q)  # noqa: E731

    # carry the pole to (0,0,1); directions there are Euclidean unit vectors
    to_origin = (MobiusMap.dilation(1.0 / pole.z)
                 @ MobiusMap.translation(-pole.foot))
    back = to_origin.inverse()

    mu, wmu = np.polynomial.legendre.leggauss(quad_n)
    phis = 2.0 * math.pi * np.arange(2 * quad_n) / (2 * quad_n)
    wphi = 2.0 * math.pi / (2 * quad_n)
    h = geodesic_radius / 64.0
    stencil = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))

    terms = []
    for m, wm in zip(mu, wmu):
        s = math.sqrt(max(0.0, 1.0 - m * m))
        for phi in phis:
            v = np.array([s * math.cos(phi), s * math.sin(phi), m])
            deriv = 0.0
            for k, ck in stencil:
                q = back.apply_h3(geodesic_point(v, geodesic_radius + k * h))
                deriv += ck * field(q)
            deriv /= 12.0 * h
            terms.append(wm * wphi * deriv)
    area_factor = math.sinh(geodesic_radius) ** 2
    return area_factor * math.fsum(terms)


def _shell_sums(matrices, lengths, pole: H3Point, q: H3Point):
    """Per-word-length sums of the Poincare series terms at q.

    ``lengths`` are non-decreasing, so each shell is one slice of the terms.
    Each slice is summed exactly rounded by the measure's row-sum kernel,
    which gives ``math.fsum``'s bits: a TwoSum tree with a certified
    rounding on large shells, ``math.fsum`` itself on small ones.
    """
    orbit = apply_h3_batch(matrices, pole)
    d = h3_distance_batch(orbit, q)
    dmin = float(d.min())
    if dmin < _MIN_POLE_DISTANCE:
        raise PoleCollisionError(
            f"evaluation point within {dmin:.2e} of an orbit point")
    terms = 1.0 / np.expm1(2.0 * d)
    cuts = np.searchsorted(lengths, np.arange(lengths[-1] + 2)).tolist()
    return [float(_row_sums(terms[lo:hi])) for lo, hi in zip(cuts, cuts[1:])]


def quotient_green(elements: GroupElements, pole_lift: H3Point, q: H3Point,
                   shells: int) -> SeriesValue:
    """Group-averaged Green's function, truncated at ``shells`` word length.

    The tail estimate extrapolates the last three shell sums geometrically
    (using the more pessimistic of the two consecutive ratios).  Raises
    ValueError when ``elements`` stops short of ``shells``,
    NonConvergentSeriesError if the shell sums fail to decay, and
    PoleCollisionError if ``q`` is within 1e-8 of the truncated orbit.
    """
    if shells < 0:
        raise ValueError("shells must be >= 0")
    n = int(np.searchsorted(elements.lengths, shells, side="right"))
    if not n:
        raise ValueError("no group elements within the shell bound")
    if shells > elements.lengths[-1]:
        raise ValueError(f"group record depth {elements.lengths[-1]} < {shells} shells")
    sums = _shell_sums(elements.matrices[:n], elements.lengths[:n], pole_lift, q)
    value = math.fsum(sums)
    if len(sums) == 1:
        return SeriesValue(value, 0.0, tuple(sums))
    if len(sums) < 3:
        return SeriesValue(value, sums[-1], tuple(sums))
    r1 = sums[-2] / sums[-3] if sums[-3] > 0 else math.inf
    r2 = sums[-1] / sums[-2] if sums[-2] > 0 else math.inf
    ratio = max(r1, r2)
    if not ratio < 1.0:
        raise NonConvergentSeriesError(
            f"shell sums do not decay (ratio {ratio:.3f}); "
            "series truncation is meaningless here")
    tail = sums[-1] * ratio / (1.0 - ratio)
    return SeriesValue(value, tail, tuple(sums))


def potential_V(config: PointConfiguration, q: H3Point, shells: int = 6) -> float:
    """The positive potential 1 + sum of pole Green's functions at q.

    With an attached group each pole contributes its quotient series (the
    record must reach ``shells``); without one, the free-space Green's
    function.  Exceeds 1 everywhere and tends to 1 far from all poles.
    """
    total = 1.0
    for p in config.points:
        if config.group:
            total += quotient_green(config.group, p, q, shells).value
        else:
            total += h3_green(p, q)
    return total


def quantization_sum(config: PointConfiguration,
                     tol: float = 1e-8) -> QuantizationResult:
    """Sum the configuration's measure values and test integrality.

    Reads ``config.f`` (as :func:`find_quantizable` fills it) and raises
    ValueError when it is None.  Quantizable means the sum is within ``tol``
    of an integer ell with 0 < ell < k.  A single point can never be
    quantizable: its value lies strictly between 0 and 1.
    """
    if config.f is None:
        raise ValueError("configuration carries no measure values")
    total = math.fsum(config.f.values.tolist())
    ell = round(total)
    quantizable = abs(total - ell) < tol and 0 < ell < len(config.points)
    return QuantizationResult(total=total, ell=int(ell),
                              is_quantizable=bool(quantizable),
                              converged=bool(config.f.converged.all()))


def _interior_feet(domain: PlanarDomain, k: int) -> list[complex]:
    """The first k distinct points of a bounded region among 0, rings about 0
    of radius up to 0.4 R (R its ``radius``) and 8 points just inside every
    boundary piece, all tested in one ``contains`` call."""
    pc = boundary_pieces(domain)
    rings = ((pc.radius * np.array([0.05, 0.1, 0.02, 0.2, 0.01, 0.4]))[:, None]
             * np.exp(1j * math.pi * np.arange(8) / 4.0))
    # each piece's parametrization at t + 1e-3 i: 1e-3 of its length to its
    # left (to first order, on an arc)
    t = (np.arange(8)[:, None] + 0.5) / 8.0 + 1e-3j
    segs = pc.seg_anchor + (pc.seg_lo + t * (pc.seg_hi - pc.seg_lo)) * pc.seg_dir
    arcs = pc.arc_center + pc.arc_radius * np.exp(1j * (pc.arc_start + t * pc.arc_sweep))
    candidates = np.concatenate([[0j], rings.ravel(), segs.ravel(), arcs.ravel()])
    feet = []
    for c in candidates[domain.contains(candidates)].tolist():
        if all(abs(c - f) > 1e-12 for f in feet):
            feet.append(c)
            if len(feet) == k:
                return feet
    raise ValueError(f"could not seed {k} interior vertical lines (found {len(feet)})")


def _solve_levels(domain, feet, targets, config):
    """Heights z with measure(foot, z) = target on every line, in lockstep.

    Each line's bracket grows from [1/4, 4] by factors of 4 until the level
    is crossed at both ends; then a root solve in log z.  Every round
    evaluates the steps of all lines still open in one call.  |z df/dz| <= 2
    (the kernel's z-derivative is at most 2/z times the kernel), so a log-z
    bracket of width ``config.tolerance`` pins the level to within that
    tolerance.
    """
    xy = np.array([(foot.real, foot.imag) for foot in feet])
    goal = np.asarray(targets, dtype=float)

    def levels(lines, zs):
        pts = np.column_stack([xy[lines], zs])
        return (measure_many(domain, pts, config).values - goal[lines]).tolist()

    # widen both ends of every line's bracket until g > 0 at z_lo, g < 0 at z_hi
    k = len(feet)
    z_lo, z_hi = [0.25] * k, [4.0] * k
    g_lo, g_hi = [None] * k, [None] * k
    for _ in range(60):
        low = [j for j in range(k) if g_lo[j] is None]
        high = [j for j in range(k) if g_hi[j] is None]
        if not low and not high:
            break
        vals = levels(low + high, [z_lo[j] for j in low] + [z_hi[j] for j in high])
        for j, g in zip(low, vals):
            if g > 0.0:
                g_lo[j] = g
            else:
                z_lo[j] /= 4.0
        for j, g in zip(high, vals[len(low):]):
            if g < 0.0:
                g_hi[j] = g
            else:
                z_hi[j] *= 4.0
    for foot, target, lo, hi in zip(feet, targets, g_lo, g_hi):
        if lo is None:
            raise ValueError(f"level {target} not bracketed from below on {foot}")
        if hi is None:
            raise ValueError(f"level {target} not bracketed from above on {foot}")
    us = _bracketed_roots(
        lambda lines, us: levels(lines, [math.exp(u) for u in us]),
        [(math.log(a), math.log(b), ga, gb)
         for a, b, ga, gb in zip(z_lo, z_hi, g_lo, g_hi)],
        config.tolerance)
    return [math.exp(u) for u in us]


def find_quantizable(domain: PlanarDomain, k: int, ell: int,
                     config_q: QuadratureConfig = QuadratureConfig(),
                     levels=None) -> PointConfiguration:
    """Construct k distinct points whose measure values sum to ``ell``.

    By default every point sits at the common level ell / k; ``levels`` may
    prescribe any other vector of k values in (0, 1) summing to ell.  Each
    point is found by a bracketed root solve in height along its own
    vertical line through an interior point of the boundary plane: the
    measure rises to 1 down the line and decays to 0 up it, so every level
    in (0, 1) is attained.  Distinct lines force distinct points.
    """
    if k < 2:
        raise ValueError("need k >= 2 (a single point is never quantizable)")
    if not 1 <= ell <= k - 1:
        raise ValueError(f"need 1 <= ell <= k-1, got ell={ell}")
    _bounded_radius(domain, "quantizable search")
    if levels is None:
        targets = [ell / k] * k
    else:
        targets = [float(t) for t in levels]
        if len(targets) != k:
            raise ValueError("need one level per point")
        if any(not 0.0 < t < 1.0 for t in targets):
            raise ValueError("levels must lie strictly in (0, 1)")
        if abs(math.fsum(targets) - ell) > 1e-12:
            raise ValueError(f"levels must sum to ell={ell}")
    tight = replace(config_q, tolerance=min(config_q.tolerance, 2.5e-10 / k))
    feet = _interior_feet(domain, k)
    points = tuple(H3Point(foot.real, foot.imag, z) for foot, z in
                   zip(feet, _solve_levels(domain, feet, targets, tight)))
    return PointConfiguration(points, f=measure_many(domain, points, tight))

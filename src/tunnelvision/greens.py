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
from dataclasses import dataclass

import numpy as np

from .domains import PlanarDomain
from .hyperbolic import (H3Point, apply_h3_batch, geodesic_point, h3_distance,
                         h3_distance_batch, MobiusMap)
from .measure import QuadratureConfig, harmonic_measure, measure_many

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
    """k distinct points with optional group and cached measure values."""

    points: tuple
    group: tuple | None = None
    f_values: tuple | None = None
    f_errors: tuple | None = None

    def __post_init__(self):
        pts = tuple(self.points)
        object.__setattr__(self, "points", pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if h3_distance(pts[i], pts[j]) <= 0.0:
                    raise ValueError("configuration points must be distinct")
        if self.f_values is not None:
            vals = tuple(float(v) for v in self.f_values)
            object.__setattr__(self, "f_values", vals)
            if len(vals) != len(pts):
                raise ValueError("one measure value per point required")
            if any(not 0.0 < v < 1.0 for v in vals):
                raise ValueError("measure values must lie strictly in (0, 1)")
        if self.group is not None:
            object.__setattr__(self, "group", tuple(self.group))

    def __len__(self):
        return len(self.points)

    def to_obj(self, ell: int | None = None, total: float | None = None):
        obj = {"points": [[p.x, p.y, p.z] for p in self.points]}
        if self.f_values is not None:
            obj["f"] = list(self.f_values)
        if ell is not None:
            obj["ell"] = ell
        if total is not None:
            obj["sum"] = total
        return obj


@dataclass(frozen=True)
class SeriesValue:
    """A truncated shell series: partial sum, shells used, tail estimate."""

    value: float
    shells_used: int
    tail_estimate: float
    shell_sums: tuple = ()


@dataclass(frozen=True)
class QuantizationResult:
    total: float
    ell: int
    is_quantizable: bool
    tol: float
    f_values: tuple
    f_errors: tuple


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


def _shell_sums(elements, pole: H3Point, q: H3Point):
    """Per-word-length sums of the Poincare series terms at q."""
    mats = np.array([el.map.matrix() for el in elements])
    lengths = np.array([el.word_length for el in elements])
    orbit = apply_h3_batch(mats, pole)
    d = h3_distance_batch(orbit, q)
    dmin = float(d.min())
    if dmin < _MIN_POLE_DISTANCE:
        raise PoleCollisionError(
            f"evaluation point within {dmin:.2e} of an orbit point")
    terms = 1.0 / np.expm1(2.0 * d)
    n_shells = int(lengths.max()) + 1
    return [math.fsum(terms[lengths == s]) for s in range(n_shells)]


def quotient_green(elements, pole_lift: H3Point, q: H3Point,
                   shells: int) -> SeriesValue:
    """Group-averaged Green's function, truncated at ``shells`` word length.

    The tail estimate extrapolates the last three shell sums geometrically
    (using the more pessimistic of the two consecutive ratios).  Raises
    NonConvergentSeriesError if the shell sums fail to decay, and
    PoleCollisionError if ``q`` is within 1e-8 of the truncated orbit.
    """
    if shells < 0:
        raise ValueError("shells must be >= 0")
    usable = [el for el in elements if el.word_length <= shells]
    if not usable:
        raise ValueError("no group elements within the shell bound")
    sums = _shell_sums(usable, pole_lift, q)
    value = math.fsum(sums)
    if len(sums) == 1:
        return SeriesValue(value, 0, 0.0, tuple(sums))
    if len(sums) < 3:
        return SeriesValue(value, len(sums) - 1, sums[-1], tuple(sums))
    r1 = sums[-2] / sums[-3] if sums[-3] > 0 else math.inf
    r2 = sums[-1] / sums[-2] if sums[-2] > 0 else math.inf
    ratio = max(r1, r2)
    if not ratio < 1.0:
        raise NonConvergentSeriesError(
            f"shell sums do not decay (ratio {ratio:.3f}); "
            "series truncation is meaningless here")
    tail = sums[-1] * ratio / (1.0 - ratio)
    return SeriesValue(value, len(sums) - 1, tail, tuple(sums))


def potential_V(config: PointConfiguration, q: H3Point, shells: int = 6) -> float:
    """The positive potential 1 + sum of pole Green's functions at q.

    With an attached group each pole contributes its quotient series; without
    one, the free-space Green's function.  Exceeds 1 everywhere and tends to
    1 far from all poles.
    """
    total = 1.0
    for p in config.points:
        if config.group:
            total += quotient_green(config.group, p, q, shells).value
        else:
            total += h3_green(p, q)
    return total


def quantization_sum(domain: PlanarDomain, config: PointConfiguration,
                     config_q: QuadratureConfig = QuadratureConfig(),
                     tol: float = 1e-8) -> QuantizationResult:
    """Sum the harmonic-measure values over the configuration and test integrality.

    Quantizable means the sum is within ``tol`` of an integer ell with
    0 < ell < k.  A single point can never be quantizable: its value lies
    strictly between 0 and 1.
    """
    if config.f_values is not None:
        values = list(config.f_values)
        errors = list(config.f_errors or (0.0,) * len(values))
    else:
        mvs = measure_many(domain, config.points, config_q)
        values = [mv.value for mv in mvs]
        errors = [mv.error for mv in mvs]
    total = math.fsum(values)
    ell = round(total)
    quantizable = abs(total - ell) < tol and 0 < ell < len(config.points)
    return QuantizationResult(total=total, ell=int(ell),
                              is_quantizable=bool(quantizable), tol=tol,
                              f_values=tuple(values), f_errors=tuple(errors))


def _interior_feet(domain: PlanarDomain, k: int) -> list[complex]:
    """k distinct interior boundary-plane points near the origin's neighborhood."""
    r = domain.bounding_radius
    scale = r if math.isfinite(r) else 1.0
    candidates = [0j]
    for frac in (0.05, 0.1, 0.02, 0.2, 0.01, 0.4):
        for j in range(8):
            candidates.append(scale * frac * np.exp(1j * math.pi * j / 4.0))
    feet = []
    for c in candidates:
        if bool(domain.contains(c)) and all(abs(c - f) > 1e-12 for f in feet):
            feet.append(complex(c))
            if len(feet) == k:
                return feet
    raise ValueError(f"could not seed {k} interior vertical lines "
                     f"(found {len(feet)}); domain too thin near 0?")


def _bisect_level(domain, foot, target, config):
    """Solve measure(foot, z) = target in z by bracketing and bisection."""
    def f(z):
        return harmonic_measure(domain, H3Point(foot.real, foot.imag, z),
                                config).value

    z_lo, z_hi = 0.25, 4.0
    for _ in range(60):
        if f(z_lo) > target:
            break
        z_lo /= 4.0
    else:
        raise ValueError(f"level {target} not bracketed from below on {foot}")
    for _ in range(60):
        if f(z_hi) < target:
            break
        z_hi *= 4.0
    else:
        raise ValueError(f"level {target} not bracketed from above on {foot}")
    for _ in range(200):
        z_mid = math.sqrt(z_lo * z_hi)
        fm = f(z_mid)
        if abs(fm - target) < 0.25 * config.tolerance:
            return z_mid
        if fm > target:
            z_lo = z_mid
        else:
            z_hi = z_mid
        if z_hi / z_lo < 1.0 + 1e-15:
            return z_mid
    return math.sqrt(z_lo * z_hi)


def find_quantizable(domain: PlanarDomain, k: int, ell: int,
                     config_q: QuadratureConfig = QuadratureConfig(),
                     levels=None) -> PointConfiguration:
    """Construct k distinct points whose measure values sum to ``ell``.

    By default every point sits at the common level ell / k; ``levels`` may
    prescribe any other vector of k values in (0, 1) summing to ell.  Each
    point is found by bisection in height along its own vertical line
    through an interior point of the boundary plane: the measure rises to 1
    down the line and decays to 0 up it, so every level in (0, 1) is
    attained.  Distinct lines force distinct points.
    """
    if k < 2:
        raise ValueError("need k >= 2 (a single point is never quantizable)")
    if not 1 <= ell <= k - 1:
        raise ValueError(f"need 1 <= ell <= k-1, got ell={ell}")
    if not math.isfinite(domain.bounding_radius):
        raise ValueError("quantizable search requires a bounded domain")
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
    tight = QuadratureConfig(
        tolerance=min(config_q.tolerance, 2.5e-10 / k),
        max_depth=config_q.max_depth, cutoff=config_q.cutoff)
    points = tuple(H3Point(foot.real, foot.imag,
                           _bisect_level(domain, foot, target, tight))
                   for foot, target in zip(_interior_feet(domain, k), targets))
    mvs = measure_many(domain, points, tight)
    return PointConfiguration(points=points,
                              f_values=tuple(mv.value for mv in mvs),
                              f_errors=tuple(mv.error for mv in mvs))
